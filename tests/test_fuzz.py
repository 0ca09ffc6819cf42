"""Byte-level fuzz of every CLI input against the command-line contract.

Seeded mutations (bit flips, truncation, inserted bytes, a duplicated slice)
of a tiny trained checkpoint, a data CSV, a forecast window and a written
``config.txt`` go through ``forecast``, ``export-attention``, ``eval`` and
``train``, in process. Every case must exit 0, 1 or 2; print nothing on
stderr on 0 and exactly one line otherwise; raise nothing out of ``main``
(the CLI's traceback); and leave no ``*.tmp`` file behind. A warning counts
as the lines the CLI would print for it, and a file left open as the
``ResourceWarning`` its release raises.
"""

import contextlib
import csv
import io
import traceback
import warnings

import numpy as np
import pytest

from gridcast.cli import main
from gridcast.data import synthetic_sines

SEED = 2024

TINY = {"T": 16, "F": 4, "P": 4, "S": 4, "D": 4, "H": 2, "L": 2, "D_ff": 8}
# a mutated config.txt is trained with these after it, so no mutation can ask
# for a large model or a long run
PINNED = [arg for k, v in TINY.items() for arg in ("--set", f"model.{k}={v}")] + [
    "--set", "train.max_epochs=1",
]

MUTATIONS = ("flip", "truncate", "insert", "duplicate")

# (command, mutated input, cases); each case cycles through MUTATIONS
CASES = [
    ("forecast", "checkpoint", 40),
    ("forecast", "window", 32),
    ("export-attention", "checkpoint", 16),
    ("export-attention", "window", 16),
    ("eval", "checkpoint", 20),
    ("eval", "data", 24),
    ("eval", "config", 32),
    ("train", "data", 4),
    ("train", "config", 4),
]


def mutate(raw: bytes, kind: str, rng: np.random.Generator) -> bytes:
    at = int(rng.integers(len(raw) + 1))
    if kind == "flip":
        out = bytearray(raw)
        for i in rng.integers(len(raw), size=int(rng.integers(1, 5))):
            out[i] ^= 1 << int(rng.integers(8))
        return bytes(out)
    if kind == "truncate":
        return raw[:at]
    if kind == "insert":
        return raw[:at] + rng.bytes(int(rng.integers(1, 9))) + raw[at:]
    end = min(len(raw), at + int(rng.integers(1, 65)))  # "duplicate"
    return raw[:end] + raw[at:end] + raw[end:]


def _write_rows(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The clean bytes of each input kind, and the paths a case reads unmutated."""
    root = tmp_path_factory.mktemp("fuzz")
    ds = synthetic_sines(160, n_variates=3, seed=0)
    data, window, out = root / "data.csv", root / "window.csv", root / "run"
    _write_rows(data, [["a", "b", "c"], *([repr(float(v)) for v in row] for row in ds.values)])
    _write_rows(window, [[repr(float(v)) for v in row] for row in ds.values[:TINY["T"]]])
    argv = ["train", "--data", str(data), "--out", str(out), *PINNED]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    paths = {
        "checkpoint": out / "model_F4.ckpt",
        "window": window,
        "data": data,
        "config": out / "config.txt",
    }
    return {kind: (path, path.read_bytes()) for kind, path in paths.items()}


def _argv(command, kind, case, inputs):
    """The command line of one case: the mutated ``kind`` file in ``case``
    and the clean files elsewhere, with every output inside ``case``."""
    path = {k: str(case / "input" if k == kind else p) for k, (p, _) in inputs.items()}
    data = [] if kind == "config" else ["--data", path["data"]]  # else the config's data.path
    window = ["--checkpoint", path["checkpoint"], "--window", path["window"]]
    return {
        "forecast": ["forecast", *window, "--out-file", str(case / "forecast.csv")],
        "export-attention": ["export-attention", *window, "--out-dir", str(case / "maps")],
        "eval": [
            "eval", "--config", path["config"], "--checkpoint", path["checkpoint"], *data,
            "--persistence", "--out-file", str(case / "metrics.csv"),
        ],
        "train": ["train", "--config", path["config"], *data, "--out", str(case / "run"), *PINNED],
    }[command]


def _run(argv):
    """(exit code, stderr as the CLI would print it) of ``main(argv)``. A file
    the command left open counts as the ``ResourceWarning`` its release
    raises, which ``python -X dev`` prints."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except (Exception, SystemExit):
                code = None
                err.write(traceback.format_exc())
    printed = [warnings.formatwarning(w.message, w.category, w.filename, w.lineno) for w in caught]
    return code, "".join(printed) + err.getvalue()


def _breach(code, err, case) -> str:
    """How one case breaks the contract, or "" if it keeps it."""
    if code not in (0, 1, 2) or "Traceback" in err:
        return f"exit {code}: {err!r}"
    if code == 0 and err:
        return f"exit 0 with stderr {err!r}"
    if code != 0 and (err.count("\n") != 1 or not err.startswith("error: ")):
        return f"exit {code} with stderr {err!r}"
    left = sorted(str(p.relative_to(case)) for p in case.rglob("*.tmp"))
    return f"exit {code} left {left}" if left else ""


@pytest.mark.parametrize("command,kind,cases", CASES, ids=[f"{c}-{k}" for c, k, _ in CASES])
def test_every_mutated_input_keeps_the_cli_contract(command, kind, cases, inputs, tmp_path):
    _, raw = inputs[kind]
    breaches, codes = [], set()
    for i in range(cases):
        mutation = MUTATIONS[i % len(MUTATIONS)]
        rng = np.random.default_rng([SEED, CASES.index((command, kind, cases)), i])
        case = tmp_path / f"case{i}"
        case.mkdir()
        (case / "input").write_bytes(mutate(raw, mutation, rng))
        code, err = _run(_argv(command, kind, case, inputs))
        codes.add(code)
        breach = _breach(code, err, case)
        if breach:
            breaches.append(f"case {i} ({mutation}): {breach}")
    assert not breaches, "\n".join(breaches)
    assert codes - {0}, "no mutation was rejected; the cases do not reach the checks"
