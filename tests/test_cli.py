import csv
import ctypes
import errno
import json
import os
import platform
import subprocess
import sys
import types

import numpy as np
import pytest

import gridcast
from gridcast.cli import RESULTS_HEADER, main
import gridcast.model
from gridcast.config import RunConfig, load_run_config, save_run_config
from gridcast.data import VariateStats, save_stats, synthetic_long_memory, synthetic_sines
from gridcast.model import (
    ModelConfig,
    build,
    export_attention,
    forward,
    load_checkpoint,
    save_checkpoint,
)
from gridcast.tensor import Tensor, no_grad


def write_dataset_csv(path, ds, header=True):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if header:
            writer.writerow([f"v{i}" for i in range(ds.channels)])
        for row in ds.values:
            writer.writerow([repr(float(v)) for v in row])


BASE_CFG = """\
data.path = {data}
data.split = 6:2:2
model.T = 24
model.F = 8
model.P = 8
model.S = 4
model.D = 8
model.H = 2
model.L = 2
model.D_ff = 16
model.dropout = 0.0
train.lr = 0.001
train.batch_size = 32
train.max_epochs = 2
train.patience = 5
out.dir = {out}
seed = 3
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "sines.csv"
    write_dataset_csv(data, synthetic_sines(700, n_variates=4, period=48, seed=0))
    cfg = root / "run.cfg"
    out = root / "run"
    cfg.write_text(BASE_CFG.format(data=data, out=out))
    code = main(["train", "--config", str(cfg)])
    assert code == 0
    return {"root": root, "data": data, "cfg": cfg, "out": out}


def read_results(path):
    with open(path) as fh:
        return list(csv.reader(fh))


# -- train -------------------------------------------------------------------


def test_train_artifacts(workspace):
    out = workspace["out"]
    rows = read_results(out / "results.csv")
    assert rows[0] == RESULTS_HEADER
    assert len(rows) == 2
    row = dict(zip(RESULTS_HEADER, rows[1]))
    assert row["dataset"] == "sines.csv"
    assert (row["T"], row["F"]) == ("24", "8")
    assert row["mode"] == "alternate" and row["seed"] == "3"
    assert float(row["mse"]) > 0 and float(row["wall_s"]) > 0
    assert (out / "model_F8.ckpt").exists()
    assert (out / "train_stats.csv").exists()
    lines = [json.loads(l) for l in (out / "epochs_F8.jsonl").read_text().splitlines()]
    assert len(lines) == 2 and lines[1]["epoch"] == 1
    for line in lines:
        for key in ("cpu_s", "sys_s", "minor_faults"):
            assert line[key] >= 0, key
        assert line["peak_rss_mb"] > 0
        assert line["step_ms_p50"] > 0 and line["windows_per_s"] > 0
        assert 0 < line["grad_norm_p50"] <= line["grad_norm_max"]
        assert 0.0 <= line["clipped_frac"] <= 1.0
    report = json.loads((out / "report_F8.json").read_text())
    assert report["epochs_run"] == 2
    snapshot = load_run_config(out / "config.txt")
    assert snapshot.data_path == str(workspace["data"])
    assert snapshot.model["T"] == 24 and snapshot.seed == 3


def test_train_missing_dataset(tmp_path, capsys):
    code = main(["train", "--data", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "absent.csv" in capsys.readouterr().err


def test_train_model_n_other_than_the_data_width_exits_2_first(workspace, tmp_path, capsys):
    out = tmp_path / "o"
    code = main(["train", "--config", str(workspace["cfg"]), "--out", str(out),
                 "--set", "model.N=5"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "model.N = 5" in err and err.count("\n") == 1
    assert not out.exists()


def test_train_rerun_is_identical_apart_from_timing(workspace, tmp_path):
    out2 = tmp_path / "rerun"
    code = main(["train", "--config", str(workspace["cfg"]), "--out", str(out2)])
    assert code == 0
    first = read_results(workspace["out"] / "results.csv")[1]
    second = read_results(out2 / "results.csv")[1]
    wall_col = RESULTS_HEADER.index("wall_s")
    for i, (a, b) in enumerate(zip(first, second)):
        if i != wall_col:
            assert a == b
    report_a = json.loads((workspace["out"] / "report_F8.json").read_text())
    report_b = json.loads((out2 / "report_F8.json").read_text())
    for key in ("train_loss", "val_mse", "val_mae", "test_mse", "test_mae", "best_epoch"):
        assert report_a[key] == report_b[key]


def test_train_horizon_sweep(workspace, tmp_path):
    out = tmp_path / "sweep_f"
    code = main(
        [
            "train", "--config", str(workspace["cfg"]), "--out", str(out),
            "--set", "train.max_epochs=1", "--horizon-sweep", "8,4",
        ]
    )
    assert code == 0
    rows = read_results(out / "results.csv")
    assert [r[RESULTS_HEADER.index("F")] for r in rows[1:]] == ["8", "4"]
    assert (out / "model_F8.ckpt").exists() and (out / "model_F4.ckpt").exists()


def test_set_overrides_reach_snapshot(workspace, tmp_path):
    out = tmp_path / "ovr"
    code = main(
        [
            "train", "--config", str(workspace["cfg"]), "--out", str(out),
            "--set", "train.max_epochs=1", "--set", "model.mode=time_first",
        ]
    )
    assert code == 0
    snap = load_run_config(out / "config.txt")
    assert snap.model["mode"] == "time_first" and snap.train["max_epochs"] == 1
    rows = read_results(out / "results.csv")
    assert rows[1][RESULTS_HEADER.index("mode")] == "time_first"


# -- eval --------------------------------------------------------------------


def test_eval_reproduces_training_metrics(workspace, capsys):
    code = main(
        [
            "eval", "--config", str(workspace["cfg"]),
            "--checkpoint", str(workspace["out"] / "model_F8.ckpt"),
        ]
    )
    assert code == 0
    out_lines = capsys.readouterr().out.strip().splitlines()
    eval_row = dict(zip(RESULTS_HEADER, next(csv.reader([out_lines[1]]))))
    train_row = dict(zip(RESULTS_HEADER, read_results(workspace["out"] / "results.csv")[1]))
    assert eval_row["mse"] == train_row["mse"]  # full-precision repr match
    assert eval_row["mae"] == train_row["mae"]


def test_eval_persistence_flag(workspace, tmp_path, capsys):
    out_file = tmp_path / "metrics.csv"
    code = main(
        [
            "eval", "--config", str(workspace["cfg"]),
            "--checkpoint", str(workspace["out"] / "model_F8.ckpt"),
            "--persistence", "--out-file", str(out_file),
        ]
    )
    assert code == 0
    rows = read_results(out_file)
    assert len(rows) == 3
    assert rows[2][RESULTS_HEADER.index("mode")] == "persistence"
    from gridcast.data import SplitSpec, chronological_split, load_csv, standardize
    from gridcast.train import persistence_baseline

    ds = load_csv(workspace["data"])
    tr, va, te = chronological_split(ds, SplitSpec(6, 2, 2))
    _, _, te_s, _ = standardize(tr, va, te)
    p_mse, _ = persistence_baseline(te_s, 24, 8)
    assert float(rows[2][RESULTS_HEADER.index("mse")]) == p_mse


def test_eval_wrong_variate_count(workspace, tmp_path, capsys):
    narrow = tmp_path / "narrow.csv"
    write_dataset_csv(narrow, synthetic_sines(700, n_variates=2, seed=1))
    code = main(
        [
            "eval", "--config", str(workspace["cfg"]), "--data", str(narrow),
            "--checkpoint", str(workspace["out"] / "model_F8.ckpt"),
        ]
    )
    assert code == 2
    assert "variates" in capsys.readouterr().err


# -- forecast ----------------------------------------------------------------


def window_csv(workspace, tmp_path, rows=24, name="window.csv"):
    ds = synthetic_sines(700, n_variates=4, period=48, seed=0)
    path = tmp_path / name
    write_dataset_csv(path, type(ds)(ds.name, ds.values[100 : 100 + rows]), header=False)
    return path, ds.values[100 : 100 + rows]


def test_forecast_matches_forward_bit_exactly(workspace, tmp_path, capsys):
    path, window = window_csv(workspace, tmp_path)
    out_file = tmp_path / "forecast.csv"
    code = main(
        [
            "forecast", "--checkpoint", str(workspace["out"] / "model_F8.ckpt"),
            "--window", str(path), "--out-file", str(out_file),
        ]
    )
    assert code == 0
    got = np.array([[float(v) for v in row] for row in read_results(out_file)])
    assert got.shape == (8, 4)
    params, cfg = load_checkpoint(workspace["out"] / "model_F8.ckpt")
    with no_grad():
        pred, _ = forward(window[None], params, cfg)
    assert (got == pred.data[0]).all()


def test_forecast_constant_window_head_zero(tmp_path):
    cfg = ModelConfig(T=24, F=8, N=2, P=8, S=4, D=8, H=2, L=2, D_ff=16, dropout=0.0)
    params = build(cfg)
    params.head_w = Tensor(np.zeros(params.head_w.shape))
    params.head_b = Tensor(np.zeros(params.head_b.shape))
    ckpt = tmp_path / "zero.ckpt"
    save_checkpoint(ckpt, params, cfg)
    window = tmp_path / "const.csv"
    with open(window, "w", newline="") as fh:
        writer = csv.writer(fh)
        for _ in range(24):
            writer.writerow(["5.0", "-2.0"])
    out_file = tmp_path / "fc.csv"
    assert main(["forecast", "--checkpoint", str(ckpt), "--window", str(window), "--out-file", str(out_file)]) == 0
    got = np.array([[float(v) for v in row] for row in read_results(out_file)])
    np.testing.assert_allclose(got, np.tile([5.0, -2.0], (8, 1)), atol=1e-9)


def test_forecast_wrong_window_shape(workspace, tmp_path, capsys):
    path, _ = window_csv(workspace, tmp_path, rows=20, name="short.csv")
    code = main(
        [
            "forecast", "--checkpoint", str(workspace["out"] / "model_F8.ckpt"),
            "--window", str(path),
        ]
    )
    assert code == 2
    assert "rows" in capsys.readouterr().err


def test_eval_truncated_checkpoint_is_one_line_error(workspace, tmp_path, capsys):
    ckpt = tmp_path / "cut.ckpt"
    data = (workspace["out"] / "model_F8.ckpt").read_bytes()
    ckpt.write_bytes(data[: len(data) // 2])
    code = main(["eval", "--config", str(workspace["cfg"]), "--checkpoint", str(ckpt)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "cut.ckpt" in err
    assert err.count("\n") == 1


# -- export-attention --------------------------------------------------------


def test_export_attention_files(workspace, tmp_path, capsys):
    path, _ = window_csv(workspace, tmp_path)
    out_dir = tmp_path / "maps"
    code = main(
        [
            "export-attention", "--checkpoint", str(workspace["out"] / "model_F8.ckpt"),
            "--window", str(path), "--out-dir", str(out_dir),
        ]
    )
    assert code == 0
    files = sorted(os.listdir(out_dir))
    assert files == ["attention_layer0_horizontal.csv", "attention_layer1_vertical.csv"]
    for name in files:
        rows = read_results(out_dir / name)
        assert rows[0] == ["row_index", "col_index", "weight"]
        size = int(rows[-1][0]) + 1
        weights = np.zeros((size, size))
        for r, c, w in rows[1:]:
            weights[int(r), int(c)] = float(w)
        np.testing.assert_allclose(weights.sum(axis=1), np.ones(size), atol=1e-6)


def test_export_attention_single_head_raw_map(tmp_path):
    cfg = ModelConfig(T=24, F=8, N=3, P=8, S=4, D=8, H=1, L=1, D_ff=16, dropout=0.0, mode="time_first")
    params = build(cfg)
    ckpt = tmp_path / "one_head.ckpt"
    save_checkpoint(ckpt, params, cfg)
    window_vals = np.random.default_rng(4).normal(size=(24, 3))
    window = tmp_path / "w.csv"
    with open(window, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in window_vals:
            writer.writerow([repr(float(v)) for v in row])
    out_dir = tmp_path / "maps"
    assert main(["export-attention", "--checkpoint", str(ckpt), "--window", str(window), "--out-dir", str(out_dir)]) == 0
    with no_grad():
        _, maps = forward(window_vals[None], params, cfg, capture_attention=True)
    rows = read_results(out_dir / "attention_layer0_horizontal.csv")
    M = maps[0].weights.shape[0]
    got = np.zeros((M, M))
    for r, c, w in rows[1:]:
        got[int(r), int(c)] = float(w)
    assert (got == maps[0].weights).all()  # repr round-trips exactly


# -- lookback sweep ----------------------------------------------------------


def test_lookback_sweep_rows_and_patch_counts(workspace, tmp_path):
    out = tmp_path / "sweep"
    code = main(
        [
            "lookback-sweep", "--config", str(workspace["cfg"]), "--out", str(out),
            "--set", "train.max_epochs=1", "--lengths", "24,32",
        ]
    )
    assert code == 0
    rows = read_results(out / "sweep.csv")
    assert rows[0] == RESULTS_HEADER + ["M"]
    assert [r[RESULTS_HEADER.index("T")] for r in rows[1:]] == ["24", "32"]
    # M recomputed per row from (T, P=8, S=4)
    assert [r[-1] for r in rows[1:]] == ["6", "8"]
    assert (out / "model_T24.ckpt").exists() and (out / "model_T32.ckpt").exists()
    assert (out / "config_T32.txt").exists()
    # the same per-model artifacts as train, tagged by lookback
    for T, row in zip((24, 32), rows[1:]):
        report = json.loads((out / f"report_T{T}.json").read_text())
        assert repr(float(report["test_mse"])) == row[RESULTS_HEADER.index("mse")]
        lines = (out / f"epochs_T{T}.jsonl").read_text().splitlines()
        assert len(lines) == report["epochs_run"] == 1


def test_lookback_sweep_longer_context_wins_on_long_memory_series(tmp_path):
    # Series whose level pattern repeats every 200 steps: a 336-step window
    # always contains one full cycle, a 96-step window often misses the part
    # that disambiguates the upcoming level, so the longer lookback must score
    # a clearly lower test MSE.
    data = tmp_path / "long_memory.csv"
    write_dataset_csv(data, synthetic_long_memory(3000, n_variates=2, period=200, knots=8, noise=0.05, seed=7))
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "sweep"
    cfg.write_text(
        f"data.path = {data}\n"
        "data.split = 6:2:2\n"
        "model.F = 24\n"
        "model.dropout = 0.0\n"
        "train.lr = 0.003\n"
        "train.batch_size = 64\n"
        "train.max_epochs = 3\n"
        f"out.dir = {out}\n"
        "seed = 0\n"
    )
    code = main(["lookback-sweep", "--config", str(cfg), "--lengths", "96,336"])
    assert code == 0
    rows = read_results(out / "sweep.csv")
    mse = {r[RESULTS_HEADER.index("T")]: float(r[RESULTS_HEADER.index("mse")]) for r in rows[1:]}
    assert mse["336"] < mse["96"]


def test_lookback_sweep_rejects_short_length(workspace, tmp_path, capsys):
    code = main(
        [
            "lookback-sweep", "--config", str(workspace["cfg"]),
            "--out", str(tmp_path / "s"), "--lengths", "4,24",
        ]
    )
    assert code == 2
    assert "patch length" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,named",
    [
        (["train", "--horizon-sweep", "8,x"], "--horizon-sweep"),
        (["lookback-sweep", "--lengths", "32,x"], "--lengths"),
        (["train", "--set", "train.batch_size=0"], "train.batch_size"),
        (["train", "--set", "train.batch_size=-1"], "train.batch_size"),
        (["train", "--set", "train.clip_norm=-1"], "train.clip_norm"),
        (["train", "--set", "train.lr=-0.003"], "train.lr"),
        (["train", "--set", "train.max_epochs=0"], "train.max_epochs"),
        (["train", "--set", "data.split=6:2:0"], "split ratios"),
        (["train", "--set", "model.H=3"], "H=3"),
        (["train", "--set", "model.mode=bogus"], "mode='bogus'"),
        (["train", "--set", "model.T=8"], "T=8"),
        (["train", "--set", "train.variate_ratio=0"], "train.variate_ratio"),
        (["train", "--set", "train.variate_ratio=1.5"], "train.variate_ratio"),
        (["train", "--horizon-sweep", "8,0"], "F must be >= 1"),
        (["lookback-sweep", "--lengths", "24,4"], "shorter than patch length"),
        (["lookback-sweep", "--lengths", "24", "--set", "model.H=3"], "H=3"),
    ],
)
def test_malformed_setting_is_one_line_usage_error(argv, named, workspace, tmp_path, capsys):
    # the default model settings (P=16, D=16), so each case is bad at one setting
    out = tmp_path / "o"
    command, *rest = argv
    capsys.readouterr()
    code = main([command, "--data", str(workspace["data"]), "--out", str(out), *rest])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err
    assert not out.exists() or not any(out.iterdir())  # nothing written before the check


# -- output paths and atomic writes ------------------------------------------


@pytest.mark.parametrize("command", ["train", "forecast", "eval", "export-attention"])
def test_output_path_of_the_wrong_kind_is_one_line_usage_error(
    command, workspace, tmp_path, capsys
):
    a_file, a_dir = tmp_path / "taken.txt", tmp_path / "taken_dir"
    a_file.write_text("keep\n")
    a_dir.mkdir()
    checkpoint = str(workspace["out"] / "model_F8.ckpt")
    window, _ = window_csv(workspace, tmp_path)
    argv = {
        "train": ["train", "--config", str(workspace["cfg"]), "--out", str(a_file)],
        "forecast": [
            "forecast", "--checkpoint", checkpoint, "--window", str(window),
            "--out-file", str(a_dir),
        ],
        "eval": [
            "eval", "--config", str(workspace["cfg"]), "--checkpoint", checkpoint,
            "--out-file", str(a_dir),
        ],
        "export-attention": [
            "export-attention", "--checkpoint", checkpoint, "--window", str(window),
            "--out-dir", str(a_file),
        ],
    }[command]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert a_file.read_text() == "keep\n" and os.listdir(a_dir) == []


class _FailsHalfway:
    """A file that takes half of the first text it is given, then reports a
    full disk."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, text):
        self._fh.write(text[: len(text) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()
        return False


def _files(directory):
    return {name: (directory / name).read_bytes() for name in sorted(os.listdir(directory))}


@pytest.mark.parametrize(
    "writer", ["forecast --out-file", "save_stats", "save_run_config", "export_attention"]
)
def test_failed_write_leaves_old_artifact_and_no_temp_file(
    writer, workspace, monkeypatch, tmp_path, capsys
):
    out = tmp_path / "out"
    out.mkdir()
    checkpoint = str(workspace["out"] / "model_F8.ckpt")
    window, values = window_csv(workspace, tmp_path)

    def write():
        if writer == "forecast --out-file":
            argv = ["forecast", "--checkpoint", checkpoint, "--window", str(window)]
            return main(argv + ["--out-file", str(out / "forecast.csv")])
        if writer == "save_stats":
            save_stats(VariateStats(mean=np.arange(3.0), std=np.ones(3)), out / "stats.csv")
        elif writer == "save_run_config":
            save_run_config(RunConfig(), out / "config.txt")
        else:
            params, cfg = load_checkpoint(checkpoint)
            with no_grad():
                _, maps = forward(values[None], params, cfg, capture_attention=True)
            export_attention(maps, out)
        return 0

    assert write() == 0
    before = _files(out)
    real_open = open
    monkeypatch.setattr(
        gridcast.model, "open", lambda *a, **k: _FailsHalfway(real_open(*a, **k)), raising=False
    )
    capsys.readouterr()
    if writer == "forecast --out-file":
        assert write() == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        with pytest.raises(OSError):
            write()
    assert _files(out) == before


# -- allocator settings ------------------------------------------------------

FAULTS_AFTER_MAIN = """
import resource, sys
import numpy as np
from gridcast.cli import main

assert main(["eval", "--checkpoint", sys.argv[1]]) == 2
n = 64 * 2**20 // 8
np.ones(n)  # the first cycle maps and touches the pages
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    np.ones(n)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="mallopt thresholds are glibc-specific",
)
def test_main_keeps_freed_memory_mapped(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(gridcast.__file__)))
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    env["PYTHONPATH"] = src
    proc = subprocess.run(
        [sys.executable, "-c", FAULTS_AFTER_MAIN, str(tmp_path / "absent.ckpt")],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert int(proc.stdout.split()[-1]) < 100


def test_main_runs_without_a_c_library(workspace, monkeypatch, tmp_path):
    def no_library(name):
        raise OSError("cannot load the C library")

    monkeypatch.setattr(ctypes, "CDLL", no_library)
    path, _ = window_csv(workspace, tmp_path)
    checkpoint = str(workspace["out"] / "model_F8.ckpt")
    assert main(["forecast", "--checkpoint", checkpoint, "--window", str(path)]) == 0


def test_main_leaves_trim_threshold_when_mallopt_rejects(workspace, monkeypatch, tmp_path):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 0

    monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
    path, _ = window_csv(workspace, tmp_path)
    checkpoint = str(workspace["out"] / "model_F8.ckpt")
    assert main(["forecast", "--checkpoint", checkpoint, "--window", str(path)]) == 0
    assert calls == [(-3, 1 << 30)]  # M_MMAP_THRESHOLD only


# -- argparse plumbing -------------------------------------------------------


def test_no_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 2
