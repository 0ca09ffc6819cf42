"""Property round-trips through the three file formats a run writes and reads
back: the data CSV, the flat run config and the checkpoint.

Each draws its cases with hypothesis, derandomized so every run of the suite
tries the same ones, and writes no example database.
"""

import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import gridcast
from gridcast.attention import MODES
from gridcast.config import RunConfig, parse_run_config, serialize_run_config, set_key
from gridcast.data import load_csv
from gridcast.errors import ConfigError
from gridcast.model import (
    ModelConfig,
    build,
    forward,
    load_checkpoint,
    save_checkpoint,
    state_arrays,
    write_csv,
)

PROPERTY = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


# -- CSV: write_csv -> load_csv ----------------------------------------------


@st.composite
def named_matrices(draw):
    values = draw(
        arrays(
            np.float64,
            array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
            elements=st.floats(allow_nan=False, allow_infinity=False),
        )
    )
    names = draw(
        st.lists(
            st.text(max_size=6).filter(lambda t: not _is_number(t)),
            min_size=values.shape[1],
            max_size=values.shape[1],
        )
    )
    return names, values


@PROPERTY
@given(named_matrices())
@example((["é", "x,\"y\"\r\n"], np.array([[-0.0, 5e-324], [1e308, -1e308]])))
def test_csv_written_by_write_csv_loads_bit_for_bit(case):
    names, values = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        write_csv(path, [names, *values.tolist()])
        loaded = load_csv(path).values
    assert loaded.shape == values.shape
    assert loaded.tobytes() == values.tobytes()  # -0.0 keeps its sign


def test_text_artifacts_are_utf8_in_an_ascii_locale(tmp_path):
    # every reader decodes UTF-8; a writer in the locale's encoding failed on
    # a non-ASCII name under LC_ALL=C with UTF-8 mode off
    path = tmp_path / "names.csv"
    src = os.path.dirname(os.path.dirname(os.path.abspath(gridcast.__file__)))
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONPATH": src}
    code = f"import gridcast.model as m; m.write_csv(r'{path}', [['temp\\xe9rature'], [1.5]])"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
    assert path.read_bytes() == "température\r\n1.5\r\n".encode()


# -- run config: set_key -> serialize_run_config -> parse_run_config ---------


def _keys_and_kinds() -> list:
    """Every config file key and the type of its default value."""
    default = RunConfig()
    out = []
    for line in serialize_run_config(default).splitlines():
        key = line.partition(" = ")[0]
        section, _, name = key.partition(".")
        if section in ("model", "train"):
            value = getattr(default, section)[name]
        else:
            value = getattr(default, key.replace(".", "_"))
        out.append((key, type(value)))
    return out


RAW_TEXT = {
    bool: st.sampled_from(["true", "false", "1", "0", "yes", "no", "TRUE", " No "]),
    int: st.one_of(st.integers().map(str), st.sampled_from(["+7", " 12 ", "1_000", "-0"])),
    float: st.one_of(
        st.floats(allow_nan=False).map(repr),
        st.sampled_from(["1e-3", "3", "-0.0", " 2.5 ", "inf", "1_0.5"]),
    ),
    str: st.text(max_size=12),
}
SETTINGS = st.lists(
    st.sampled_from(_keys_and_kinds()).flatmap(
        lambda kk: st.tuples(st.just(kk[0]), RAW_TEXT[kk[1]])
    ),
    max_size=12,
)


@PROPERTY
@given(SETTINGS)
@example([("data.name", "two\nlines"), ("data.path", "a\x1cb")])
def test_run_config_set_by_keys_survives_serialize_and_parse(items):
    # set_key is how every --set, --sweep and config file value enters
    run = RunConfig()
    for key, raw in items:
        try:
            set_key(run, key, raw)
        except ConfigError:
            continue
    text = serialize_run_config(run)
    assert parse_run_config(text) == run
    assert serialize_run_config(parse_run_config(text)) == text


# -- checkpoint: save_checkpoint -> load_checkpoint --------------------------


@st.composite
def model_configs(draw, mode):
    P = draw(st.integers(1, 6))
    H = draw(st.integers(1, 3))
    return ModelConfig(
        T=draw(st.integers(max(P, 2), 20)),
        F=draw(st.integers(1, 5)),
        P=P,
        S=draw(st.integers(1, P)),
        D=H * draw(st.integers(1, 3)),
        H=H,
        L=draw(st.integers(1, 3)),
        D_ff=draw(st.integers(1, 8)),
        dropout=draw(st.sampled_from([0.0, 0.2])),
        mode=mode,
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@pytest.mark.parametrize("mode", MODES)
@settings(PROPERTY, max_examples=10)
@given(st.data(), st.booleans(), st.integers(1, 4))
def test_checkpoint_loads_bit_for_bit(mode, data, with_statistics, N):
    cfg = data.draw(model_configs(mode))
    params = build(cfg)
    if with_statistics:
        r = np.random.default_rng(cfg.seed)
        forward(r.normal(size=(2, cfg.T, N)), params, cfg, training=True, rng=r)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.ckpt")
        save_checkpoint(path, params, cfg)
        loaded, loaded_cfg = load_checkpoint(path)
    assert loaded_cfg == cfg
    saved, restored = state_arrays(params), state_arrays(loaded)
    assert list(restored) == list(saved)
    assert (len(saved) > len(params.named_parameters())) == with_statistics
    for key, array in saved.items():
        assert restored[key].shape == array.shape, key
        assert restored[key].tobytes() == array.tobytes(), key
