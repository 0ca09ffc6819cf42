import csv
import ctypes
import errno
import io
import json
import os
import platform
import struct
import subprocess
import sys
import types
import zipfile

import numpy as np
import pytest

import oracles
import gridcast
from gridcast.cli import RESULTS_HEADER, main
import gridcast.model
from gridcast.config import RunConfig, load_run_config, save_run_config
from gridcast.data import VariateStats, save_stats, synthetic_sines
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


def sweep(workspace, out, setting):
    """``train --sweep setting`` on the workspace config for one epoch; the
    rows of the results.csv it wrote."""
    argv = ["train", "--config", str(workspace["cfg"]), "--out", str(out)]
    assert main(argv + ["--set", "train.max_epochs=1", "--sweep", setting]) == 0
    return read_results(out / "results.csv")


def test_train_horizon_sweep(workspace, tmp_path):
    out = tmp_path / "sweep_f"
    rows = sweep(workspace, out, "model.F=8,4")
    assert rows[0] == RESULTS_HEADER  # F has a column already
    assert [r[RESULTS_HEADER.index("F")] for r in rows[1:]] == ["8", "4"]
    assert (out / "model_F8.ckpt").exists() and (out / "model_F4.ckpt").exists()
    # one stats file and the config before the sweep serve every model
    assert load_run_config(out / "config.txt").model["F"] == 8
    assert (out / "train_stats.csv").exists()


def test_mode_sweep_writes_one_tagged_model_set_per_mode(workspace, tmp_path):
    out = tmp_path / "sweep_mode"
    rows = sweep(workspace, out, "model.mode=alternate,vertical_only")
    assert rows[0] == RESULTS_HEADER
    assert [r[RESULTS_HEADER.index("mode")] for r in rows[1:]] == ["alternate", "vertical_only"]
    for mode in ("alternate", "vertical_only"):
        _, cfg = load_checkpoint(out / f"model_mode{mode}.ckpt")
        assert cfg.mode == mode
        assert (out / f"report_mode{mode}.json").exists()
        assert (out / f"epochs_mode{mode}.jsonl").exists()


def test_each_swept_model_prints_a_progress_line_naming_its_tag(workspace, tmp_path, capsys):
    # at L=2, alternate and time_first run the same layer order, so only the
    # tag tells their lines apart
    capsys.readouterr()
    sweep(workspace, tmp_path / "sweep_lines", "model.mode=alternate,time_first")
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("trained ")]
    assert len(lines) == len(set(lines)) == 2
    assert " modealternate " in lines[0] and " modetime_first " in lines[1]


def test_a_swept_setting_without_a_results_column_gets_one(workspace, tmp_path):
    out = tmp_path / "sweep_d"
    rows = sweep(workspace, out, "model.D=8,16")
    assert rows[0] == RESULTS_HEADER + ["D"]
    assert [r[-1] for r in rows[1:]] == ["8", "16"]
    assert load_checkpoint(out / "model_D16.ckpt")[1].D == 16


def test_set_overrides_reach_snapshot(workspace, tmp_path):
    # vertical_only is one of the paper's single-direction ablations: it takes
    # the same round trip from train through the snapshot to a forecast
    window_path, window = window_csv(workspace, tmp_path)
    for mode in ("time_first", "vertical_only"):
        out = tmp_path / mode
        code = main(
            [
                "train", "--config", str(workspace["cfg"]), "--out", str(out),
                "--set", "train.max_epochs=1", "--set", f"model.mode={mode}",
            ]
        )
        assert code == 0
        snap = load_run_config(out / "config.txt")
        assert snap.model["mode"] == mode and snap.train["max_epochs"] == 1
        rows = read_results(out / "results.csv")
        assert rows[1][RESULTS_HEADER.index("mode")] == mode
        params, cfg = load_checkpoint(out / "model_F8.ckpt")
        assert cfg == snap.to_model_config()
        out_file = out / "forecast.csv"
        code = main(
            [
                "forecast", "--checkpoint", str(out / "model_F8.ckpt"),
                "--window", str(window_path), "--out-file", str(out_file),
            ]
        )
        assert code == 0
        got = np.array([[float(v) for v in row] for row in read_results(out_file)])
        with no_grad():
            pred, _ = forward(window[None], params, cfg)
        assert (got == pred.data[0]).all()


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


def test_a_checkpoint_runs_on_data_of_another_width(workspace, tmp_path, capsys):
    # the workspace's model was trained on 4 variates; eval, forecast and
    # export-attention run it on 2 and match the library bit for bit
    from gridcast.data import SplitSpec, chronological_split, load_csv, standardize
    from gridcast.train import evaluate

    ckpt = str(workspace["out"] / "model_F8.ckpt")
    params, cfg = load_checkpoint(ckpt)
    narrow = tmp_path / "narrow.csv"
    write_dataset_csv(narrow, synthetic_sines(700, n_variates=2, seed=1))
    capsys.readouterr()
    assert main(["eval", "--config", str(workspace["cfg"]), "--data", str(narrow),
                 "--checkpoint", ckpt]) == 0
    out_lines = capsys.readouterr().out.strip().splitlines()
    row = dict(zip(RESULTS_HEADER, next(csv.reader([out_lines[1]]))))
    te = standardize(*chronological_split(load_csv(narrow), SplitSpec(6, 2, 2)))[2]
    mse_value, mae_value = evaluate(params, cfg, te, batch_size=32)
    assert (float(row["mse"]), float(row["mae"])) == (mse_value, mae_value)

    window = synthetic_sines(700, n_variates=2, period=48, seed=2).values[100:124]
    path = tmp_path / "window.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([[repr(float(v)) for v in row] for row in window])
    with no_grad():
        pred, maps = forward(window[None], params, cfg, capture_attention=True)
    out_file = tmp_path / "forecast.csv"
    assert main(["forecast", "--checkpoint", ckpt, "--window", str(path),
                 "--out-file", str(out_file)]) == 0
    got = np.array([[float(v) for v in row] for row in read_results(out_file)])
    assert got.shape == (8, 2) and (got == pred.data[0]).all()

    out_dir = tmp_path / "maps"
    assert main(["export-attention", "--checkpoint", ckpt, "--window", str(path),
                 "--out-dir", str(out_dir)]) == 0
    for amap in maps:
        rows = read_results(out_dir / f"attention_layer{amap.layer_index}_{amap.direction}.csv")
        weights = np.zeros(amap.weights.shape)
        for r, c, w in rows[1:]:
            weights[int(r), int(c)] = float(w)
        assert len(rows) == 1 + amap.weights.size and (weights == amap.weights).all()
    assert maps[1].direction == "vertical" and maps[1].weights.shape == (2, 2)


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
    cfg = ModelConfig(T=24, F=8, P=8, S=4, D=8, H=2, L=2, D_ff=16, dropout=0.0)
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


@pytest.mark.parametrize("name", ["arr.npy", "empty.ckpt", "data.csv"])
def test_eval_foreign_checkpoint_is_one_line_error(name, workspace, tmp_path, capsys):
    ckpt = tmp_path / name
    if name == "arr.npy":
        np.save(ckpt, np.ones(3))
    elif name == "empty.ckpt":
        ckpt.write_bytes(b"")
    else:
        ckpt.write_bytes(workspace["data"].read_bytes())
    code = main(["eval", "--config", str(workspace["cfg"]), "--checkpoint", str(ckpt)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {ckpt} is not a gridcast-checkpoint-1 file\n"


@pytest.mark.parametrize("name", ["latin1.csv", "model.ckpt"])
def test_train_on_data_that_is_not_utf8_is_one_line_error(name, workspace, tmp_path, capsys):
    data = tmp_path / name
    if name == "latin1.csv":
        data.write_bytes("v0,v1\n1,2\ncaf\xe9,3\n".encode("latin-1"))
    else:
        data.write_bytes((workspace["out"] / "model_F8.ckpt").read_bytes())
    out = tmp_path / "o"
    code = main(["train", "--data", str(data), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {data} is not UTF-8 text: byte 0x") and err.count("\n") == 1
    assert not out.exists()


def test_config_that_is_not_utf8_is_one_line_error(workspace, tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"# caf\xe9\n" + workspace["cfg"].read_bytes())
    out = tmp_path / "o"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: config {cfg} is not UTF-8 text: byte 0xe9 at offset 5\n"
    assert not out.exists()


def _corrupt(archive, case):
    """Damage a checkpoint's arrays (a dict) as ``case`` names."""
    stat = "state/layers.0.norm1.running_"
    if case == "string_dtype":
        archive["param/head_b"] = np.array(["x"] * len(archive["param/head_b"]))
    elif case == "object_dtype":
        archive["param/head_b"] = np.array([None] * len(archive["param/head_b"]), dtype=object)
    elif case == "stat_shape":
        archive[stat + "mean"] = np.zeros((1, 1, 4, archive[stat + "mean"].shape[-1]))
    elif case == "unpaired_stat":
        del archive[stat + "var"]
    elif case == "nan_value":
        archive["param/head_b"] = np.full(archive["param/head_b"].shape, np.nan)
    elif case == "batch_only":
        config = json.loads(str(archive["__config__"][()]))
        archive["__config__"] = np.array(json.dumps({**config, "norm_over": "batch_only"}))
    elif case == "object_magic":
        archive["__magic__"] = np.array([str(archive["__magic__"]), None], dtype=object)
    elif case == "object_config":
        archive["__config__"] = np.array([None], dtype=object)
    elif case == "negative_seed":
        config = json.loads(str(archive["__config__"][()]))
        archive["__config__"] = np.array(json.dumps({**config, "seed": -1}))
    elif case == "float_T":
        config = json.loads(str(archive["__config__"][()]))
        archive["__config__"] = np.array(json.dumps({**config, "T": 32.5}))


CORRUPTION_ERRORS = {
    "string_dtype": "param/head_b has dtype",
    "object_dtype": "param/head_b cannot be read",
    "stat_shape": "running_mean has shape (1, 1, 4, 8), expected (1, 1, 1, 8)",
    "unpaired_stat": "must be stored together",
    "nan_value": "param/head_b holds non-finite values",
    "batch_only": "norm_over = batch_only",
    "object_magic": "is not a gridcast-checkpoint-1 file",
    "object_config": "has no valid model config",
    "negative_seed": "has no valid model config: seed must be >= 0, got -1",
    "float_T": "has no valid model config: T must be an integer, got 32.5",
}


@pytest.mark.parametrize("case", list(CORRUPTION_ERRORS))
def test_forecast_corrupt_checkpoint_is_one_line_error(case, workspace, tmp_path, capsys):
    archive = dict(np.load(workspace["out"] / "model_F8.ckpt", allow_pickle=False))
    _corrupt(archive, case)
    ckpt = tmp_path / "bad.ckpt"
    with open(ckpt, "wb") as fh:
        np.savez(fh, **archive)
    path, _ = window_csv(workspace, tmp_path)
    capsys.readouterr()
    code = main(["forecast", "--checkpoint", str(ckpt), "--window", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert CORRUPTION_ERRORS[case] in captured.err
    assert captured.out == ""


def test_forecast_checkpoint_of_a_zip_version_zipfile_cannot_read_is_one_line_error(
    workspace, tmp_path, capsys
):
    # "version needed to extract" 24.0 in the first central-directory header:
    # zipfile raises NotImplementedError, not BadZipFile
    data = bytearray((workspace["out"] / "model_F8.ckpt").read_bytes())
    header = data.index(b"PK\x01\x02")
    data[header + 6 : header + 8] = (240).to_bytes(2, "little")
    ckpt = tmp_path / "v24.ckpt"
    ckpt.write_bytes(bytes(data))
    path, _ = window_csv(workspace, tmp_path)
    capsys.readouterr()
    code = main(["forecast", "--checkpoint", str(ckpt), "--window", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: cannot read checkpoint {ckpt}: zip file version 24.0\n"
    assert captured.out == ""


def _rezipped(src, dst, compression):
    """A copy of zip file ``src`` at ``dst`` with every member compressed by
    ``compression``."""
    with zipfile.ZipFile(src) as zin, zipfile.ZipFile(dst, "w", compression) as zout:
        for info in zin.infolist():
            zout.writestr(info.filename, zin.read(info))
    return dst


def _damage_member(path, name, index, damage):
    """Replace byte ``index`` of member ``name``'s compressed bytes, b, by
    ``damage(b)``."""
    with zipfile.ZipFile(path) as zf:
        offset = zf.getinfo(name).header_offset
    data = bytearray(path.read_bytes())
    name_len, extra_len = struct.unpack("<HH", data[offset + 26 : offset + 30])
    at = offset + 30 + name_len + extra_len + index
    data[at] = damage(data[at])
    path.write_bytes(bytes(data))


def _npy_declaring(npy, shape):
    """The ``.npy`` bytes ``npy`` with a header that declares ``shape``."""
    fh = io.BytesIO(npy)
    np.lib.format.read_magic(fh)
    header = np.lib.format.read_array_header_1_0(fh)
    out = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        out, {"descr": header[2].str, "fortran_order": header[1], "shape": shape}
    )
    return out.getvalue() + fh.read()


def _forecast(ckpt, workspace, tmp_path, capsys):
    path, _ = window_csv(workspace, tmp_path)
    capsys.readouterr()
    code = main(["forecast", "--checkpoint", str(ckpt), "--window", str(path)])
    return code, capsys.readouterr()


@pytest.mark.parametrize("case", ["deflate", "lzma", "bzip2", "huge_header"])
def test_forecast_checkpoint_with_an_unreadable_member_is_one_line_error(
    case, workspace, tmp_path, capsys
):
    src, ckpt, member = workspace["out"] / "model_F8.ckpt", tmp_path / "bad.ckpt", "param/W_p.npy"
    if case == "deflate":  # the compression np.savez_compressed writes; 0xFF is no valid block
        _damage_member(_rezipped(src, ckpt, zipfile.ZIP_DEFLATED), member, 0, lambda b: 0xFF)
    elif case == "lzma":
        _damage_member(_rezipped(src, ckpt, zipfile.ZIP_LZMA), member, 4, lambda b: b ^ 0xFF)
    elif case == "bzip2":  # the first byte of the block magic
        _damage_member(_rezipped(src, ckpt, zipfile.ZIP_BZIP2), member, 4, lambda b: b ^ 0xFF)
    else:
        with zipfile.ZipFile(src) as zin, zipfile.ZipFile(ckpt, "w") as zout:
            for info in zin.infolist():
                data = zin.read(info)
                if info.filename == member:
                    data = _npy_declaring(data, (10**6, 10**6))
                zout.writestr(info.filename, data)
    code, captured = _forecast(ckpt, workspace, tmp_path, capsys)
    assert code == 2
    assert captured.err.startswith(f"error: checkpoint {ckpt}: param/W_p cannot be read: ")
    assert captured.err.count("\n") == 1 and captured.out == ""


@pytest.mark.parametrize("compression", [zipfile.ZIP_DEFLATED, zipfile.ZIP_BZIP2, zipfile.ZIP_LZMA])
def test_forecast_from_a_checkpoint_with_compressed_members_is_unchanged(
    compression, workspace, tmp_path, capsys
):
    src = workspace["out"] / "model_F8.ckpt"
    want = _forecast(src, workspace, tmp_path, capsys)
    ckpt = _rezipped(src, tmp_path / "packed.ckpt", compression)
    assert _forecast(ckpt, workspace, tmp_path, capsys) == want
    assert want[0] == 0


# __config__ edits the stored arrays contradict; build would ask for
# memory without bound (L: a layer at a time until allocation fails)
CONTRADICTED_CONFIGS = {
    "T_1e12": ({"T": 10**12}, "param/W_pos has shape (6, 8), expected (250000000000, 8)"),
    "T_2e70": ({"T": 2**70}, "param/W_pos has shape (6, 8), expected (295147905179352825856, 8)"),
    "D_2e40": ({"D": 2**40}, "param/W_p has shape (8, 8), expected (8, 1099511627776)"),
    "F_1e9": ({"F": 10**9}, "param/head_w has shape (48, 8), expected (48, 1000000000)"),
    "D_ff_1e9": (
        {"D_ff": 10**9}, "param/layers.0.ffn_in has shape (8, 16), expected (8, 1000000000)"
    ),
    "L_1e6": ({"L": 10**6}, "its stored layers are not numbered 0..L-1 for L=1000000"),
}


@pytest.mark.parametrize("case", list(CONTRADICTED_CONFIGS))
def test_forecast_checkpoint_whose_config_contradicts_its_arrays_is_one_line_error(
    case, workspace, tmp_path, capsys, monkeypatch
):
    def no_build(*args):
        raise AssertionError("build ran on a config its arrays contradict")

    monkeypatch.setattr(gridcast.model, "build", no_build)
    edit, message = CONTRADICTED_CONFIGS[case]
    archive = dict(np.load(workspace["out"] / "model_F8.ckpt", allow_pickle=False))
    config = json.loads(str(archive["__config__"][()]))
    archive["__config__"] = np.array(json.dumps({**config, **edit}))
    ckpt = tmp_path / "bad.ckpt"
    with open(ckpt, "wb") as fh:
        np.savez(fh, **archive)
    code, captured = _forecast(ckpt, workspace, tmp_path, capsys)
    assert code == 2
    assert captured.err == f"error: checkpoint {ckpt}: {message}\n"
    assert captured.out == ""


def test_forecast_drop_columns_takes_an_index_as_data_drop_columns_does(workspace, tmp_path):
    path, window = window_csv(workspace, tmp_path)
    dated = tmp_path / "dated.csv"
    with open(dated, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date"] + [f"v{i}" for i in range(window.shape[1])])
        for i, row in enumerate(window):
            writer.writerow([f"2020-01-01 {i:02d}:00"] + [repr(float(v)) for v in row])
    # a UTF-8 byte-order mark is not part of the first cell: the header's
    # first name is still "date", and a headerless window keeps its first row
    marked, marked_headerless = tmp_path / "marked.csv", tmp_path / "marked_headerless.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + dated.read_bytes())
    marked_headerless.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    ckpt = str(workspace["out"] / "model_F8.ckpt")
    outputs = []
    cases = ((dated, "0"), (dated, "date"), (path, None), (marked, "date"), (marked_headerless, None))
    for window_path, drop in cases:
        out_file = tmp_path / f"fc_{len(outputs)}.csv"
        argv = ["forecast", "--checkpoint", ckpt, "--window", str(window_path)]
        argv += ["--out-file", str(out_file)] + (["--drop-columns", drop] if drop else [])
        assert main(argv) == 0
        outputs.append(out_file.read_text())
    assert len(set(outputs)) == 1


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
    cfg = ModelConfig(T=24, F=8, P=8, S=4, D=8, H=1, L=1, D_ff=16, dropout=0.0, mode="time_first")
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
    rows = sweep(workspace, out, "model.T=24,32")
    assert rows[0] == RESULTS_HEADER
    assert [r[RESULTS_HEADER.index("T")] for r in rows[1:]] == ["24", "32"]
    # the same per-model artifacts as a plain train, tagged by lookback
    for T, M, row in zip((24, 32), (6, 8), rows[1:]):
        _, cfg = load_checkpoint(out / f"model_T{T}.ckpt")
        assert (cfg.T, cfg.M) == (T, M)  # M from (T, P=8, S=4)
        report = json.loads((out / f"report_T{T}.json").read_text())
        assert repr(float(report["test_mse"])) == row[RESULTS_HEADER.index("mse")]
        lines = (out / f"epochs_T{T}.jsonl").read_text().splitlines()
        assert len(lines) == report["epochs_run"] == 1


def test_a_longer_lookback_wins_on_a_long_memory_series(tmp_path):
    # Series whose level pattern repeats every 200 steps: a 336-step window
    # always contains one full cycle, a 96-step window often misses the part
    # that disambiguates the upcoming level, so the longer lookback must score
    # a clearly lower test MSE.
    data = tmp_path / "long_memory.csv"
    write_dataset_csv(data, oracles.synthetic_long_memory(3000, n_variates=2, period=200, knots=8, noise=0.05, seed=7))
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
    code = main(["train", "--config", str(cfg), "--sweep", "model.T=96,336"])
    assert code == 0
    rows = read_results(out / "results.csv")
    mse = {r[RESULTS_HEADER.index("T")]: float(r[RESULTS_HEADER.index("mse")]) for r in rows[1:]}
    assert mse["336"] < mse["96"]


def test_lookback_sweep_rejects_short_length(workspace, tmp_path, capsys):
    code = main(
        [
            "train", "--config", str(workspace["cfg"]),
            "--out", str(tmp_path / "s"), "--sweep", "model.T=4,24",
        ]
    )
    assert code == 2
    assert "patch length" in capsys.readouterr().err


CHECKPOINT = "<workspace checkpoint>"  # stands for the workspace's model_F8.ckpt


@pytest.mark.parametrize(
    "argv,named",
    [
        (["train", "--sweep", "model.F=8,x"], "model.F expects int"),
        (["train", "--sweep", "train.lr=0.1,0.2"], "--sweep"),
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
        (["train", "--sweep", "model.F=8,0"], "F must be >= 1"),
        (["train", "--sweep", "model.T=24,4"], "shorter than patch length"),
        (["train", "--sweep", "model.T=24", "--set", "model.H=3"], "H=3"),
        (["train", "--set", "model.norm_over=batch_and_tokens"], "unknown config key"),
        (["train", "--set", "train.patience=0"], "train.patience"),
        (["train", "--set", "model.N=4"], "unknown config key 'model.N'"),
        # 700 rows at 8:1:1 leave val and test 70 steps each
        (["train", "--set", "data.split=8:1:1"], "val split too short: 70 steps"),
        (
            ["train", "--sweep", "model.T=32,100", "--set", "data.split=8:1:1"],
            "val split too short: 70 steps cannot host lookback 100",
        ),
        (
            [
                "train", "--set", "data.split=8:1:1", "--set", "data.borrow_prefix=true",
                "--set", "model.F=80",
            ],
            "val split too short: 166 steps",  # 70 + the T=96 borrowed
        ),
        # eval reads the test split only: 22 of 700 rows at 30:1:1, for the
        # workspace's T=24, F=8 checkpoint
        (
            ["eval", "--checkpoint", CHECKPOINT, "--set", "data.split=30:1:1"],
            "test split too short: 22 steps cannot host lookback 24 + horizon 8",
        ),
        (["train", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["train", "--sweep", "model.F"], "--sweep"),
        (["train", "--sweep", "model.seed=1"], "unknown config key 'model.seed'"),
        (["train", "--sweep", "model.F=8,4,08"], "--sweep repeats a value"),
        (["train", "--set", "model.T=1.5"], "model.T expects int"),
    ],
)
def test_malformed_setting_is_one_line_usage_error(argv, named, workspace, tmp_path, capsys):
    # the default model settings (P=16, D=16), so each case is bad at one setting
    out = tmp_path / "o"
    ckpt = str(workspace["out"] / "model_F8.ckpt")
    command, *rest = (ckpt if arg == CHECKPOINT else arg for arg in argv)
    capsys.readouterr()
    code = main([command, "--data", str(workspace["data"]), "--out", str(out), *rest])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err
    assert not out.exists() or not any(out.iterdir())  # nothing written before the check


# -- printed tables ----------------------------------------------------------


def _assert_prints_table(printed, table, models):
    """``printed`` is one ``trained ...`` line per model, then ``table``."""
    assert printed.endswith(table) and "\r\n" in table
    head = printed[: len(printed) - len(table)].splitlines()
    assert len(head) == models and all(line.startswith("trained ") for line in head)


def test_printed_tables_equal_the_files_written(workspace, tmp_path, capsys):
    cfg, ckpt = str(workspace["cfg"]), str(workspace["out"] / "model_F8.ckpt")
    capsys.readouterr()
    out = tmp_path / "train"
    argv = ["train", "--config", cfg, "--out", str(out), "--set", "train.max_epochs=1"]
    assert main(argv + ["--sweep", "model.F=8,4"]) == 0
    _assert_prints_table(capsys.readouterr().out, (out / "results.csv").read_bytes().decode(), 2)

    metrics = tmp_path / "metrics.csv"
    argv = ["eval", "--config", cfg, "--checkpoint", ckpt, "--persistence"]
    assert main(argv + ["--out-file", str(metrics)]) == 0
    assert capsys.readouterr().out == metrics.read_bytes().decode()

    window, _ = window_csv(workspace, tmp_path)
    forecast = tmp_path / "forecast.csv"
    argv = ["forecast", "--checkpoint", ckpt, "--window", str(window)]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert main(argv + ["--out-file", str(forecast)]) == 0
    assert capsys.readouterr().out == ""  # the file or stdout, not both
    assert printed == forecast.read_bytes().decode() and "\r\n" in printed


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
