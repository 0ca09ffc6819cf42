import csv
import json
import os

import numpy as np
import pytest

import oracles
from gridcast.attention import MODES, count_attention_cost, sequence_directions
from gridcast.errors import ConfigError, NumericError, ShapeError
from gridcast.model import (
    ModelConfig,
    build,
    export_attention,
    forward,
    load_checkpoint,
    save_checkpoint,
)
from gridcast.tensor import Tensor


def rng(seed=0):
    return np.random.default_rng(seed)


def small_config(**kw):
    base = dict(
        T=32, F=5, P=8, S=4, D=8, H=2, L=2, D_ff=16, dropout=0.0, mode="alternate"
    )
    base.update(kw)
    return ModelConfig(**base)


# -- config and build --------------------------------------------------------


def test_config_derived_patch_count():
    cfg = ModelConfig(T=336, F=96)
    assert cfg.M == 42  # P=16, S=8 defaults


@pytest.mark.parametrize(
    "kw,field",
    [
        (dict(H=3, D=16), "H"),
        (dict(T=8, P=16), "T"),
        (dict(S=24, P=16), "S"),
        (dict(dropout=1.0), "dropout"),
        (dict(mode="diagonal"), "mode"),
        (dict(L=0), "L"),
        (dict(seed=-1), "seed"),
        (dict(T=32.5), "T must be an integer, got 32.5"),
        (dict(D_ff=32.0), "D_ff must be an integer"),
        (dict(L=True), "L must be an integer, got True"),
        (dict(seed="0"), "seed must be an integer"),
    ],
)
def test_config_validation_names_field(kw, field):
    base = dict(T=96, F=24)
    base.update(kw)
    with pytest.raises(ConfigError) as err:
        ModelConfig(**base)
    assert field in str(err.value)


def test_config_takes_keywords_only():
    # a positional call would shift silently whenever a field is added or removed
    with pytest.raises(TypeError):
        ModelConfig(96, 24, 4)


def test_build_deterministic_per_seed():
    cfg = small_config(seed=5)
    a, b = build(cfg), build(cfg)
    for (_, ta), (_, tb) in zip(a.named_parameters(), b.named_parameters()):
        assert (ta.data == tb.data).all()
    c = build(small_config(seed=6))
    assert not (a.W_p.data == c.W_p.data).all()


def test_build_head_width():
    params = build(ModelConfig(T=96, F=24, D=16, H=4))
    for layer in params.layers:
        assert layer.w_query.shape == (4, 16, 4)  # d_k = D / H = 4


def test_build_parameter_count_closed_form():
    # (P=16, D=16, H=4, L=2, D_ff=32, M=42, F=96):
    #   W_p 256 + W_pos 672
    #   per layer: qkv 3*4*16*4=768, out 256, ffn 512+512, norms 64  -> 2112
    #   head: 42*16*96 = 64512 weights + 96 bias
    cfg = ModelConfig(T=336, F=96, P=16, S=8, D=16, H=4, L=2, D_ff=32)
    params = build(cfg)
    assert cfg.M == 42
    expected = 256 + 672 + 2 * 2112 + 64512 + 96
    assert params.parameter_count() == expected == 69760


# -- forward -----------------------------------------------------------------


def test_forward_shape_and_finite():
    cfg = small_config()
    params = build(cfg)
    y, maps = forward(rng(1).normal(size=(3, 32, 2)), params, cfg)
    assert y.shape == (3, 5, 2)
    assert np.isfinite(y.data).all()
    assert maps is None


def test_forward_zero_head_returns_window_mean():
    cfg = small_config()
    params = build(cfg)
    params.head_w = Tensor(np.zeros(params.head_w.shape))
    params.head_b = Tensor(np.zeros(params.head_b.shape))
    x = rng(2).normal(size=(2, 32, 2)) * 3 + 5
    y, _ = forward(x, params, cfg)
    expected = np.repeat(x.mean(axis=1, keepdims=True), cfg.F, axis=1)
    np.testing.assert_allclose(y.data, expected, atol=1e-9)


def test_forward_rejects_bad_shapes():
    cfg = small_config()
    params = build(cfg)
    with pytest.raises(ShapeError):
        forward(np.zeros((2, 16, 2)), params, cfg)  # wrong lookback
    with pytest.raises(ShapeError):
        forward(np.zeros((32, 2)), params, cfg)  # missing batch axis
    bad = np.zeros((1, 32, 2))
    bad[0, 0, 0] = np.nan
    with pytest.raises(NumericError):
        forward(bad, params, cfg)


def test_forward_matches_loop_oracle():
    cfg = small_config()
    params = build(cfg, rng(3))
    x = rng(4).normal(size=(2, 32, 2)) * 2 + 1
    y, _ = forward(x, params, cfg)
    ref = oracles.forward_oracle(x, params, cfg)
    np.testing.assert_allclose(y.data, ref, atol=1e-8)


@pytest.mark.parametrize("mode", MODES)
def test_forward_loop_oracle_all_modes(mode):
    cfg = small_config(mode=mode, L=3)
    params = build(cfg, rng(5))
    x = rng(6).normal(size=(1, 32, 2))
    y, _ = forward(x, params, cfg)
    np.testing.assert_allclose(y.data, oracles.forward_oracle(x, params, cfg), atol=1e-8)


def test_forward_variate_permutation_equivariance():
    cfg = small_config()
    params = build(cfg, rng(7))
    x = rng(8).normal(size=(2, 32, 4))
    perm = np.array([2, 0, 3, 1])
    y, _ = forward(x, params, cfg)
    y_perm, _ = forward(x[:, :, perm], params, cfg)
    np.testing.assert_allclose(y_perm.data, y.data[:, :, perm], atol=1e-5)


def test_forward_accepts_variate_subset():
    cfg = small_config()
    params = build(cfg, rng(9))
    y, _ = forward(rng(10).normal(size=(2, 32, 3)), params, cfg)
    assert y.shape == (2, 5, 3)


def test_forward_gradient_reaches_all_parameters():
    cfg = small_config()
    params = build(cfg, rng(11))
    x = rng(12).normal(size=(2, 32, 2))
    y, _ = forward(x, params, cfg, training=True)
    oracles.mean(y * y).backward()
    for name, tensor in params.named_parameters():
        assert tensor.grad is not None, f"no gradient reached {name}"
        assert np.isfinite(tensor.grad).all()


def test_three_modes_coincide_for_single_variate_with_neutral_vertical():
    """With N=1, the modes differ only through the vertical layers' fixed
    projection path; neutralizing it (zero value/output and FFN output, exact
    identity norm) and tying layer weights makes all three coincide."""
    outputs = {}
    x = rng(13).normal(size=(2, 32, 1))
    for mode in ("channel_first", "time_first", "alternate"):
        cfg = small_config(mode=mode)
        params = build(cfg, rng(14))
        import copy

        tied = params.layers[0]
        params.layers = [tied] * cfg.L
        for idx, direction in enumerate(sequence_directions(cfg.mode, cfg.L)):
            if direction != "vertical":
                continue
            neutral = copy.deepcopy(tied)
            zero = lambda t: Tensor(np.zeros(t.shape))
            neutral.w_value = zero(neutral.w_value)
            neutral.w_out = zero(neutral.w_out)
            neutral.ffn_out = zero(neutral.ffn_out)
            D = cfg.D
            neutral.norm1_gamma = Tensor(np.ones(D))
            neutral.norm1_beta = Tensor(np.zeros(D))
            neutral.norm2_gamma = Tensor(np.ones(D))
            neutral.norm2_beta = Tensor(np.zeros(D))
            neutral.norm1_state.running_mean = np.zeros(D)
            neutral.norm1_state.running_var = np.full(D, 1.0 - 1e-5)
            neutral.norm2_state.running_mean = np.zeros(D)
            neutral.norm2_state.running_var = np.full(D, 1.0 - 1e-5)
            params.layers = list(params.layers)
            params.layers[idx] = neutral
        y, _ = forward(x, params, cfg)
        outputs[mode] = y.data
    np.testing.assert_allclose(outputs["channel_first"], outputs["alternate"], atol=1e-6)
    np.testing.assert_allclose(outputs["time_first"], outputs["alternate"], atol=1e-6)


def test_forward_fuzz_shapes():
    r = rng(15)
    for _ in range(5):
        T = int(r.integers(16, 64))
        P = int(r.choice([4, 8]))
        F = int(r.integers(1, 12))
        N = int(r.integers(1, 5))  # the data's width; drawn here so each seed draws the same shapes
        cfg = ModelConfig(
            T=T,
            F=F,
            P=P,
            S=int(r.choice([P // 2, P])),
            D=8,
            H=int(r.choice([1, 2, 4])),
            L=int(r.integers(1, 4)),
            D_ff=16,
            dropout=0.0,
            mode=str(r.choice(["channel_first", "time_first", "alternate"])),
        )
        params = build(cfg, r)
        B = int(r.integers(1, 4))
        y, _ = forward(r.normal(size=(B, cfg.T, N)), params, cfg)
        assert y.shape == (B, cfg.F, N)
        assert np.isfinite(y.data).all()


# -- attention capture and export -------------------------------------------


def test_capture_shapes_and_directions():
    cfg = small_config(L=4)
    params = build(cfg, rng(16))
    _, maps = forward(rng(17).normal(size=(2, 32, 3)), params, cfg, capture_attention=True)
    assert [m.direction for m in maps] == ["horizontal", "vertical", "horizontal", "vertical"]
    assert [m.layer_index for m in maps] == [0, 1, 2, 3]
    M = cfg.M
    for amap in maps:
        expected = (M, M) if amap.direction == "horizontal" else (3, 3)
        assert amap.weights.shape == expected
        np.testing.assert_allclose(amap.weights.sum(axis=1), np.ones(expected[0]), atol=1e-6)


@pytest.mark.parametrize("mode", MODES)
def test_counted_score_entries_are_the_ones_forward_forms(mode, monkeypatch):
    # count_attention_cost counts one head's scores for one window: a
    # horizontal layer forms N maps of M x M scores, a vertical one M of N x N
    cfg = small_config(mode=mode, L=3)
    B, N = 2, 3
    params = build(cfg, rng(24))
    softmax_sizes = []
    softmax = Tensor.softmax

    def counting_softmax(self, axis=-1):
        softmax_sizes.append(self.size)
        return softmax(self, axis)

    monkeypatch.setattr(Tensor, "softmax", counting_softmax)
    _, maps = forward(rng(25).normal(size=(B, 32, N)), params, cfg, capture_attention=True)
    cost = count_attention_cost(cfg.M, N, cfg.D, cfg.mode, cfg.L)
    from_maps = sum(
        m.weights.size * (N if m.direction == "horizontal" else cfg.M) for m in maps
    )
    assert [m.direction for m in maps] == sequence_directions(cfg.mode, cfg.L)
    assert from_maps == cost.score_entries
    assert sum(softmax_sizes) == B * cfg.H * cost.score_entries


def test_capture_single_head_equals_raw_weights():
    from gridcast.attention import apply_horizontal
    from gridcast.embed import embed_grid, pad_tail, revin_normalize

    cfg = small_config(H=1, L=1, mode="time_first")
    params = build(cfg, rng(18))
    x = rng(19).normal(size=(1, 32, 1))
    _, maps = forward(x, params, cfg, capture_attention=True)
    xn, _ = revin_normalize(x)
    grid = embed_grid(pad_tail(xn, cfg.P, cfg.S), params.W_p, params.W_pos, cfg.P, cfg.S)
    captured = []
    apply_horizontal(grid, params.layers[0], capture=captured)
    np.testing.assert_array_equal(maps[0].weights, captured[0][0, 0])


def test_capture_two_heads_average_oracle():
    cfg = small_config(H=2, L=1, mode="time_first")
    params = build(cfg, rng(20))
    from gridcast.attention import apply_horizontal
    from gridcast.embed import embed_grid, pad_tail, revin_normalize

    x = rng(21).normal(size=(1, 32, 1))
    _, maps = forward(x, params, cfg, capture_attention=True)
    xn, _ = revin_normalize(x)
    grid = embed_grid(pad_tail(xn, cfg.P, cfg.S), params.W_p, params.W_pos, cfg.P, cfg.S)
    captured = []
    apply_horizontal(grid, params.layers[0], capture=captured)
    manual = 0.5 * (captured[0][0, 0] + captured[0][0, 1])
    np.testing.assert_allclose(maps[0].weights, manual, atol=1e-12)


def test_export_attention_files(tmp_path):
    cfg = small_config(L=2)
    params = build(cfg, rng(22))
    _, maps = forward(rng(23).normal(size=(1, 32, 3)), params, cfg, capture_attention=True)
    paths = export_attention(maps, tmp_path / "maps")
    assert len(paths) == 2
    for amap, path in zip(maps, paths):
        assert f"layer{amap.layer_index}_{amap.direction}" in str(path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["row_index", "col_index", "weight"]
        size = amap.weights.shape[0]
        assert len(rows) == 1 + size * amap.weights.shape[1]
        back = np.zeros_like(amap.weights)
        for r, c, w in rows[1:]:
            back[int(r), int(c)] = float(w)
        np.testing.assert_array_equal(back, amap.weights)
        np.testing.assert_allclose(back.sum(axis=1), np.ones(size), atol=1e-6)


def test_export_attention_requires_capture(tmp_path):
    with pytest.raises(ConfigError):
        export_attention(None, tmp_path)
    with pytest.raises(ConfigError):
        export_attention([], tmp_path)


# -- checkpoints -------------------------------------------------------------


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    cfg = small_config(L=2)
    params = build(cfg, rng(24))
    # populate running statistics so state restore is exercised
    forward(rng(25).normal(size=(4, 32, 3)), params, cfg, training=True)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, cfg)
    loaded_params, loaded_cfg = load_checkpoint(path)
    assert loaded_cfg == cfg
    for (name, a), (_, b) in zip(params.named_parameters(), loaded_params.named_parameters()):
        assert (a.data == b.data).all(), name
    for orig, back in zip(params.layers, loaded_params.layers):
        np.testing.assert_array_equal(orig.norm1_state.running_mean, back.norm1_state.running_mean)
        np.testing.assert_array_equal(orig.norm2_state.running_var, back.norm2_state.running_var)
    x = rng(26).normal(size=(2, 32, 3))
    y_a, _ = forward(x, params, cfg)
    y_b, _ = forward(x, loaded_params, loaded_cfg)
    assert (y_a.data == y_b.data).all()


def test_checkpoint_rejects_foreign_file(tmp_path):
    path = tmp_path / "other.npz"
    np.savez(path, stuff=np.ones(3))
    with pytest.raises(ConfigError):
        load_checkpoint(path)
    # not an archive at all: numpy reads an .npy as an array, an empty file
    # as EOFError and anything else as pickled data
    np.save(tmp_path / "arr.npy", np.ones(3))
    (tmp_path / "empty.ckpt").write_bytes(b"")
    (tmp_path / "data.csv").write_text("a,b\n1,2\n")
    (tmp_path / "junk.bin").write_bytes(b"not an archive")
    for name in ("arr.npy", "empty.ckpt", "data.csv", "junk.bin"):
        with pytest.raises(ConfigError, match=f"{name} is not a gridcast-checkpoint-1 file"):
            load_checkpoint(tmp_path / name)


def test_checkpoint_rejects_a_negative_seed(tmp_path):
    # numpy's generators take no negative seed, so build() could not run it
    path = saved_checkpoint(tmp_path)
    config = json.loads(str(np.load(path, allow_pickle=False)["__config__"][()]))
    rewrite_config(path, json.dumps({**config, "seed": -1}))
    with pytest.raises(ConfigError, match="no valid model config: seed must be >= 0, got -1"):
        load_checkpoint(path)


def saved_checkpoint(tmp_path):
    cfg = small_config()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, build(cfg), cfg)
    return path


def rewrite_config(path, text):
    archive = dict(np.load(path, allow_pickle=False))
    archive["__config__"] = np.array(text)
    with open(path, "wb") as fh:
        np.savez(fh, **archive)


def test_checkpoint_rejects_truncated_file(tmp_path):
    path = saved_checkpoint(tmp_path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(ConfigError, match="cannot read checkpoint"):
        load_checkpoint(path)


def test_checkpoint_rejects_damaged_bytes(tmp_path):
    # the zip directory at the end stays intact, so the damage shows only
    # when a member is read
    path = saved_checkpoint(tmp_path)
    data = bytearray(path.read_bytes())
    for start in (len(data) // 4, len(data) // 2):
        damaged = data.copy()
        damaged[start : start + 16] = bytes(b ^ 0xFF for b in damaged[start : start + 16])
        path.write_bytes(bytes(damaged))
        with pytest.raises(ConfigError, match="model.ckpt"):
            load_checkpoint(path)


def test_checkpoint_rejects_unknown_config_key(tmp_path):
    path = saved_checkpoint(tmp_path)
    config = json.loads(str(np.load(path, allow_pickle=False)["__config__"][()]))
    config["colour"] = "blue"
    rewrite_config(path, json.dumps(config))
    with pytest.raises(ConfigError, match="colour"):
        load_checkpoint(path)


def test_checkpoint_rejects_non_json_config(tmp_path):
    path = saved_checkpoint(tmp_path)
    rewrite_config(path, "{T: 32,")
    with pytest.raises(ConfigError, match="no valid model config"):
        load_checkpoint(path)


def test_save_checkpoint_failure_keeps_previous_file(tmp_path, monkeypatch):
    path = saved_checkpoint(tmp_path)
    before = path.read_bytes()

    def savez_then_fail(fh, **arrays):
        fh.write(before[:100])
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", savez_then_fail)
    cfg = small_config(D=16)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, build(cfg), cfg)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.ckpt"]


def test_checkpoint_missing_parameter(tmp_path):
    cfg = small_config()
    params = build(cfg)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, cfg)
    archive = dict(np.load(path, allow_pickle=False))
    del archive["param/head_w"]
    with open(path, "wb") as fh:
        np.savez(fh, **archive)
    with pytest.raises(ConfigError) as err:
        load_checkpoint(path)
    assert "head_w" in str(err.value)


def test_checkpoint_with_the_norm_over_key_loads_and_forecasts_the_same_bits(tmp_path):
    # every checkpoint written while ModelConfig had norm_over stores
    # "norm_over": "batch_and_tokens" in its config JSON, and every one written
    # while it had N stores the training width
    cfg = small_config()
    params = build(cfg, rng(27))
    forward(rng(28).normal(size=(4, 32, 3)), params, cfg, training=True)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, cfg)
    config = json.loads(str(np.load(path, allow_pickle=False)["__config__"][()]))
    rewrite_config(path, json.dumps({**config, "norm_over": "batch_and_tokens", "N": 3}))
    loaded_params, loaded_cfg = load_checkpoint(path)
    assert loaded_cfg == cfg
    x = rng(29).normal(size=(2, 32, 3))
    assert (forward(x, loaded_params, cfg)[0].data == forward(x, params, cfg)[0].data).all()


def test_checkpoint_normalized_per_token_is_rejected(tmp_path):
    path = saved_checkpoint(tmp_path)
    config = json.loads(str(np.load(path, allow_pickle=False)["__config__"][()]))
    rewrite_config(path, json.dumps({**config, "norm_over": "batch_only"}))
    with pytest.raises(ConfigError, match="norm_over = batch_only"):
        load_checkpoint(path)
