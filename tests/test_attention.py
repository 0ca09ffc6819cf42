import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridcast.attention as attention
from gridcast.attention import (
    AttentionCost,
    AttentionMap,
    AttentionParams,
    apply_horizontal,
    apply_vertical,
    count_attention_cost,
    encoder_layer,
    grid_transpose,
    multi_head,
    project_heads,
    sequence_directions,
)
from gridcast.errors import ConfigError, ShapeError
from gridcast.model import ModelConfig, build, forward
from gridcast.tensor import BatchNormState, Tensor, batch_norm, grad_check
from oracles import scaled_dot_attention


def rng(seed=0):
    return np.random.default_rng(seed)


def make_params(D=4, H=2, D_ff=8, seed=0):
    return AttentionParams.init(D, H, D_ff, rng(seed))


# -- scaled_dot_attention (the unblocked reference) --------------------------


def test_attention_zero_keys_uniform():
    r = rng(1)
    Q = Tensor(r.normal(size=(5, 3)))
    K = Tensor(np.zeros((5, 3)))
    V = Tensor(r.normal(size=(5, 2)))
    out, w = scaled_dot_attention(Q, K, V)
    np.testing.assert_allclose(w.data, np.full((5, 5), 0.2))
    np.testing.assert_allclose(out.data, np.tile(V.data.mean(axis=0), (5, 1)))


def test_attention_single_token_identity():
    V = Tensor(rng(2).normal(size=(1, 4)))
    out, w = scaled_dot_attention(Tensor(rng(3).normal(size=(1, 2))), Tensor(rng(4).normal(size=(1, 2))), V)
    np.testing.assert_array_equal(w.data, [[1.0]])
    np.testing.assert_allclose(out.data, V.data)


def test_attention_matches_double_loop():
    r = rng(5)
    Q, K, V = r.normal(size=(3, 2)), r.normal(size=(3, 2)), r.normal(size=(3, 2))
    out, w = scaled_dot_attention(Tensor(Q), Tensor(K), Tensor(V))
    for i in range(3):
        scores = np.array([Q[i] @ K[j] / np.sqrt(2.0) for j in range(3)])
        e = np.exp(scores - scores.max())
        probs = e / e.sum()
        np.testing.assert_allclose(w.data[i], probs, atol=1e-12)
        np.testing.assert_allclose(out.data[i], probs @ V, atol=1e-12)


def test_attention_rows_sum_to_one():
    r = rng(6)
    _, w = scaled_dot_attention(
        Tensor(r.normal(size=(2, 3, 7, 4)) * 5),
        Tensor(r.normal(size=(2, 3, 7, 4)) * 5),
        Tensor(r.normal(size=(2, 3, 7, 4))),
    )
    np.testing.assert_allclose(w.data.sum(axis=-1), np.ones((2, 3, 7)), atol=1e-6)


def test_attention_shape_errors():
    with pytest.raises(ShapeError):
        scaled_dot_attention(Tensor(np.zeros((3, 2))), Tensor(np.zeros((3, 4))), Tensor(np.zeros((3, 2))))
    with pytest.raises(ShapeError):
        scaled_dot_attention(Tensor(np.zeros((3, 2))), Tensor(np.zeros((4, 2))), Tensor(np.zeros((3, 2))))


def test_attention_gradients():
    r = rng(7)
    inputs = [Tensor(r.normal(size=(3, 2))) for _ in range(3)]

    def fn(ts):
        out, _ = scaled_dot_attention(ts[0], ts[1], ts[2])
        return (out * out).sum()

    assert grad_check(fn, inputs) < 1e-3


def test_attention_gradients_grouped_heads():
    # [G, H, L, d_k] as multi_head passes them; d_k = 3 makes the query scale
    # 1/sqrt(3), which is not a power of two
    r = rng(8)
    inputs = [Tensor(r.normal(size=(2, 2, 4, 3))) for _ in range(3)]
    weight = Tensor(r.normal(size=(2, 2, 4, 3)))

    def fn(ts):
        out, _ = scaled_dot_attention(ts[0], ts[1], ts[2])
        return (out * weight).sum()

    assert grad_check(fn, inputs) < 1e-3


# -- multi_head --------------------------------------------------------------


def test_multi_head_single_head_reduction():
    r = rng(8)
    D = 4
    p = make_params(D=D, H=1, seed=8)
    p.w_out = Tensor(np.eye(D))
    x = Tensor(r.normal(size=(5, D)))
    out = multi_head(x, p)
    ref, _ = scaled_dot_attention(
        x @ p.w_query.reshape(D, D), x @ p.w_key.reshape(D, D), x @ p.w_value.reshape(D, D)
    )
    np.testing.assert_allclose(out.data, ref.data, atol=1e-12)


def test_multi_head_zero_values_zero_output():
    p = make_params(seed=9)
    p.w_value = Tensor(np.zeros(p.w_value.shape))
    out = multi_head(Tensor(rng(9).normal(size=(6, 4))), p)
    np.testing.assert_allclose(out.data, np.zeros((6, 4)), atol=1e-15)


def test_multi_head_two_head_composition_oracle():
    r = rng(10)
    D, H = 4, 2
    p = make_params(D=D, H=H, seed=10)
    x = Tensor(r.normal(size=(5, D)))
    out = multi_head(x, p)
    heads = []
    for h in range(H):
        q = x @ Tensor(p.w_query.data[h])
        k = x @ Tensor(p.w_key.data[h])
        v = x @ Tensor(p.w_value.data[h])
        heads.append(scaled_dot_attention(q, k, v)[0].data)
    ref = np.concatenate(heads, axis=-1) @ p.w_out.data
    np.testing.assert_allclose(out.data, ref, atol=1e-12)


def test_multi_head_batched_matches_per_group():
    r = rng(11)
    p = make_params(seed=11)
    x = r.normal(size=(2, 3, 5, 4))
    out = multi_head(Tensor(x), p)
    for i in range(2):
        for j in range(3):
            single = multi_head(Tensor(x[i, j]), p)
            np.testing.assert_allclose(out.data[i, j], single.data, atol=1e-12)


def test_multi_head_width_mismatch():
    with pytest.raises(ShapeError):
        multi_head(Tensor(np.zeros((5, 6))), make_params(D=4))


def test_multi_head_gradients():
    r = rng(12)
    p = make_params(D=4, H=2, seed=12)
    x = Tensor(r.normal(size=(3, 4)))
    weights = [x, p.w_query, p.w_key, p.w_value, p.w_out]

    def fn(ts):
        return (multi_head(ts[0], p) ** 2).sum()

    assert grad_check(fn, weights) < 1e-3


def test_head_count_must_divide_width():
    with pytest.raises(ConfigError):
        AttentionParams.init(D=10, H=3, D_ff=8, rng=rng(0))


# -- encoder_layer -----------------------------------------------------------


def zero_attention_params(D=4, H=2, D_ff=8, seed=0):
    p = make_params(D=D, H=H, D_ff=D_ff, seed=seed)
    for name in ("w_query", "w_key", "w_value", "w_out", "ffn_in", "ffn_out"):
        t = getattr(p, name)
        setattr(p, name, Tensor(np.zeros(t.shape)))
    return p


def test_encoder_layer_zero_weights_is_double_norm():
    r = rng(13)
    x = Tensor(r.normal(size=(6, 4)))
    p = zero_attention_params()
    out = encoder_layer(x, p, training=True)
    inner = batch_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)), BatchNormState(), training=True)
    ref = batch_norm(inner, Tensor(np.ones(4)), Tensor(np.zeros(4)), BatchNormState(), training=True)
    np.testing.assert_allclose(out.data, ref.data, atol=1e-12)


@pytest.mark.parametrize("L,D", [(3, 8), (5, 16)])
def test_encoder_layer_preserves_shape(L, D):
    p = make_params(D=D, H=2, D_ff=2 * D, seed=14)
    out = encoder_layer(Tensor(rng(14).normal(size=(L, D))), p, training=True)
    assert out.shape == (L, D)


def test_encoder_layer_gradients_finite_difference():
    r = rng(15)
    p = make_params(D=4, H=2, D_ff=8, seed=15)
    x = Tensor(r.normal(size=(3, 4)))
    y = r.normal(size=(3, 4))
    inputs = [x] + [t for _, t in p.named()]

    def fn(ts):
        out = encoder_layer(ts[0], p, training=True)
        return ((out - y) ** 2).mean()

    assert grad_check(fn, inputs) < 1e-3


def test_encoder_layer_capture_row_sums():
    captured = []
    p = make_params(seed=16)
    encoder_layer(Tensor(rng(16).normal(size=(2, 5, 4))), p, capture=captured)
    assert len(captured) == 1
    w = captured[0]
    assert w.shape == (2, p.heads, 5, 5)
    np.testing.assert_allclose(w.sum(axis=-1), np.ones((2, p.heads, 5)), atol=1e-6)


# -- cache-blocked attention -------------------------------------------------


def block_budget(rows, H, L):
    """A score budget that fits exactly ``rows`` groups of [H, L, L] scores."""
    return rows * H * L * L * 8


def run_vertical_layer(grid):
    p = make_params(D=8, H=2, D_ff=16, seed=26)
    x = Tensor(grid, requires_grad=True)
    captured = []
    out = apply_vertical(x, p, training=True, capture=captured)
    (out * out).mean().backward()
    grads = [x.grad] + [t.grad for _, t in p.named()]
    stats = [
        getattr(state, name)
        for state in (p.norm1_state, p.norm2_state)
        for name in ("running_mean", "running_var")
    ]
    return out.data, captured, grads, stats


def test_blocked_encoder_layer_is_bit_identical(monkeypatch):
    # G = 7 groups of [H=2, L=5, L] scores; a 3-group budget gives blocks 3, 3, 1
    grid = rng(26).normal(size=(1, 7, 5, 8))
    whole = run_vertical_layer(grid)
    monkeypatch.setattr(attention, "SCORE_BLOCK_BYTES", block_budget(3, H=2, L=5))
    slices = []
    real_rows = Tensor.rows

    def counted_rows(t, start, stop):
        slices.append((start, stop))
        return real_rows(t, start, stop)

    monkeypatch.setattr(Tensor, "rows", counted_rows)
    blocked = run_vertical_layer(grid)
    assert sorted(set(slices)) == [(0, 3), (3, 6), (6, 7)] and len(slices) == 9
    assert (blocked[0] == whole[0]).all()
    assert len(blocked[1]) == 1 and blocked[1][0].shape == (7, 2, 5, 5)
    assert (blocked[1][0] == whole[1][0]).all()
    assert len(blocked[2]) == len(whole[2]) == 11
    for got, want in zip(blocked[2], whole[2]):
        assert (got == want).all()
    for got, want in zip(blocked[3], whole[3]):
        assert (got == want).all()


def graph_nodes(t):
    """Number of graph nodes reachable from ``t``, leaves included."""
    seen, stack = set(), [t._node]
    while stack:
        node = stack.pop()
        if node is None or id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node.parents)
    return len(seen)


def test_one_block_builds_the_unblocked_graph():
    # every group of [H=2, L=5, L] scores fits one block, so multi_head must
    # build exactly the graph of the unblocked reference and its gradients
    p = make_params(D=4, H=2, seed=28)
    x = Tensor(rng(28).normal(size=(3, 5, 4)), requires_grad=True)
    out = multi_head(x, p)
    xg = x.reshape(3, 5, 4)
    att, _ = scaled_dot_attention(*(project_heads(xg, w) for w in (p.w_query, p.w_key, p.w_value)))
    ref = (att.permute(0, 2, 1, 3).reshape(3, 5, 4) @ p.w_out).reshape(3, 5, 4)
    assert (out.data == ref.data).all()
    assert graph_nodes(out) == graph_nodes(ref)
    grads = []
    for y in (out, ref):
        for t in [x] + [t for _, t in p.named()]:
            t.zero_grad()
        (y * y).sum().backward()
        grads.append([x.grad, p.w_query.grad, p.w_key.grad, p.w_value.grad, p.w_out.grad])
    for got, want in zip(*grads):
        assert (got == want).all()


def test_blocked_forward_captures_one_map_per_layer(monkeypatch):
    cfg = ModelConfig(T=32, F=8, N=3, P=8, S=4, D=8, H=2, L=2, D_ff=16, dropout=0.0, seed=5)
    params = build(cfg)
    x = rng(27).normal(size=(2, 32, 3))
    pred, maps = forward(x, params, cfg, capture_attention=True)
    monkeypatch.setattr(attention, "SCORE_BLOCK_BYTES", 1)  # one group per block
    pred_b, maps_b = forward(x, params, cfg, capture_attention=True)
    assert (pred_b.data == pred.data).all()
    assert [(m.direction, m.weights.shape) for m in maps_b] == [
        ("horizontal", (cfg.M, cfg.M)),
        ("vertical", (3, 3)),
    ]
    for got, want in zip(maps_b, maps):
        assert (got.weights == want.weights).all()


@settings(max_examples=25, deadline=None)
@given(
    B=st.integers(1, 3),
    P=st.integers(1, 8),
    extra=st.integers(0, 16),
    S_frac=st.integers(1, 8),
    N=st.integers(1, 5),
    H=st.integers(1, 3),
    width=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_forward_finite_and_blocking_invariant(B, P, extra, S_frac, N, H, width, seed):
    T, S, D = max(2, P + extra), max(1, P * S_frac // 8), H * width  # revin needs T >= 2
    cfg = ModelConfig(T=T, F=4, N=N, P=P, S=S, D=D, H=H, L=2, D_ff=2 * D, dropout=0.0, seed=seed)
    params = build(cfg)
    x = rng(seed).normal(size=(B, T, N))
    pred, _ = forward(x, params, cfg)
    assert pred.shape == (B, 4, N)
    assert np.isfinite(pred.data).all()
    saved = attention.SCORE_BLOCK_BYTES
    attention.SCORE_BLOCK_BYTES = 1  # one group per block
    try:
        blocked, _ = forward(x, params, cfg)
    finally:
        attention.SCORE_BLOCK_BYTES = saved
    assert (blocked.data == pred.data).all()


# -- grid application --------------------------------------------------------


def grid_of(seed, B=1, M=3, N=2, D=4):
    return Tensor(rng(seed).normal(size=(B, M, N, D)))


def test_grid_transpose_involution_and_indices():
    g = grid_of(17, B=2, M=3, N=4, D=5)
    t = grid_transpose(g)
    assert t.shape == (2, 4, 3, 5)
    assert (grid_transpose(t).data == g.data).all()
    for b in range(2):
        for m in range(3):
            for n in range(4):
                assert (t.data[b, n, m] == g.data[b, m, n]).all()


def test_apply_horizontal_single_variate_reduces_to_encoder():
    p = make_params(seed=18)
    g = grid_of(18, B=1, M=5, N=1, D=4)
    out = apply_horizontal(g, p)
    ref = encoder_layer(Tensor(g.data[0, :, 0, :]), p)
    np.testing.assert_allclose(out.data[0, :, 0, :], ref.data, atol=1e-12)


def test_apply_horizontal_duplicated_variate():
    p = make_params(seed=19)
    base = rng(19).normal(size=(1, 4, 1, 4))
    g = Tensor(np.concatenate([base, base], axis=2))
    out = apply_horizontal(g, p)
    np.testing.assert_array_equal(out.data[:, :, 0, :], out.data[:, :, 1, :])


def test_apply_horizontal_matches_variate_loop():
    p = make_params(seed=20)
    g = grid_of(20, B=1, M=3, N=2, D=4)
    out = apply_horizontal(g, p)
    for n in range(2):
        ref = encoder_layer(Tensor(g.data[0, :, n, :]), p)
        np.testing.assert_allclose(out.data[0, :, n, :], ref.data, atol=1e-12)


def test_apply_horizontal_independence_of_other_variates():
    p = make_params(seed=21)
    g = rng(21).normal(size=(1, 4, 3, 4))
    out_a = apply_horizontal(Tensor(g), p).data
    g2 = g.copy()
    g2[0, :, 2, :] += 5.0  # perturb one variate only
    out_b = apply_horizontal(Tensor(g2), p).data
    assert (out_a[0, :, :2, :] == out_b[0, :, :2, :]).all()
    assert not np.allclose(out_a[0, :, 2, :], out_b[0, :, 2, :])


def test_apply_vertical_single_step_reduces_to_encoder():
    p = make_params(seed=22)
    g = grid_of(22, B=1, M=1, N=5, D=4)
    out = apply_vertical(g, p)
    ref = encoder_layer(Tensor(g.data[0, 0, :, :]), p)
    np.testing.assert_allclose(out.data[0, 0, :, :], ref.data, atol=1e-12)


def test_apply_vertical_permutation_equivariance():
    p = make_params(seed=23)
    g = grid_of(23, B=2, M=3, N=4, D=4)
    perm = np.array([3, 1, 0, 2])
    out = apply_vertical(g, p).data
    out_perm = apply_vertical(Tensor(g.data[:, :, perm, :]), p).data
    np.testing.assert_allclose(out_perm, out[:, :, perm, :], atol=1e-12)


def test_apply_vertical_is_transposed_horizontal():
    p = make_params(seed=24)
    g = grid_of(24, B=1, M=2, N=3, D=4)
    direct = apply_vertical(g, p).data
    composed = grid_transpose(apply_horizontal(grid_transpose(g), p)).data
    assert (direct == composed).all()


def test_apply_gradients_through_grid():
    p = make_params(seed=25)
    g = grid_of(25, B=1, M=2, N=2, D=4)
    inputs = [g] + [t for _, t in p.named()]

    def fn(ts):
        out = apply_vertical(apply_horizontal(ts[0], p, training=True), p, training=True)
        return (out * out).mean()

    assert grad_check(fn, inputs) < 1e-3


# -- sequencing and cost -----------------------------------------------------


def test_sequence_directions_modes():
    assert sequence_directions("alternate", 4) == ["horizontal", "vertical", "horizontal", "vertical"]
    assert sequence_directions("channel_first", 4) == ["vertical", "vertical", "horizontal", "horizontal"]
    assert sequence_directions("time_first", 1) == ["horizontal"]
    assert sequence_directions("channel_first", 3) == ["vertical", "vertical", "horizontal"]
    assert sequence_directions("channel_first", 2) == ["vertical", "horizontal"]
    with pytest.raises(ConfigError):
        sequence_directions("sideways", 2)
    with pytest.raises(ConfigError):
        sequence_directions("alternate", 0)


def test_cost_symmetry_when_square():
    a = count_attention_cost(M=6, N=6, D=8, mode="horizontal_only", n_layers=2)
    b = count_attention_cost(M=6, N=6, D=8, mode="vertical_only", n_layers=2)
    assert a.score_entries == b.score_entries == 2 * 6 * 6 * 6


def test_cost_ett_like_mixed_cheaper():
    # N=7 variates, M=42 patches, 2 layers:
    #   mixed: 7*42^2 + 42*7^2 = 12348 + 2058 = 14406
    #   all-horizontal: 2 * 7*42^2 = 24696
    mixed = count_attention_cost(M=42, N=7, D=16, mode="alternate", n_layers=2)
    horiz = count_attention_cost(M=42, N=7, D=16, mode="horizontal_only", n_layers=2)
    assert mixed.horizontal_entries == 12348
    assert mixed.vertical_entries == 2058
    assert mixed.score_entries == 14406
    assert horiz.score_entries == 24696
    assert mixed.score_entries < horiz.score_entries
    assert mixed.macs == 14406 * 16 and mixed.macs < horiz.macs


def test_cost_single_variate_vertical_degenerate():
    c = count_attention_cost(M=9, N=1, D=8, mode="vertical_only", n_layers=1)
    assert c.score_entries == 9  # one 1x1 "matrix" per patch step


def test_cost_mode_mix_matches_sequence():
    c = count_attention_cost(M=5, N=3, D=4, mode="channel_first", n_layers=3)
    # channel_first depth 3: 2 vertical + 1 horizontal
    assert c.vertical_entries == 2 * 5 * 9
    assert c.horizontal_entries == 1 * 3 * 25


# -- attention map container -------------------------------------------------


def test_attention_map_validation():
    ok = np.array([[0.5, 0.5], [0.1, 0.9]])
    amap = AttentionMap(ok, "horizontal", 0)
    assert amap.layer_index == 0
    with pytest.raises(ShapeError):
        AttentionMap(np.array([[0.5, 0.6], [0.1, 0.9]]), "horizontal", 0)
    with pytest.raises(ShapeError):
        AttentionMap(np.array([[-0.1, 1.1], [0.5, 0.5]]), "vertical", 1)
    with pytest.raises(ConfigError):
        AttentionMap(ok, "diagonal", 0)


def test_params_init_deterministic_and_shaped():
    a = AttentionParams.init(8, 4, 16, rng(42))
    b = AttentionParams.init(8, 4, 16, rng(42))
    assert a.w_query.shape == (4, 8, 2)
    assert a.w_out.shape == (8, 8)
    assert a.ffn_in.shape == (8, 16)
    for (_, ta), (_, tb) in zip(a.named(), b.named()):
        assert (ta.data == tb.data).all()
