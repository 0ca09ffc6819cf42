import tracemalloc

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
    attention_heads,
    count_attention_cost,
    encoder_layer,
    grid_transpose,
    multi_head,
    sequence_directions,
)
from gridcast.errors import ConfigError, ShapeError
from gridcast.model import ModelConfig, build, forward
from gridcast.tensor import BatchNormState, Tensor, batch_norm, grad_check, no_grad
from oracles import attention_heads_unfused, mean, project_heads, scaled_dot_attention


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
        return mean((out - y) ** 2)

    assert grad_check(fn, inputs) < 1e-3


def test_encoder_layer_capture_row_sums():
    captured = []
    p = make_params(seed=16)
    encoder_layer(Tensor(rng(16).normal(size=(2, 5, 4))), p, capture=captured)
    assert len(captured) == 1
    w = captured[0]
    H = p.w_query.shape[0]
    assert w.shape == (2, H, 5, 5)
    np.testing.assert_allclose(w.sum(axis=-1), np.ones((2, H, 5)), atol=1e-6)


# -- cache-blocked attention -------------------------------------------------


def block_budget(rows, H, L):
    """A score budget that fits exactly ``rows`` groups of [H, L, L] scores."""
    return rows * H * L * L * 8


def run_vertical_layer(grid):
    p = make_params(D=8, H=2, D_ff=16, seed=26)
    x = Tensor(grid, requires_grad=True)
    captured = []
    out = apply_vertical(x, p, training=True, capture=captured)
    mean(out * out).backward()
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
    bounds, score_groups = [], []
    real_blocks, real_softmax = attention.score_blocks, Tensor.softmax

    def recorded_blocks(G, H, L):
        blocks = real_blocks(G, H, L)
        bounds.extend((b.start, b.stop) for b in blocks)
        return blocks

    def recorded_softmax(t, axis=-1):
        score_groups.append(t.shape[0])
        return real_softmax(t, axis)

    monkeypatch.setattr(attention, "score_blocks", recorded_blocks)
    monkeypatch.setattr(Tensor, "softmax", recorded_softmax)
    blocked = run_vertical_layer(grid)
    # forward cuts the blocks and forms each block's weights, backward does
    # both once more
    assert bounds == [(0, 3), (3, 6), (6, 7)] * 2
    assert score_groups == [3, 3, 1] * 2
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


def test_one_block_builds_the_unblocked_graph(monkeypatch):
    # multi_head builds the graph of the unblocked reference with one
    # attention_heads node in place of its input reshape, three projections,
    # scale, permute, matmul, softmax, matmul and the heads' permute and
    # reshape, and no output reshape, and gives its values and gradients bit
    # for bit at any block budget: one block, then one group per block
    p = make_params(D=4, H=2, seed=28)
    x = Tensor(rng(28).normal(size=(3, 5, 4)), requires_grad=True)
    xg = x.reshape(3, 5, 4)
    att, _ = scaled_dot_attention(*(project_heads(xg, w) for w in (p.w_query, p.w_key, p.w_value)))
    ref = (att.permute(0, 2, 1, 3).reshape(3, 5, 4) @ p.w_out).reshape(3, 5, 4)
    for budget in (attention.SCORE_BLOCK_BYTES, 1):
        monkeypatch.setattr(attention, "SCORE_BLOCK_BYTES", budget)
        out = multi_head(x, p)
        assert (out.data == ref.data).all()
        assert (graph_nodes(out), graph_nodes(ref)) == (7, 18)
        grads = []
        for y in (out, ref):
            for t in [x] + [t for _, t in p.named()]:
                t.zero_grad()
            (y * y).sum().backward()
            grads.append([x.grad, p.w_query.grad, p.w_key.grad, p.w_value.grad, p.w_out.grad])
        for got, want in zip(*grads):
            assert (got == want).all()


@pytest.mark.parametrize("rows", [7, 3])
def test_attention_heads_is_bit_identical_to_the_unfused_nodes(rows, monkeypatch):
    # the fused node against three project_heads, the scale, the permute,
    # attention_core and the heads' permute and reshape: output, the
    # gradients of the input and of all three weights, and the captured
    # weights, in one block of 7 groups and in blocks of 3, 3 and 1
    G, H, L, D = 7, 2, 5, 8
    monkeypatch.setattr(attention, "SCORE_BLOCK_BYTES", block_budget(rows, H, L))
    p = make_params(D=D, H=H, seed=30)
    r = rng(30)
    data = r.normal(size=(G, L, D))
    g = r.normal(size=(G, L, D))
    results = []
    for heads in (attention_heads, attention_heads_unfused):
        xg = Tensor(data, requires_grad=True)
        ws = (p.w_query, p.w_key, p.w_value)
        for w in ws:
            w.zero_grad()
        captured = []
        out = heads(xg, *ws, captured)
        out.backward(g)
        results.append([out.data, xg.grad] + [w.grad for w in ws] + captured)
    fused, unfused = results
    assert len(fused) == len(unfused) == 6
    for got, want in zip(fused, unfused):
        assert got.shape == want.shape and (got == want).all()


def test_attention_heads_keeps_no_projections_or_weights_and_recomputes_them_under_no_grad():
    # the node keeps the [2, 64, 8] input, which its caller holds anyway, and
    # its three [8, 16] weight matrices: none of the three [2, 2, 64, 8]
    # projections (16 KB each) or the [2, 2, 64, 64] weights (131 KB) its
    # forward formed; backward re-forms them, inside no_grad too, and gives
    # the same gradients for the [2, 64, 16] output
    r = rng(29)
    xg = Tensor(r.normal(size=(2, 64, 8)), requires_grad=True)
    ws = [Tensor(r.normal(size=(2, 8, 8)), requires_grad=True) for _ in range(3)]
    g = r.normal(size=(2, 64, 16))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = attention_heads(xg, *ws)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < out.data.nbytes + sum(w.data.nbytes for w in ws) + 8192
    with no_grad():
        out.backward(g)
    want = []
    for t in (xg, *ws):
        want.append(t.grad)
        t.zero_grad()
    attention_heads(xg, *ws).backward(g)
    for t, w in zip((xg, *ws), want):
        assert w is not None and (t.grad == w).all()


@pytest.mark.parametrize("rows", [6, 1])
def test_attention_heads_on_a_transposed_grid_matches_its_contiguous_copy(rows, monkeypatch):
    # the horizontal layer's input, a [B, N, M, D] permuted view of the grid,
    # against its contiguous [B*N, M, D] copy: the output, the grid's
    # gradient and all three weights' gradients, bit for bit
    B, M, N, D, H = 2, 5, 3, 8, 2
    monkeypatch.setattr(attention, "SCORE_BLOCK_BYTES", block_budget(rows, H, M))
    p = make_params(D=D, H=H, seed=31)
    ws = (p.w_query, p.w_key, p.w_value)
    r = rng(31)
    grid = Tensor(r.normal(size=(B, M, N, D)), requires_grad=True)
    g = r.normal(size=(B, N, M, D))
    moved = grid.permute(0, 2, 1, 3)
    assert not moved.data.flags.c_contiguous
    out = attention_heads(moved, *ws)
    out.backward(g)
    got = [out.data, grid.grad] + [w.grad for w in ws]
    for w in ws:
        w.zero_grad()
    flat = Tensor(np.ascontiguousarray(moved.data).reshape(B * N, M, D), requires_grad=True)
    ref = attention_heads(flat, *ws)
    ref.backward(g.reshape(B * N, M, D))
    want = [
        ref.data.reshape(B, N, M, D),
        flat.grad.reshape(B, N, M, D).transpose(0, 2, 1, 3),
    ] + [w.grad for w in ws]
    for a, b in zip(got, want):
        assert a.shape == b.shape and (a == b).all()


def test_blocked_forward_captures_one_map_per_layer(monkeypatch):
    cfg = ModelConfig(T=32, F=8, P=8, S=4, D=8, H=2, L=2, D_ff=16, dropout=0.0, seed=5)
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
    cfg = ModelConfig(T=T, F=4, P=P, S=S, D=D, H=H, L=2, D_ff=2 * D, dropout=0.0, seed=seed)
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
        return mean(out * out)

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
