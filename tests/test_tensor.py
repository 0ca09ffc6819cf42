import gc
import importlib
import inspect
import math
import pkgutil
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridcast
import oracles
from gridcast import attention
from gridcast.attention import attention_heads, feed_forward
from gridcast.errors import NumericError, ShapeError
from gridcast.tensor import (
    BatchNormState,
    Tensor,
    batch_norm,
    checkpoint,
    dropout,
    grad_check,
    no_grad,
)
from oracles import attention_core, project_heads


def rng(seed=0):
    return np.random.default_rng(seed)


# -- matmul ------------------------------------------------------------------


def test_matmul_identity():
    a = Tensor(np.eye(2)) @ Tensor([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(a.data, [[1.0, 2.0], [3.0, 4.0]])


def test_matmul_zeros():
    out = Tensor(np.zeros((2, 3))) @ Tensor(rng().normal(size=(3, 4)))
    assert out.shape == (2, 4)
    np.testing.assert_array_equal(out.data, np.zeros((2, 4)))


def test_matmul_hand_product():
    # [[1,2],[3,4]] @ [[5,6],[7,8]]: row-by-column arithmetic done by hand
    out = Tensor([[1.0, 2.0], [3.0, 4.0]]) @ Tensor([[5.0, 6.0], [7.0, 8.0]])
    np.testing.assert_array_equal(out.data, [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as err:
        Tensor(np.zeros((2, 3))) @ Tensor(np.zeros((4, 5)))
    assert "(2, 3)" in str(err.value) and "(4, 5)" in str(err.value)


def test_matmul_batched_broadcast_matches_loop():
    r = rng(1)
    a = r.normal(size=(5, 3, 4))
    b = r.normal(size=(4, 2))
    out = Tensor(a) @ Tensor(b)
    for i in range(5):
        np.testing.assert_allclose(out.data[i], a[i] @ b)


def test_matmul_gradients_against_rules():
    r = rng(2)
    a = Tensor(r.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(r.normal(size=(4, 2)), requires_grad=True)
    (a @ b).sum().backward()
    g = np.ones((3, 2))
    np.testing.assert_allclose(a.grad, g @ b.data.T)
    np.testing.assert_allclose(b.grad, a.data.T @ g)


# -- softmax -----------------------------------------------------------------


def test_softmax_uniform():
    out = Tensor([0.0, 0.0, 0.0]).softmax(axis=0)
    np.testing.assert_allclose(out.data, np.full(3, 1.0 / 3.0))


def test_softmax_dominant_logit_no_overflow():
    out = Tensor([1000.0, 0.0, 0.0]).softmax(axis=0)
    assert np.isfinite(out.data).all()
    np.testing.assert_allclose(out.data, [1.0, 0.0, 0.0], atol=1e-300)


def test_softmax_shift_invariance():
    x = rng(3).normal(size=(4, 5))
    base = Tensor(x).softmax(axis=1).data
    shifted = Tensor(x + 17.25).softmax(axis=1).data
    np.testing.assert_allclose(shifted, base, atol=1e-12)


def test_softmax_rows_sum_to_one():
    out = Tensor(rng(4).normal(size=(6, 7)) * 10).softmax(axis=-1)
    np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(6), atol=1e-6)


def test_softmax_nan_raises():
    with pytest.raises(NumericError):
        Tensor([1.0, float("nan")]).softmax(axis=0)


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
def test_softmax_inf_raises(bad):
    with pytest.raises(NumericError):
        Tensor([[0.0, bad]]).softmax()


@pytest.mark.parametrize("axis", [-1, 1])
def test_softmax_matches_three_temporary_reference(axis):
    r = rng(7)
    x = r.normal(size=(2, 3, 5, 5)) * 4.0
    weight = Tensor(r.normal(size=x.shape))
    a, b = Tensor(x, requires_grad=True), Tensor(x, requires_grad=True)
    out = a.softmax(axis=axis)
    ref = oracles.softmax_three_temporaries(b, axis=axis)
    (out * weight).sum().backward()
    (ref * weight).sum().backward()
    assert (out.data == ref.data).all()
    assert (a.grad == b.grad).all()


# -- row kernels: softmax, gelu and the head projection ------------------------


def softmax_reference(x, axis):
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


@settings(max_examples=60, deadline=None)
@given(
    L=st.integers(1, 160),
    rows=st.integers(1, 4),
    axis=st.sampled_from([-1, 0, 1]),
    scale=st.floats(0.01, 40.0),
    seed=st.integers(0, 2**16),
)
def test_softmax_matches_plain_numpy(L, rows, axis, scale, seed):
    shape = {-1: (rows, 3, L), 0: (L, rows, 3), 1: (rows, L, 3)}[axis]
    x = rng(seed).normal(size=shape) * scale
    out = Tensor(x).softmax(axis=axis)
    np.testing.assert_allclose(out.data, softmax_reference(x, axis), rtol=1e-14, atol=0)


def unaligned_copy(a, byte_offset):
    """A copy of ``a`` whose data starts ``byte_offset`` bytes into a buffer."""
    buf = bytearray(a.nbytes + 64)
    out = np.frombuffer(buf, dtype=a.dtype, count=a.size, offset=byte_offset).reshape(a.shape)
    out[...] = a
    return out


def softmax_and_grad(x, w):
    t = Tensor(x, requires_grad=True)
    out = t.softmax(axis=-1)
    (out * Tensor(w)).sum().backward()
    return out.data, t.grad


@settings(max_examples=60, deadline=None)
@given(
    L=st.integers(1, 160),
    batch=st.integers(1, 9),
    data=st.data(),
    byte_offset=st.integers(1, 63),
    seed=st.integers(0, 2**16),
)
def test_softmax_row_does_not_depend_on_its_position(L, batch, data, byte_offset, seed):
    # blocked attention cuts score rows at arbitrary offsets and must give the
    # unblocked values bit for bit
    r = rng(seed)
    x, w = r.normal(size=(batch, L)) * 5.0, r.normal(size=(batch, L))
    i = data.draw(st.integers(0, batch - 1))
    out, grad = softmax_and_grad(x, w)
    alone_out, alone_grad = softmax_and_grad(x[i : i + 1].copy(), w[i : i + 1].copy())
    moved_out, moved_grad = softmax_and_grad(
        unaligned_copy(x, byte_offset), unaligned_copy(w, byte_offset)
    )
    for got_out, got_grad, row in ((alone_out, alone_grad, 0), (moved_out, moved_grad, i)):
        np.testing.assert_array_equal(got_out[row], out[i])
        np.testing.assert_array_equal(got_grad[row], grad[i])


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 200), scale=st.floats(0.01, 10.0), seed=st.integers(0, 2**16))
def test_gelu_in_place_chain_is_the_formula_bit_for_bit(n, scale, seed):
    r = rng(seed)
    x, g = r.normal(size=n) * scale, r.normal(size=n)
    k, c = math.sqrt(2.0 / math.pi), 0.044715
    t = np.tanh(k * (x + c * (x * x * x)))
    dt = (1.0 - t * t) * k * (1.0 + 3.0 * c * x * x)
    a = Tensor(x, requires_grad=True)
    out = a.gelu()
    (out * Tensor(g)).sum().backward()
    np.testing.assert_array_equal(out.data, 0.5 * x * (1.0 + t))
    np.testing.assert_array_equal(a.grad, g * (0.5 * (1.0 + t) + 0.5 * x * dt))


@settings(max_examples=15, deadline=None)
@given(
    lead=st.lists(st.integers(1, 3), min_size=0, max_size=2),
    L=st.integers(1, 4),
    H=st.integers(1, 3),
    d=st.integers(1, 3),
    D=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
def test_grad_check_project_heads(lead, L, H, d, D, seed):
    r = rng(seed)
    x = Tensor(r.normal(size=(*lead, L, D)))
    w = Tensor(r.normal(size=(H, D, d)))
    weight = Tensor(r.normal(size=(math.prod(lead), H, L, d)))
    out = project_heads(x, w)
    assert out.shape == weight.shape
    np.testing.assert_allclose(
        out.data, np.matmul(x.data.reshape(-1, 1, L, D), w.data), rtol=1e-12, atol=1e-12
    )
    assert grad_check(lambda ts: (project_heads(ts[0], ts[1]) * weight).sum(), [x, w]) < 1e-6


# -- batch norm --------------------------------------------------------------


def test_batch_norm_constant_input_is_zero():
    x = Tensor(np.full((4, 3), 7.0))
    out = batch_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)), BatchNormState(), training=True)
    np.testing.assert_allclose(out.data, np.zeros((4, 3)), atol=1e-12)


def test_batch_norm_gamma_zero_gives_beta():
    x = Tensor(rng(5).normal(size=(4, 3)))
    beta = Tensor([1.0, 2.0, 3.0])
    out = batch_norm(x, Tensor(np.zeros(3)), beta, BatchNormState(), training=True)
    np.testing.assert_allclose(out.data, np.broadcast_to(beta.data, (4, 3)))


def test_batch_norm_two_sample_hand_value():
    # batch [1, 3]: mean 2, biased var 1 -> +-1/sqrt(1 + 1e-5)
    x = Tensor([[1.0], [3.0]])
    out = batch_norm(x, Tensor(np.ones(1)), Tensor(np.zeros(1)), BatchNormState(), training=True)
    expected = 1.0 / math.sqrt(1.0 + 1e-5)
    np.testing.assert_allclose(out.data, [[-expected], [expected]], rtol=1e-12)


def test_batch_norm_running_stats_used_in_inference():
    state = BatchNormState()
    x = Tensor(rng(6).normal(size=(8, 2)) * 3.0 + 1.0)
    batch_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), state, training=True)
    y = batch_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), state, training=False)
    # one 0.1-momentum step from the initial mean 0 and variance 1
    mu = 0.1 * x.data.mean(axis=0, keepdims=True)
    var = 0.9 + 0.1 * x.data.var(axis=0, keepdims=True)
    np.testing.assert_allclose(y.data, (x.data - mu) / np.sqrt(var + 1e-5), rtol=1e-10)


def test_batch_norm_zero_variance_clamped_not_error():
    x = Tensor(np.full((3, 2), 5.0))
    out = batch_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), BatchNormState(), training=True)
    assert np.isfinite(out.data).all()


@pytest.mark.parametrize("shape", [(6, 4), (2, 3, 5, 4)])
def test_batch_norm_matches_composite_reference(shape):
    r = rng(8)
    arrays = (r.normal(size=shape) * 3.0 + 1.0, r.normal(size=4), r.normal(size=4))
    weight = Tensor(r.normal(size=shape))

    def run(norm):
        ts = [Tensor(a, requires_grad=True) for a in arrays]
        out = norm(*ts)
        (out * weight).sum().backward()
        return out.data, [t.grad for t in ts]

    out, grads = run(lambda x, g, b: batch_norm(x, g, b, BatchNormState(), True))
    ref, ref_grads = run(lambda x, g, b: oracles.batch_norm_composite(x, g, b))
    assert (out == ref).all()
    for got, want in zip(grads, ref_grads):
        np.testing.assert_allclose(got, want, rtol=1e-10)


# -- gelu --------------------------------------------------------------------


def test_gelu_zero():
    assert Tensor([0.0]).gelu().data[0] == 0.0


def test_gelu_large_positive_asymptote():
    x = np.array([8.0, 12.0])
    np.testing.assert_allclose(Tensor(x).gelu().data, x, rtol=1e-9)


def test_gelu_one_matches_scalar_formula():
    inner = math.sqrt(2.0 / math.pi) * (1.0 + 0.044715)
    expected = 0.5 * (1.0 + math.tanh(inner))
    np.testing.assert_allclose(Tensor([1.0]).gelu().data[0], expected, rtol=1e-14)


# -- permute / reshape -------------------------------------------------------


def test_permute_involution_bit_exact():
    x = rng(7).normal(size=(2, 3))
    back = Tensor(x).permute(1, 0).permute(1, 0)
    assert (back.data == x).all()


def test_reshape_roundtrip_preserves_order():
    x = np.arange(12.0)
    back = Tensor(x).reshape(3, 4).reshape(12)
    np.testing.assert_array_equal(back.data, x)


def test_permute_index_arithmetic():
    x = rng(8).normal(size=(2, 3, 4))
    out = Tensor(x).permute(1, 0, 2)
    for m in range(2):
        for n in range(3):
            for d in range(4):
                assert out.data[n, m, d] == x[m, n, d]


def test_permute_invalid_axes():
    with pytest.raises(ShapeError):
        Tensor(np.zeros((2, 3))).permute(0, 0)


def test_reshape_count_mismatch():
    with pytest.raises(ShapeError):
        Tensor(np.zeros(12)).reshape(5, 3)


# -- attention row blocks ----------------------------------------------------


@pytest.mark.parametrize("shape", [(3, 2, 4, 3), (5, 1, 3, 2)])
def test_grad_check_concat_rows(shape, monkeypatch):
    # blocks of two groups leave a last block of one: the output joins the
    # blocks' rows, and backward writes each block's rows of the Q, K and V
    # gradients before the projections pull them back to the input and weights
    G, H, L, d = shape
    monkeypatch.setattr(attention, "SCORE_BLOCK_BYTES", 2 * H * L * L * 8)
    assert [b.stop - b.start for b in attention.score_blocks(G, H, L)][-1] == 1
    r = rng(32)
    xg = Tensor(r.normal(size=(G, L, 3)))
    ws = [Tensor(r.normal(size=(H, 3, d))) for _ in range(3)]
    w = Tensor(r.normal(size=(G, L, H * d)))

    def fn(ts):
        return (attention_heads(*ts) ** 2 * w).sum()

    assert grad_check(fn, [xg, *ws]) < 1e-3


def test_row_slice_scatter_copies_a_gradient_another_parent_holds(monkeypatch):
    # __add__ hands the same g array to the heads and to z, and the same u to
    # x and y; attention_heads' vjp writes the Q, K and V gradients one row
    # block at a time and must write into neither g nor x's other gradient
    monkeypatch.setattr(attention, "SCORE_BLOCK_BYTES", 1)
    r = rng(33)
    x, y = (Tensor(r.normal(size=(3, 4, 3)), requires_grad=True) for _ in range(2))
    ws = [Tensor(r.normal(size=(2, 3, 2)), requires_grad=True) for _ in range(3)]
    z = Tensor(r.normal(size=(3, 4, 4)), requires_grad=True)
    g = r.normal(size=(3, 4, 4))
    u = r.normal(size=(3, 4, 3))
    loss = ((attention_heads(x, *ws) + z) * Tensor(g)).sum() + ((x + y) * Tensor(u)).sum()
    loss.backward()
    alone = [Tensor(t.data.copy(), requires_grad=True) for t in (x, *ws)]
    attention_heads(*alone).backward(g)
    assert (z.grad == g).all() and (y.grad == u).all()
    assert (x.grad == u + alone[0].grad).all()
    for got, want in zip(ws, alone[1:]):
        assert (got.grad == want.grad).all()


def test_row_slices_backward_builds_one_parent_sized_buffer(monkeypatch):
    # sixteen row blocks of 0.5 MiB inputs through the package's block loops:
    # a zero-padded full-size gradient per block would peak near sixteen
    # times their size
    r = rng(34)
    shapes = [(16, 2, 32, 64), (16, 2, 64, 32), (16, 2, 32, 64)]
    data = [r.normal(size=s) for s in shapes]
    whole = [Tensor(a, requires_grad=True) for a in data]
    attention_core(*whole).sum().backward()

    monkeypatch.setattr(attention, "SCORE_BLOCK_BYTES", 1)
    blocked = [Tensor(a, requires_grad=True) for a in data]
    loss = attention_core(*blocked).sum()
    tracemalloc.start()
    try:
        loss.backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    for b, t in zip(blocked, whole):
        assert (b.grad == t.grad).all()
    assert peak < 1.5 * sum(a.nbytes for a in data)


# -- backward ----------------------------------------------------------------


def test_backward_sum_gives_ones():
    x = Tensor(rng(9).normal(size=(3, 4)), requires_grad=True)
    x.sum().backward()
    np.testing.assert_array_equal(x.grad, np.ones((3, 4)))


def test_backward_half_square_gives_identity():
    x = Tensor(rng(10).normal(size=(5,)), requires_grad=True)
    ((x * x).sum() * 0.5).backward()
    np.testing.assert_allclose(x.grad, x.data, rtol=1e-12)


def test_backward_accumulates_until_zeroed():
    x = Tensor(np.ones(3), requires_grad=True)
    loss = x.sum()
    loss.backward()
    loss.backward()
    np.testing.assert_array_equal(x.grad, np.full(3, 2.0))
    x.zero_grad()
    loss.backward()
    np.testing.assert_array_equal(x.grad, np.ones(3))


def test_graph_frees_intermediates_backward_twice_adds_twice():
    # The raw scores softmax consumes are read by no vjp, so nothing keeps
    # them alive once the forward is over. The gradients are the same
    # arithmetic in plain numpy, bit for bit.
    r = rng(17)
    a_data, b_data, w = r.normal(size=(2, 3, 4)), r.normal(size=(4, 5)), r.normal(size=(3, 5))
    A, B = Tensor(a_data, requires_grad=True), Tensor(b_data, requires_grad=True)
    scores_refs = []

    def forward():
        scores = A @ B
        scores_refs.append(weakref.ref(scores.data))
        return (scores.softmax(axis=-1) * Tensor(w)).sum()

    loss = forward()
    assert scores_refs[0]() is None

    scores = a_data @ b_data
    s = np.exp(scores - scores.max(axis=-1, keepdims=True))
    s /= np.einsum("...j->...", s)[..., None]
    g = w - np.einsum("...j,...j->...", w, s)[..., None]
    g *= s
    loss.backward()
    np.testing.assert_array_equal(A.grad, np.matmul(g, b_data.T))
    np.testing.assert_array_equal(B.grad, np.matmul(np.swapaxes(a_data, -1, -2), g).sum(axis=0))
    first_a, first_b = A.grad.copy(), B.grad.copy()
    loss.backward()
    np.testing.assert_array_equal(A.grad, first_a + first_a)
    np.testing.assert_array_equal(B.grad, first_b + first_b)


def _captured_arrays(t: Tensor) -> list:
    """The arrays the graph behind ``t`` keeps alive: the node that made it,
    when its parents are leaves."""
    return [a for _, a in oracles.kept_arrays(t)]


@pytest.mark.parametrize("const", [0.5, Tensor(np.arange(1.0, 5.0))], ids=["float", "tensor"])
def test_a_product_with_a_constant_keeps_nothing_of_the_other_operand(const):
    # the constant needs no gradient, so the product's vjp reads only the
    # constant, and the intermediate h is freed once the caller drops it
    r = rng(40)
    x = Tensor(r.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(r.normal(size=(4, 4)), requires_grad=True)
    h = x @ w
    ref = weakref.ref(h.data)
    loss = (h * const).sum()
    del h
    assert ref() is None
    loss.backward()
    g_h = np.ones((3, 4)) * Tensor._coerce(const).data
    np.testing.assert_array_equal(x.grad, np.matmul(g_h, w.data.T))


def test_gelu_keeps_one_array_of_its_input_size():
    x = Tensor(rng(42).normal(size=(4, 6)), requires_grad=True)
    assert [a.shape for a in _captured_arrays(x.gelu())] == [x.shape]


def test_training_dropout_keeps_one_bool_mask_and_no_float_copy():
    x = Tensor(rng(41).normal(size=(6, 5)), requires_grad=True)
    kept = _captured_arrays(dropout(x, 0.3, rng(0), training=True))
    assert [(a.dtype, a.shape) for a in kept] == [(np.dtype(bool), x.shape)]


def test_matmul_by_a_constant_forms_no_gradient_for_it():
    r = rng(43)
    c = r.normal(size=(2, 3, 4))
    w = Tensor(r.normal(size=(4, 5)), requires_grad=True)
    out = Tensor(c) @ w
    # the constant is kept for w's gradient, w for nobody's
    assert [a is c for a in _captured_arrays(out)] == [True]
    g = r.normal(size=(2, 3, 5))
    gc_, gw = out._vjp(g)
    assert gc_ is None
    np.testing.assert_array_equal(gw, np.matmul(np.swapaxes(c, -1, -2), g).sum(axis=0))


# -- checkpoint --------------------------------------------------------------


def _ffn_inputs(shape, D_ff, seed, need_y=True):
    r = rng(seed)
    D = shape[-1]
    return (
        Tensor(r.normal(size=shape), requires_grad=need_y),
        Tensor(r.normal(size=(D, D_ff)), requires_grad=True),
        Tensor(r.normal(size=(D_ff, D)), requires_grad=True),
    )


@pytest.mark.parametrize("shape,D_ff", [((2, 3, 4, 5), 7), ((3, 6, 16), 32)])
def test_checkpoint_is_the_plain_graph_bit_for_bit(shape, D_ff):
    # y also feeds a residual sum, as in the encoder, so its two gradients add
    g = rng(50).normal(size=shape)
    results = []
    for ffn in (feed_forward, lambda *ts: checkpoint(feed_forward, *ts)):
        y, w_in, w_out = _ffn_inputs(shape, D_ff, 51)
        out = y + ffn(y, w_in, w_out)
        out.backward(g)
        results.append([out.data, y.grad, w_in.grad, w_out.grad])
    for plain, checkpointed in zip(*results):
        np.testing.assert_array_equal(checkpointed, plain)


def test_checkpoint_keeps_only_its_inputs_arrays():
    y, w_in, w_out = _ffn_inputs((2, 3, 4), 8, 52)
    out = checkpoint(feed_forward, y, w_in, w_out)
    kept = _captured_arrays(out)
    assert len(kept) == 3 and all(any(a is t.data for a in kept) for t in (y, w_in, w_out))


def test_checkpoint_forms_no_product_for_an_input_that_needs_none(monkeypatch):
    calls = []
    matmul = np.matmul

    def counting_matmul(*args, **kwargs):
        calls.append(1)
        return matmul(*args, **kwargs)

    grads = {}
    for need_y in (True, False):
        y, w_in, w_out = _ffn_inputs((2, 3, 4), 5, 53, need_y)
        out = checkpoint(feed_forward, y, w_in, w_out)
        monkeypatch.setattr(np, "matmul", counting_matmul)
        calls.clear()
        out.backward(np.ones(out.shape))
        monkeypatch.setattr(np, "matmul", matmul)
        # the recompute's two products, the gradients of the hidden array,
        # w_out and w_in, and y's only where it needs one
        assert len(calls) == (6 if need_y else 5)
        assert (y.grad is None) != need_y
        grads[need_y] = (w_in.grad, w_out.grad)
    for with_y, without_y in zip(grads[True], grads[False]):
        np.testing.assert_array_equal(without_y, with_y)


def test_checkpoint_under_no_grad_builds_no_node():
    calls = []

    def ffn(*ts):
        calls.append(1)
        return feed_forward(*ts)

    inputs = _ffn_inputs((2, 3, 4), 5, 54)
    with no_grad():
        out = checkpoint(ffn, *inputs)
    assert out._node is None and not out.requires_grad and len(calls) == 1
    np.testing.assert_array_equal(out.data, feed_forward(*inputs).data)


def test_dropped_graph_frees_its_leaf_without_the_cycle_collector():
    enabled = gc.isenabled()
    gc.disable()
    try:
        leaf = Tensor(np.ones(3), requires_grad=True)
        ref = weakref.ref(leaf)
        loss = ((leaf * 2.0).softmax() * leaf).sum()
        loss.backward()
        assert leaf.grad is not None and ref() is leaf
        del leaf, loss
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_backward_rejects_non_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ShapeError):
        (x * 2).backward()


def test_backward_rejects_a_seed_of_another_shape():
    x = Tensor(np.ones(3), requires_grad=True)
    for seed in (np.ones(4), np.ones((3, 1)), 1.0):
        with pytest.raises(ShapeError):
            (x * 2).backward(seed)


def test_seeded_backward_equals_the_weighted_sum():
    # y.backward(g) pulls g back as (y * g).sum().backward() does, bit for bit
    r = rng(34)
    a_data, b_data, g = r.normal(size=(2, 3, 4)), r.normal(size=(4, 5)), r.normal(size=(2, 3, 5))
    grads = []
    for seeded in (True, False):
        A, B = Tensor(a_data, requires_grad=True), Tensor(b_data, requires_grad=True)
        y = (A @ B).softmax(axis=-1).gelu()
        if seeded:
            y.backward(g)
        else:
            (y * Tensor(g)).sum().backward()
        grads.append((A.grad, B.grad))
    for got, want in zip(*grads):
        assert (got == want).all()


def test_backward_shared_subexpression():
    # y = x*x reused twice: grads add up through both paths
    x = Tensor([3.0], requires_grad=True)
    y = x * x
    (y + y).sum().backward()
    np.testing.assert_allclose(x.grad, [12.0])


def test_no_grad_blocks_graph():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        y = (x * 2).sum()
    assert not y.requires_grad
    assert y._node is None


# -- dropout -----------------------------------------------------------------


def test_dropout_identity_when_not_training():
    x = Tensor(np.ones(10))
    assert dropout(x, 0.5, rng(0), training=False) is x
    assert dropout(x, 0.0, rng(0), training=True) is x


def test_dropout_inverted_scaling():
    x = Tensor(np.ones(10_000))
    out = dropout(x, 0.25, rng(11), training=True)
    kept = out.data[out.data > 0]
    np.testing.assert_allclose(kept, np.full(kept.size, 1.0 / 0.75))
    assert abs(out.data.mean() - 1.0) < 0.05


def test_dropout_node_is_the_scaled_mask_product_bit_for_bit():
    # the node keeps the boolean mask and scales it in backward; values and
    # gradient are those of a product with the float mask keep / (1 - rate)
    shape = (7, 9)
    for rate in (0.1, 0.3, 0.7):
        x = Tensor(rng(15).normal(size=shape), requires_grad=True)
        g = rng(16).normal(size=shape)
        out = dropout(x, rate, rng(99), training=True)
        mask = (rng(99).random(shape) >= rate) / (1 - rate)
        assert out.data.tobytes() == (x.data * mask).tobytes()
        (out * Tensor(g)).sum().backward()
        assert x.grad.tobytes() == (g * mask).tobytes()


# -- grad_check --------------------------------------------------------------


def test_grad_check_sum_exact():
    x = Tensor(rng(12).normal(size=(4,)))
    assert grad_check(lambda ts: ts[0].sum(), [x]) < 1e-9


def test_grad_check_softmax_sum_constant():
    x = Tensor(rng(13).normal(size=(6,)))
    err = grad_check(lambda ts: ts[0].softmax(axis=0).sum(), [x])
    assert err < 1e-6


@pytest.mark.parametrize("name,fn,shapes", oracles.OP_CASES)
def test_grad_check_ops(name, fn, shapes):
    assert grad_check(fn, oracles.op_case_inputs(name, shapes)) < 1e-3


def _node_makers() -> set:
    """Qualified names of the package's functions and methods whose source
    calls ``Tensor._make``."""
    found = set()
    for info in pkgutil.iter_modules(gridcast.__path__):
        module = importlib.import_module(f"gridcast.{info.name}")
        owners = [module] + [
            cls for _, cls in inspect.getmembers(module, inspect.isclass)
            if cls.__module__ == module.__name__
        ]
        for owner in owners:
            for _, fn in inspect.getmembers(owner, inspect.isfunction):
                # dataclass-generated methods have no source file
                if fn.__code__.co_filename != module.__file__:
                    continue
                if "_make(" in inspect.getsource(fn):
                    found.add(fn.__qualname__)
    return found


def test_every_graph_op_has_a_grad_check_case(monkeypatch):
    made_by = set()
    make = Tensor.__dict__["_make"].__func__

    def recording_make(cls, data, parents, vjp):
        made_by.add(sys._getframe(1).f_code.co_qualname)
        return make(cls, data, parents, vjp)

    monkeypatch.setattr(Tensor, "_make", classmethod(recording_make))
    for name, fn, shapes in oracles.OP_CASES:
        fn(oracles.op_case_inputs(name, shapes))
    makers = _node_makers()
    assert {"Tensor.__add__", "Tensor.softmax", "batch_norm", "mse"} <= makers  # the scan works
    assert makers - made_by == set(), "graph ops with no case in oracles.OP_CASES"


def test_grad_check_batch_norm_training_4d_batch_axes():
    r = rng(16)
    x = Tensor(r.normal(size=(2, 3, 2, 3)))
    gamma = Tensor(r.normal(size=(3,)))
    beta = Tensor(r.normal(size=(3,)))
    weight = Tensor(r.normal(size=(2, 3, 2, 3)))

    def fn(ts):
        out = batch_norm(ts[0], ts[1], ts[2], BatchNormState(), training=True)
        return (out * out * weight).sum()

    assert grad_check(fn, [x, gamma, beta]) < 1e-3


def test_grad_check_batch_norm_inference():
    r = rng(17)
    x = Tensor(r.normal(size=(2, 3, 2, 3)))
    gamma = Tensor(r.normal(size=(3,)))
    beta = Tensor(r.normal(size=(3,)))
    weight = Tensor(r.normal(size=(2, 3, 2, 3)))
    state = BatchNormState(r.normal(size=(1, 1, 1, 3)), r.uniform(0.5, 2.0, size=(1, 1, 1, 3)))

    def fn(ts):
        out = batch_norm(ts[0], ts[1], ts[2], state, training=False)
        return (out * out * weight).sum()

    assert grad_check(fn, [x, gamma, beta]) < 1e-3


def test_batch_norm_inference_node_equals_the_composed_ops():
    r = rng(18)
    x = Tensor(r.normal(size=(3, 4, 5, 6)) * 2.0 + 1.0, requires_grad=True)
    gamma, beta = Tensor(r.normal(size=6)), Tensor(r.normal(size=6))
    rm, rv = r.normal(size=(1, 1, 1, 6)), r.uniform(0.5, 2.0, size=(1, 1, 1, 6))
    out = batch_norm(x, gamma, beta, BatchNormState(rm, rv), training=False)
    ref = (x - Tensor(rm)) * Tensor(1.0 / np.sqrt(rv + 1e-5)) * gamma + beta
    assert (out.data == ref.data).all()
    g = r.normal(size=x.shape)
    (out * Tensor(g)).sum().backward()
    got = x.grad
    x.zero_grad()
    (ref * Tensor(g)).sum().backward()
    assert (got == x.grad).all()


# -- determinism -------------------------------------------------------------


def test_determinism_same_seed_bit_identical():
    def run():
        r = rng(42)
        x = Tensor(r.normal(size=(4, 4)), requires_grad=True)
        w = Tensor(r.normal(size=(4, 4)), requires_grad=True)
        out = ((x @ w).gelu().softmax(axis=-1) * x).sum()
        out.backward()
        return out.data.copy(), x.grad.copy(), w.grad.copy()

    a = run()
    b = run()
    for lhs, rhs in zip(a, b):
        assert (lhs == rhs).all()
