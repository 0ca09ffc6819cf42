import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gridcast.attention import project_heads
from gridcast.errors import NumericError, ShapeError
from gridcast.tensor import (
    BatchNormState,
    Tensor,
    batch_norm,
    dropout,
    grad_check,
    no_grad,
)


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
@pytest.mark.parametrize("axes", [None, (0, 1)])
def test_batch_norm_matches_composite_reference(shape, axes):
    r = rng(8)
    arrays = (r.normal(size=shape) * 3.0 + 1.0, r.normal(size=4), r.normal(size=4))
    weight = Tensor(r.normal(size=shape))

    def run(norm):
        ts = [Tensor(a, requires_grad=True) for a in arrays]
        out = norm(*ts)
        (out * weight).sum().backward()
        return out.data, [t.grad for t in ts]

    out, grads = run(lambda x, g, b: batch_norm(x, g, b, BatchNormState(), True, axes=axes))
    ref, ref_grads = run(lambda x, g, b: oracles.batch_norm_composite(x, g, b, axes=axes))
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


# -- row slice / row concat --------------------------------------------------


def test_rows_is_a_view_and_concat_rebuilds_bit_exact():
    x = Tensor(rng(30).normal(size=(7, 3, 2)))
    parts = [x.rows(0, 3), x.rows(3, 6), x.rows(6, 7)]
    assert all(np.shares_memory(p.data, x.data) for p in parts)
    assert [p.shape[0] for p in parts] == [3, 3, 1]
    assert (Tensor.concat_rows(parts).data == x.data).all()


def test_whole_rows_and_a_single_concat_part_are_the_tensor_itself():
    x = Tensor(rng(30).normal(size=(4, 3)), requires_grad=True)
    assert x.rows(0, 4) is x
    assert Tensor.concat_rows([x]) is x
    assert Tensor.concat_rows(iter([x])) is x


@pytest.mark.parametrize("start,stop", [(0, 0), (2, 1), (-1, 2), (0, 5)])
def test_rows_invalid_bounds(start, stop):
    with pytest.raises(ShapeError):
        Tensor(np.zeros((4, 3))).rows(start, stop)


def test_rows_rejects_a_scalar_and_concat_rejects_mismatched_rows():
    with pytest.raises(ShapeError):
        Tensor(1.0).rows(0, 1)
    with pytest.raises(ShapeError):
        Tensor.concat_rows([Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4)))])


@pytest.mark.parametrize("shape", [(5, 3), (5, 2, 3, 2)])
def test_grad_check_rows_overlapping_slices(shape):
    # rows 1-3 are read by both slices, so their gradients add in one buffer
    r = rng(31)
    x = Tensor(r.normal(size=shape))
    w = Tensor(r.normal(size=(3,) + shape[1:]))

    def fn(ts):
        return (ts[0].rows(1, 4) * w).sum() + (ts[0].rows(0, 3) ** 2).sum()

    assert grad_check(fn, [x]) < 1e-3


@pytest.mark.parametrize("shape", [(2, 3), (2, 2, 3, 2)])
def test_grad_check_concat_rows(shape):
    # the first part appears twice, so its two views of g add up
    r = rng(32)
    a = Tensor(r.normal(size=shape))
    b = Tensor(r.normal(size=(1,) + shape[1:]))
    w = Tensor(r.normal(size=(2 * shape[0] + 1,) + shape[1:]))

    def fn(ts):
        return (Tensor.concat_rows([ts[0], ts[1], ts[0]]) ** 2 * w).sum()

    assert grad_check(fn, [a, b]) < 1e-3


def test_row_slice_scatter_copies_a_gradient_another_parent_holds():
    # __add__ hands the same g array to x and z; the row slice of x then adds
    # into x's gradient, which must not write into z's
    r = rng(33)
    x = Tensor(r.normal(size=(4, 3)), requires_grad=True)
    z = Tensor(r.normal(size=(4, 3)), requires_grad=True)
    w = r.normal(size=(4, 3))
    u = r.normal(size=(2, 3))
    loss = ((x + z) * Tensor(w)).sum() + (x.rows(1, 3) * Tensor(u)).sum()
    loss.backward()
    expected_x = w.copy()
    expected_x[1:3] += u
    assert (z.grad == w).all()
    assert (x.grad == expected_x).all()


def test_row_slices_backward_builds_one_parent_sized_buffer():
    # sixteen slices of a 1 MiB tensor: a zero-padded full-size gradient per
    # slice would peak near three times its size
    x = Tensor(np.ones((64, 128, 16)), requires_grad=True)
    loss = sum(x.rows(i, i + 4).sum() for i in range(0, 64, 4))
    tracemalloc.start()
    try:
        loss.backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (x.grad == 1.0).all()
    assert peak < 1.5 * x.data.nbytes


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
    assert y._parents == ()


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


# -- grad_check --------------------------------------------------------------


def test_grad_check_sum_exact():
    x = Tensor(rng(12).normal(size=(4,)))
    assert grad_check(lambda ts: ts[0].sum(), [x]) < 1e-9


def test_grad_check_softmax_sum_constant():
    x = Tensor(rng(13).normal(size=(6,)))
    err = grad_check(lambda ts: ts[0].softmax(axis=0).sum(), [x])
    assert err < 1e-6


@pytest.mark.parametrize(
    "name,fn,shapes",
    [
        ("add", lambda ts: (ts[0] + ts[1]).sum(), [(3, 4), (3, 4)]),
        ("add_broadcast", lambda ts: ((ts[0] + ts[1]) * (ts[0] + ts[1])).sum(), [(3, 4), (4,)]),
        ("sub", lambda ts: ((ts[0] - ts[1]) ** 2).sum(), [(4,), (4,)]),
        ("mul", lambda ts: (ts[0] * ts[1]).sum(), [(2, 3), (2, 3)]),
        ("div", lambda ts: (ts[0] / (ts[1] * ts[1] + 1.0)).sum(), [(5,), (5,)]),
        ("pow", lambda ts: ((ts[0] * ts[0] + 1.0) ** 1.5).sum(), [(6,)]),
        ("abs", lambda ts: (ts[0].abs() * ts[1]).sum(), [(7,), (7,)]),
        ("matmul", lambda ts: ((ts[0] @ ts[1]) ** 2).sum(), [(3, 4), (4, 2)]),
        ("matmul_batched", lambda ts: ((ts[0] @ ts[1]) ** 2).sum(), [(2, 3, 4), (4, 2)]),
        ("mean", lambda ts: (ts[0].mean(axis=0) ** 2).sum(), [(4, 3)]),
        ("reshape", lambda ts: (ts[0].reshape(6) * ts[0].reshape(6)).sum(), [(2, 3)]),
        ("permute", lambda ts: ((ts[0].permute(1, 0) @ ts[1]) ** 2).sum(), [(3, 4), (3, 2)]),
        ("gelu", lambda ts: ts[0].gelu().sum(), [(8,)]),
        (
            "softmax_weighted",
            lambda ts: (ts[0].softmax(axis=-1) * ts[1]).sum(),
            [(3, 5), (3, 5)],
        ),
    ],
)
def test_grad_check_ops(name, fn, shapes):
    r = rng(hash(name) % 2**32)
    inputs = [Tensor(r.normal(size=s)) for s in shapes]
    assert grad_check(fn, inputs) < 1e-3


def test_grad_check_batch_norm_training():
    r = rng(14)
    x = Tensor(r.normal(size=(4, 3)))
    gamma = Tensor(r.normal(size=(3,)))
    beta = Tensor(r.normal(size=(3,)))

    def fn(ts):
        out = batch_norm(ts[0], ts[1], ts[2], BatchNormState(), training=True)
        return (out * out).sum()

    assert grad_check(fn, [x, gamma, beta]) < 1e-3


def test_grad_check_batch_norm_training_4d_batch_axes():
    r = rng(16)
    x = Tensor(r.normal(size=(2, 3, 2, 3)))
    gamma = Tensor(r.normal(size=(3,)))
    beta = Tensor(r.normal(size=(3,)))
    weight = Tensor(r.normal(size=(2, 3, 2, 3)))

    def fn(ts):
        out = batch_norm(ts[0], ts[1], ts[2], BatchNormState(), training=True, axes=(0, 1))
        return (out * out * weight).sum()

    assert grad_check(fn, [x, gamma, beta]) < 1e-3


def test_grad_check_dropout_fixed_mask():
    x = Tensor(rng(15).normal(size=(10,)))

    def fn(ts):
        return dropout(ts[0], 0.3, rng(99), training=True).sum()

    assert grad_check(fn, [x]) < 1e-3


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
