import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcast.embed import embed_grid, pad_tail, patch_count, revin_denormalize, revin_normalize
from gridcast.errors import ConfigError, ShapeError
from gridcast.model import ModelConfig
from gridcast.tensor import Tensor, grad_check
from oracles import embed_patches, patchify


def rng(seed=0):
    return np.random.default_rng(seed)


# -- revin -------------------------------------------------------------------


def test_revin_constant_column_maps_to_zero():
    x = np.full((1, 4, 1), 2.0)
    out, stats = revin_normalize(x)
    np.testing.assert_array_equal(out, np.zeros((1, 4, 1)))
    assert stats.std[0, 0, 0] == 1e-5  # clamped, not divided by zero


def test_revin_two_point_hand_case():
    out, stats = revin_normalize(np.array([[[0.0], [2.0]]]))
    np.testing.assert_allclose(out, [[[-1.0], [1.0]]])
    assert stats.mean[0, 0, 0] == 1.0 and stats.std[0, 0, 0] == 1.0


def test_revin_moments_within_tolerance():
    x = rng(1).normal(size=(1, 96, 5)) * 3.0 + 7.0
    out, _ = revin_normalize(x)
    assert np.abs(out.mean(axis=1)).max() < 1e-6
    assert np.abs(out.std(axis=1) - 1.0).max() < 1e-6


def test_revin_roundtrip_identity():
    x = rng(2).normal(size=(1, 48, 3)) * 2.5 - 4.0
    out, stats = revin_normalize(x)
    np.testing.assert_allclose(revin_denormalize(out, stats), x, atol=1e-9)


def test_revin_batched_per_window_stats():
    x = rng(3).normal(size=(4, 32, 2))
    out, stats = revin_normalize(x)
    assert stats.mean.shape == stats.std.shape == (4, 1, 2)
    for b in range(4):
        single, s_single = revin_normalize(x[b : b + 1])
        np.testing.assert_allclose(out[b], single[0], atol=1e-12)
        np.testing.assert_allclose(stats.mean[b], s_single.mean[0])
    np.testing.assert_allclose(revin_denormalize(out, stats), x, atol=1e-9)


def test_revin_denormalize_scalar_case():
    from gridcast.embed import NormStats

    stats = NormStats(mean=np.full((1, 1, 1), 3.0), std=np.full((1, 1, 1), 2.0))
    ones, zeros = np.ones((1, 4, 1)), np.zeros((1, 4, 1))
    np.testing.assert_array_equal(revin_denormalize(ones, stats), np.full((1, 4, 1), 5.0))
    np.testing.assert_array_equal(revin_denormalize(zeros, stats), np.full((1, 4, 1), 3.0))


def test_revin_denormalize_variate_mismatch():
    _, stats = revin_normalize(rng(4).normal(size=(1, 8, 3)))
    with pytest.raises(ShapeError):
        revin_denormalize(np.zeros((1, 5, 2)), stats)


def test_revin_denormalize_keeps_tensor_gradient():
    x = rng(5).normal(size=(1, 6, 2))
    _, stats = revin_normalize(x)
    y = Tensor(rng(6).normal(size=(1, 3, 2)), requires_grad=True)
    revin_denormalize(y, stats).sum().backward()
    np.testing.assert_allclose(y.grad, np.broadcast_to(stats.std, (1, 3, 2)))


def test_revin_rejects_single_step():
    with pytest.raises(ShapeError):
        revin_normalize(np.ones((2, 1, 2)))
    with pytest.raises(ShapeError, match=r"\[B,T,N\]"):
        revin_normalize(np.ones((4, 2)))  # one window must carry its batch axis


# -- padding and patch count -------------------------------------------------


def test_pad_tail_lookback336_patch96():
    # M = ceil(240/96) + 2 = 5, padded length 4*96 + 96 = 480
    assert patch_count(336, 96, 96) == 5
    x = rng(7).normal(size=(336, 2))
    padded = pad_tail(x, 96, 96)
    assert padded.shape == (480, 2)
    np.testing.assert_array_equal(padded[:336], x)
    np.testing.assert_array_equal(padded[336:], np.tile(x[-1:], (144, 1)))


def test_pad_tail_divisible_appends_exactly_stride():
    assert patch_count(336, 16, 8) == 42
    padded = pad_tail(rng(8).normal(size=(336, 3)), 16, 8)
    assert padded.shape == (344, 3)  # T + S


def test_pad_tail_patch_equals_lookback():
    assert patch_count(24, 24, 1) == 2
    padded = pad_tail(rng(9).normal(size=(24, 1)), 24, 1)
    assert padded.shape == (25, 1)
    assert padded[-1, 0] == padded[-2, 0]


def test_pad_tail_batched():
    x = rng(10).normal(size=(2, 336, 3))
    padded = pad_tail(x, 16, 8)
    assert padded.shape == (2, 344, 3)
    for b in range(2):
        np.testing.assert_array_equal(padded[b], pad_tail(x[b], 16, 8))


@pytest.mark.parametrize("P", [8, 16, 24, 48, 96])
@pytest.mark.parametrize("half_stride", [False, True])
def test_patch_count_formula_sweep(P, half_stride):
    S = P // 2 if half_stride else P
    for T in range(24, 721, 8):
        if T < P:
            continue
        assert patch_count(T, P, S) == math.ceil((T - P) / S) + 2
        padded = pad_tail(np.zeros((T, 1)), P, S)
        assert padded.shape[0] == (patch_count(T, P, S) - 1) * S + P


@settings(max_examples=80, deadline=None)
@given(T=st.integers(2, 720), P=st.integers(1, 96), S_frac=st.integers(1, 96))
def test_patch_count_matches_padded_tiling(T, P, S_frac):
    if T < P:
        T = P + (T % 7)
    S = max(1, min(S_frac, P))
    padded = pad_tail(np.zeros((T, 1)), P, S)
    M = patch_count(T, P, S)
    assert (padded.shape[0] - P) % S == 0
    assert (padded.shape[0] - P) // S + 1 == M


def test_patch_config_validation():
    # the patch geometry is validated once, by ModelConfig
    patch = dict(F=8, P=16, S=8, D=32)
    assert ModelConfig(T=336, **patch).M == 42
    assert pad_tail(np.zeros((336, 1)), 16, 8).shape[0] == 344
    with pytest.raises(ConfigError):
        ModelConfig(T=8, **patch)
    with pytest.raises(ConfigError):
        ModelConfig(T=336, **{**patch, "S": 24})
    with pytest.raises(ConfigError):
        ModelConfig(T=336, **{**patch, "S": 0})


# -- patchify (the loop oracle's patch cutter) -------------------------------


def test_patchify_non_overlapping():
    out = patchify(np.arange(1.0, 7.0), P=2, S=2)
    np.testing.assert_array_equal(out, [[1, 2], [3, 4], [5, 6]])


def test_patchify_overlapping():
    out = patchify(np.arange(1.0, 5.0), P=3, S=1)
    np.testing.assert_array_equal(out, [[1, 2, 3], [2, 3, 4]])


def test_patchify_index_arithmetic():
    x = rng(11).normal(size=(40,))
    P, S = 8, 4
    out = patchify(x, P, S)
    assert out.shape == ((40 - P) // S + 1, P)
    for i in range(out.shape[0]):
        for j in range(P):
            assert out[i, j] == x[i * S + j]


def test_patchify_length_mismatch():
    with pytest.raises(ShapeError):
        patchify(np.zeros(7), P=2, S=2)
    with pytest.raises(ShapeError):
        patchify(np.zeros((6, 2)), P=2, S=2)


# -- embedding: embed_patches (the per-variate oracle) and embed_grid -------


def test_embed_patches_zero_weights():
    patches = rng(12).normal(size=(5, 4))
    out = embed_patches(patches, Tensor(np.zeros((4, 8))), Tensor(np.zeros((5, 8))))
    np.testing.assert_array_equal(out.data, np.zeros((5, 8)))


def test_embed_patches_position_only():
    pos = Tensor(rng(13).normal(size=(5, 8)))
    out = embed_patches(rng(14).normal(size=(5, 4)), Tensor(np.zeros((4, 8))), pos)
    np.testing.assert_array_equal(out.data, pos.data)


def test_embed_patches_identity_projection():
    patches = rng(15).normal(size=(6, 4))
    out = embed_patches(patches, Tensor(np.eye(4)), Tensor(np.zeros((6, 4))))
    np.testing.assert_allclose(out.data, patches)


def test_embed_patches_shape_errors():
    with pytest.raises(ShapeError):
        embed_patches(np.zeros((5, 4)), Tensor(np.zeros((3, 8))), Tensor(np.zeros((5, 8))))
    with pytest.raises(ShapeError):
        embed_patches(np.zeros((5, 4)), Tensor(np.zeros((4, 8))), Tensor(np.zeros((6, 8))))


def test_embed_grid_matches_per_variate_loop():
    r = rng(16)
    B, T, N, P, S, D = 2, 32, 3, 8, 4, 6
    x = r.normal(size=(B, T, N))
    padded = pad_tail(x, P, S)
    M = patch_count(T, P, S)
    W_p = Tensor(r.normal(size=(P, D)))
    W_pos = Tensor(r.normal(size=(M, D)))
    grid = embed_grid(padded, W_p, W_pos, P, S)
    assert grid.shape == (B, M, N, D)
    for b in range(B):
        for n in range(N):
            single = embed_patches(patchify(padded[b, :, n], P, S), W_p, W_pos)
            np.testing.assert_allclose(grid.data[b, :, n, :], single.data, atol=1e-12)


def test_embed_grid_variate_permutation_equivariance():
    r = rng(17)
    x = r.normal(size=(1, 24, 4))
    padded = pad_tail(x, 8, 8)
    M = patch_count(24, 8, 8)
    W_p = Tensor(r.normal(size=(8, 5)))
    W_pos = Tensor(r.normal(size=(M, 5)))
    perm = np.array([2, 0, 3, 1])
    full = embed_grid(padded, W_p, W_pos, 8, 8).data
    permuted = embed_grid(padded[:, :, perm], W_p, W_pos, 8, 8).data
    np.testing.assert_array_equal(permuted, full[:, :, perm, :])


def test_embed_grid_gradients():
    r = rng(18)
    padded = pad_tail(r.normal(size=(1, 16, 2)), 8, 4)
    M = patch_count(16, 8, 4)
    W_p = Tensor(r.normal(size=(8, 4)))
    W_pos = Tensor(r.normal(size=(M, 4)))

    def fn(ts):
        return (embed_grid(padded, ts[0], ts[1], 8, 4) ** 2).sum()

    assert grad_check(fn, [W_p, W_pos]) < 1e-3


def test_embed_grid_reads_the_grid_from_the_position_encoding():
    # M and D come from W_pos: a padded length, patch weights or batch rank
    # that does not fit them is one ShapeError
    P, S, M, D = 8, 4, 5, 6
    padded = np.zeros((2, (M - 1) * S + P, 3))
    W_p, W_pos = Tensor(np.zeros((P, D))), Tensor(np.zeros((M, D)))
    assert embed_grid(padded, W_p, W_pos, P, S).shape == (2, M, 3, D)
    bad = [
        (padded[:, 1:], W_p, W_pos),  # one step short
        (np.zeros((2, M * S + P, 3)), W_p, W_pos),  # tiles, but into M + 1 patches
        (padded[0], W_p, W_pos),  # no batch axis
        (padded, Tensor(np.zeros((P, D + 1))), W_pos),
        (padded, Tensor(np.zeros((P + 1, D))), W_pos),
    ]
    for args in bad:
        with pytest.raises(ShapeError, match=r"do not fit W_pos \(5, 6\) at patch 8 stride 4"):
            embed_grid(*args, P, S)
