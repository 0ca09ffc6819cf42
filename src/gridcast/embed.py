"""Instance normalization, tail padding, patching, and grid embedding.

A batch of lookback windows [B x T x N] becomes a grid of patch tokens
[B x M x N x D]: per-window, per-variate zero-mean/unit-std normalization,
tail padding so exactly M = ceil((T - P) / S) + 2 patches of length P at
stride S fit, then a shared linear projection plus an additive learned
position encoding over the patch axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gridcast.errors import ShapeError
from gridcast.tensor import Tensor

STD_FLOOR = 1e-5


@dataclass
class NormStats:
    """Per-window, per-variate mean and clamped std, kept for denormalization.

    Both are [B, 1, N], so they broadcast directly against [B, F, N]
    predictions.
    """

    mean: np.ndarray
    std: np.ndarray


def patch_count(T: int, P: int, S: int) -> int:
    """Number of patches for lookback T: ceil((T - P) / S) + 2."""
    return -((T - P) // -S) + 2


def revin_normalize(x: np.ndarray) -> tuple:
    """Normalize each variate of each window of a batch [B, T, N] to zero
    mean, unit std; returns the normalized batch and its ``NormStats``.

    Statistics are per window and per variate: population std with a small
    positive floor, so constant series map to zeros.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ShapeError(f"expected [B,T,N], got shape {x.shape}")
    if x.shape[1] < 2:
        raise ShapeError(f"need at least 2 time steps to normalize, got {x.shape}")
    mean = x.mean(axis=1, keepdims=True)
    std = np.maximum(x.std(axis=1, keepdims=True), STD_FLOOR)
    return (x - mean) / std, NormStats(mean=mean, std=std)


def revin_denormalize(y, stats: NormStats):
    """Undo ``revin_normalize`` on a [B, F, N] prediction: y * std + mean.

    ``y`` is an array or a Tensor; a Tensor keeps its gradient path through
    the affine rescale.
    """
    n_y, n_s = y.shape[-1], stats.std.shape[-1]
    if n_y != n_s:
        raise ShapeError(f"stats cover {n_s} variates but prediction has {n_y}")
    return y * stats.std + stats.mean


def pad_tail(x: np.ndarray, P: int, S: int) -> np.ndarray:
    """Append copies of the final time step so exactly M patches fit.

    Output length is (M - 1) * S + P with M = ceil((T - P) / S) + 2; when S
    divides T - P this appends exactly S rows.
    """
    x = np.asarray(x)
    T = x.shape[-2]
    target = (patch_count(T, P, S) - 1) * S + P
    extra = target - T
    last = x[..., -1:, :]
    reps = [1] * x.ndim
    reps[-2] = extra
    return np.concatenate([x, np.tile(last, reps)], axis=-2)


def embed_grid(padded: np.ndarray, W_p: Tensor, W_pos: Tensor, P: int, S: int) -> Tensor:
    """Embed a padded batch [B x T' x N] into the grid [B x M x N x D].

    Equivalent to cutting each variate's series into its [M x P] patch
    matrix and projecting that one variate at a time; the projection and
    position encoding are shared across variates, and the position encoding
    depends only on the patch (time) axis. The patches are a strided
    [B x M x N x P] view of ``padded``, which the projection keeps, not a copy.
    """
    padded = np.asarray(padded, dtype=np.float64)
    if padded.ndim != 3:
        raise ShapeError(f"expected [B,T',N], got shape {padded.shape}")
    Tp = padded.shape[1]
    if (Tp - P) % S != 0 or Tp < P:
        raise ShapeError(f"padded length {Tp} does not tile with patch {P} stride {S}")
    M = (Tp - P) // S + 1
    patches = np.lib.stride_tricks.sliding_window_view(padded, P, axis=1)[:, ::S]
    D = W_p.shape[1]
    if W_pos.shape != (M, D):
        raise ShapeError(
            f"position encoding shape {W_pos.shape} does not match [{M},{D}]"
        )
    return Tensor(patches) @ W_p + W_pos.reshape(M, 1, D)
