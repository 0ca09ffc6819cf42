"""Slow, loop-heavy reference implementations used to cross-check the package.

The model oracles are deliberately written as straight-line numpy with
explicit Python loops over variates, patch steps, tokens, and heads, so they
share no code path with the library they check. They are inference-mode only
(norm layers use running statistics, which default to zero mean / unit
variance). The graph references at the end are the composite or unblocked
forms of the fused and blocked ops, built from the library's Tensor ops.
"""

import numpy as np

from gridcast.errors import ShapeError
from gridcast.tensor import Tensor


def np_gelu(x):
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x**3)))


def softmax_vec(v):
    e = np.exp(v - v.max())
    return e / e.sum()


def bn_inference(x, gamma, beta, state, eps=1e-5):
    """Elementwise inference-mode feature norm for a [L, D] sequence."""
    D = x.shape[-1]
    rm = np.zeros(D) if state.running_mean is None else np.reshape(state.running_mean, -1)
    rv = np.ones(D) if state.running_var is None else np.reshape(state.running_var, -1)
    return (x - rm) / np.sqrt(rv + eps) * gamma + beta


def encoder_oracle(seq, layer):
    """One encoder block on a [L, D] sequence, loops over heads and tokens."""
    H, _, d_k = layer.w_query.data.shape
    L = seq.shape[0]
    heads = []
    for h in range(H):
        q = seq @ layer.w_query.data[h]
        k = seq @ layer.w_key.data[h]
        v = seq @ layer.w_value.data[h]
        out_h = np.zeros((L, d_k))
        for i in range(L):
            w = softmax_vec(q[i] @ k.T / np.sqrt(d_k))
            out_h[i] = w @ v
        heads.append(out_h)
    att = np.concatenate(heads, axis=-1) @ layer.w_out.data
    y1 = bn_inference(
        seq + att, layer.norm1_gamma.data, layer.norm1_beta.data, layer.norm1_state
    )
    ffn = np_gelu(y1 @ layer.ffn_in.data) @ layer.ffn_out.data
    return bn_inference(
        y1 + ffn, layer.norm2_gamma.data, layer.norm2_beta.data, layer.norm2_state
    )


def forward_oracle(x, params, config):
    """Full-model forward on [B, T, N], one window and one variate at a time."""
    B, T, N = x.shape
    M, D, P, S = config.M, config.D, config.P, config.S
    out = np.zeros((B, config.F, N))
    for b in range(B):
        mu = x[b].mean(axis=0)
        sd = np.maximum(x[b].std(axis=0), 1e-5)
        xn = (x[b] - mu) / sd
        Tp = (M - 1) * S + P
        padded = np.concatenate([xn, np.tile(xn[-1:], (Tp - T, 1))], axis=0)
        grid = np.zeros((M, N, D))
        for n in range(N):
            for m in range(M):
                patch = padded[m * S : m * S + P, n]
                grid[m, n] = patch @ params.W_p.data + params.W_pos.data[m]
        for direction, layer in zip(params.directions, params.layers):
            new = np.zeros_like(grid)
            if direction == "horizontal":
                for n in range(N):
                    new[:, n, :] = encoder_oracle(grid[:, n, :], layer)
            else:
                for m in range(M):
                    new[m, :, :] = encoder_oracle(grid[m, :, :], layer)
            grid = new
        for n in range(N):
            flat = grid[:, n, :].ravel()
            out[b, :, n] = (flat @ params.head_w.data + params.head_b.data) * sd[n] + mu[n]
    return out


def patchify(x, P, S):
    """Cut one padded variate series [T'] into its patch matrix [M x P]."""
    x = np.asarray(x)
    if x.ndim != 1:
        raise ShapeError(f"patchify expects a single series, got shape {x.shape}")
    if (x.shape[0] - P) % S != 0 or x.shape[0] < P:
        raise ShapeError(
            f"length {x.shape[0]} does not tile with patch {P} stride {S}; pad first"
        )
    M = (x.shape[0] - P) // S + 1
    idx = np.arange(M)[:, None] * S + np.arange(P)
    return x[idx]


def embed_patches(patches, W_p, W_pos):
    """Project one variate's patches [M x P] to tokens [M x D] plus position;
    with ``patchify``, the per-variate reference for ``embed_grid``."""
    patches = patches if isinstance(patches, Tensor) else Tensor(patches)
    if patches.ndim != 2:
        raise ShapeError(f"expected [M,P] patches, got shape {patches.shape}")
    M, P = patches.shape
    if W_p.shape[0] != P:
        raise ShapeError(f"projection expects patch length {W_p.shape[0]}, got {P}")
    if W_pos.shape != (M, W_p.shape[1]):
        raise ShapeError(
            f"position encoding shape {W_pos.shape} does not match [{M},{W_p.shape[1]}]"
        )
    return patches @ W_p + W_pos


def mse_oracle(a, b):
    total, count = 0.0, 0
    for idx in np.ndindex(*a.shape):
        total += (a[idx] - b[idx]) ** 2
        count += 1
    return total / count


def mae_oracle(a, b):
    total, count = 0.0, 0
    for idx in np.ndindex(*a.shape):
        total += abs(a[idx] - b[idx])
        count += 1
    return total / count


def scaled_dot_attention(Q, K, V):
    """Unblocked softmax(Q K^T / sqrt(d_k)) V over any leading batch axes, as
    one graph of the library's ops; returns (output, weights). A single block
    of ``multi_head`` builds exactly this graph."""
    d_k = Q.shape[-1]
    axes = tuple(range(K.ndim - 2)) + (K.ndim - 1, K.ndim - 2)
    weights = ((Q * (1.0 / np.sqrt(d_k))) @ K.permute(*axes)).softmax(axis=-1)
    return weights @ V, weights


def batch_norm_composite(x, gamma, beta, axes=None, eps=1e-5):
    """Training-mode batch norm as a graph of primitive ops; the reference
    for the single-node ``batch_norm``, whose forward arithmetic it shares."""
    if axes is None:
        axes = tuple(range(x.ndim - 1))
    mu = x.mean(axis=axes, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=axes, keepdims=True)
    x_hat = centered * (var + eps) ** -0.5
    return x_hat * gamma + beta


def softmax_three_temporaries(x, axis=-1):
    """Softmax node with a separate array per step, the reference for the
    in-place ``Tensor.softmax``. It uses the same einsum row sums and row
    dot products on x's rows moved to the last axis; the row max is numpy's
    own ``max``, which is exact like ``np.maximum.reduceat``."""
    moved = np.moveaxis(x.data, axis, -1)
    L = moved.shape[-1]
    rows = moved.reshape(-1, L)
    shifted = rows - rows.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    s_rows = exp / np.einsum("ij->i", exp)[:, None]

    def back(rows_):
        return np.moveaxis(rows_.reshape(moved.shape), -1, axis)

    def vjp(g):
        g_rows = np.moveaxis(g, axis, -1).reshape(-1, L)
        return (back(s_rows * (g_rows - np.einsum("ij,ij->i", g_rows, s_rows)[:, None])),)

    return Tensor._make(back(s_rows), (x,), vjp)
