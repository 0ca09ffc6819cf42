"""Slow, loop-heavy reference implementations used to cross-check the package.

The model oracles are deliberately written as straight-line numpy with
explicit Python loops over variates, patch steps, tokens, and heads, so they
share no code path with the library they check. They are inference-mode only
(norm layers use running statistics, which default to zero mean / unit
variance). The graph references at the end are the composite, unfused or
unblocked forms of the fused and blocked ops, built from the library's Tensor
ops, and ``OP_CASES`` is the one table of finite-difference checks, a case per
differentiable op. ``kept_arrays`` lists what a graph keeps for backward.
"""

import zlib

import numpy as np

import gridcast.attention as attention
from gridcast.attention import (
    attend_blocks,
    attend_blocks_vjp,
    attention_heads,
    feed_forward,
    score_blocks,
    sequence_directions,
)
from gridcast.errors import ShapeError
from gridcast.tensor import BatchNormState, Tensor, batch_norm, checkpoint, dropout
from gridcast.train import mse


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
        for direction, layer in zip(sequence_directions(config.mode, config.L), params.layers):
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


def mean(t, axis=None, keepdims=False):
    """Mean of a Tensor over ``axis`` (every axis when None), as the sum
    times the reciprocal of the number of summed elements."""
    total = t.sum(axis=axis, keepdims=keepdims)
    return total * (1.0 / (t.size // total.size))


def mse_composite(pred, target):
    """Mean squared error composed of Tensor ops; the reference for the
    single-node ``train.mse``, whose forward arithmetic it shares."""
    return mean((pred - target) ** 2)


def project_heads(x, w):
    """Every head's projection ``x @ w[h]`` of x [..., L, D] by w [H, D, d],
    as one [G, H, L, d] graph node, G collapsing the leading axes of x.

    One [G*L, D] x [D, H*d] GEMM forward and two backward, as
    ``attention_heads`` runs each projection; with ``attention_core``, the
    scale and the keys' permute, the unfused reference for that node.
    """
    L, D = x.shape[-2], x.shape[-1]
    H, D_in, d = w.shape
    if D != D_in:
        raise ShapeError(f"input width {D} != parameter width {D_in}")
    G = x.size // (L * D)
    x_shape = x.shape
    x2 = x.data.reshape(G * L, D)
    w2 = w.data.transpose(1, 0, 2).reshape(D, H * d)

    def vjp(g):
        g2 = g.transpose(0, 2, 1, 3).reshape(G * L, H * d)
        gw = (x2.T @ g2).reshape(D, H, d).transpose(1, 0, 2)
        return (g2 @ w2.T).reshape(x_shape), gw

    out = (x2 @ w2).reshape(G, L, H, d).transpose(0, 2, 1, 3)
    return Tensor._make(out, (x, w), vjp)


def attention_core(Qs, Kt, V, capture=None):
    """softmax(Qs @ Kt) @ V for [G, H, L, d_k] queries Qs (already scaled),
    [G, H, d_k, L] keys Kt and [G, H, L, d_v] values V, as one graph node that
    keeps Qs, Kt and V and runs the package's block loops on them."""
    q, kt, v = Qs.data, Kt.data, V.data
    blocks = score_blocks(*q.shape[:3])
    out = attend_blocks(q, kt, v, blocks, capture)
    return Tensor._make(out, (Qs, Kt, V), lambda g: attend_blocks_vjp(q, kt, v, blocks, g))


def attention_heads_unfused(x, w_query, w_key, w_value, capture=None):
    """``attention_heads`` as separate graph nodes: three ``project_heads``,
    the queries' scale, the keys' permute, ``attention_core``, and the
    permute and reshape that set each token's heads side by side."""
    Q, K, V = (project_heads(x, w) for w in (w_query, w_key, w_value))
    scale = 1.0 / np.sqrt(w_query.shape[-1])
    heads = attention_core(Q * scale, K.permute(0, 1, 3, 2), V, capture)
    H, d_v = V.shape[1], V.shape[-1]
    return heads.permute(0, 2, 1, 3).reshape(*x.shape[:-1], H * d_v)


def scaled_dot_attention(Q, K, V):
    """Unblocked softmax(Q K^T / sqrt(d_k)) V over any leading batch axes, as
    one graph of the library's ops; returns (output, weights). ``multi_head``'s
    ``attention_heads`` gives its values and gradients bit for bit at any
    block size."""
    d_k = Q.shape[-1]
    axes = tuple(range(K.ndim - 2)) + (K.ndim - 1, K.ndim - 2)
    weights = ((Q * (1.0 / np.sqrt(d_k))) @ K.permute(*axes)).softmax(axis=-1)
    return weights @ V, weights


def batch_norm_composite(x, gamma, beta, eps=1e-5):
    """Training-mode batch norm as a graph of primitive ops; the reference
    for the single-node ``batch_norm``, whose forward arithmetic it shares."""
    axes = tuple(range(x.ndim - 1))
    mu = mean(x, axis=axes, keepdims=True)
    centered = x - mu
    var = mean(centered * centered, axis=axes, keepdims=True)
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


# -- finite-difference cases -------------------------------------------------


# Qs [G, H, L, d_k], Kt [G, H, d_k, L], V [G, H, L, d_v] and a weight on the output
ATTENTION_SHAPES = [(3, 2, 4, 3), (3, 2, 3, 4), (3, 2, 4, 2), (3, 2, 4, 2)]
# x [G, L, D], w_query, w_key, w_value [H, D, d] and a weight on the [G, L, H*d] output
HEADS_SHAPES = [(3, 4, 3), (2, 3, 2), (2, 3, 2), (2, 3, 2), (3, 4, 4)]


def one_group_per_block(op, *args):
    """``op(*args)`` with a score budget that holds one attention group per
    block; the op's vjp keeps the blocks its forward ran."""
    saved = attention.SCORE_BLOCK_BYTES
    attention.SCORE_BLOCK_BYTES = 1
    try:
        return op(*args)
    finally:
        attention.SCORE_BLOCK_BYTES = saved


# (name, f, input shapes): f maps the input Tensors to a scalar. Every
# function of the package that makes a graph node is run by at least one
# case; tests/test_tensor.py checks that.
OP_CASES = [
    ("add", lambda ts: (ts[0] + ts[1]).sum(), [(3, 4), (3, 4)]),
    ("add_broadcast", lambda ts: ((ts[0] + ts[1]) * (ts[0] + ts[1])).sum(), [(3, 4), (4,)]),
    ("sub", lambda ts: ((ts[0] - ts[1]) ** 2).sum(), [(4,), (4,)]),
    ("mul", lambda ts: (ts[0] * ts[1]).sum(), [(2, 3), (2, 3)]),
    ("mse", lambda ts: mse(ts[0], ts[1]), [(3, 2, 4), (3, 2, 4)]),
    ("pow", lambda ts: ((ts[0] * ts[0] + 1.0) ** 1.5).sum(), [(6,)]),
    (
        "attention_core",  # [G=3, H=2, L=4, d=3] in one block
        lambda ts: (attention_core(ts[0], ts[1], ts[2]) * ts[3]).sum(),
        ATTENTION_SHAPES,
    ),
    ("matmul", lambda ts: ((ts[0] @ ts[1]) ** 2).sum(), [(3, 4), (4, 2)]),
    ("matmul_batched", lambda ts: ((ts[0] @ ts[1]) ** 2).sum(), [(2, 3, 4), (4, 2)]),
    (
        "attention_core_blocked",  # the same, one group per block
        lambda ts: (one_group_per_block(attention_core, *ts[:3]) * ts[3]).sum(),
        ATTENTION_SHAPES,
    ),
    ("reshape", lambda ts: (ts[0].reshape(6) * ts[0].reshape(6)).sum(), [(2, 3)]),
    ("permute", lambda ts: ((ts[0].permute(1, 0) @ ts[1]) ** 2).sum(), [(3, 4), (3, 2)]),
    ("gelu", lambda ts: ts[0].gelu().sum(), [(8,)]),
    ("softmax_weighted", lambda ts: (ts[0].softmax(axis=-1) * ts[1]).sum(), [(3, 5), (3, 5)]),
    ("sum_axis", lambda ts: (ts[0].sum(axis=1) ** 2).sum(), [(3, 5)]),
    (
        "batch_norm_training",
        lambda ts: (batch_norm(ts[0], ts[1], ts[2], BatchNormState(), training=True) ** 2).sum(),
        [(4, 3), (3,), (3,)],
    ),
    (
        "dropout_fixed_mask",
        lambda ts: dropout(ts[0], 0.3, np.random.default_rng(99), training=True).sum(),
        [(10,)],
    ),
    ("project_heads", lambda ts: (project_heads(ts[0], ts[1]) ** 2).sum(), [(2, 3, 4), (2, 4, 3)]),
    (
        "attention_heads",  # x [G=3, L=4, D=3] in one block
        lambda ts: (attention_heads(*ts[:4]) * ts[4]).sum(),
        HEADS_SHAPES,
    ),
    (
        "attention_heads_blocked",  # the same, one group per block
        lambda ts: (one_group_per_block(attention_heads, *ts[:4]) * ts[4]).sum(),
        HEADS_SHAPES,
    ),
    (
        "checkpoint",  # the encoder's FFN on y [2, 3, 4], D_ff = 5
        lambda ts: (checkpoint(feed_forward, *ts[:3]) * ts[3]).sum(),
        [(2, 3, 4), (4, 5), (5, 4), (2, 3, 4)],
    ),
]


def op_case_inputs(name, shapes):
    """Standard-normal input Tensors for the case ``name``, seeded by the
    name so every run checks the same points."""
    r = np.random.default_rng(zlib.crc32(name.encode()))
    return [Tensor(r.normal(size=s)) for s in shapes]


# -- what a graph keeps ------------------------------------------------------


def _closure_arrays(value, seen: set):
    """The arrays ``value`` holds: itself, the items of a list or tuple, or
    what a function's closure holds, functions in it included."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _closure_arrays(item, seen)
    elif getattr(value, "__closure__", None) and id(value) not in seen:
        seen.add(id(value))
        for cell in value.__closure__:
            yield from _closure_arrays(cell.cell_contents, seen)


def _owner(a: np.ndarray) -> np.ndarray:
    """The array whose buffer ``a`` views, found by following ``.base`` to
    its end, through the wrapper ``as_strided`` sets between a strided view
    and its array; ``a`` itself if it owns its buffer."""
    owner, base = a, a.base
    while base is not None:
        if isinstance(base, np.ndarray):
            owner = base
        base = getattr(base, "base", None)
    return owner


def kept_arrays(root: Tensor) -> list:
    """(op, array) for each array the graph behind ``root`` keeps for its
    backward, found by walking every node's vjp closure. ``op`` names the
    function that made the node (``Tensor.__matmul__``, ``checkpoint``, ...).
    A buffer that several nodes hold, or several views of, is listed once."""
    found, buffers, nodes, functions = [], set(), set(), set()
    stack = [root._node]
    while stack:
        node = stack.pop()
        if node is None or id(node) in nodes:
            continue
        nodes.add(id(node))
        stack.extend(node.parents)
        if node.vjp is None:
            continue
        op = node.vjp.__qualname__.split(".<locals>")[0]
        for a in _closure_arrays(node.vjp, functions):
            if id(_owner(a)) not in buffers:
                buffers.add(id(_owner(a)))
                found.append((op, a))
    return found


def kept_bytes_by_op(kept: list) -> dict:
    """Bytes of the buffers in ``kept_arrays``' pairs, summed by op, largest
    first."""
    totals = {}
    for op, a in kept:
        totals[op] = totals.get(op, 0) + _owner(a).nbytes
    return dict(sorted(totals.items(), key=lambda item: -item[1]))
