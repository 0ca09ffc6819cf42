"""Multi-head attention encoder layers applied along either grid axis.

The activation grid is [B x M x N x D]: M patch tokens, N variates, width D.
A horizontal layer runs attention among each variate's M patch tokens; a
vertical layer runs attention among the N variate tokens at each patch step.
Both directions run the same ``encoder_layer`` over the trailing [L x D] axes:
horizontal on the grid viewed as [B x N x M x D], vertical on the grid as it
is, which equals transpose -> horizontal -> transpose without the permutes.

Each layer's heads, softmax(Q K^T / sqrt(d_k)) V, are one graph node,
``attention_heads``, that keeps the layer input and recomputes Q, K, V and
the weights in backward, as FlashAttention (Dao et al., arXiv 2205.14135)
does, and the feed-forward block is one node, ``feed_forward``, that
recomputes its hidden array (Chen et al., arXiv 1604.06174). Both run on
row tiles of whole groups, as in the query chunking of Rabe & Staats (arXiv
2112.05682): attention on blocks of groups whose scores stay in cache, each
projecting its own Q, K and V, and the FFN on tiles whose hidden array does.
So a training forward leaves no N x N or D_ff-wide array for backward, a
step's temporaries beyond the graph are one tile's plus the row gradients
its weight GEMMs read, and every value and gradient repeats bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from gridcast.errors import ConfigError, ShapeError
from gridcast.tensor import BatchNormState, Tensor, batch_norm, dropout

DIRECTIONS = ("horizontal", "vertical")
# layer orders; the last two attend in one direction only, the paper's ablations
MODES = ("channel_first", "time_first", "alternate", "horizontal_only", "vertical_only")

# Largest float64 array one tile of a layer forms: a quarter of a 2 MB
# per-core L2. It sizes an attention block by its [rows, H, L, L] scores:
# forward holds a block's scores and weights, backward recomputes them and
# adds their gradient and one softmax temporary, so these stay in cache from
# Q K^T through softmax to the weighted sum; the block's Q, K and V are
# smaller still while L >= d_k. It sizes an FFN tile by its [rows, D_ff]
# hidden array. No block's or tile's arrays outlive the step that formed them.
SCORE_BLOCK_BYTES = 512 * 1024


def xavier_uniform(rng: np.random.Generator, *shape) -> Tensor:
    """Trainable Xavier-uniform weights, fans from the trailing two axes."""
    fan_in, fan_out = shape[-2], shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-limit, limit, size=shape), requires_grad=True)


@dataclass
class AttentionParams:
    """One encoder layer: per-head projections, output map, FFN, two norms.

    Head weights are stacked on a leading axis: w_query/w_key are [H, D, d_k],
    w_value is [H, D, d_v] with d_k = d_v = D / H, and w_out is [H*d_v, D].
    """

    w_query: Tensor
    w_key: Tensor
    w_value: Tensor
    w_out: Tensor
    ffn_in: Tensor
    ffn_out: Tensor
    norm1_gamma: Tensor
    norm1_beta: Tensor
    norm2_gamma: Tensor
    norm2_beta: Tensor
    norm1_state: BatchNormState = field(default_factory=BatchNormState)
    norm2_state: BatchNormState = field(default_factory=BatchNormState)

    @classmethod
    def init(cls, D: int, H: int, D_ff: int, rng: np.random.Generator) -> "AttentionParams":
        """Xavier-uniform weights, identity norms, for width D and H heads (H divides D)."""
        d_k = D // H
        return cls(
            w_query=xavier_uniform(rng, H, D, d_k),
            w_key=xavier_uniform(rng, H, D, d_k),
            w_value=xavier_uniform(rng, H, D, d_k),
            w_out=xavier_uniform(rng, H * d_k, D),
            ffn_in=xavier_uniform(rng, D, D_ff),
            ffn_out=xavier_uniform(rng, D_ff, D),
            norm1_gamma=Tensor(np.ones(D), requires_grad=True),
            norm1_beta=Tensor(np.zeros(D), requires_grad=True),
            norm2_gamma=Tensor(np.ones(D), requires_grad=True),
            norm2_beta=Tensor(np.zeros(D), requires_grad=True),
        )

    def named(self, prefix: str = "") -> list:
        return [
            (prefix + f.name, value)
            for f in fields(self)
            if isinstance(value := getattr(self, f.name), Tensor)
        ]


@dataclass
class AttentionMap:
    """Head-averaged attention weights for one layer and direction."""

    weights: np.ndarray  # [rows, cols], rows sum to 1
    direction: str
    layer_index: int

    def __post_init__(self):
        if self.direction not in DIRECTIONS:
            raise ConfigError(f"direction must be one of {DIRECTIONS}, got {self.direction!r}")
        w = np.asarray(self.weights)
        if w.ndim != 2 or (w < 0).any():
            raise ShapeError("attention map must be a nonnegative matrix")
        if np.abs(w.sum(axis=1) - 1.0).max() > 1e-6:
            raise ShapeError("attention map rows must sum to 1")


def group_blocks(G: int, L: int, group_bytes: int) -> list:
    """Slices of G groups of L rows each, in order, each the most groups
    whose ``group_bytes`` apiece fit ``SCORE_BLOCK_BYTES``, and at least one.

    At L = 1 a block holds at least two groups, and a lone last group joins
    the block before it, so no block is one row unless all G * L rows are:
    numpy runs a one-row product as gemv, whose sums differ from gemm's,
    while a row tile of two or more rows repeats the whole GEMM's bits.
    """
    per = max(1 if L > 1 else 2, SCORE_BLOCK_BYTES // group_bytes)
    starts = list(range(0, G, per))
    if L == 1 and len(starts) > 1 and G - starts[-1] == 1:
        starts.pop()
    return [slice(start, stop) for start, stop in zip(starts, starts[1:] + [G])]


def score_blocks(G: int, H: int, L: int) -> list:
    """``group_blocks`` of the G groups whose [rows, H, L, L] float64 scores
    fit ``SCORE_BLOCK_BYTES``."""
    return group_blocks(G, L, H * L * L * 8)


def attend(q, kt, v) -> tuple:
    """(softmax(q @ kt) @ v, the weights) for one block of [n, H, L, d_k]
    queries q (already scaled), [n, H, d_k, L] keys kt and [n, H, L, d_v]
    values v, run as ``(q @ kt).softmax(axis=-1) @ v``; no node, since the
    operands need no gradient."""
    w = (Tensor(q) @ Tensor(kt)).softmax(axis=-1)
    return (w @ Tensor(v)).data, w.data


def attend_vjp(q, kt, v, g: np.ndarray) -> tuple:
    """The gradients of q, kt and v for ``attend``'s output gradient g.

    Re-forms the block's weights with a graph, forms v's gradient ``w^T g``
    and pulls ``g v^T`` back through the softmax and the scores by
    ``Tensor.backward(grad)``: the kernels and views of the forward and of
    ``@``'s vjp, so every weight and gradient repeats bit for bit.
    """
    qb, kb = Tensor(q, requires_grad=True), Tensor(kt, requires_grad=True)
    w = (qb @ kb).softmax(axis=-1)
    gv = np.matmul(np.swapaxes(w.data, -1, -2), g)
    w.backward(np.matmul(g, np.swapaxes(v, -1, -2)))
    return qb.grad, kb.grad, gv


def attention_heads(
    x: Tensor, w_query: Tensor, w_key: Tensor, w_value: Tensor, capture: Optional[list] = None
) -> Tensor:
    """Every head's softmax(Q K^T / sqrt(d_k)) V over x [..., L, D], with
    Q, K, V = x @ w[h] for w_query, w_key [H, D, d_k] and w_value [H, D, d_v],
    as one [..., L, H*d_v] graph node, each token's heads side by side. It
    keeps x's [G*L, D] rows (one copy of a strided x, a view of a contiguous
    one) and the three [D, H*d] weight matrices, not Q, K or V.

    The work runs on the blocks of groups that ``score_blocks`` cuts: each
    block projects its own rows, one [rows, D] x [D, H*d] GEMM per
    projection (a broadcast ``x[..., None, :, :] @ w`` would call BLAS per
    group and head), scales its queries, not the [.., L, L] scores, and runs
    ``attend``. The vjp cuts the blocks again, recomputes each block's Q, K
    and V with the same GEMMs and runs ``attend_vjp``; it writes each
    projection's row gradients into one [G*L, H*d] buffer, forms x's
    gradient block by block, adding the three in the order separate nodes
    would, (Q + K) + V, and each weight's gradient as one ``x2.T @ g2`` GEMM.
    No block is one row unless x is (``group_blocks``), so every value and
    gradient repeats the unblocked computation's bits, and a step holds one
    block's Q, K and V at a time. When ``capture`` is a list, the weights
    [G, H, L, L] are appended to it.
    """
    *lead, L, D = x.shape
    H, d_k = w_query.shape[0], w_query.shape[-1]
    for w in (w_query, w_key, w_value):
        if w.shape[1] != D:
            raise ShapeError(f"input width {D} != parameter width {w.shape[1]}")
    x2 = x.data.reshape(-1, D)
    G = len(x2) // L
    w2s = [w.data.transpose(1, 0, 2).reshape(D, -1) for w in (w_query, w_key, w_value)]
    d_v = w2s[2].shape[1] // H
    scale = 1.0 / np.sqrt(d_k)

    def project(b):
        # each output a view of its GEMM's [n, L, H, d] result
        rows, n = x2[b.start * L : b.stop * L], b.stop - b.start
        q, k, v = ((rows @ w2).reshape(n, L, H, -1).transpose(0, 2, 1, 3) for w2 in w2s)
        return q * scale, k.transpose(0, 1, 3, 2), v

    heads = np.empty((G, L, H, d_v))
    by_head = heads.transpose(0, 2, 1, 3)  # the [G, H, L, d_v] view each block writes
    if capture is not None:
        capture.append(np.empty((G, H, L, L)))
    for b in score_blocks(G, H, L):
        by_head[b], w = attend(*project(b))
        if capture is not None:
            capture[-1][b] = w

    def vjp(g):
        g = g.reshape(G, L, H, d_v).transpose(0, 2, 1, 3)
        g2s = [np.empty((G * L, w2.shape[1])) for w2 in w2s]
        grads = [g2.reshape(G, L, H, -1) for g2 in g2s]
        gx = np.empty((G * L, D))

        def block(b):  # writes b's rows of every gradient; its temporaries die with it
            gq, gk, gv = attend_vjp(*project(b), g[b])
            gq *= scale
            for gh, gb in zip(grads, (gq, gk.transpose(0, 1, 3, 2), gv)):
                gh[b] = gb.transpose(0, 2, 1, 3)
            rows = slice(b.start * L, b.stop * L)
            gq2, gk2, gv2 = (g2[rows] @ w2.T for g2, w2 in zip(g2s, w2s))
            gx[rows] = (gq2 + gk2) + gv2

        for b in score_blocks(G, H, L):
            block(b)
        gw = [(x2.T @ g2).reshape(D, H, -1).transpose(1, 0, 2) for g2 in g2s]
        return (gx.reshape(*lead, L, D), *gw)

    return Tensor._make(heads.reshape(*lead, L, -1), (x, w_query, w_key, w_value), vjp)


def multi_head(x: Tensor, params: AttentionParams, capture: Optional[list] = None) -> Tensor:
    """Multi-head attention over the trailing [L x D] axes of ``x``: the
    heads of ``attention_heads``, side by side, projected by w_out. When
    ``capture`` is a list, the attention weights [G x H x L x L], G collapsing
    all leading axes, are appended to it as a plain array outside the graph.
    """
    x = Tensor._coerce(x)
    return attention_heads(x, params.w_query, params.w_key, params.w_value, capture) @ params.w_out


def feed_forward(y: Tensor, w_in: Tensor, w_out: Tensor) -> Tensor:
    """The position-wise feed-forward block gelu(y W1) W2, bias-free, over
    y [..., L, D], as one graph node that keeps y's array and the two weights.

    Forward and backward run on tiles of whole leading groups, [n, L, D]
    slices of y whose [n, L, D_ff] hidden array fits ``SCORE_BLOCK_BYTES``
    (``group_blocks``), with the batched products of the plain graph
    ``(y @ w_in).gelu() @ w_out``, so no tile changes a bit. The vjp
    recomputes each tile's pre-activation h as a leaf and pulls the tile's
    gradient back through ``h.gelu() @ w_out`` by ``backward(grad)``; it
    writes h's gradient and gelu's output into [rows, D_ff] buffers and forms
    each weight's gradient from them as one GEMM over all rows, as ``@``'s
    vjp does. So the node's values and gradients are the plain graph's bit
    for bit at any size, and a step holds one tile's slope, tanh and
    products at a time. An input that needs no gradient gets None and no
    product.
    """
    *lead, L, D = y.shape
    y3 = y.data.reshape(-1, L, D)
    w1, w2 = w_in.data, w_out.data
    G, D_ff, D_out = len(y3), w1.shape[1], w2.shape[1]
    tiles = group_blocks(G, L, L * D_ff * 8)
    out = np.empty((G, L, D_out))
    for t in tiles:
        out[t] = (Tensor(np.matmul(y3[t], w1)).gelu() @ Tensor(w2)).data
    need_y, need_in, need_out = y.requires_grad, w_in.requires_grad, w_out.requires_grad

    def vjp(g):
        g3 = g.reshape(G, L, D_out)
        hidden, gh = np.empty((2, G, L, D_ff))  # gelu(h) and h's gradient
        gy = np.empty(y3.shape) if need_y else None

        def tile(t):  # writes t's rows of each buffer; its temporaries die with it
            h = Tensor(np.matmul(y3[t], w1), requires_grad=True)
            a = h.gelu()
            (a @ Tensor(w2)).backward(g3[t])
            hidden[t], gh[t] = a.data, h.grad
            if need_y:
                gy[t] = np.matmul(h.grad, w1.T)

        for t in tiles:
            tile(t)
        return (
            gy.reshape(*lead, L, D) if need_y else None,
            np.matmul(y3.reshape(-1, D).T, gh.reshape(-1, D_ff)) if need_in else None,
            np.matmul(hidden.reshape(-1, D_ff).T, g3.reshape(-1, D_out)) if need_out else None,
        )

    return Tensor._make(out.reshape(*lead, L, -1), (y, w_in, w_out), vjp)


def encoder_layer(
    x: Tensor,
    params: AttentionParams,
    training: bool = False,
    dropout_rate: float = 0.0,
    rng: Optional[np.random.Generator] = None,
    capture: Optional[list] = None,
) -> Tensor:
    """Post-norm transformer encoder block over the trailing [L x D] axes.

    y1 = BN(x + Dropout(MHA(x))); y = BN(y1 + Dropout(FFN(y1))), where the FFN
    is ``feed_forward``, gelu(y1 W1) W2, and both norms standardize each
    feature over every other axis, batch and token positions together. The
    FFN's node keeps y1, which the graph holds anyway, and recomputes the
    [.., D_ff] hidden array and gelu's slope in backward, bit for bit, so a
    training forward keeps no D_ff-wide array. ``capture`` is passed to
    ``multi_head``.
    """
    x = Tensor._coerce(x)
    att = multi_head(x, params, capture)
    y1 = batch_norm(
        x + dropout(att, dropout_rate, rng, training),
        params.norm1_gamma,
        params.norm1_beta,
        params.norm1_state,
        training,
    )
    ffn = feed_forward(y1, params.ffn_in, params.ffn_out)
    return batch_norm(
        y1 + dropout(ffn, dropout_rate, rng, training),
        params.norm2_gamma,
        params.norm2_beta,
        params.norm2_state,
        training,
    )


def grid_transpose(grid: Tensor) -> Tensor:
    """Swap the patch and variate axes: [B x M x N x D] -> [B x N x M x D]."""
    if grid.ndim != 4:
        raise ShapeError(f"expected a 4-d grid, got shape {grid.shape}")
    return grid.permute(0, 2, 1, 3)


def apply_horizontal(grid: Tensor, params: AttentionParams, **layer_kw) -> Tensor:
    """Run the encoder layer over each variate's M patch tokens.

    Variates never attend to each other here; the grid is viewed as
    [B x N x M x D] so the trailing sequence axis is the patch axis.
    """
    moved = grid_transpose(grid)  # [B, N, M, D]
    out = encoder_layer(moved, params, **layer_kw)
    return grid_transpose(out)


def apply_vertical(grid: Tensor, params: AttentionParams, **layer_kw) -> Tensor:
    """Run the encoder layer over the N variate tokens at each patch step.

    The grid's trailing axes are already [N x D], so the layer runs on it
    directly; the result equals transpose -> apply_horizontal -> transpose.
    """
    if grid.ndim != 4:
        raise ShapeError(f"expected a 4-d grid, got shape {grid.shape}")
    return encoder_layer(grid, params, **layer_kw)


def sequence_directions(mode: str, n_layers: int) -> list:
    """Layer direction order for a sequencing mode.

    channel_first runs its vertical block first (extra layer on the first
    block when depth is odd), time_first mirrors it, alternate starts
    horizontal on even indices, and horizontal_only / vertical_only run
    every layer in one direction.
    """
    if n_layers < 1:
        raise ConfigError(f"need at least one layer, got {n_layers}")
    half = (n_layers + 1) // 2
    if mode == "channel_first":
        return ["vertical"] * half + ["horizontal"] * (n_layers - half)
    if mode == "time_first":
        return ["horizontal"] * half + ["vertical"] * (n_layers - half)
    if mode == "alternate":
        return ["horizontal" if i % 2 == 0 else "vertical" for i in range(n_layers)]
    if mode == "horizontal_only":
        return ["horizontal"] * n_layers
    if mode == "vertical_only":
        return ["vertical"] * n_layers
    raise ConfigError(f"unknown sequencing mode {mode!r}; choose from {MODES}")


@dataclass(frozen=True)
class AttentionCost:
    """Exact attention score work for a layer stack over one grid pass."""

    horizontal_entries: int
    vertical_entries: int
    D: int

    @property
    def score_entries(self) -> int:
        return self.horizontal_entries + self.vertical_entries

    @property
    def macs(self) -> int:
        # each score entry is a d_k-wide dot product per head; H * d_k = D
        return self.score_entries * self.D


def count_attention_cost(M: int, N: int, D: int, mode: str, n_layers: int = 2) -> AttentionCost:
    """Score-entry and MAC counts for one forward pass of a layer stack.

    A horizontal layer forms N attention matrices of M x M scores; a vertical
    layer forms M matrices of N x N scores. Counts are per batch element and
    exact, so efficiency claims can be checked as integer comparisons.
    """
    directions = sequence_directions(mode, n_layers)
    horizontal = sum(1 for d in directions if d == "horizontal")
    vertical = n_layers - horizontal
    return AttentionCost(
        horizontal_entries=horizontal * N * M * M,
        vertical_entries=vertical * M * N * N,
        D=D,
    )
