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
does. ``attend_blocks`` and its vjp run the core on blocks of groups whose
scores stay in cache, so a training forward leaves no N x N array for
backward, and every value and gradient repeats bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from gridcast.errors import ConfigError, ShapeError
from gridcast.tensor import BatchNormState, Tensor, batch_norm, checkpoint, dropout

DIRECTIONS = ("horizontal", "vertical")
# layer orders; the last two attend in one direction only, the paper's ablations
MODES = ("channel_first", "time_first", "alternate", "horizontal_only", "vertical_only")

# Largest [rows, H, L, L] float64 score block one attention step forms: a
# quarter of a 2 MB per-core L2. Forward holds a block's scores and weights,
# backward recomputes them and adds their gradient and one softmax
# temporary, so these stay in cache from Q K^T through softmax to the
# weighted sum. No block's weights outlive the step that formed them.
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


def score_blocks(G: int, H: int, L: int) -> list:
    """Slices of the G groups, in order, each the most groups whose
    [rows, H, L, L] float64 scores fit ``SCORE_BLOCK_BYTES`` (at least one)."""
    rows = max(1, SCORE_BLOCK_BYTES // (H * L * L * 8))
    return [slice(start, min(start + rows, G)) for start in range(0, G, rows)]


def attend_blocks(q, kt, v, capture: Optional[list] = None) -> np.ndarray:
    """softmax(q @ kt) @ v for [G, H, L, d_k] queries q (already scaled),
    [G, H, d_k, L] keys kt and [G, H, L, d_v] values v, run as
    ``(q @ kt).softmax(axis=-1) @ v`` (no node: the operands need no
    gradient) on each block of ``score_blocks``'s cut of the groups, written
    into one [G, L, H, d_v] buffer whose [G, H, L, d_v] view is returned.
    When ``capture`` is a list, the weights [G, H, L, L] are appended to it."""
    G, H, L, d_v = v.shape
    out = np.empty((G, L, H, d_v)).transpose(0, 2, 1, 3)
    if capture is not None:
        capture.append(np.empty((G, H, L, L)))
    for b in score_blocks(G, H, L):
        w = (Tensor(q[b]) @ Tensor(kt[b])).softmax(axis=-1)
        out[b] = (w @ Tensor(v[b])).data
        if capture is not None:
            capture[-1][b] = w.data
    return out


def attend_blocks_vjp(q, kt, v, g: np.ndarray) -> tuple:
    """The gradients of q, kt and v for ``attend_blocks``'s output gradient g.

    Cuts the same blocks, re-forms each block's weights with a graph, writes
    v's gradient ``w^T g`` and pulls ``g v^T`` back through the softmax and
    the scores by ``Tensor.backward(grad)``: the kernels and views of the
    forward and of ``@``'s vjp, so every weight and gradient repeats bit for bit.
    """
    gq, gk, gv = np.empty(q.shape), np.empty(kt.shape), np.empty(v.shape)
    for b in score_blocks(*q.shape[:3]):
        qb, kb = Tensor(q[b], requires_grad=True), Tensor(kt[b], requires_grad=True)
        w = (qb @ kb).softmax(axis=-1)
        gv[b] = np.matmul(np.swapaxes(w.data, -1, -2), g[b])
        w.backward(np.matmul(g[b], np.swapaxes(v[b], -1, -2)))
        gq[b], gk[b] = qb.grad, kb.grad
    return gq, gk, gv


def attention_heads(
    x: Tensor, w_query: Tensor, w_key: Tensor, w_value: Tensor, capture: Optional[list] = None
) -> Tensor:
    """Every head's softmax(Q K^T / sqrt(d_k)) V over x [..., L, D], with
    Q, K, V = x @ w[h] for w_query, w_key [H, D, d_k] and w_value [H, D, d_v],
    as one [..., L, H*d_v] graph node, each token's heads side by side. It
    keeps x's [G*L, D] rows (one copy of a strided x, a view of a contiguous
    one) and the three [D, H*d] weight matrices, not Q, K or V.

    Each projection is one [G*L, D] x [D, H*d] GEMM (a broadcast
    ``x[..., None, :, :] @ w`` would call BLAS per group and head), the
    queries are scaled once, not the [.., L, L] scores, and ``attend_blocks``
    runs the core. The vjp recomputes Q, K and V with the same GEMMs, runs
    ``attend_blocks_vjp`` and adds x's three gradients in the order separate
    nodes would, (Q + K) + V, so every value and gradient repeats bit for
    bit. ``capture`` is passed to ``attend_blocks``.
    """
    *lead, L, D = x.shape
    H, d_k = w_query.shape[0], w_query.shape[-1]
    for w in (w_query, w_key, w_value):
        if w.shape[1] != D:
            raise ShapeError(f"input width {D} != parameter width {w.shape[1]}")
    x2 = x.data.reshape(-1, D)
    G = len(x2) // L
    w2s = [w.data.transpose(1, 0, 2).reshape(D, -1) for w in (w_query, w_key, w_value)]
    scale = 1.0 / np.sqrt(d_k)

    def project():
        # each output a view of its GEMM's [G, L, H, d] result
        q, k, v = ((x2 @ w2).reshape(G, L, H, -1).transpose(0, 2, 1, 3) for w2 in w2s)
        return q * scale, k.transpose(0, 1, 3, 2), v

    out = attend_blocks(*project(), capture)

    def vjp(g):
        g = g.reshape(G, L, H, -1).transpose(0, 2, 1, 3)
        gq, gk, gv = attend_blocks_vjp(*project(), g)
        gq *= scale
        gx, gw = [], []
        for gh, w2 in zip((gq, gk.transpose(0, 1, 3, 2), gv), w2s):
            g2 = gh.transpose(0, 2, 1, 3).reshape(G * L, -1)
            gw.append((x2.T @ g2).reshape(D, H, -1).transpose(1, 0, 2))
            gx.append(g2 @ w2.T)
        return (((gx[0] + gx[1]) + gx[2]).reshape(*lead, L, D), *gw)

    heads = out.transpose(0, 2, 1, 3).reshape(*lead, L, -1)
    return Tensor._make(heads, (x, w_query, w_key, w_value), vjp)


def multi_head(x: Tensor, params: AttentionParams, capture: Optional[list] = None) -> Tensor:
    """Multi-head attention over the trailing [L x D] axes of ``x``: the
    heads of ``attention_heads``, side by side, projected by w_out. When
    ``capture`` is a list, the attention weights [G x H x L x L], G collapsing
    all leading axes, are appended to it as a plain array outside the graph.
    """
    x = Tensor._coerce(x)
    return attention_heads(x, params.w_query, params.w_key, params.w_value, capture) @ params.w_out


def feed_forward(y: Tensor, w_in: Tensor, w_out: Tensor) -> Tensor:
    """The position-wise feed-forward block gelu(y W1) W2, bias-free."""
    return (y @ w_in).gelu() @ w_out


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
    FFN runs under ``checkpoint``: its node keeps y1, which the graph holds
    anyway, and recomputes the [.., D_ff] hidden array and gelu's slope in
    backward, bit for bit, so a training forward keeps no D_ff-wide array.
    ``capture`` is passed to ``multi_head``.
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
    ffn = checkpoint(feed_forward, y1, params.ffn_in, params.ffn_out)
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
