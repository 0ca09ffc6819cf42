"""Multi-head attention encoder layers applied along either grid axis.

The activation grid is [B x M x N x D]: M patch tokens, N variates, width D.
A horizontal layer runs attention among each variate's M patch tokens; a
vertical layer runs attention among the N variate tokens at each patch step.
Both directions run the same ``encoder_layer`` over the trailing [L x D] axes:
horizontal on the grid viewed as [B x N x M x D], vertical on the grid as it
is, which equals transpose -> horizontal -> transpose without the permutes.

The attention core is cache-blocked, after the tiling of FlashAttention (Dao
et al., arXiv 2205.14135): ``multi_head`` splits its G groups into blocks
whose [rows, H, L, L] scores fit ``SCORE_BLOCK_BYTES`` and runs scores ->
softmax -> weighted sum on one block at a time, so the score-sized arrays of
the forward and of the backward stay in cache instead of streaming through
memory (a [192, 4, 128, 128] score array is 100 MB). This is the only
attention path: every group is independent, so each value and gradient is
the same bit for bit as on the whole array, and a score array that fits the
budget is one block whose graph is the unblocked one, node for node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from gridcast.errors import ConfigError, ShapeError
from gridcast.tensor import BatchNormState, Tensor, batch_norm, dropout

DIRECTIONS = ("horizontal", "vertical")
SEQUENCING_MODES = ("channel_first", "time_first", "alternate")
COST_MODES = SEQUENCING_MODES + ("horizontal_only", "vertical_only")

# Largest [rows, H, L, L] float64 score block one attention step forms: a
# quarter of a 2 MB per-core L2. Forward holds a block's scores and weights,
# backward its weights, their gradient and one softmax temporary, so these
# stay in cache from Q K^T through softmax to the weighted sum.
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
        """Xavier-uniform weights, identity norms, for width D and H heads."""
        if D % H != 0:
            raise ConfigError(f"head count {H} must divide model width {D}")
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

    @property
    def heads(self) -> int:
        return self.w_query.shape[0]

    def named(self, prefix: str = "") -> list:
        return [
            (prefix + name, getattr(self, name))
            for name in (
                "w_query", "w_key", "w_value", "w_out", "ffn_in", "ffn_out",
                "norm1_gamma", "norm1_beta", "norm2_gamma", "norm2_beta",
            )
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


def _swap_last_two(t: Tensor) -> Tensor:
    axes = tuple(range(t.ndim - 2)) + (t.ndim - 1, t.ndim - 2)
    return t.permute(*axes)


def project_heads(x: Tensor, w: Tensor) -> Tensor:
    """Every head's projection ``x @ w[h]`` of x [..., L, D] by w [H, D, d],
    as one [G, H, L, d] graph node, G collapsing the leading axes of x.

    The product runs as a single [G*L, D] x [D, H*d] GEMM, and backward as
    two: the broadcast ``x[:, None] @ w`` calls BLAS once per group and head
    on [L, D] x [D, d] matrices, and its weight gradient stacks G*H tiny
    products into a [G, H, D, d] temporary before summing it. The output is a
    view of the GEMM's [G, L, H, d] result; the stored [H, D, d] weights keep
    their layout. A strided x is copied to [G*L, D] rows, so callers that
    project one input several times reshape it once first.
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


def _attend(Qs: Tensor, Kt: Tensor, V: Tensor) -> tuple:
    """(softmax(Qs Kt) V, weights) for scaled queries and transposed keys."""
    weights = (Qs @ Kt).softmax(axis=-1)
    return weights @ V, weights


def multi_head(x: Tensor, params: AttentionParams, want_weights: bool = False):
    """Multi-head attention over the trailing [L x D] axes of ``x``.

    Per-head outputs are concatenated and projected by w_out. With
    ``want_weights`` returns (out, weights [groups x H x L x L]) where groups
    collapses all leading axes; the weights are a plain copy outside the graph.

    Q, K and V are [G, H, L, d_k], each one ``project_heads`` GEMM over all
    G*L tokens. The queries are scaled by 1/sqrt(d_k) once, which is cheaper
    than scaling the [.., L, L] scores, and the keys transposed once. Then
    softmax(Qs Kt) V runs on one row block of groups at a time, each block's
    [rows, H, L, L] scores within ``SCORE_BLOCK_BYTES``:
    ``Tensor.rows`` cuts the blocks as views whose gradients backward
    scatters into one buffer, and ``Tensor.concat_rows`` joins the block
    outputs. When all G groups fit one block, the slice and the join return
    their input, so the graph holds no node beyond the attention ops.
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    L, D = x.shape[-2], x.shape[-1]
    H, _, d_k = params.w_query.shape
    orig = x.shape
    G = x.size // (L * D)
    # one copy of a strided input (the horizontal layer's transposed grid),
    # which all three projections then read as a view
    xg = x.reshape(G, L, D)
    Q = project_heads(xg, params.w_query)  # [G, H, L, d_k]
    K = project_heads(xg, params.w_key)
    V = project_heads(xg, params.w_value)
    # scale and transpose once; per block they would add two graph nodes
    Qs, Kt = Q * (1.0 / np.sqrt(d_k)), _swap_last_two(K)
    rows = max(1, SCORE_BLOCK_BYTES // (H * L * L * Q.data.itemsize))
    outs, block_weights = [], []
    for start in range(0, G, rows):
        stop = min(start + rows, G)
        att, weights = _attend(Qs.rows(start, stop), Kt.rows(start, stop), V.rows(start, stop))
        outs.append(att)
        if want_weights:
            block_weights.append(weights.data)
    # free the scaled queries before the output projection allocates: without
    # a graph nothing else holds them, and a forward then allocates and frees
    # in the same order as unblocked attention did
    del Qs, Kt
    att = Tensor.concat_rows(outs)  # [G, H, L, d_v]
    d_v = params.w_value.shape[-1]
    cat = att.permute(0, 2, 1, 3).reshape(G, L, H * d_v)
    out = (cat @ params.w_out).reshape(*orig)
    if want_weights:
        return out, Tensor(np.concatenate(block_weights))
    return out


def encoder_layer(
    x: Tensor,
    params: AttentionParams,
    training: bool = False,
    dropout_rate: float = 0.0,
    rng: Optional[np.random.Generator] = None,
    capture: Optional[list] = None,
    bn_axes: Optional[tuple] = None,
) -> Tensor:
    """Post-norm transformer encoder block over the trailing [L x D] axes.

    y1 = BN(x + Dropout(MHA(x))); y = BN(y1 + Dropout(FFN(y1))), where the FFN
    is gelu(x W1) W2 and both norms standardize each feature over every other
    axis (batch and token positions together by default).
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    if capture is not None:
        att, weights = multi_head(x, params, want_weights=True)
        capture.append(weights.data)
    else:
        att = multi_head(x, params)
    y1 = batch_norm(
        x + dropout(att, dropout_rate, rng, training),
        params.norm1_gamma,
        params.norm1_beta,
        params.norm1_state,
        training,
        axes=bn_axes,
    )
    ffn = (y1 @ params.ffn_in).gelu() @ params.ffn_out
    return batch_norm(
        y1 + dropout(ffn, dropout_rate, rng, training),
        params.norm2_gamma,
        params.norm2_beta,
        params.norm2_state,
        training,
        axes=bn_axes,
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
    block when depth is odd), time_first mirrors it, and alternate starts
    horizontal on even indices.
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
    raise ConfigError(f"unknown sequencing mode {mode!r}; choose from {COST_MODES}")


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
