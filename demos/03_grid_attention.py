"""
The patch grid and its two attention directions
===============================================

A lookback window [T x N] becomes a grid of patch tokens [M x N x D].
Horizontal attention mixes a variate's patches across time; vertical
attention mixes the variates at one patch position. Vertical equals
horizontal applied to the transposed grid, and this script shows it.
"""

import numpy as np

from gridcast.attention import (
    AttentionParams,
    apply_horizontal,
    apply_vertical,
    grid_transpose,
    multi_head,
)
from gridcast.embed import pad_tail, patch_count, revin_normalize
from gridcast.model import ModelConfig, build, forward
from gridcast.tensor import Tensor

rng = np.random.default_rng(0)

# One window, 96 steps, 3 variates.
T, N, P, S, D = 96, 3, 16, 8, 16
x = rng.normal(size=(1, T, N)).cumsum(axis=1)

# Instance-normalize, pad the tail so the last patch is full, count patches.
xn, stats = revin_normalize(x)
padded = pad_tail(xn, P, S)
M = patch_count(T, P, S)
print(f"T={T}, P={P}, S={S}: padded to {padded.shape[1]} steps, M={M} patches per variate")

cfg = ModelConfig(T=T, F=24, P=P, S=S, D=D, H=4, L=2, D_ff=32, dropout=0.0)
params = build(cfg)

# The embedded grid is [batch, M, N, D].
from gridcast.embed import embed_grid

grid = embed_grid(padded, params.W_p, params.W_pos, P, S)
print("grid shape:", grid.shape)

# Horizontal: each variate's M tokens attend among themselves.
layer = params.layers[0]
h_out = apply_horizontal(grid, layer)
print("after horizontal attention:", h_out.shape)

# Vertical: transpose the grid so variates become the sequence, reuse the
# exact same code path, transpose back.
v_direct = apply_vertical(grid, layer)
v_manual = grid_transpose(apply_horizontal(grid_transpose(grid), layer))
print("vertical == transpose(horizontal(transpose)):", bool((v_direct.data == v_manual.data).all()))

# Attention weights are row-stochastic: every query's weights sum to one.
seq = Tensor(rng.normal(size=(1, M, D)))
captured = []
multi_head(seq.reshape(M, D), layer, capture=captured)
weights = captured[0]
print("weight array shape [groups, H, M, M]:", weights.shape)
print("max |row sum - 1|:", float(np.abs(weights.sum(axis=-1) - 1).max()))

# The full model chains the layers per its sequencing mode and forecasts.
pred, _ = forward(x, params, cfg)
print("forecast shape [B, F, N]:", pred.shape)
