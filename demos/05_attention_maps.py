"""
Capturing and exporting attention maps
======================================

Any forward pass can record, per encoder layer, the head-averaged and
batch-averaged attention weights. Horizontal layers yield an M x M map over
patch positions, vertical layers an N x N map over variates. Export writes
one CSV per layer for plotting elsewhere.
"""

import os
import tempfile

import numpy as np

from gridcast.data import synthetic_sines
from gridcast.model import ModelConfig, build, export_attention, forward

ds = synthetic_sines(200, n_variates=3, period=48, noise=0.0, seed=5)
window = ds.values[:96][None]  # [1, T, N]

cfg = ModelConfig(T=96, F=24, P=16, S=8, D=16, H=4, L=2, D_ff=32, dropout=0.0, seed=2)
params = build(cfg)

pred, maps = forward(window, params, cfg, capture_attention=True)
for m in maps:
    print(f"layer {m.layer_index}: {m.direction}, map shape {m.weights.shape}")

# A crude text heatmap of the vertical map: who looks at whom across variates.
vertical = next(m for m in maps if m.direction == "vertical")
print("\nvertical attention (rows = querying variate):")
for row in vertical.weights:
    print("  " + " ".join(f"{w:.2f}" for w in row))

with tempfile.TemporaryDirectory() as tmp_dir:
    out_dir = os.path.join(tmp_dir, "maps")
    paths = export_attention(maps, out_dir)
    print("\nwrote:")
    for p in paths:
        print(" ", p)

    # Each file is row_index,col_index,weight with full float precision.
    with open(paths[0]) as fh:
        for line in list(fh)[:4]:
            print("   ", line.rstrip())

    # Row sums survive the round trip.
    data = np.loadtxt(paths[0], delimiter=",", skiprows=1)
    M = int(data[:, 0].max()) + 1
    grid = data[:, 2].reshape(M, M)
    print("max |row sum - 1| after reload:", float(np.abs(grid.sum(axis=1) - 1).max()))
