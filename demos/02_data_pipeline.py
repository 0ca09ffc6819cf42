"""
From raw CSV to training windows
================================

The data module owns everything that happens before a tensor exists:
loading, chronological splitting, per-variate standardization, and the
sliding-window sampler.
"""

import os
import tempfile

import numpy as np

from gridcast.data import (
    SplitSpec,
    chronological_split,
    load_csv,
    make_windows,
    n_windows,
    standardize,
    synthetic_sines,
)

# Start from a synthetic 4-variate series: phase-shifted sines plus noise.
ds = synthetic_sines(2000, n_variates=4, period=48, noise=0.05, seed=0)
print(f"{ds.name}: {ds.timesteps} steps x {ds.channels} variates")

# Round-trip through CSV, because that is how real datasets arrive.
with tempfile.TemporaryDirectory() as tmp_dir:
    tmp = os.path.join(tmp_dir, "sines.csv")
    with open(tmp, "w") as fh:
        fh.write(",".join(f"v{i}" for i in range(ds.channels)) + "\n")
        for row in ds.values:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    loaded = load_csv(tmp)
print("csv round-trip exact:", bool((loaded.values == ds.values).all()))

# Chronological 6:2:2 split. Boundaries floor, so no window leaks across.
train, val, test = chronological_split(loaded, SplitSpec.parse("6:2:2"))
print("split sizes:", train.timesteps, val.timesteps, test.timesteps)

# Standardization is fit on train only and applied everywhere.
train, val, test, stats = standardize(train, val, test)
print("train means ~0:", np.round(train.values.mean(axis=0), 6))
print("test keeps its drift:", np.round(test.values.mean(axis=0), 3))

# Windows: every (T past, F future) pair that fits, one per start step.
T, F = 96, 24
print(f"test split holds {n_windows(test.timesteps, T, F)} windows of ({T} -> {F})")

batches = list(make_windows(train, T, F, batch_size=64, shuffle=True, rng=np.random.default_rng(0)))
b = batches[0]
print(f"{len(batches)} shuffled batches; first has inputs {b.inputs.shape}, targets {b.targets.shape}")
