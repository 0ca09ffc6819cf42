"""End-to-end forecaster: normalize, embed to a grid, attend, project.

The forward pipeline is instance normalization -> tail pad -> patch embedding
into [B x M x N x D] -> encoder layers applied horizontally or vertically per
the sequencing mode -> a flatten head shared across variates -> denormalize.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import asdict, dataclass, field
from typing import List, Optional

import numpy as np

from gridcast.attention import (
    AttentionMap,
    AttentionParams,
    SEQUENCING_MODES,
    apply_horizontal,
    apply_vertical,
    sequence_directions,
    xavier_uniform,
)
from gridcast.embed import embed_grid, pad_tail, patch_count, revin_denormalize, revin_normalize
from gridcast.errors import ConfigError, ShapeError
from gridcast.tensor import BatchNormState, Tensor

CHECKPOINT_MAGIC = "gridcast-checkpoint-1"
NORM_CHOICES = ("batch_and_tokens", "batch_only")


@dataclass(frozen=True)
class ModelConfig:
    """Architecture and window geometry for one forecasting model."""

    T: int  # lookback length
    F: int  # forecast horizon
    N: int  # variates
    P: int = 16  # patch length
    S: int = 8  # patch stride
    D: int = 16  # model width
    H: int = 4  # attention heads
    L: int = 2  # encoder layers
    D_ff: int = 32  # feed-forward width
    dropout: float = 0.2
    mode: str = "alternate"
    seed: int = 0
    norm_over: str = "batch_and_tokens"

    def __post_init__(self):
        for name in ("T", "F", "N", "P", "S", "D", "H", "L", "D_ff"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.T < self.P:
            raise ConfigError(f"T={self.T} is shorter than patch length P={self.P}")
        if self.S > self.P:
            raise ConfigError(f"S={self.S} must not exceed P={self.P}")
        if self.D % self.H != 0:
            raise ConfigError(f"H={self.H} must divide D={self.D}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.mode not in SEQUENCING_MODES:
            raise ConfigError(f"mode={self.mode!r} must be one of {SEQUENCING_MODES}")
        if self.norm_over not in NORM_CHOICES:
            raise ConfigError(f"norm_over={self.norm_over!r} must be one of {NORM_CHOICES}")

    @property
    def M(self) -> int:
        return patch_count(self.T, self.P, self.S)


@dataclass
class ModelParams:
    """All learnable state: embedding, per-layer attention, flatten head."""

    W_p: Tensor  # [P, D]
    W_pos: Tensor  # [M, D]
    layers: List[AttentionParams]
    directions: List[str]  # per-layer direction tag, fixed by the mode
    head_w: Tensor  # [M*D, F], shared across variates
    head_b: Tensor  # [F]

    def named_parameters(self) -> list:
        out = [("W_p", self.W_p), ("W_pos", self.W_pos)]
        for i, layer in enumerate(self.layers):
            out.extend(layer.named(prefix=f"layers.{i}."))
        out.extend([("head_w", self.head_w), ("head_b", self.head_b)])
        return out

    def parameter_count(self) -> int:
        return sum(t.size for _, t in self.named_parameters())


def sequence_layers(config: ModelConfig) -> list:
    """Ordered (direction, layer index) pairs for the config's mode."""
    return [(d, i) for i, d in enumerate(sequence_directions(config.mode, config.L))]


def build(config: ModelConfig, rng: Optional[np.random.Generator] = None) -> ModelParams:
    """Initialize parameters (Xavier-uniform fan scaling), deterministic per seed."""
    if rng is None:
        rng = np.random.default_rng(config.seed)
    M, D = config.M, config.D
    return ModelParams(
        W_p=xavier_uniform(rng, config.P, D),
        W_pos=xavier_uniform(rng, M, D),
        layers=[
            AttentionParams.init(D, config.H, config.D_ff, rng) for _ in range(config.L)
        ],
        directions=sequence_directions(config.mode, config.L),
        head_w=xavier_uniform(rng, M * D, config.F),
        head_b=Tensor(np.zeros(config.F), requires_grad=True),
    )


def forward(
    x: np.ndarray,
    params: ModelParams,
    config: ModelConfig,
    capture_attention: bool = False,
    training: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> tuple:
    """Predict [B x F x N] from a lookback batch [B x T x N].

    The variate axis may be narrower than config.N (training-time variate
    subsets); every parameter is shared across variates so the model is
    width-agnostic there. Returns (prediction Tensor, attention maps or None);
    maps are head- and batch-averaged, one per layer in application order.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ShapeError(f"expected input [B,T,N], got shape {x.shape}")
    B, T, N = x.shape
    if T != config.T:
        raise ShapeError(f"input lookback {T} does not match config T={config.T}")
    if not np.isfinite(x).all():
        raise ShapeError("input contains non-finite values")

    xn, stats = revin_normalize(x)
    padded = pad_tail(xn, config.P, config.S)
    grid = embed_grid(padded, params.W_p, params.W_pos, config.P, config.S)

    bn_axes = None if config.norm_over == "batch_and_tokens" else (0, 1)
    maps: Optional[List[AttentionMap]] = [] if capture_attention else None
    for direction, layer in zip(params.directions, params.layers):
        apply = apply_horizontal if direction == "horizontal" else apply_vertical
        captured: Optional[list] = [] if capture_attention else None
        grid = apply(
            grid,
            layer,
            training=training,
            dropout_rate=config.dropout if training else 0.0,
            rng=rng,
            capture=captured,
            bn_axes=bn_axes,
        )
        if capture_attention:
            # [groups, heads, L, L] -> head- and group-averaged [L, L]
            avg = captured[0].mean(axis=(0, 1))
            maps.append(AttentionMap(avg, direction, len(maps)))

    M, D = config.M, config.D
    moved = grid.permute(0, 2, 1, 3)  # [B, N, M, D]
    flat = moved.reshape(B, N, M * D)
    pred = flat @ params.head_w + params.head_b  # [B, N, F]
    y_norm = pred.permute(0, 2, 1)  # [B, F, N]
    return revin_denormalize(y_norm, stats), maps


def export_attention(maps: Optional[List[AttentionMap]], out_dir) -> list:
    """Write one CSV per captured (layer, direction) map; returns the paths.

    Format per file: header row then ``row_index,col_index,weight`` triples.
    """
    if not maps:
        raise ConfigError("no attention maps to export; run forward with capture_attention")
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for amap in maps:
        path = os.path.join(out_dir, f"attention_layer{amap.layer_index}_{amap.direction}.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["row_index", "col_index", "weight"])
            rows, cols = amap.weights.shape
            for i in range(rows):
                for j in range(cols):
                    writer.writerow([i, j, repr(float(amap.weights[i, j]))])
        paths.append(path)
    return paths


def save_checkpoint(path, params: ModelParams, config: ModelConfig) -> None:
    """Serialize config, parameters, and norm running stats into one npz file."""
    arrays = {
        "__magic__": np.array(CHECKPOINT_MAGIC),
        "__config__": np.array(json.dumps(asdict(config))),
    }
    for name, tensor in params.named_parameters():
        arrays["param/" + name] = tensor.data
    for i, layer in enumerate(params.layers):
        for tag, state in (("norm1", layer.norm1_state), ("norm2", layer.norm2_state)):
            if state.running_mean is not None:
                arrays[f"state/layers.{i}.{tag}.running_mean"] = state.running_mean
                arrays[f"state/layers.{i}.{tag}.running_var"] = state.running_var
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path) -> tuple:
    """Restore (params, config) from ``save_checkpoint`` output."""
    try:
        archive = np.load(path, allow_pickle=False)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read checkpoint {path}: {exc}") from exc
    with archive:
        if "__magic__" not in archive or str(archive["__magic__"][()]) != CHECKPOINT_MAGIC:
            raise ConfigError(f"{path} is not a {CHECKPOINT_MAGIC} file")
        config = ModelConfig(**json.loads(str(archive["__config__"][()])))
        params = build(config)
        for name, tensor in params.named_parameters():
            key = "param/" + name
            if key not in archive:
                raise ConfigError(f"checkpoint {path} is missing parameter {name}")
            loaded = archive[key]
            if loaded.shape != tensor.data.shape:
                raise ConfigError(
                    f"checkpoint parameter {name} has shape {loaded.shape}, "
                    f"expected {tensor.data.shape}"
                )
            tensor.data = loaded.astype(np.float64)
        for i, layer in enumerate(params.layers):
            for tag, state in (("norm1", layer.norm1_state), ("norm2", layer.norm2_state)):
                mean_key = f"state/layers.{i}.{tag}.running_mean"
                if mean_key in archive:
                    state.running_mean = archive[mean_key].astype(np.float64)
                    state.running_var = archive[f"state/layers.{i}.{tag}.running_var"].astype(np.float64)
    return params, config
