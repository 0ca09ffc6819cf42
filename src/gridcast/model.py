"""End-to-end forecaster: normalize, embed to a grid, attend, project.

The forward pipeline is instance normalization -> tail pad -> patch embedding
into [B x M x N x D] -> encoder layers applied horizontally or vertically per
the sequencing mode -> a flatten head shared across variates -> denormalize.
"""

from __future__ import annotations

import contextlib
import csv
import json
import lzma
import os
import zipfile
import zlib
from dataclasses import asdict, dataclass
from typing import List, Optional

import numpy as np

from gridcast.attention import (
    MODES,
    AttentionMap,
    AttentionParams,
    apply_horizontal,
    apply_vertical,
    sequence_directions,
    xavier_uniform,
)
from gridcast.embed import embed_grid, pad_tail, patch_count, revin_denormalize, revin_normalize
from gridcast.errors import ConfigError, NumericError, ShapeError
from gridcast.tensor import Tensor

CHECKPOINT_MAGIC = "gridcast-checkpoint-1"
# a member that is an object array, a bad zip entry, a corrupt stream or a huge header
_MEMBER_ERRORS = (ValueError, zipfile.BadZipFile, NotImplementedError, zlib.error,
                  lzma.LZMAError, MemoryError, OSError)


@dataclass(frozen=True, kw_only=True)
class ModelConfig:
    """Architecture and window geometry for one forecasting model.

    The variate count is the data's: every parameter is shared across
    variates, so one model forecasts windows of any width.
    """

    T: int  # lookback length
    F: int  # forecast horizon
    P: int = 16  # patch length
    S: int = 8  # patch stride
    D: int = 16  # model width
    H: int = 4  # attention heads
    L: int = 2  # encoder layers
    D_ff: int = 32  # feed-forward width
    dropout: float = 0.2
    mode: str = "alternate"  # layer order, one of attention.MODES
    seed: int = 0

    def __post_init__(self):
        for name in ("T", "F", "P", "S", "D", "H", "L", "D_ff", "seed"):
            # checkpoints may hold any JSON value; numpy takes no negative seed
            value, least = getattr(self, name), 0 if name == "seed" else 1
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ConfigError(f"{name} must be >= {least}, got {value}")
        if self.T < self.P:
            raise ConfigError(f"T={self.T} is shorter than patch length P={self.P}")
        if self.S > self.P:
            raise ConfigError(f"S={self.S} must not exceed P={self.P}")
        if self.D % self.H != 0:
            raise ConfigError(f"H={self.H} must divide D={self.D}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.mode not in MODES:
            raise ConfigError(f"mode={self.mode!r} must be one of {MODES}")

    @property
    def M(self) -> int:
        return patch_count(self.T, self.P, self.S)


@dataclass
class ModelParams:
    """All learnable state: embedding, per-layer attention, flatten head."""

    W_p: Tensor  # [P, D]
    W_pos: Tensor  # [M, D]
    layers: List[AttentionParams]
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

    N may be any width, such as a training-time variate subset or a dataset
    other than the training one: every parameter is shared across variates.
    Returns (prediction Tensor, attention maps or None); maps are head- and
    batch-averaged, one per layer in application order.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ShapeError(f"expected input [B,T,N], got shape {x.shape}")
    B, T, N = x.shape
    if T != config.T:
        raise ShapeError(f"input lookback {T} does not match config T={config.T}")
    if not np.isfinite(x).all():
        raise NumericError("input contains non-finite values")

    xn, stats = revin_normalize(x)
    padded = pad_tail(xn, config.P, config.S)
    grid = embed_grid(padded, params.W_p, params.W_pos, config.P, config.S)

    directions = sequence_directions(config.mode, config.L)
    captured: Optional[list] = [] if capture_attention else None
    for direction, layer in zip(directions, params.layers):
        apply = apply_horizontal if direction == "horizontal" else apply_vertical
        grid = apply(
            grid,
            layer,
            training=training,
            dropout_rate=config.dropout,
            rng=rng,
            capture=captured,
        )

    M, D = config.M, config.D
    moved = grid.permute(0, 2, 1, 3)  # [B, N, M, D]
    flat = moved.reshape(B, N, M * D)
    pred = flat @ params.head_w + params.head_b  # [B, N, F]
    y_norm = pred.permute(0, 2, 1)  # [B, F, N]
    maps = None
    if capture_attention:
        # one [groups, heads, L, L] array per layer -> head- and group-averaged [L, L]
        maps = [
            AttentionMap(weights.mean(axis=(0, 1)), direction, i)
            for i, (weights, direction) in enumerate(zip(captured, directions))
        ]
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
        cells = [[i, j, repr(float(w))] for (i, j), w in np.ndenumerate(amap.weights)]
        write_csv(path, [["row_index", "col_index", "weight"], *cells])
        paths.append(path)
    return paths


@contextlib.contextmanager
def write_atomic(path, mode: str = "w", **open_kwargs):
    """Open a temporary file beside ``path`` for writing and yield it.

    When the block ends normally the file is closed and ``os.replace``d onto
    ``path``; when it raises, the temporary file is removed and ``path`` keeps
    its previous contents. Readers never see a half-written ``path``.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_csv(path, rows) -> None:
    """Write ``rows``, header first, as one CSV table through ``write_atomic``:
    fields as ``str`` gives them, lines ending in CRLF."""
    with write_atomic(path, newline="") as fh:
        csv.writer(fh).writerows(rows)


def state_arrays(params: ModelParams) -> dict:
    """Every parameter and batch-norm running statistic by checkpoint name:
    ``param/<name>`` and ``state/layers.<i>.norm<k>.running_mean|var``, the
    latter only once the statistics exist. The arrays are not copied."""
    arrays = {"param/" + name: tensor.data for name, tensor in params.named_parameters()}
    for i, layer in enumerate(params.layers):
        for tag, state in (("norm1", layer.norm1_state), ("norm2", layer.norm2_state)):
            if state.running_mean is not None:
                arrays[f"state/layers.{i}.{tag}.running_mean"] = state.running_mean
                arrays[f"state/layers.{i}.{tag}.running_var"] = state.running_var
    return arrays


def _restored(arrays, key: str, shape: tuple) -> np.ndarray:
    """A float64 copy of ``arrays[key]``, which must hold finite numbers in
    ``shape``."""
    try:
        loaded = arrays[key]
    except (KeyError, *_MEMBER_ERRORS) as exc:
        raise ConfigError(f"{key} cannot be read: {exc}") from None
    if loaded.dtype.kind not in "fiu":
        raise ConfigError(f"{key} has dtype {loaded.dtype}, expected numbers")
    if loaded.shape != shape:
        raise ConfigError(f"{key} has shape {loaded.shape}, expected {shape}")
    loaded = loaded.astype(np.float64)
    if not np.isfinite(loaded).all():
        raise ConfigError(f"{key} holds non-finite values")
    return loaded


def load_state_arrays(params: ModelParams, arrays) -> None:
    """Set ``params`` from copies of ``state_arrays``-named arrays; running
    statistics absent from ``arrays`` restore to None (never updated). Every
    array must hold finite numbers in its parameter's shape, each running
    statistic [1, 1, 1, D] and stored with its partner."""
    for name, tensor in params.named_parameters():
        tensor.data = _restored(arrays, "param/" + name, tensor.data.shape)
    for i, layer in enumerate(params.layers):
        stat_shape = (1, 1, 1, layer.norm1_gamma.shape[0])
        for tag, state in (("norm1", layer.norm1_state), ("norm2", layer.norm2_state)):
            prefix = f"state/layers.{i}.{tag}.running_"
            mean, var = prefix + "mean", prefix + "var"
            if (mean in arrays) != (var in arrays):
                raise ConfigError(f"{mean} and {var} must be stored together")
            if mean in arrays:
                state.running_mean = _restored(arrays, mean, stat_shape)
                state.running_var = _restored(arrays, var, stat_shape)
            else:
                state.running_mean = state.running_var = None


def _check_stored_shapes(archive, config: ModelConfig) -> None:
    """Check the stored layer numbers and the shapes each config field sets."""
    layers = {name.split(".")[1] for name in archive.files if name.startswith("param/layers.")}
    if layers != {str(i) for i in range(config.L)}:
        raise ConfigError(f"its stored layers are not numbered 0..L-1 for L={config.L}")
    P, M, D, H, F = config.P, config.M, config.D, config.H, config.F
    shapes = {"W_p": (P, D), "W_pos": (M, D), "head_w": (M * D, F),
              "layers.0.w_query": (H, D, D // H), "layers.0.ffn_in": (D, config.D_ff)}
    for name, shape in shapes.items():
        _restored(archive, "param/" + name, shape)


def save_checkpoint(path, params: ModelParams, config: ModelConfig) -> None:
    """Serialize config, parameters, and norm running stats into one npz file,
    written atomically."""
    with write_atomic(path, "wb") as fh:
        np.savez(
            fh,
            __magic__=np.array(CHECKPOINT_MAGIC),
            __config__=np.array(json.dumps(asdict(config))),
            **state_arrays(params),
        )


def load_checkpoint(path) -> tuple:
    """Restore (params, config) from ``save_checkpoint`` output."""
    try:
        archive = np.load(path, allow_pickle=False)
    except (OSError, zipfile.BadZipFile, NotImplementedError) as exc:
        raise ConfigError(f"cannot read checkpoint {path}: {exc}") from exc
    except (ValueError, EOFError):  # text, which numpy takes for a pickle, or an empty file
        archive = None
    if not isinstance(archive, np.lib.npyio.NpzFile):  # or an .npy file's array
        raise ConfigError(f"{path} is not a {CHECKPOINT_MAGIC} file")
    with archive:
        try:  # None when absent or unreadable
            magic = str(archive["__magic__"][()])
        except (KeyError, IndexError, *_MEMBER_ERRORS):
            magic = None
        if magic != CHECKPOINT_MAGIC:
            raise ConfigError(f"{path} is not a {CHECKPOINT_MAGIC} file")
        try:
            stored = json.loads(str(archive["__config__"][()]))
            # older checkpoints store norm_over, whose default is the only policy
            # left, and the training width N, which the model never read
            norm_over = stored.pop("norm_over", "batch_and_tokens")
            stored.pop("N", None)
            config = ModelConfig(**stored)
        except (KeyError, TypeError, AttributeError, *_MEMBER_ERRORS) as exc:
            raise ConfigError(f"checkpoint {path} has no valid model config: {exc}") from exc
        if norm_over != "batch_and_tokens":
            raise ConfigError(f"checkpoint {path} uses norm_over = {norm_over}, which was dropped")
        try:
            _check_stored_shapes(archive, config)
            params = build(config)
            load_state_arrays(params, archive)
        except ConfigError as exc:
            raise ConfigError(f"checkpoint {path}: {exc}") from None
    return params, config
