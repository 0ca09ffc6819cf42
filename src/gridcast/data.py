"""Dataset ingestion, chronological splitting, standardization, and windowing.

CSV files are read as [timesteps x variates] matrices in row-major time order.
Splits are contiguous and chronological; standardization statistics come from
the training split only and are applied unchanged to validation and test.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from gridcast.errors import DataError
from gridcast.model import write_csv

ColumnKey = Union[int, str]


@dataclass(frozen=True)
class TimeSeriesDataset:
    """An immutable multivariate series: rows are time steps, columns variates."""

    name: str
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise DataError(f"dataset values must be 2-d, got shape {v.shape}")
        if v.shape[1] < 1:
            raise DataError("dataset needs at least one variate column")
        if not np.isfinite(v).all():
            raise DataError(f"dataset {self.name!r} contains non-finite values")
        object.__setattr__(self, "values", v)

    @property
    def timesteps(self) -> int:
        return self.values.shape[0]

    @property
    def channels(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class SplitSpec:
    """Integer train/val/test ratio, e.g. 7:1:2 or 6:2:2."""

    train: int
    val: int
    test: int

    def __post_init__(self):
        if min(self.train, self.val, self.test) <= 0:
            raise DataError(f"split ratios must be positive, got {self}")

    @classmethod
    def parse(cls, text: str) -> "SplitSpec":
        parts = text.split(":")
        if len(parts) != 3:
            raise DataError(f"split spec must look like 'a:b:c', got {text!r}")
        try:
            a, b, c = (int(p) for p in parts)
        except ValueError:
            raise DataError(f"split spec must hold integers, got {text!r}") from None
        return cls(a, b, c)

    def __str__(self) -> str:
        return f"{self.train}:{self.val}:{self.test}"


@dataclass
class WindowBatch:
    """A batch of (lookback, horizon) pairs, target immediately after input."""

    inputs: np.ndarray  # [batch, T, N]
    targets: np.ndarray  # [batch, F, N]


@dataclass(frozen=True)
class VariateStats:
    """Per-variate mean and standard deviation from the training split."""

    mean: np.ndarray  # [N]
    std: np.ndarray  # [N], strictly positive (degenerate columns clamped to 1)


def _parse_cell(cell: str, line_no: int, column: str) -> float:
    text = cell.strip()
    if text == "":
        raise DataError(f"blank cell at line {line_no}, column {column!r}")
    try:
        value = float(text)
    except ValueError:
        raise DataError(
            f"cell at line {line_no}, column {column!r} is not a number: {cell!r}"
        ) from None
    if not math.isfinite(value):
        raise DataError(
            f"cell at line {line_no}, column {column!r} is not finite: {cell!r}"
        )
    return value


def _is_number(cell: str) -> bool:
    try:
        float(cell.strip())
    except ValueError:
        return False
    return cell.strip() != ""


def _resolve_columns(keys: Sequence[ColumnKey], names: list) -> list:
    out = []
    for key in keys:
        if isinstance(key, int):
            if not -len(names) <= key < len(names):
                raise DataError(f"column index {key} out of range for {len(names)} columns")
            out.append(key % len(names))
        else:
            if key not in names:
                raise DataError(f"column {key!r} not found; columns are {names}")
            out.append(names.index(key))
    return out


def first_non_utf8(path) -> str:
    """The first byte of the file at ``path`` that does not decode as UTF-8,
    and its offset; the text decoder reports it only within its read chunk."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        return f"byte {raw[exc.start]:#04x} at offset {exc.start}"
    return "the file changed while it was read"


def load_csv(
    path,
    value_columns: Optional[Sequence[ColumnKey]] = None,
    drop_columns: Optional[Sequence[ColumnKey]] = None,
    name: Optional[str] = None,
) -> TimeSeriesDataset:
    """Read a CSV into a dataset; rows are time order, columns variate order.

    A header row is auto-detected (any non-numeric first row). Columns can be
    selected by ``value_columns`` or removed by ``drop_columns`` (names or
    indices), which is how a leading date column is discarded.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:  # drops a byte-order mark
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError:
        raise DataError(f"{path} is not UTF-8 text: {first_non_utf8(path)}") from None
    except csv.Error as exc:
        raise DataError(f"cannot parse {path}: {exc}") from None
    rows = [r for r in rows if r]  # tolerate trailing blank lines
    if not rows:
        raise DataError(f"{path} is empty")

    has_header = not all(_is_number(c) for c in rows[0])
    if has_header:
        names = [c.strip() for c in rows[0]]
        first_data_line = 2
        data_rows = rows[1:]
    else:
        names = [f"c{i}" for i in range(len(rows[0]))]
        first_data_line = 1
        data_rows = rows
    if not data_rows:
        raise DataError(f"{path} has a header but no data rows")

    if value_columns is not None:
        keep = _resolve_columns(value_columns, names)
    else:
        keep = list(range(len(names)))
        if drop_columns:
            dropped = set(_resolve_columns(drop_columns, names))
            keep = [i for i in keep if i not in dropped]
    if not keep:
        raise DataError(f"{path}: no value columns remain after selection")

    width = len(names)
    values = np.empty((len(data_rows), len(keep)), dtype=np.float64)
    for r, row in enumerate(data_rows):
        line_no = first_data_line + r
        if len(row) != width:
            raise DataError(
                f"ragged row at line {line_no}: expected {width} cells, found {len(row)}"
            )
        for j, col in enumerate(keep):
            values[r, j] = _parse_cell(row[col], line_no, names[col])

    from os.path import basename

    return TimeSeriesDataset(name if name is not None else basename(str(path)), values)


def chronological_split(ds: TimeSeriesDataset, spec: SplitSpec) -> tuple:
    """Cut the series into contiguous train/val/test blocks, in time order.

    Boundaries fall at floor(cumulative ratio fraction x timesteps), so the
    three blocks concatenate back to the source exactly.
    """
    total = spec.train + spec.val + spec.test
    ts = ds.timesteps
    b1 = (ts * spec.train) // total
    b2 = (ts * (spec.train + spec.val)) // total
    parts = []
    for tag, lo, hi in (("train", 0, b1), ("val", b1, b2), ("test", b2, ts)):
        if hi == lo:
            raise DataError(f"{tag} split of {ds.name!r} is empty ({ts} steps at {spec})")
        parts.append(TimeSeriesDataset(f"{ds.name}:{tag}", ds.values[lo:hi]))
    return tuple(parts)


def standardize(
    train: TimeSeriesDataset, val: TimeSeriesDataset, test: TimeSeriesDataset
) -> tuple:
    """Zero-mean/unit-std all three splits using train-split statistics only.

    Uses population (biased) standard deviation. Constant training columns get
    std clamped to 1 with a warning rather than an error.
    """
    mean = train.values.mean(axis=0)
    std = train.values.std(axis=0)
    degenerate = std == 0.0
    if degenerate.any():
        warnings.warn(
            f"variates {np.flatnonzero(degenerate).tolist()} are constant in the "
            "training split; std clamped to 1"
        )
        std = np.where(degenerate, 1.0, std)
    stats = VariateStats(mean=mean, std=std)
    out = tuple(
        TimeSeriesDataset(ds.name, (ds.values - mean) / std)
        for ds in (train, val, test)
    )
    return out + (stats,)


def save_stats(stats: VariateStats, path) -> None:
    pairs = enumerate(zip(stats.mean, stats.std))
    rows = [[i, repr(float(m)), repr(float(s))] for i, (m, s) in pairs]
    write_csv(path, [["variate_index", "mean", "std"], *rows])


def n_windows(timesteps: int, T: int, F: int) -> int:
    """Number of (lookback, horizon) windows that fit, one per start step."""
    if timesteps < T + F:
        raise DataError(
            f"split too short: {timesteps} steps cannot host lookback {T} + horizon {F}"
        )
    return timesteps - T - F + 1


def check_windows(splits: tuple, T: int, F: int, tags: tuple = ("train", "val", "test")) -> None:
    """Raise ``DataError`` naming the first of the ``splits`` (by default
    train, val and test) too short to host one window of lookback T and
    horizon F."""
    for tag, ds in zip(tags, splits):
        try:
            n_windows(ds.timesteps, T, F)
        except DataError as exc:
            raise DataError(f"{tag} {exc}") from None


def make_windows(
    ds: TimeSeriesDataset,
    T: int,
    F: int,
    batch_size: int = 1,
    shuffle: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> Iterator[WindowBatch]:
    """Yield batches of contiguous (input, target) windows.

    Window i covers rows [i, i+T) with its target immediately following.
    Shuffling permutes window start order and requires a seeded rng.
    """
    count = n_windows(ds.timesteps, T, F)
    starts = np.arange(count, dtype=np.int64)
    if shuffle:
        if rng is None:
            raise DataError("shuffle=True needs an explicit rng for reproducibility")
        starts = rng.permutation(starts)
    for lo in range(0, count, batch_size):
        batch_starts = starts[lo : lo + batch_size]
        in_idx = batch_starts[:, None] + np.arange(T)
        out_idx = batch_starts[:, None] + T + np.arange(F)
        yield WindowBatch(inputs=ds.values[in_idx], targets=ds.values[out_idx])


def borrow_prefix(
    train: TimeSeriesDataset,
    val: TimeSeriesDataset,
    test: TimeSeriesDataset,
    T: int,
) -> tuple:
    """Prefix val/test with the last T steps of the preceding split.

    Off by default in the evaluation protocol; turning it on lets the first
    test window start at the true split boundary instead of T steps after it,
    adding T extra windows per split.
    """
    before_test = np.concatenate([train.values, val.values])
    val2 = TimeSeriesDataset(val.name, np.concatenate([train.values[-T:], val.values]))
    test2 = TimeSeriesDataset(test.name, np.concatenate([before_test[-T:], test.values]))
    return train, val2, test2


def synthetic_sines(
    timesteps: int,
    n_variates: int = 4,
    period: float = 48.0,
    noise: float = 0.05,
    seed: int = 0,
    name: str = "synthetic-sines",
) -> TimeSeriesDataset:
    """Phase-shifted noisy sinusoids sharing one period across variates."""
    rng = np.random.default_rng(seed)
    t = np.arange(timesteps, dtype=np.float64)[:, None]
    phase = 2.0 * np.pi * np.arange(n_variates) / n_variates
    values = np.sin(2.0 * np.pi * t / period + phase)
    values += noise * rng.standard_normal(values.shape)
    return TimeSeriesDataset(name=name, values=values)

