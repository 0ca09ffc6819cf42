"""Flat text run configuration: one ``section.key = value`` pair per line.

Lines starting with ``#`` are comments. Values are typed by the field they
set (int, float, bool, or string); serialization uses repr for floats so a
parse -> serialize -> parse cycle is lossless. Command-line overrides use the
same ``key=value`` syntax.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

from gridcast.errors import ConfigError
from gridcast.model import ModelConfig, write_atomic
from gridcast.train import TrainHyper


@dataclass
class RunConfig:
    """Everything one experiment run needs, round-trippable as flat text.

    Attribute ``section_rest`` maps to file key ``section.rest``; the lone
    top-level key is ``seed``. ``model_N = 0`` means infer the variate count
    from the dataset.
    """

    data_path: str = ""
    data_name: str = ""
    data_frequency: str = ""
    data_split: str = "6:2:2"
    data_drop_columns: str = ""  # comma-separated names or indices
    data_value_columns: str = ""
    data_borrow_prefix: bool = False
    model_T: int = 96
    model_F: int = 24
    model_N: int = 0
    model_P: int = 16
    model_S: int = 8
    model_D: int = 16
    model_H: int = 4
    model_L: int = 2
    model_D_ff: int = 32
    model_dropout: float = 0.2
    model_mode: str = "alternate"
    model_norm_over: str = "batch_and_tokens"
    train_lr: float = 1e-4
    train_batch_size: int = 32
    train_max_epochs: int = 10
    train_patience: int = 5
    train_clip_norm: float = 5.0
    train_variate_ratio: float = 1.0
    out_dir: str = "runs"
    seed: int = 0

    def to_model_config(self, n_variates: Optional[int] = None) -> ModelConfig:
        N = n_variates if n_variates else self.model_N
        if N < 1:
            raise ConfigError("model.N is unset and no dataset width was supplied")
        return ModelConfig(
            T=self.model_T,
            F=self.model_F,
            N=N,
            P=self.model_P,
            S=self.model_S,
            D=self.model_D,
            H=self.model_H,
            L=self.model_L,
            D_ff=self.model_D_ff,
            dropout=self.model_dropout,
            mode=self.model_mode,
            seed=self.seed,
            norm_over=self.model_norm_over,
        )

    def to_hyper(self, log_path: Optional[str] = None) -> TrainHyper:
        return TrainHyper(
            lr=self.train_lr,
            batch_size=self.train_batch_size,
            max_epochs=self.train_max_epochs,
            patience=self.train_patience,
            clip_norm=self.train_clip_norm,
            variate_ratio=self.train_variate_ratio,
            seed=self.seed,
            log_path=log_path,
        )

    def columns(self, which: str) -> Optional[list]:
        """Split a comma-separated column list, ints where possible."""
        raw = getattr(self, f"data_{which}_columns")
        if not raw.strip():
            return None
        out = []
        for part in raw.split(","):
            part = part.strip()
            out.append(int(part) if part.lstrip("-").isdigit() else part)
        return out


def _key_of(attr: str) -> str:
    return attr.replace("_", ".", 1) if "_" in attr else attr


_FIELDS = {_key_of(f.name): f for f in fields(RunConfig)}


def _convert(field, raw: str):
    if field.type in ("bool", bool):
        low = raw.strip().lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ConfigError(f"{_key_of(field.name)} expects true/false, got {raw!r}")
    try:
        if field.type in ("int", int):
            return int(raw)
        if field.type in ("float", float):
            return float(raw)
    except ValueError:
        raise ConfigError(
            f"{_key_of(field.name)} expects {field.type}, got {raw!r}"
        ) from None
    return raw


def set_key(config: RunConfig, key: str, raw: str) -> None:
    field = _FIELDS.get(key.strip())
    if field is None:
        raise ConfigError(f"unknown config key {key.strip()!r}")
    setattr(config, field.name, _convert(field, raw.strip()))


def parse_run_config(text: str) -> RunConfig:
    config = RunConfig()
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"config line {line_no} is not 'key = value': {line!r}")
        key, _, value = stripped.partition("=")
        try:
            set_key(config, key, value)
        except ConfigError as exc:
            raise ConfigError(f"config line {line_no}: {exc}") from None
    return config


def serialize_run_config(config: RunConfig) -> str:
    lines = []
    for f in fields(RunConfig):
        value = getattr(config, f.name)
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        lines.append(f"{_key_of(f.name)} = {text}")
    return "\n".join(lines) + "\n"


def load_run_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_run_config(text)


def save_run_config(config: RunConfig, path) -> None:
    with write_atomic(path) as fh:
        fh.write(serialize_run_config(config))


def apply_overrides(config: RunConfig, overrides) -> RunConfig:
    """Apply ``key=value`` strings (e.g. from --set flags) in order."""
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, _, value = item.partition("=")
        set_key(config, key, value)
    return config
