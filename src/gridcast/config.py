"""Flat text run configuration: one ``section.key = value`` pair per line.

Lines starting with ``#`` are comments. The ``model.*`` keys are the fields of
``ModelConfig`` and the ``train.*`` keys those of ``TrainHyper``, minus the
run-wide ``seed`` and the per-model log path: their names, order, types and
defaults come from the dataclasses, and ``RunConfig`` holds them as one dict
per section (``run.model["T"]``, ``run.train["lr"]``). Values are typed by
the field they set (int, float, bool, or string); serialization uses repr
for floats so a parse -> serialize -> parse cycle is lossless. Command-line
overrides use the same ``key=value`` syntax.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional

from gridcast.errors import ConfigError
from gridcast.model import ModelConfig, write_atomic
from gridcast.train import TrainHyper

_SECTIONS = {
    "model": {f.name: f for f in fields(ModelConfig) if f.name != "seed"},
    "train": {f.name: f for f in fields(TrainHyper) if f.name not in ("seed", "log_path")},
}


def _defaults(section: str, **own) -> dict:
    return {name: own.get(name, f.default) for name, f in _SECTIONS[section].items()}


@dataclass
class RunConfig:
    """Everything one experiment run needs, round-trippable as flat text.

    Attribute ``data_rest`` maps to file key ``data.rest`` and ``out_dir`` to
    ``out.dir``; ``model`` and ``train`` are dicts keyed by field name; the
    lone top-level key is ``seed``. The CLI's own model defaults are T=96,
    F=24 and N=0, where ``model.N = 0`` means infer the variate count from
    the dataset.
    """

    data_path: str = ""
    data_name: str = ""
    data_split: str = "6:2:2"
    data_drop_columns: str = ""  # comma-separated names or indices
    data_value_columns: str = ""
    data_borrow_prefix: bool = False
    model: dict = field(default_factory=lambda: _defaults("model", T=96, F=24, N=0))
    train: dict = field(default_factory=lambda: _defaults("train"))
    out_dir: str = "runs"
    seed: int = 0

    def to_model_config(self, n_variates: Optional[int] = None) -> ModelConfig:
        """The model config, N taken from ``n_variates`` when given; a nonzero
        ``model.N`` must then equal it, so a stated width is never ignored."""
        N = self.model["N"]
        if n_variates:
            if N and N != n_variates:
                raise ConfigError(
                    f"model.N = {N} but the data has {n_variates} variates; "
                    "set model.N = 0 to take the width from the data"
                )
            N = n_variates
        return ModelConfig(**{**self.model, "N": N, "seed": self.seed})

    def to_hyper(self, log_path: Optional[str] = None) -> TrainHyper:
        return TrainHyper(**self.train, seed=self.seed, log_path=log_path)

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


_FIELDS = {_key_of(f.name): f for f in fields(RunConfig) if f.name not in _SECTIONS}


def _convert(spec, key: str, raw: str):
    if spec.type in ("bool", bool):
        low = raw.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ConfigError(f"{key} expects true/false, got {raw!r}")
    try:
        if spec.type in ("int", int):
            return int(raw)
        if spec.type in ("float", float):
            return float(raw)
    except ValueError:
        raise ConfigError(f"{key} expects {spec.type}, got {raw!r}") from None
    return raw


def set_key(config: RunConfig, key: str, raw: str) -> None:
    key, raw = key.strip(), raw.strip()
    section, _, name = key.partition(".")
    if name in _SECTIONS.get(section, ()):
        getattr(config, section)[name] = _convert(_SECTIONS[section][name], key, raw)
    elif key in _FIELDS:
        setattr(config, _FIELDS[key].name, _convert(_FIELDS[key], key, raw))
    else:
        raise ConfigError(f"unknown config key {key!r}")


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


def _text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def serialize_run_config(config: RunConfig) -> str:
    lines = []
    for f in fields(RunConfig):
        value = getattr(config, f.name)
        if f.name in _SECTIONS:
            lines += [f"{f.name}.{name} = {_text(v)}" for name, v in value.items()]
        else:
            lines.append(f"{_key_of(f.name)} = {_text(value)}")
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
