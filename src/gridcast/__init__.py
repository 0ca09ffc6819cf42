"""Grid-attention multivariate time-series forecasting on a numpy autodiff core.

The top level holds the names the README's library examples use, the data,
checkpoint and run-config loaders, ``Tensor`` and ``grad_check``, and the
error types. Everything else is imported from its submodule.
"""

from gridcast.config import RunConfig, load_run_config
from gridcast.data import SplitSpec, chronological_split, load_csv, standardize, synthetic_sines
from gridcast.errors import (
    ConfigError,
    DataError,
    DivergenceError,
    GridcastError,
    NumericError,
    ShapeError,
)
from gridcast.model import ModelConfig, build, forward, load_checkpoint
from gridcast.tensor import Tensor, grad_check
from gridcast.train import TrainHyper, train

__all__ = [
    "ConfigError",
    "DataError",
    "DivergenceError",
    "GridcastError",
    "ModelConfig",
    "NumericError",
    "RunConfig",
    "ShapeError",
    "SplitSpec",
    "Tensor",
    "TrainHyper",
    "build",
    "chronological_split",
    "forward",
    "grad_check",
    "load_checkpoint",
    "load_csv",
    "load_run_config",
    "standardize",
    "synthetic_sines",
    "train",
]

__version__ = "0.1.0"
