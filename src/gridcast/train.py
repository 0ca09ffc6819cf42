"""MSE training with Adam, evaluation, persistence baseline, variate sampling.

Metrics are computed in whatever space the datasets arrive in; the standard
protocol standardizes splits with train-split statistics first, so reported
MSE/MAE are in standardized space. Per-window shift and scale are handled by
the model's instance normalization, not here.
"""

from __future__ import annotations

import copy
import json
import resource
import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from gridcast.attention import count_attention_cost
from gridcast.data import TimeSeriesDataset, make_windows, n_windows
from gridcast.errors import (
    ConfigError,
    DivergenceError,
    GridcastError,
    NumericError,
    ShapeError,
)
from gridcast.model import ModelConfig, ModelParams, forward
from gridcast.tensor import Tensor, no_grad


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def mse(pred, target) -> Tensor:
    """Mean over every element of the squared error; scalar Tensor."""
    pred, target = _as_tensor(pred), _as_tensor(target)
    if pred.shape != target.shape:
        raise ShapeError(f"mse shape mismatch: {pred.shape} vs {target.shape}")
    return ((pred - target) ** 2).mean()


def mae(pred, target) -> Tensor:
    """Mean over every element of the absolute error; scalar Tensor."""
    pred, target = _as_tensor(pred), _as_tensor(target)
    if pred.shape != target.shape:
        raise ShapeError(f"mae shape mismatch: {pred.shape} vs {target.shape}")
    return (pred - target).abs().mean()


@dataclass
class OptimState:
    """Adam moments and hyperparameters, one buffer pair per parameter name."""

    lr: float = 1e-4
    betas: tuple = (0.9, 0.999)
    eps: float = 1e-8
    weight_decay: float = 0.0
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(named_params: list, grads: dict, state: OptimState) -> None:
    """One bias-corrected Adam update, in place, deterministic.

    ``named_params`` is a list of (name, Tensor); ``grads`` maps each name to
    its gradient array. A missing or None gradient is an error naming the
    parameter.
    """
    state.step += 1
    b1, b2 = state.betas
    correct1 = 1.0 - b1**state.step
    correct2 = 1.0 - b2**state.step
    for name, tensor in named_params:
        g = grads.get(name)
        if g is None:
            raise GridcastError(f"no gradient for parameter {name!r}")
        if state.weight_decay:
            g = g + state.weight_decay * tensor.data
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(tensor.data)
            state.m[name] = m
            state.v[name] = np.zeros_like(tensor.data)
        v = state.v[name]
        m += (1.0 - b1) * (g - m)
        v += (1.0 - b2) * (g * g - v)
        m_hat = m / correct1
        v_hat = v / correct2
        tensor.data = tensor.data - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)


def clip_gradients(named_params: list, max_norm: float) -> float:
    """Scale all gradients so their global norm is at most ``max_norm``.

    Returns the pre-clip global norm.
    """
    total = 0.0
    for _, tensor in named_params:
        if tensor.grad is not None:
            total += float((tensor.grad**2).sum())
    norm = np.sqrt(total)
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for _, tensor in named_params:
            if tensor.grad is not None:
                tensor.grad = tensor.grad * scale
    return float(norm)


def sample_variates(N: int, ratio: float, rng: np.random.Generator) -> np.ndarray:
    """Uniform without-replacement variate subset of size max(1, round(ratio*N))."""
    if not 0.0 < ratio <= 1.0:
        raise ConfigError(f"variate sample ratio must be in (0, 1], got {ratio}")
    k = max(1, round(ratio * N))
    if k >= N:
        return np.arange(N)
    return np.sort(rng.choice(N, size=k, replace=False))


def persistence_baseline(ds: TimeSeriesDataset, T: int, F: int) -> tuple:
    """MSE/MAE of repeating each window's last observed value F steps ahead."""
    se = ae = 0.0
    count = 0
    for batch in make_windows(ds, T, F, batch_size=256):
        pred = np.repeat(batch.inputs[:, -1:, :], F, axis=1)
        diff = pred - batch.targets
        se += float((diff**2).sum())
        ae += float(np.abs(diff).sum())
        count += diff.size
    return se / count, ae / count


def evaluate(
    params: ModelParams,
    config: ModelConfig,
    ds: TimeSeriesDataset,
    batch_size: int = 64,
) -> tuple:
    """Inference-mode MSE/MAE over every window of a split, all variates."""
    se = ae = 0.0
    count = 0
    with no_grad():
        for batch in make_windows(ds, config.T, config.F, batch_size=batch_size):
            pred, _ = forward(batch.inputs, params, config, training=False)
            diff = pred.data - batch.targets
            se += float((diff**2).sum())
            ae += float(np.abs(diff).sum())
            count += diff.size
    return se / count, ae / count


@dataclass
class TrainHyper:
    """Loop hyperparameters; lr=0 is a frozen dry run (no state changes)."""

    lr: float = 1e-4
    batch_size: int = 32
    max_epochs: int = 10
    patience: int = 5
    clip_norm: float = 5.0
    variate_ratio: float = 1.0
    seed: int = 0
    log_path: Optional[str] = None


@dataclass
class TrainReport:
    """Everything observable about one training run."""

    train_loss: List[float] = field(default_factory=list)
    val_mse: List[float] = field(default_factory=list)
    val_mae: List[float] = field(default_factory=list)
    test_mse: float = float("nan")
    test_mae: float = float("nan")
    best_epoch: int = -1
    epochs_run: int = 0
    wall_time_s: float = 0.0
    peak_rss_mb: float = 0.0
    variate_ratio: float = 1.0
    vertical_entries_per_batch: int = 0
    steps: int = 0


def _snapshot(params: ModelParams) -> dict:
    return {
        "params": {name: t.data.copy() for name, t in params.named_parameters()},
        "states": [
            (copy.deepcopy(l.norm1_state), copy.deepcopy(l.norm2_state))
            for l in params.layers
        ],
    }


def _restore(params: ModelParams, snap: dict) -> None:
    for name, t in params.named_parameters():
        t.data = snap["params"][name].copy()
    for layer, (s1, s2) in zip(params.layers, snap["states"]):
        layer.norm1_state = copy.deepcopy(s1)
        layer.norm2_state = copy.deepcopy(s2)


def train(
    params: ModelParams,
    config: ModelConfig,
    datasets: tuple,
    hyper: TrainHyper,
) -> TrainReport:
    """Adam training with early stopping on validation MSE.

    ``datasets`` is (train, val, test). Batches are seeded shuffles; an
    optional variate subset is redrawn per batch and applied to inputs,
    targets, and therefore the vertical attention width. The best-validation
    parameters are restored into ``params`` before test evaluation. Non-finite
    loss aborts with diagnostics.
    """
    train_ds, val_ds, test_ds = datasets
    for tag, ds in (("train", train_ds), ("val", val_ds), ("test", test_ds)):
        n_windows(ds.timesteps, config.T, config.F)  # raises "split too short"

    t0 = time.monotonic()
    rng = np.random.default_rng(hyper.seed)
    frozen = hyper.lr == 0.0
    optim = OptimState(lr=hyper.lr)
    named = params.named_parameters()
    n_active = max(1, round(hyper.variate_ratio * train_ds.channels))
    report = TrainReport(
        variate_ratio=hyper.variate_ratio,
        vertical_entries_per_batch=count_attention_cost(
            config.M, n_active, config.D, config.mode, config.L
        ).vertical_entries,
    )
    log_fh = open(hyper.log_path, "w") if hyper.log_path else None
    best = _snapshot(params)
    best_val = float("inf")
    stale = 0
    try:
        for epoch in range(hyper.max_epochs):
            losses = []
            for step, batch in enumerate(
                make_windows(
                    train_ds,
                    config.T,
                    config.F,
                    batch_size=hyper.batch_size,
                    shuffle=True,
                    rng=rng,
                )
            ):
                inputs, targets = batch.inputs, batch.targets
                if hyper.variate_ratio < 1.0:
                    sub = sample_variates(train_ds.channels, hyper.variate_ratio, rng)
                    inputs, targets = inputs[:, :, sub], targets[:, :, sub]
                try:
                    pred, _ = forward(
                        inputs, params, config, training=not frozen, rng=rng
                    )
                    loss = mse(pred, targets)
                except NumericError as exc:
                    raise DivergenceError(
                        f"training diverged: {exc} at epoch {epoch} step {step} "
                        f"(lr={hyper.lr}, batch={hyper.batch_size})"
                    ) from exc
                value = loss.item()
                if not np.isfinite(value):
                    raise DivergenceError(
                        f"training diverged: loss={value} at epoch {epoch} "
                        f"step {step} (lr={hyper.lr}, batch={hyper.batch_size})"
                    )
                losses.append(value)
                report.steps += 1
                if frozen:
                    continue
                for _, t in named:
                    t.zero_grad()
                loss.backward()
                clip_gradients(named, hyper.clip_norm)
                adam_step(named, {name: t.grad for name, t in named}, optim)
            report.train_loss.append(float(np.mean(losses)))
            v_mse, v_mae = evaluate(params, config, val_ds, batch_size=hyper.batch_size)
            report.val_mse.append(v_mse)
            report.val_mae.append(v_mae)
            report.epochs_run = epoch + 1
            if log_fh:
                log_fh.write(
                    json.dumps(
                        {
                            "epoch": epoch,
                            "train_loss": report.train_loss[-1],
                            "val_mse": v_mse,
                            "val_mae": v_mae,
                            "wall_s": round(time.monotonic() - t0, 3),
                        }
                    )
                    + "\n"
                )
                log_fh.flush()
            if v_mse < best_val:
                best_val = v_mse
                best = _snapshot(params)
                report.best_epoch = epoch
                stale = 0
            else:
                stale += 1
                if stale >= hyper.patience:
                    break
    finally:
        if log_fh:
            log_fh.close()
    _restore(params, best)
    report.test_mse, report.test_mae = evaluate(
        params, config, test_ds, batch_size=hyper.batch_size
    )
    report.wall_time_s = time.monotonic() - t0
    report.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return report
