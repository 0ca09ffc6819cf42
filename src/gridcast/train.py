"""MSE training with Adam, evaluation, persistence baseline, variate sampling.

Metrics are computed in whatever space the datasets arrive in; the standard
protocol standardizes splits with train-split statistics first, so reported
MSE/MAE are in standardized space. Per-window shift and scale are handled by
the model's instance normalization, not here.
"""

from __future__ import annotations

import contextlib
import json
import resource
import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from gridcast.attention import count_attention_cost
from gridcast.data import TimeSeriesDataset, check_windows, make_windows
from gridcast.errors import (
    ConfigError,
    DivergenceError,
    GridcastError,
    NumericError,
    ShapeError,
)
from gridcast.model import ModelConfig, ModelParams, forward, load_state_arrays, state_arrays
from gridcast.tensor import Tensor, no_grad


def mse(pred, target) -> Tensor:
    """Mean over every element of the squared error; a scalar Tensor made by
    one graph node, with the vjp 2 (pred - target) / n."""
    pred, target = Tensor._coerce(pred), Tensor._coerce(target)
    if pred.shape != target.shape:
        raise ShapeError(f"mse shape mismatch: {pred.shape} vs {target.shape}")
    diff = pred.data - target.data
    scale = 1.0 / diff.size
    need_target = target.requires_grad

    def vjp(g):
        # C order whatever diff's layout (forward's pred is a transposed
        # view): the layout of this gradient sets the order in which every
        # einsum sum downstream adds
        gd = np.multiply(g * scale * 2.0, diff, order="C")
        return gd, -gd if need_target else None

    return Tensor._make(np.square(diff).sum() * scale, (pred, target), vjp)


ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


@dataclass
class OptimState:
    """Adam's learning rate, step count and moments, one buffer pair per
    parameter name."""

    lr: float = 1e-4
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(named_params: list, state: OptimState) -> None:
    """One bias-corrected Adam update, in place, deterministic.

    ``named_params`` is a list of (name, Tensor); each Tensor's ``.grad`` is
    its gradient. A missing gradient is an error naming the parameter.
    """
    state.step += 1
    b1, b2 = ADAM_BETAS
    correct1 = 1.0 - b1**state.step
    correct2 = 1.0 - b2**state.step
    for name, tensor in named_params:
        g = tensor.grad
        if g is None:
            raise GridcastError(f"no gradient for parameter {name!r}")
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
        tensor.data = tensor.data - state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


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
    k = max(1, round(ratio * N))
    if k >= N:
        return np.arange(N)
    return np.sort(rng.choice(N, size=k, replace=False))


def _errors(ds: TimeSeriesDataset, T: int, F: int, batch_size: int, predict) -> tuple:
    """MSE/MAE of ``predict(inputs)`` [B x F x N] against the targets, over
    every window of ``ds``."""
    se = ae = 0.0
    count = 0
    for batch in make_windows(ds, T, F, batch_size=batch_size):
        # a named pred stops numpy from reusing the temporary forecast's
        # buffer for diff; diff would then keep the forecast's transposed
        # layout, and the sums below would add in another order
        pred = predict(batch.inputs)
        diff = pred - batch.targets
        se += float((diff**2).sum())
        ae += float(np.abs(diff).sum())
        count += diff.size
    return se / count, ae / count


def persistence_baseline(ds: TimeSeriesDataset, T: int, F: int) -> tuple:
    """MSE/MAE of repeating each window's last observed value F steps ahead."""
    return _errors(ds, T, F, 256, lambda inputs: np.repeat(inputs[:, -1:, :], F, axis=1))


def evaluate(
    params: ModelParams,
    config: ModelConfig,
    ds: TimeSeriesDataset,
    batch_size: int = 64,
) -> tuple:
    """Inference-mode MSE/MAE over every window of a split, all variates."""

    def predict(inputs):
        return forward(inputs, params, config, training=False)[0].data

    with no_grad():
        return _errors(ds, config.T, config.F, batch_size, predict)


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

    def __post_init__(self):
        if not self.lr >= 0:  # a negative rate climbs the loss
            raise ConfigError(f"train.lr must be >= 0, got {self.lr}")
        if self.batch_size < 1:
            raise ConfigError(f"train.batch_size must be >= 1, got {self.batch_size}")
        if self.max_epochs < 1:  # zero would report an untrained model
            raise ConfigError(f"train.max_epochs must be >= 1, got {self.max_epochs}")
        # the loop stops once stale >= patience, so any value below 1 acts as 1
        if self.patience < 1:
            raise ConfigError(f"train.patience must be >= 1, got {self.patience}")
        # clip_gradients scales by clip_norm / norm: a negative value would
        # flip every gradient and zero would erase it
        if not self.clip_norm > 0:
            raise ConfigError(f"train.clip_norm must be positive, got {self.clip_norm}")
        if not 0.0 < self.variate_ratio <= 1.0:
            raise ConfigError(f"train.variate_ratio must be in (0, 1], got {self.variate_ratio}")
        if self.seed < 0:  # numpy's generators take no negative seed
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


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
    vertical_entries_per_batch: int = 0  # in a full batch of train.batch_size windows
    steps: int = 0


def _grad_norm_stats(norms: list, clip_norm: float) -> dict:
    """Median and largest pre-clip gradient norm of an epoch's steps, and the
    share of steps ``clip_gradients`` scaled down; None without a gradient."""
    if not norms:
        return {"grad_norm_p50": None, "grad_norm_max": None, "clipped_frac": None}
    values = np.asarray(norms)
    clipped = (values > clip_norm) & (values > 0)  # clip_gradients' condition
    return {
        "grad_norm_p50": float(np.median(values)),
        "grad_norm_max": float(values.max()),
        "clipped_frac": float(clipped.mean()),
    }


def _snapshot(params: ModelParams) -> dict:
    return {name: array.copy() for name, array in state_arrays(params).items()}


def train(
    params: ModelParams,
    config: ModelConfig,
    datasets: tuple,
    hyper: TrainHyper,
    log_path: Optional[str] = None,
) -> TrainReport:
    """Adam training with early stopping on validation MSE.

    ``datasets`` is (train, val, test). Batches are seeded shuffles; an
    optional variate subset is redrawn per batch and applied to inputs,
    targets, and therefore the vertical attention width. The best-validation
    parameters are restored into ``params`` before test evaluation. Non-finite
    loss aborts with diagnostics. Given a ``log_path``, each epoch's record is
    streamed to it as one JSON line.
    """
    check_windows(datasets, config.T, config.F)
    train_ds, val_ds, test_ds = datasets

    t0 = time.monotonic()
    rng = np.random.default_rng(hyper.seed)
    frozen = hyper.lr == 0.0
    optim = OptimState(lr=hyper.lr)
    named = params.named_parameters()
    n_active = max(1, round(hyper.variate_ratio * train_ds.channels))
    cost = count_attention_cost(config.M, n_active, config.D, config.mode, config.L)
    report = TrainReport(
        variate_ratio=hyper.variate_ratio,
        vertical_entries_per_batch=hyper.batch_size * cost.vertical_entries,
    )
    log_fh = open(log_path, "w") if log_path else None
    usage = resource.getrusage(resource.RUSAGE_SELF)
    best = _snapshot(params)
    best_val = float("inf")
    stale = 0

    def run_step(inputs, targets, epoch, step) -> tuple:
        """Forward, backward and update on one batch: (loss, pre-clip gradient
        norm, None when frozen). The batch's graph lives only in this frame,
        so it is freed before the next forward and before evaluation; a
        frozen step builds none."""
        try:
            with no_grad() if frozen else contextlib.nullcontext():
                pred, _ = forward(inputs, params, config, training=not frozen, rng=rng)
                loss = mse(pred, targets)
            value = loss.item()
            if not np.isfinite(value):
                raise NumericError(f"loss={value}")
        except NumericError as exc:
            raise DivergenceError(
                f"training diverged: {exc} at epoch {epoch} step {step} "
                f"(lr={hyper.lr}, batch={hyper.batch_size})"
            ) from exc
        if frozen:
            return value, None
        for _, t in named:
            t.zero_grad()
        loss.backward()
        norm = clip_gradients(named, hyper.clip_norm)
        adam_step(named, optim)
        return value, norm

    try:
        for epoch in range(hyper.max_epochs):
            losses, norms, step_s = [], [], []
            windows = 0
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
                started = time.process_time()
                value, norm = run_step(inputs, targets, epoch, step)
                step_s.append(time.process_time() - started)
                windows += len(inputs)
                losses.append(value)
                report.steps += 1
                if norm is not None:
                    norms.append(norm)
            report.train_loss.append(float(np.mean(losses)))
            v_mse, v_mae = evaluate(params, config, val_ds, batch_size=hyper.batch_size)
            report.val_mse.append(v_mse)
            report.val_mae.append(v_mae)
            report.epochs_run = epoch + 1
            if log_fh:
                now = resource.getrusage(resource.RUSAGE_SELF)
                log_fh.write(
                    json.dumps(
                        {
                            "epoch": epoch,
                            "train_loss": report.train_loss[-1],
                            "val_mse": v_mse,
                            "val_mae": v_mae,
                            "wall_s": round(time.monotonic() - t0, 3),
                            "cpu_s": round(
                                now.ru_utime + now.ru_stime - usage.ru_utime - usage.ru_stime, 3
                            ),
                            "sys_s": round(now.ru_stime - usage.ru_stime, 3),
                            "minor_faults": now.ru_minflt - usage.ru_minflt,
                            "peak_rss_mb": round(now.ru_maxrss / 1024.0, 1),
                            "step_ms_p50": round(float(np.median(step_s)) * 1000.0, 3),
                            "windows_per_s": (
                                round(windows / sum(step_s), 1) if sum(step_s) > 0 else None
                            ),
                            **_grad_norm_stats(norms, hyper.clip_norm),
                        }
                    )
                    + "\n"
                )
                usage = now
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
    load_state_arrays(params, best)
    report.test_mse, report.test_mae = evaluate(
        params, config, test_ds, batch_size=hyper.batch_size
    )
    report.wall_time_s = time.monotonic() - t0
    report.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return report
