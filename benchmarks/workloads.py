"""The benchmark's workloads: data, set-up, the timed closed loop, checks.

Each workload drives the package's public API in process, one call at a
time. The seed only shapes the generated data; the program's own seed is
fixed, so ``test_mse`` repeats bit for bit per seed and varies little across
seeds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
import traceback
from time import perf_counter, process_time

import numpy as np

import gridcast.cli as cli
import gridcast.data as data
import gridcast.model as model
from gridcast.attention import count_attention_cost
from gridcast.embed import patch_count
from gridcast.tensor import no_grad
from tracing import Recorder, layer_metrics

# ``import gridcast.train`` would bind the train() function the package
# re-exports. Layers are called through their modules so the tracer's patches
# apply.
train_mod = importlib.import_module("gridcast.train")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# ROADMAP reference model; the CLI gets every value explicitly so a changed
# default cannot silently change the workload.
MODEL = {"T": 96, "F": 24, "P": 16, "S": 8, "D": 16, "H": 4, "L": 2, "D_ff": 32,
         "dropout": 0.2, "mode": "alternate"}
PROGRAM_SEED = 0
LR = 3e-3
SETUP_REPEATS = 9
CHECK_BATCH = 32
PERSISTENCE_MARGIN = 0.7  # test MSE must be at least 30% below persistence
BATCHED_RTOL = 1e-12

# Bounded in BENCHMARK.json: medians of CPU time, which the CPU steal and
# bursts of other tenants on a shared virtual machine move least. With one
# BLAS thread and no real I/O, CPU time is the wall time of a quiet machine.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "step_ms_p50": "ms",
    "peak_rss_mb": "MB",
    "test_mse": "mse",
}
# Printed with every untraced run but not bounded: wall times, tails, and the
# few evaluation batches of a run spread wider across runs on a shared machine
# than any usable bound.
PRINTED = {
    "wall_setup_s": "s",
    "wall_run_s": "s",
    "wall_step_ms_p50": "ms",
    "wall_step_ms_p90": "ms",
    "step_ms_p90": "ms",
    "step_ms_p99": "ms",
    "windows_per_s": "1/s",
    "eval_windows_per_s": "1/s",
}
PER_LAYER = {
    "tensor.backward.ms": "ms",
    "tensor.backward.self_ms": "ms",
    **{f"tensor.{op}.{side}": "ms" for op in ("matmul", "softmax", "gelu", "batch_norm")
       for side in ("fwd_ms", "bwd_ms")},
    "tensor.matmul.calls": "count",
    "tensor.graph_nodes": "count",
    "tensor.vjp_useful_frac": "frac",
    "embed.revin_normalize.ms": "ms",
    "embed.pad_tail.ms": "ms",
    "embed.embed_grid.ms": "ms",
    "embed.revin_denormalize.ms": "ms",
    **{f"attention.{d}.{side}": "ms" for d in ("horizontal", "vertical")
       for side in ("fwd_ms", "bwd_ms")},
    "attention.score_entries": "count",
    "attention.permutes": "count",
    "model.forward.self_ms": "ms",
    "model.save_checkpoint.ms": "ms",
    "model.load_checkpoint.ms": "ms",
    "train.adam_step.ms": "ms",
    "train.clip_gradients.ms": "ms",
    "train.evaluate.ms": "ms",
    "data.load_csv.ms": "ms",
    "data.standardize.ms": "ms",
    "data.make_windows.batch_ms": "ms",
    "cli.main.ms": "ms",
    "trace.op_ms_p50": "ms",
    "trace.span_frac": "frac",
}


@dataclasses.dataclass(frozen=True)
class Spec:
    """Sizes of one workload. ``rows`` are the train/val/test split lengths;
    training windows per epoch are ``rows[0] - T - F + 1``."""

    variates: int
    batch: int
    rows: tuple
    epochs: int
    windows: int = 0  # held-out forecast windows; 0 for a training workload

    @property
    def split(self) -> str:
        return ":".join(str(r) for r in self.rows)


# train_ref: 15 full batches per epoch, 2 epochs, 3 val/test batches.
# train_wide: 6 full batches of 16, 1 val and 1 test batch.
# forecast_online: the checkpoint is trained for one epoch on train_ref-shaped
# data, then 400 held-out windows are forecast one at a time.
WORKLOADS = {
    "train_ref": Spec(variates=21, batch=32, rows=(599, 200, 200), epochs=2),
    "train_wide": Spec(variates=128, batch=16, rows=(215, 135, 135), epochs=1),
    "forecast_online": Spec(variates=21, batch=32, rows=(599, 200, 200), epochs=1, windows=400),
}
TINY = {
    "train_ref": Spec(variates=3, batch=32, rows=(247, 121, 121), epochs=4),
    "train_wide": Spec(variates=8, batch=16, rows=(183, 120, 120), epochs=4),
    "forecast_online": Spec(variates=3, batch=32, rows=(247, 121, 121), epochs=4, windows=4),
}

TRAIN_PROBE = (
    "import sys, gridcast as g; "
    "parts = g.chronological_split(g.load_csv(sys.argv[1]), g.SplitSpec.parse(sys.argv[2])); "
    "g.standardize(*parts)"
)
FORECAST_PROBE = (
    "import sys, gridcast as g; g.load_checkpoint(sys.argv[1]); g.load_csv(sys.argv[2])"
)


# -- inputs --------------------------------------------------------------------


def sines(rows: int, variates: int, seed: int) -> np.ndarray:
    """Phase-shifted sinusoids of period 48 plus seeded Gaussian noise (0.05)."""
    rng = np.random.default_rng(seed)
    t = np.arange(rows, dtype=np.float64)[:, None]
    phase = 2.0 * np.pi * np.arange(variates) / variates
    return np.sin(2.0 * np.pi * t / 48.0 + phase) + 0.05 * rng.standard_normal((rows, variates))


def write_csv(path: str, values: np.ndarray) -> None:
    header = ",".join(f"v{i}" for i in range(values.shape[1]))
    np.savetxt(path, values, fmt="%.17g", delimiter=",", header=header, comments="")


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def train_args(spec: Spec, csv_path: str, out_dir: str) -> list:
    sets = {f"model.{k}": v for k, v in MODEL.items()}
    sets.update({
        "data.split": spec.split,
        "train.lr": LR,
        "train.batch_size": spec.batch,
        "train.max_epochs": spec.epochs,
        "train.patience": spec.epochs,
        "train.variate_ratio": 1.0,
    })
    args = ["train", "--data", csv_path, "--out", out_dir, "--seed", str(PROGRAM_SEED)]
    for key, value in sets.items():
        args += ["--set", f"{key}={value}"]
    return args


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def time_setup(out, probe: str, *argv: str) -> None:
    """CPU and wall seconds of fresh processes that import the package and
    load the inputs, as the program does before its first timed operation."""
    for _ in range(SETUP_REPEATS):
        cpu, start = _children_cpu(), perf_counter()
        subprocess.run([sys.executable, "-c", probe, *argv], env=program_env(), check=True)
        out.wall_setup_s.append(perf_counter() - start)
        out.setup_s.append(_children_cpu() - cpu)


def train_job(args: list, out_dir: str):
    """One in-process ``gridcast train``; its test MSE, or None if it failed
    or raised."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(args)
    except Exception:
        traceback.print_exc()
        return None
    if code != 0:
        return None
    with open(os.path.join(out_dir, f"report_F{MODEL['F']}.json")) as fh:
        return json.load(fh)["test_mse"]


def persistence_mse(ds) -> float:
    return train_mod.persistence_baseline(ds, MODEL["T"], MODEL["F"])[0]


# -- workloads -------------------------------------------------------------------


class Outcome:
    """What one run measured and whether its outputs passed their checks."""

    def __init__(self, kind: str):
        self.kind = kind  # op kind the run times: "train" or "forecast"
        self.setup_s, self.wall_setup_s = [], []  # CPU and wall seconds per set-up
        self.run_s, self.wall_run_s = [], []  # CPU and wall seconds per timed operation
        self.test_mse = float("nan")
        self.attempted = 0
        self.failed = 0
        self.problems = []  # one line per failed check


def run_training(spec: Spec, seed: int, seconds: float, rec: Recorder, work: str) -> Outcome:
    out = Outcome("train")
    csv_path = os.path.join(work, "series.csv")
    out_dir = os.path.join(work, "run")
    write_csv(csv_path, sines(sum(spec.rows), spec.variates, seed))
    time_setup(out, TRAIN_PROBE, csv_path, spec.split)
    args = train_args(spec, csv_path, out_dir)

    rec.set_phase("timed")
    jobs = []  # (test MSE or None, first op, end op)
    start = perf_counter()
    while True:
        first, job_start, job_cpu = len(rec.ops), perf_counter(), process_time()
        mse = train_job(args, out_dir)
        out.run_s.append(process_time() - job_cpu)
        out.wall_run_s.append(perf_counter() - job_start)
        jobs.append((mse, first, len(rec.ops)))
        if perf_counter() - start + out.wall_run_s[-1] > seconds:
            break

    rec.set_phase("check")
    reference = jobs[0][0]
    for mse, first, end in jobs:
        steps = sum(1 for op in rec.ops[first:end] if op[1] == "train" and op[3] is not None)
        out.attempted += max(steps, 1)
        if mse is None or not np.isfinite(mse) or mse != reference:
            out.failed += max(steps, 1)
            out.problems.append(f"training job gave test MSE {mse}, first job {reference}")
    if out.failed:
        return out
    out.test_mse = reference
    splits = data.chronological_split(data.load_csv(csv_path), data.SplitSpec.parse(spec.split))
    test = data.standardize(*splits)[2]
    baseline = persistence_mse(test)
    if not reference <= PERSISTENCE_MARGIN * baseline:
        out.problems.append(f"test MSE {reference} is not {1 - PERSISTENCE_MARGIN:.0%} "
                            f"below persistence {baseline}")
    ckpt = os.path.join(out_dir, f"model_F{MODEL['F']}.ckpt")
    params, config = model.load_checkpoint(ckpt)
    restored = train_mod.evaluate(params, config, test, batch_size=spec.batch)[0]
    if restored != reference:
        out.problems.append(f"checkpoint reloads to test MSE {restored}, report says {reference}")
    return out


def run_forecast(spec: Spec, seed: int, seconds: float, rec: Recorder, work: str) -> Outcome:
    out = Outcome("forecast")
    T, F = MODEL["T"], MODEL["F"]
    held_rows = T + F + spec.windows - 1
    values = sines(sum(spec.rows) + held_rows, spec.variates, seed)
    csv_path, held_path = os.path.join(work, "series.csv"), os.path.join(work, "held.csv")
    write_csv(csv_path, values[: sum(spec.rows)])
    write_csv(held_path, values[sum(spec.rows):])
    prep_dir = os.path.join(work, "prep")
    args = train_args(spec, csv_path, prep_dir)
    if rec.tracing:
        # Traced runs train the checkpoint in process, so the layers a
        # forecast never runs (backward, Adam, ...) are measured too.
        if train_job(args, prep_dir) is None:
            raise RuntimeError("training the forecast checkpoint failed")
    else:
        # In a child, so peak RSS is the forecaster's alone.
        subprocess.run([sys.executable, "-m", "gridcast.cli", *args], env=program_env(),
                       check=True, stdout=subprocess.DEVNULL)
    ckpt = os.path.join(prep_dir, f"model_F{F}.ckpt")
    time_setup(out, FORECAST_PROBE, ckpt, held_path)

    params, config = model.load_checkpoint(ckpt)
    held = data.load_csv(held_path)
    starts = np.arange(spec.windows)
    inputs = held.values[starts[:, None] + np.arange(T)]
    targets = held.values[starts[:, None] + T + np.arange(F)]

    rec.set_phase("timed")
    first, crash = None, None
    bad = np.zeros(spec.windows, dtype=bool)
    preds = np.empty_like(targets)
    start = perf_counter()
    while True:
        sweep_start, sweep_cpu = perf_counter(), process_time()
        for i in range(spec.windows):
            rec.begin("forecast")
            try:
                with no_grad():
                    pred = model.forward(inputs[i][None], params, config)[0].data[0]
            except Exception as exc:  # a forecast that raises counts as a failed one
                pred, crash = np.nan, crash or repr(exc)
            rec.end()
            preds[i] = pred
        out.run_s.append(process_time() - sweep_cpu)
        out.wall_run_s.append(perf_counter() - sweep_start)
        out.attempted += spec.windows
        if first is None:
            first = preds.copy()
        bad |= ~np.isfinite(preds).all(axis=(1, 2)) | (preds != first).any(axis=(1, 2))
        if perf_counter() - start + out.wall_run_s[-1] > seconds:
            break
    batched = np.empty_like(targets)
    for lo in range(0, spec.windows, CHECK_BATCH):
        rec.begin("eval", len(inputs[lo:lo + CHECK_BATCH]))
        try:
            with no_grad():
                pred = model.forward(inputs[lo:lo + CHECK_BATCH], params, config)[0].data
        except Exception as exc:
            pred, crash = np.nan, crash or repr(exc)
        rec.end()
        batched[lo:lo + CHECK_BATCH] = pred

    rec.set_phase("check")
    tol = BATCHED_RTOL * (1.0 + np.abs(batched).max(initial=0.0, where=np.isfinite(batched)))
    bad |= ~(np.abs(first - batched) <= tol).all(axis=(1, 2))
    sweeps = len(out.run_s)
    out.failed = int(bad.sum()) * sweeps
    if crash:
        out.problems.append(f"forward raised {crash}")
    if out.failed:
        out.problems.append(f"{int(bad.sum())} of {spec.windows} forecasts are non-finite, "
                 "change between sweeps, or differ from the batched forward")
        return out
    out.test_mse = float(np.mean((first - targets) ** 2))
    baseline = persistence_mse(held)
    if not out.test_mse <= PERSISTENCE_MARGIN * baseline:
        out.problems.append(f"forecast MSE {out.test_mse} is not {1 - PERSISTENCE_MARGIN:.0%} "
                 f"below persistence {baseline}")
    return out


# -- metrics ---------------------------------------------------------------------


def op_times(rec: Recorder, kind: str):
    """CPU seconds, wall seconds and windows of each finished ``kind`` op of
    the timed phase."""
    ops = [rec.ops[i] for i in rec.closed_ops("timed", kind)]
    return (
        np.array([op[6] - op[5] for op in ops]),
        np.array([op[3] - op[2] for op in ops]),
        np.array([op[4] for op in ops], dtype=float),
    )


def _median(values) -> float:
    return float(np.median(values)) if len(values) else float("nan")


def _percentile_ms(values, q) -> float:
    return float(np.percentile(values, q)) * 1000.0 if len(values) else float("nan")


def end_to_end(rec: Recorder, out: Outcome) -> dict:
    """END_TO_END and PRINTED metrics; NaN where a failed run has no samples."""
    steps, wall_steps, windows = op_times(rec, out.kind)
    evals, _, eval_windows = op_times(rec, "eval")
    return {
        "setup_s": _median(out.setup_s),
        "run_s": _median(out.run_s),
        "step_ms_p50": _percentile_ms(steps, 50),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "test_mse": out.test_mse,
        "wall_setup_s": _median(out.wall_setup_s),
        "wall_run_s": _median(out.wall_run_s),
        "wall_step_ms_p50": _percentile_ms(wall_steps, 50),
        "wall_step_ms_p90": _percentile_ms(wall_steps, 90),
        "step_ms_p90": _percentile_ms(steps, 90),
        "step_ms_p99": _percentile_ms(steps, 99),
        "windows_per_s": windows.sum() / steps.sum() if len(steps) else float("nan"),
        "eval_windows_per_s": _median(eval_windows / evals),
    }


def per_layer(rec: Recorder, spec: Spec, out: Outcome) -> dict:
    metrics = layer_metrics(rec, out.kind)
    M = patch_count(MODEL["T"], MODEL["P"], MODEL["S"])
    cost = count_attention_cost(M, spec.variates, MODEL["D"], MODEL["mode"], MODEL["L"])
    batch = spec.batch if out.kind == "train" else 1
    metrics["attention.score_entries"] = cost.score_entries * batch
    return {name: metrics.get(name) for name in PER_LAYER}  # None: layer never ran


def sample_counts(rec: Recorder, out: Outcome) -> str:
    return (f"samples: {len(out.setup_s)} set-ups, {len(out.run_s)} timed runs, "
            f"{len(rec.closed_ops('timed', out.kind))} {out.kind} ops, "
            f"{len(rec.closed_ops('timed', 'eval'))} eval ops")


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        names = (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
        cpu = next(names, cpu)
    git = "unknown"  # an exported tree without .git
    if os.path.isdir(os.path.join(ROOT, ".git")):
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, check=True).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "git": git,
        "seed": seed,
    }


def run(name: str, seed: int, seconds: float, tracing: bool, tiny: bool, work: str):
    """Run one workload; returns (recorder, outcome, end-to-end, per-layer or None)."""
    spec = (TINY if tiny else WORKLOADS)[name]
    body = run_forecast if spec.windows else run_training
    with Recorder(tracing) as rec:
        out = body(spec, seed, seconds, rec, work)
    return rec, out, end_to_end(rec, out), per_layer(rec, spec, out) if tracing else None
