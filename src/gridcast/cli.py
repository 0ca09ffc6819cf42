"""Command-line entry point wiring data, model, and training together.

Subcommands: train, eval, forecast, export-attention. Every command is driven
by a flat config file plus ``--set key=value`` overrides, and writes its
resolved config beside its artifacts so runs can be replayed.
Exit codes: 0 success, 1 runtime failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import dataclasses
import json
import os
import sys
import time
import warnings
from typing import List, Optional

from gridcast.config import (
    RunConfig,
    apply_overrides,
    load_run_config,
    parse_columns,
    save_run_config,
    set_key,
)
from gridcast.data import (
    SplitSpec,
    borrow_prefix,
    check_windows,
    chronological_split,
    load_csv,
    save_stats,
    standardize,
)
from gridcast.errors import ConfigError, DataError, GridcastError
from gridcast.model import (
    build,
    export_attention,
    forward,
    load_checkpoint,
    save_checkpoint,
    write_atomic,
    write_csv,
)
from gridcast.tensor import no_grad
from gridcast.train import evaluate, persistence_baseline, train

# glibc mallopt(3) parameters, and the size below which freed memory stays mapped.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_KEEP_FREED_BYTES = 1 << 30

# Bad input, exit 2: a config or data error, or a path argument that names a
# missing file, a file where a directory belongs, or the reverse.
_USAGE_ERRORS = (
    ConfigError,
    DataError,
    FileNotFoundError,
    FileExistsError,
    IsADirectoryError,
    NotADirectoryError,
)

RESULTS_HEADER = ["dataset", "T", "F", "mode", "ratio", "seed", "mse", "mae", "wall_s"]


def _resolve_config(args) -> RunConfig:
    return apply_overrides(load_run_config(args.config) if args.config else RunConfig(), args.set)


def _prepare_splits(run: RunConfig):
    """The dataset, its standardized (train, val, test) splits and the
    train-split statistics; ``data.borrow_prefix`` is applied per model."""
    if not run.data_path:
        raise ConfigError("data.path is required (config key data.path or --data)")
    ds = load_csv(
        run.data_path,
        value_columns=run.columns("value"),
        drop_columns=run.columns("drop"),
        name=run.data_name or None,
    )
    spec = SplitSpec.parse(run.data_split)
    tr, va, te, stats = standardize(*chronological_split(ds, spec))
    return ds, (tr, va, te), stats


def _splits_for(run: RunConfig, splits, T: int) -> tuple:
    return borrow_prefix(*splits, T) if run.data_borrow_prefix else splits


def _sweep(run: RunConfig, sweep: Optional[str], splits) -> tuple:
    """The swept ``model.*`` field and one ModelConfig per value of ``sweep``
    (``model.<key>=v1,v2,...``; ``model.F`` at its configured value if None).
    Each value is typed as ``--set`` types it, and its model and the fit of
    its window into every split are checked."""
    key, _, values = (sweep or f"model.F={run.model['F']}").partition("=")
    section, _, name = key.strip().partition(".")
    if section != "model" or not values:
        raise ConfigError(f"--sweep expects model.<key>=v1,v2,..., got {sweep!r}")
    configs = []
    for value in values.split(","):
        one = dataclasses.replace(run, model=dict(run.model))
        set_key(one, key, value)
        cfg = one.to_model_config()
        check_windows(_splits_for(run, splits, cfg.T), cfg.T, cfg.F)
        configs.append(cfg)
    if len(set(configs)) < len(configs):  # a repeat would overwrite the first's artifacts
        raise ConfigError(f"--sweep repeats a value: {sweep!r}")
    return name, configs


def _output(rows: List[list], path, echo: bool = True) -> None:
    """Write the CSV table ``rows`` to ``path`` if one is given, and to stdout
    if ``echo`` is set or there is no path."""
    if path:
        write_csv(path, rows)
    if echo or not path:
        csv.writer(sys.stdout).writerows(rows)


def _result_row(dataset, cfg, ratio, seed, mse_value, mae_value, wall_s) -> list:
    return [
        dataset,
        cfg.T,
        cfg.F,
        cfg.mode,
        ratio,
        seed,
        repr(float(mse_value)),
        repr(float(mae_value)),
        round(wall_s, 3),
    ]


def _fit(run: RunConfig, cfg, hyper, ds, splits, tag: str) -> list:
    """Build and train the model ``cfg`` describes on ``ds``; write
    ``model_<tag>.ckpt``, ``report_<tag>.json`` and ``epochs_<tag>.jsonl``
    into out.dir and return the model's results row."""
    params = build(cfg)
    log_path = os.path.join(run.out_dir, f"epochs_{tag}.jsonl")
    report = train(params, cfg, _splits_for(run, splits, cfg.T), hyper, log_path=log_path)
    save_checkpoint(os.path.join(run.out_dir, f"model_{tag}.ckpt"), params, cfg)
    with write_atomic(os.path.join(run.out_dir, f"report_{tag}.json")) as fh:
        json.dump(dataclasses.asdict(report), fh, indent=2)
    print(
        f"trained {ds.name} {tag} T={cfg.T} F={cfg.F}: test mse {report.test_mse:.6f} "
        f"mae {report.test_mae:.6f} ({report.epochs_run} epochs)"
    )
    return _result_row(
        ds.name, cfg, hyper.variate_ratio, hyper.seed,
        report.test_mse, report.test_mae, report.wall_time_s,
    )


def cmd_train(args) -> int:
    """Train one model per value of the swept setting, tagged ``<key><value>``;
    results.csv gains the key's column if RESULTS_HEADER lacks it."""
    run = _resolve_config(args)
    ds, splits, stats = _prepare_splits(run)
    key, configs = _sweep(run, args.sweep, splits)
    hyper = run.to_hyper()
    os.makedirs(run.out_dir, exist_ok=True)
    save_stats(stats, os.path.join(run.out_dir, "train_stats.csv"))
    save_run_config(run, os.path.join(run.out_dir, "config.txt"))
    extra = [] if key in RESULTS_HEADER else [key]
    rows = [
        _fit(run, cfg, hyper, ds, splits, f"{key}{getattr(cfg, key)}")
        + [getattr(cfg, k) for k in extra]
        for cfg in configs
    ]
    _output([RESULTS_HEADER + extra, *rows], os.path.join(run.out_dir, "results.csv"))
    return 0


def cmd_eval(args) -> int:
    params, cfg = load_checkpoint(args.checkpoint)
    run = _resolve_config(args)
    ds, splits, _ = _prepare_splits(run)
    te = _splits_for(run, splits, cfg.T)[2]
    check_windows((te,), cfg.T, cfg.F, tags=("test",))
    t0 = time.monotonic()
    mse_value, mae_value = evaluate(params, cfg, te, batch_size=run.to_hyper().batch_size)
    rows = [_result_row(ds.name, cfg, 1.0, run.seed, mse_value, mae_value, time.monotonic() - t0)]
    if args.persistence:
        p_mse, p_mae = persistence_baseline(te, cfg.T, cfg.F)
        row = _result_row(ds.name, cfg, 1.0, run.seed, p_mse, p_mae, 0.0)
        row[3] = "persistence"
        rows.append(row)
    _output([RESULTS_HEADER, *rows], args.out_file)
    return 0


def _forecast_window(args, capture_attention: bool = False) -> tuple:
    """Load ``args.checkpoint``, read the ``args.window`` CSV, check that it
    holds T rows and return the ``no_grad`` forward's (prediction, maps)."""
    params, cfg = load_checkpoint(args.checkpoint)
    win = load_csv(args.window, drop_columns=parse_columns(args.drop_columns))
    if win.timesteps != cfg.T:
        raise ConfigError(
            f"window {args.window} has {win.timesteps} rows but the checkpoint "
            f"expects T={cfg.T}"
        )
    with no_grad():
        return forward(win.values[None], params, cfg, capture_attention)


def cmd_forecast(args) -> int:
    pred, _ = _forecast_window(args)
    rows = [[repr(float(v)) for v in row] for row in pred.data[0]]  # [F, N]
    _output(rows, args.out_file, echo=False)
    return 0


def cmd_export_attention(args) -> int:
    _, maps = _forecast_window(args, capture_attention=True)
    for path in export_attention(maps, args.out_dir):
        print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridcast",
        description="Grid-attention multivariate time-series forecasting",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config key (repeatable, applied in order)",
        )
        for flag, key in (("--data", "data.path"), ("--out", "out.dir"), ("--seed", "seed")):
            # an alias: appends "key=value" to the --set list, in command-line order
            p.add_argument(flag, dest="set", action="append", type=f"{key}={{}}".format,
                           metavar=key.upper(), help=f"same as --set {key}=...")

    p_train = sub.add_parser("train", help="train a model and write artifacts")
    common(p_train)
    p_train.add_argument(
        "--sweep",
        metavar="model.KEY=V1,V2,...",
        help="train once per value of one model setting, e.g. model.F=96,192,336,720",
    )
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    common(p_eval)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument(
        "--persistence",
        action="store_true",
        help="also report the repeat-last-value baseline",
    )
    p_eval.add_argument("--out-file", help="metrics CSV path (default: stdout only)")
    p_eval.set_defaults(func=cmd_eval)

    def window_command(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--checkpoint", required=True)
        p.add_argument("--window", required=True, help="CSV with exactly T rows, N columns")
        p.add_argument("--drop-columns", help="comma-separated columns to drop from the window")
        return p

    p_fc = window_command("forecast", "forecast F steps from one lookback window")
    p_fc.add_argument("--out-file", help="forecast CSV path (default: stdout)")
    p_fc.set_defaults(func=cmd_forecast)

    p_att = window_command("export-attention", "write attention-map CSVs for one window")
    p_att.add_argument("--out-dir", required=True)
    p_att.set_defaults(func=cmd_export_attention)

    return parser


def _keep_freed_memory() -> None:
    """Ask glibc to keep freed blocks below 1 GiB mapped for reuse.

    Sets the mmap threshold first: setting either value turns off glibc's
    dynamic threshold, and the trim threshold alone makes things worse, so it
    is set only once the first call succeeded. A silent no-op where the C
    library has no ``mallopt`` or rejects the value.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # no C library handle, or no mallopt
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _KEEP_FREED_BYTES) == 1:
        mallopt(_M_TRIM_THRESHOLD, _KEEP_FREED_BYTES)


def main(argv: Optional[List[str]] = None) -> int:
    """Run one subcommand and return its exit code: 0, after one ``warning:``
    line per warning it raised, or, after one ``error:`` line alone, 2 for bad
    input (``_USAGE_ERRORS`` or argparse's usage) and 1 for any other failure.

    On glibc the process keeps freed memory mapped (see ``_keep_freed_memory``
    and the README): with glibc's default thresholds each training step
    page-faults back in part of what the last one freed. The cost is that
    resident memory stays at its peak until the process exits. Library
    callers of ``train()`` can get the same behaviour by setting both
    ``MALLOC_MMAP_THRESHOLD_`` and ``MALLOC_TRIM_THRESHOLD_`` in the
    environment before the process starts.
    """
    _keep_freed_memory()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings(record=True) as caught:
            code = args.func(args)
    except (*_USAGE_ERRORS, GridcastError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2 if isinstance(exc, _USAGE_ERRORS) else 1
    for caught_warning in caught:
        print(f"warning: {caught_warning.message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
