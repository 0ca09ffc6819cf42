"""Run one benchmark workload, or all of them, and print every metric.

    python3 benchmarks/run.py --workload train_ref --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics untraced,
the per-layer metrics traced). ``--workload all`` runs every workload in its
own process, untraced and then traced, and also prints the tracing overhead
and how much of the untraced step the traced spans account for. The exit
code is 0 only if every output check passed; 2 means the package source is
missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import subprocess
import sys

# Pin BLAS before numpy loads: one thread is the steadiest setting on a
# small shared machine, and every workload uses the same one.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("train_ref", "train_wide", "forecast_online")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append a JSON line per run (environment included)")
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    return parser.parse_args(argv)


def _finite(value):
    """The value, or None for a metric that was not measured or is not finite."""
    if value is None or isinstance(value, int):
        return value
    return value if math.isfinite(value) else None


def _fmt(value) -> str:
    return "not measured" if value is None else f"{value:.6g}"


def result_line(correct, attempted, failed, metrics, units) -> dict:
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": _finite(metrics[name]), "unit": unit} for name, unit in units.items()
        },
    }


def run_one(args) -> int:
    import workloads
    from tracing import self_time_lines

    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        rec, out, e2e, layers = workloads.run(
            args.workload, args.seed, args.seconds, bool(args.trace), args.tiny, work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left alone while another run uses it
            os.rmdir(os.path.dirname(work))
    env = workloads.environment(args.seed)
    correct = not out.problems and not out.failed
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("env " + json.dumps(env))
    for problem in out.problems:
        print("CHECK FAILED: " + problem)
    for name, unit in {**workloads.END_TO_END, **workloads.PRINTED}.items():
        print(f"  {name:<30} {e2e[name]:>14.6g} {unit}")
    print(f"  {'failed_frac':<30} {out.failed / max(out.attempted, 1):>14.6g}"
          f"  ({out.failed} of {out.attempted} ops)")
    print("  " + workloads.sample_counts(rec, out))
    if layers is not None:
        for name, unit in workloads.PER_LAYER.items():
            print(f"  {name:<30} {_fmt(layers[name]):>14} {unit}")
        print(f"per {out.kind} op in the timed phase, by self time:")
        print("\n".join(self_time_lines(rec, out.kind)))
    if args.trace:
        units, metrics = workloads.PER_LAYER, layers
    else:
        units, metrics = workloads.END_TO_END, e2e
    line = result_line(correct, max(out.attempted, 1), out.failed, metrics, units)
    if args.record:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "env": env, "result": line}
        with open(args.record, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(line))
    return 0 if correct else 1


def last_result(stdout: str):
    """The result object on the last line of ``stdout``, or None if a run
    crashed before printing one."""
    lines = stdout.strip().splitlines()
    with contextlib.suppress(ValueError):
        line = json.loads(lines[-1]) if lines else None
        if isinstance(line, dict) and "metrics" in line:
            return line
    return None


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced."""
    results, codes = {}, []
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.record:
                cmd += ["--record", args.record]
            if args.tiny:
                cmd.append("--tiny")
            proc = subprocess.run(cmd, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            codes.append(proc.returncode)
            results[name, trace] = last_result(proc.stdout)

    print("\nsummary (end-to-end untraced; tracing overhead = traced op p50 / untraced p50 - 1)")
    merged = {}
    for name in WORKLOAD_NAMES:
        plain, traced = results[name, 0], results[name, 1]
        if plain is None or traced is None:
            print(f"  {name}: run failed")
            continue
        for metric, entry in plain["metrics"].items():
            merged[f"{name}.{metric}"] = entry
            print(f"  {name:<16} {metric:<20} {entry['value']!s:>22} {entry['unit']}")
        step = plain["metrics"]["step_ms_p50"]["value"]
        op = traced["metrics"]["trace.op_ms_p50"]["value"]
        frac = traced["metrics"]["trace.span_frac"]["value"]
        if step and op and frac:
            covered = op * frac
            print(f"  {name:<16} {'trace overhead':<20} {op / step - 1:>22.3%}")
            print(f"  {name:<16} {'spans / untraced op':<20} {covered / step:>22.3%}")
    ok = all(code == 0 for code in codes)
    attempted = sum(r["attempted"] for r in results.values() if r)
    failed = sum(r["failed"] for r in results.values() if r)
    print(json.dumps({"correct": ok, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": merged}))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gridcast", "__init__.py")):
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    for path in (SRC, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)
    import gridcast

    if os.path.dirname(os.path.abspath(gridcast.__file__)) != os.path.join(SRC, "gridcast"):
        print(f"error: gridcast imported from {gridcast.__file__}, not {SRC}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
