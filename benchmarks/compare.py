"""Summarise one result set, or compare a change against its parent.

    python3 benchmarks/compare.py PARENT.jsonl [CHANGE.jsonl]

A result set is the JSON lines that ``run.py --record`` appends, one per run;
traced runs are ignored. For each workload and end-to-end metric in
``BENCHMARK.json`` this prints the median and quartiles of each set and the
spread (interquartile range over median), and marks a workload FAILED if
one of its runs failed its output checks. Given two sets it also gives a
verdict, pairing runs by seed:

- FAILED: a run of the change failed its output checks, or the change fails
  a larger share of its operations than the parent; no gain counts then;
- improved: the change wins at least 9 of 10 pairs and its median beats the
  parent's by more than the parent's interquartile range;
- unresolved: either set spreads wider than the metric's bound, unless every
  change run beats every parent run;
- regressed: the change's median is worse than the parent's by more than the
  bound;
- unchanged: otherwise.

The exit code is 1 if a workload FAILED or a metric regressed.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path) -> dict:
    """{workload: {seed: result}} from the untraced runs in ``path``; a result
    has ``correct``, ``attempted``, ``failed`` and ``metrics`` {name: value}."""
    runs = {}
    with open(path) as fh:
        for line in fh:
            record = json.loads(line)
            if record["trace"]:
                continue
            result = dict(record["result"])
            result["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
            runs.setdefault(record["workload"], {})[record["seed"]] = result
    return runs


def failed_frac(results) -> float:
    return sum(r["failed"] for r in results) / max(sum(r["attempted"] for r in results), 1)


def failure(parent, change=None):
    """Why a workload's runs do not count, or None: a run of ``change`` (of
    ``parent`` when given one set) failed its checks, or ``change`` fails a
    larger share of its operations than ``parent``."""
    runs = parent if change is None else change
    bad = sorted(seed for seed, r in runs.items() if not r["correct"])
    if bad:
        return f"{len(bad)} of {len(runs)} runs failed their checks (seeds {bad})"
    if change is not None and failed_frac(change.values()) > failed_frac(parent.values()):
        return (f"fails {failed_frac(change.values()):.3g} of its ops, "
                f"parent {failed_frac(parent.values()):.3g}")
    return None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def spread(values) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def verdict(parent, change, pairs, better, bound) -> str:
    sign = 1.0 if better == "lower" else -1.0  # sign * (a - b) < 0: a is better
    q1, mp, q3 = quartiles(parent)
    mc = statistics.median(change)
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    if pairs and wins >= 0.9 * len(pairs) and sign * (mp - mc) > q3 - q1:
        return "improved"
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if max(spread(parent), spread(change)) > bound and not all_better:
        return "unresolved"
    if sign * (mc - mp) / abs(mp) > bound:
        return "regressed"
    return "unchanged"


def fmt(values) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:>12.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    sets = [load(path) for path in argv]
    worse = False
    for workload in sorted(set().union(*sets)):
        failed = failure(*(runs.get(workload, {}) for runs in sets))
        worse |= failed is not None
        print(workload + (f"  FAILED: {failed}" if failed else ""))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            columns = []
            for runs in sets:
                seeds = sorted(runs.get(workload, {}))
                values = {s: runs[workload][s]["metrics"][name] for s in seeds}
                columns.append({s: v for s, v in values.items() if v is not None})
            if not all(columns):
                print(f"  {name:<20} missing")
                continue
            parent = list(columns[0].values())
            row = f"  {name:<20} {fmt(parent)} spread {spread(parent):.3f}"
            if len(columns) == 1:
                status = "steady" if spread(parent) <= bound / 3 else (
                    "within bound" if spread(parent) <= bound else "TOO NOISY")
                print(f"{row} bound {bound} {status}")
                continue
            change = list(columns[1].values())
            pairs = [(columns[0][s], columns[1][s]) for s in columns[0] if s in columns[1]]
            result = "FAILED" if failed else verdict(parent, change, pairs, m["better"], bound)
            worse |= result == "regressed"
            print(f"{row} -> {fmt(change)} spread {spread(change):.3f} {result}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
