#!/usr/bin/env python3
"""Compare two sets of benchmark results: ``compare.py A B``.

``A`` (the baseline) and ``B`` are directories holding the
``result-*-trace0.json`` files one or more runs wrote (searched
recursively, so a directory of run directories works).  Prints one row
per workload x end-to-end metric — both medians, the run-to-run spread,
the bound from ``BENCHMARK.json`` and a verdict:

``same``        B's median is within the bound of A's
``better``      B is better by more than the bound
``worse``       B is worse by more than the bound
``unresolved``  the spread exceeds the bound and the runs interleave, so
                neither "changed" nor "unchanged" can be said

Exits 1 on any ``worse`` or any increase in ``failed_share``, 2 when a
baseline run was taken on a noisy machine (it cannot serve as one).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent


def load_results(directory: Path) -> Dict[str, List[dict]]:
    """Timed (untraced) results under ``directory``, by workload."""
    by_workload: Dict[str, List[dict]] = {}
    for path in sorted(directory.rglob("result-*.json")):
        with open(path, encoding="utf-8") as handle:
            result = json.load(handle)
        if result.get("trace") == 0:
            by_workload.setdefault(result["workload"], []).append(result)
    return by_workload


def spread(values: List[float]) -> float:
    """Run-to-run spread as a share of the median: the interquartile
    distance with four or more runs, the full range with fewer."""
    if len(values) < 2:
        return 0.0
    middle = statistics.median(values)
    if not middle:
        return 0.0
    if len(values) >= 4:
        first, _second, third = statistics.quantiles(values, n=4)
        return (third - first) / abs(middle)
    return (max(values) - min(values)) / abs(middle)


def verdict(base: List[float], change: List[float], better: str,
            bound: float) -> str:
    """One of same / better / worse / unresolved (module docstring)."""
    # As costs, so that lower is better whatever the metric's direction.
    sign = 1.0 if better == "lower" else -1.0
    cost_a = [sign * value for value in base]
    cost_b = [sign * value for value in change]
    mid_a, mid_b = statistics.median(cost_a), statistics.median(cost_b)
    worsening = (mid_b - mid_a) / abs(mid_a) if mid_a else 0.0
    if max(spread(base), spread(change)) > bound:
        # Too noisy for the medians to decide: only every run of one
        # side beating every run of the other still counts.
        if max(cost_b) < min(cost_a):
            return "better"
        if min(cost_b) > max(cost_a) and worsening > bound:
            return "worse"
        return "unresolved"
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "same"


def compare(base_dir: Path, change_dir: Path, spec: dict) -> int:
    base, change = load_results(base_dir), load_results(change_dir)
    noisy = [f"{result['workload']} seed {result['seed']}"
             for results in base.values() for result in results
             if result["stamp"].get("noisy")]
    if noisy:
        print(f"refusing the baseline {base_dir}: taken on a noisy machine "
              f"({', '.join(noisy)})", file=sys.stderr)
        return 2
    status = 0
    print(f"{'workload':<20} {'metric':<14} {'A median':>12} {'B median':>12} "
          f"{'spread':>7} {'bound':>6}  verdict (n = A/B runs)")
    for workload in (entry["name"] for entry in spec["workloads"]):
        runs_a, runs_b = base.get(workload, []), change.get(workload, [])
        if not runs_a or not runs_b:
            print(f"{workload:<20} missing on one side "
                  f"({len(runs_a)} vs {len(runs_b)} runs)")
            status = 1
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [result["metrics"][name] for result in runs_a]
            b = [result["metrics"][name] for result in runs_b]
            outcome = verdict(a, b, metric["better"], metric["bound"])
            if outcome == "worse":
                status = 1
            print(f"{workload:<20} {name:<14} {statistics.median(a):>12.4f} "
                  f"{statistics.median(b):>12.4f} "
                  f"{max(spread(a), spread(b)):>7.3f} {metric['bound']:>6g}  "
                  f"{outcome} ({len(a)}/{len(b)})")
        failed_a = max(result["failed_share"] for result in runs_a)
        failed_b = max(result["failed_share"] for result in runs_b)
        grew = failed_b > failed_a
        print(f"{workload:<20} {'failed_share':<14} {failed_a:>12.4f} "
              f"{failed_b:>12.4f} {'':>7} {0:>6}  "
              f"{'worse' if grew else 'same'} ({len(runs_a)}/{len(runs_b)})")
        if grew:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", type=Path, help="baseline result set (A)")
    parser.add_argument("change", type=Path, help="result set to judge (B)")
    parser.add_argument("--spec", type=Path,
                        default=REPO_ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    with open(args.spec, encoding="utf-8") as handle:
        spec = json.load(handle)
    return compare(args.base, args.change, spec)


if __name__ == "__main__":
    raise SystemExit(main())
