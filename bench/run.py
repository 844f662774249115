#!/usr/bin/env python3
"""The benchmark's one command.

::

    python3 bench/run.py --workload guide_zipf_read --seed 1 \\
        --seconds 10 --trace 0          # one timed run (the driver's form)
    python3 bench/run.py --workload stream_scan --seed 1 --trace 1
    python3 bench/run.py [--seed N] [--out DIR]   # all four, timed + traced
    PYTHONPATH=src python -m bench.run ...        # the same, as a module

Every run prints each metric by name with its unit and sample count,
writes ``result-<workload>-seed<N>-trace<T>.json`` under ``--out`` and
ends with one JSON line ``{"correct", "attempted", "failed", "metrics"}``.
Exit code 0 only when every answer agreed with the oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
# Run as a script, sys.path[0] is bench/ itself, where `trace.py` would
# shadow the standard library's; the package is imported from the root.
sys.path[:] = [entry for entry in sys.path
               if Path(entry or ".").resolve() != REPO_ROOT / "bench"]
for _path in (REPO_ROOT / "src", REPO_ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

try:
    from bench import metrics as m  # noqa: E402
    from bench.runner import Outcome, Plan, run  # noqa: E402
    from bench.topology import SERVER_FLAGS  # noqa: E402
    from bench.workloads import WARMUP_OPS, WORKLOADS  # noqa: E402
except ModuleNotFoundError as exc:
    # The benchmark drives the program; without its sources there is
    # nothing to measure and no result to print.
    raise SystemExit(f"bench/run.py needs the repository's src/ tree next "
                     f"to bench/ ({exc})")

DEFAULT_OUT = REPO_ROOT / "bench" / "out"
#: A workload that has not finished by then is reported failed and its
#: processes torn down (the driver allows a run 180 s).
DEADLINE_S = 150
#: Ops of the traced replay, sized to ~2 s each in-process at the commit
#: that added the benchmark.  Fixed counts, so that traced counts repeat.
TRACED_OPS = {"guide_zipf_read": 600, "uniform_join_read": 150,
              "mixed_write_read": 100, "stream_scan": 40}


def load_spec() -> dict:
    """The root ``BENCHMARK.json``: metric names, units, bounds."""
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


class _Deadline(Exception):
    pass


def _on_alarm(_signum, _frame):
    raise _Deadline()


def standard_plan(workload: str, seed: int, seconds: float, traced: bool,
                  out_dir: Path) -> Plan:
    """The plan the driver's command line runs.

    A timed run sets the system up three times (``setup_s`` is the
    median) and measures for ``seconds``.  A traced run sets up once and
    splits the window: half for the counted run against the subprocess
    topology, the rest for the wrapped and unwrapped in-process replays.
    """
    return Plan(workload=workload, seed=seed, out_dir=out_dir,
                seconds=seconds / 2 if traced else seconds,
                setups=1 if traced else 3,
                traced_ops=TRACED_OPS[workload] if traced else 0)


def run_one(plan: Plan) -> dict:
    """One run under the hard deadline; returns the result document
    (also written under ``plan.out_dir``)."""
    workload, seed, out_dir = plan.workload, plan.seed, plan.out_dir
    traced = plan.traced_ops > 0
    load_start, busy_start = os.getloadavg()[0], m.busy_cores()
    started = time.perf_counter()
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(DEADLINE_S)
    try:
        outcome = run(plan)
    except _Deadline:
        outcome = Outcome(attempted=1, failed=1, failures=[
            f"{workload} exceeded the {DEADLINE_S} s deadline"])
    finally:
        signal.alarm(0)
    result = {
        "workload": workload, "seed": seed, "trace": int(traced),
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": max(1, outcome.attempted), "failed": outcome.failed,
        "failed_share": outcome.failed / max(1, outcome.attempted),
        "failures": outcome.failures,
        "metrics": outcome.values, "raw_metrics": outcome.raw,
        "samples": outcome.samples,
        "op_digest": outcome.digest,
        "config": {"seconds": plan.seconds, "clients": plan.clients,
                   "loop": "closed",
                   "warmup_ops": WARMUP_OPS[workload]
                   if plan.warmup_ops is None else plan.warmup_ops,
                   "setups": plan.setups, "traced_ops": plan.traced_ops,
                   "ops_run": outcome.ops_run,
                   "phases_s": outcome.phases,
                   "products": plan.spec.products,
                   "server_flags": SERVER_FLAGS},
        "stamp": {**m.machine_stamp(REPO_ROOT),
                  "load_start": load_start, "load_end": os.getloadavg()[0],
                  "busy_cores_start": busy_start,
                  "noisy": m.is_noisy(busy_start),
                  "elapsed_s": time.perf_counter() - started},
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    name = f"result-{workload}-seed{seed}-trace{int(traced)}.json"
    with open(out_dir / name, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
    return result


def report(result: dict, spec: dict) -> None:
    """Every metric by name, with unit, sample count and bound."""
    listed = {metric["name"]: metric
              for metric in spec["end_to_end"] + spec["per_layer"]}
    config = result["config"]
    flags = config["server_flags"]
    print(f"== {result['workload']} seed={result['seed']} "
          f"trace={result['trace']} — {config['ops_run']} timed ops "
          f"in {config['seconds']:g} s, closed loop of "
          f"{config['clients']} clients; servers: "
          f"--cache-mb {flags['cache_mb']}, codec {flags['codec']}, WAL fsync "
          f"{'on' if flags['wal_fsync'] else 'off'}"
          + (" [NOISY: other work held more than nproc/2 cores at start]"
             if result["stamp"]["noisy"] else ""))
    for name, value in sorted(result["metrics"].items()):
        metric = listed.get(name, {})
        samples = result["samples"].get(name)
        bound = metric.get("bound")
        raw = result["raw_metrics"].get(name)
        print(f"  {name:<40} {value:>14.4f} {metric.get('unit', '?'):<8}"
              + (f" n={samples}" if samples is not None else "")
              + (f" bound={bound:g}" if bound is not None else "")
              + (f" (wall clock read {raw:.4f})" if raw is not None else ""))
    print(f"  {'failed_share':<40} {result['failed_share']:>14.4f} "
          f"{'share':<8} n={result['attempted']} bound=0 (must equal 0)")
    if result["workload"] == "mixed_write_read":
        print("  note: the kill -9 / restart of shard 1 validates WAL replay, "
              "not the device — the OS page cache survives the kill")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")


def final_line(result: dict, spec: dict, traced: bool) -> str:
    """The driver's contract: the listed metrics of this mode, no more."""
    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    missing = [metric["name"] for metric in wanted
               if metric["name"] not in result["metrics"]]
    if missing and result["correct"]:
        raise SystemExit(f"metrics named in BENCHMARK.json were not "
                         f"measured: {', '.join(missing)}")
    return json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {metric["name"]: {
            "value": result["metrics"].get(metric["name"], 0.0),
            "unit": metric["unit"]} for metric in wanted}})


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    if args.workload is not None:
        traced = bool(args.trace)
        result = run_one(standard_plan(args.workload, args.seed,
                                       args.seconds, traced, args.out))
        report(result, spec)
        print(final_line(result, spec, traced))
        return 0 if result["correct"] else 1

    # No workload named: all four, a timed run then a traced run each.
    ok = True
    for workload in (entry["name"] for entry in spec["workloads"]):
        for traced in (False, True):
            result = run_one(standard_plan(workload, args.seed, args.seconds,
                                           traced, args.out))
            report(result, spec)
            ok = ok and result["correct"]
    print(json.dumps({"correct": ok}))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
