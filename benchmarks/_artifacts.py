"""Persist benchmark results as ``benchmarks/out/BENCH_*.json`` artifacts.

The benches that still time something record their measured numbers —
workload description, backend, codec, timings and speedups — so a CI
bench job can upload the artifacts without re-running anything.  One
artifact per bench family::

    BENCH_store.json    backend micro-benchmarks (test_bench_store_backends)
    BENCH_cluster.json  shard-process scaling    (test_bench_cluster, on
                        >= 4 cores only)

The other per-layer benches assert work counts, not wall clocks, and
write nothing; ``bench/`` prices those layers end to end.

Sections merge: a test updates only its own section and leaves sections
written by other tests intact, so running a single bench never clobbers
the rest of the artifact.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Where the artifacts land: an ignored directory, so a tier-1 run leaves
#: the repo root as it found it.
ARTIFACT_DIR = REPO_ROOT / "benchmarks" / "out"


def update_artifact(name: str, section: str, payload: dict) -> Path:
    """Merge ``payload`` into the ``section`` of ``BENCH_<name>.json``."""
    ARTIFACT_DIR.mkdir(exist_ok=True)
    path = ARTIFACT_DIR / f"BENCH_{name}.json"
    try:
        document = json.loads(path.read_text())
        if not isinstance(document, dict):
            document = {}
    except (OSError, ValueError):
        document = {}
    document["benchmark"] = name
    document["generated_unix"] = int(time.time())
    document["python"] = platform.python_version()
    document["machine"] = {"platform": platform.platform(),
                           "cpus": os.cpu_count()}
    document.setdefault("sections", {})[section] = payload
    path.write_text(json.dumps(document, indent=2, sort_keys=False) + "\n")
    return path
