"""Measurement helpers that look at the servers from outside: latency
percentiles, ``/proc`` CPU and peak RSS, directory sizes, ``stats``-op
snapshots over side connections, and the machine stamp."""

from __future__ import annotations

import math
import os
import platform
import subprocess
import threading
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from repro.errors import ReproError
from repro.kg.client import RemoteClient

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in 0..1); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(share * len(ordered)))
    return float(ordered[rank - 1])


def process_cpu_seconds(pid: int) -> float:
    """User + system CPU time of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/stat", "rb") as handle:
        # Fields after the parenthesised command name; utime and stime
        # are the 14th and 15th of the whole line.
        fields = handle.read().rsplit(b")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def process_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` — the high-water mark of resident memory."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def tree_bytes(directories: Iterable[Path]) -> int:
    """Bytes of every regular file under the directories.  Files may
    vanish mid-walk (compaction sweeps generations); those count as 0."""
    total = 0
    for directory in directories:
        for root, _dirs, files in os.walk(directory):
            for name in files:
                try:
                    total += os.stat(os.path.join(root, name)).st_size
                except OSError:
                    pass
    return total


def wal_bytes(directory: Path) -> int:
    """Size of the live WAL file(s) of one store directory."""
    total = 0
    for path in directory.glob("wal-*.log"):
        try:
            total += path.stat().st_size
        except OSError:
            pass
    return total


def call_once(url: str, op: str, **fields):
    """One request over a fresh JSON side connection (opened outside the
    timed window, so it never shares a connection with the load)."""
    with RemoteClient(url, codec="json", timeout=30.0) as client:
        return client.call(op, **fields)


def try_call(url: str, op: str, **fields):
    """``call_once`` that returns ``None`` when the server is unreachable
    or refuses — for pollers that must not take the run down."""
    try:
        return call_once(url, op, **fields)
    except (ReproError, OSError):
        return None


#: Thread-CPU microseconds one probe loop takes on the reference box
#: (2 vCPU Xeon @ 2.1 GHz microVM, CPython 3.11) in its quiet state.
PROBE_REFERENCE_US = 235.0
_PROBE_INTERVAL_S = 0.05


class PeriodicSampler:
    """A side thread calling :meth:`sample` every ``interval_s`` for as
    long as the ``with`` block runs."""

    def __init__(self, interval_s: float, name: str) -> None:
        self._interval_s = interval_s
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name=name)

    def sample(self) -> None:
        raise NotImplementedError

    def _run(self) -> None:
        while not self._stop.wait(self._interval_s):
            self.sample()

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *_exc) -> None:
        self._stop.set()
        self._thread.join()


class SpeedProbe(PeriodicSampler):
    """Measures how fast this machine is running *right now*.

    The sandbox is a shared-host VM whose effective CPU speed swings by
    +-20% for minutes at a time (a fixed pure-Python loop on an idle box
    takes 175-255 ms), which no amount of in-run averaging removes.
    While a phase of the benchmark runs, a side thread executes a fixed
    small loop every 50 ms (~0.5% of one core) and records the thread
    CPU time it took — waiting for a core or for the interpreter lock is
    not counted.  ``slowdown`` is the mean over the phase divided by the
    reference: 1.0 = reference speed, 1.3 = everything takes 30% longer.
    Time-derived end-to-end metrics are reported scaled to reference
    speed; the raw wall-clock values sit beside them in every result.
    """

    def __init__(self) -> None:
        super().__init__(_PROBE_INTERVAL_S, "bench-speed-probe")
        self._samples: List[int] = []

    def sample(self) -> None:
        start = time.thread_time_ns()
        total = 0
        for value in range(4000):
            total += value * value
        self._samples.append(time.thread_time_ns() - start)

    @property
    def slowdown(self) -> float:
        """Mean of the middle 80% of the samples over the reference: a
        mean, because a phase is usually a mix of fast and slow stretches
        and the work ran through all of them; trimmed, because one
        sample that took a page fault must not move it."""
        ordered = sorted(self._samples)
        trim = len(ordered) // 10
        kept = ordered[trim:len(ordered) - trim]
        if not kept:
            return 1.0
        return sum(kept) / len(kept) / 1e3 / PROBE_REFERENCE_US


def _cpu_jiffies() -> List[int]:
    with open("/proc/stat", "r", encoding="ascii") as handle:
        return [int(field) for field in handle.readline().split()[1:]]


def busy_cores(window_s: float = 0.25) -> float:
    """Cores' worth of CPU the whole machine burned over a short window
    (from ``/proc/stat``).  The 1-minute load average cannot serve here:
    it still carries the previous benchmark run a minute later."""
    before = _cpu_jiffies()
    time.sleep(window_s)
    after = _cpu_jiffies()
    spent = [now - then for now, then in zip(after, before)]
    total = sum(spent[:8])                 # user..steal; guest is in user
    idle = spent[3] + spent[4]             # idle + iowait
    return (os.cpu_count() or 1) * (total - idle) / total if total else 0.0


def is_noisy(busy: float) -> bool:
    """A run started on a machine already busier than half its cores
    cannot serve as a baseline."""
    return busy > (os.cpu_count() or 1) / 2


def machine_stamp(repo_root: Path) -> Dict[str, object]:
    """What a later reader needs to judge whether two results compare."""
    commit: Optional[str] = None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=repo_root,
                              capture_output=True, text=True, timeout=10)
        if done.returncode == 0:
            commit = done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {"commit": commit or "unknown",  # a bare checkout has no .git
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform()}


def delta(after: Dict[str, object], before: Dict[str, object],
          keys: Sequence[str]) -> Dict[str, float]:
    """Counter differences for the named keys (missing = 0)."""
    return {key: float(after.get(key, 0) or 0) - float(before.get(key, 0) or 0)
            for key in keys}


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
