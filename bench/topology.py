"""The system under test: 2 shard servers, 1 replica of shard 0, 1
coordinator — as real ``repro`` processes for the timed runs, or hosted
in this process for the traced run and the harness test.

Both forms expose the same surface (``urls``, ``pids``, ``dirs``,
``restart_shard1``, ``close``), so the runner does not know which one
it drives.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.kg.client import RemoteClient
from repro.kg.cluster import ClusterBackend, shard_split
from repro.kg.server import KGServer, bootstrap_replica
from repro.kg.sharded_backend import ShardedBackend
from repro.kg.store import TripleStore
from repro.kg.triple import Triple

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = REPO_ROOT / "src"

N_SHARDS = 2
#: Result-cache budget of every server, MiB.  Fixed so that the
#: ``guide_zipf_read`` and ``stream_scan`` working sets (~0.5 MB of
#: cached blocks each) fit and the ``uniform_join_read`` one (~150 B per
#: distinct query, ~7 000 entries) overflows within one run.
CACHE_MB = 1
_CACHE_BYTES = CACHE_MB * 1024 * 1024
#: Everything else is the CLI default; recorded in every result.
SERVER_FLAGS = {"cache_mb": CACHE_MB, "codec": "auto", "max_batch": 256,
                "wal_fsync": True, "follow_poll_interval": 0.05}

#: The four roles, named after the layer their process mostly runs.
SHARD0, SHARD1, REPLICA, CLUSTER = "shard0", "shard1", "replica", "cluster"
ROLES = (SHARD0, SHARD1, REPLICA, CLUSTER)

_BOOT_TIMEOUT_S = 60.0
_STOP_TIMEOUT_S = 10.0


def build_stores(rows: Sequence[Triple],
                 work_dir: Path) -> Tuple[TripleStore, Path]:
    """Build the catalog store, save it and split it into shard
    directories.  Returns ``(in-memory store, split directory)``; the
    in-memory ``ShardedBackend(2)`` store doubles as the oracle — a
    cluster of N must be bit-identical to it."""
    store = TripleStore(rows, backend=ShardedBackend(N_SHARDS))
    source = work_dir / "source"
    store.save(source)
    split_dir = work_dir / "cluster"
    shard_split(source, N_SHARDS, split_dir)
    return store, split_dir


def _ping(url: str) -> bool:
    try:
        with RemoteClient(url, codec="json", timeout=5.0,
                          reconnect_attempts=0) as client:
            return client.ping()
    except (ReproError, OSError):
        return False


class _Process:
    """One ``repro`` server process with its log file."""

    def __init__(self, role: str, argv: List[str], log_path: Path) -> None:
        self.role = role
        self.argv = argv
        self.log_path = log_path
        self.url: Optional[str] = None
        self._log = open(log_path, "ab")
        self._banner_from = self._log.tell()
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR)
        env["PYTHONUNBUFFERED"] = "1"
        # Output goes straight to the log file, never through a pipe
        # this process would have to keep draining.
        self.popen = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *argv],
            stdout=self._log, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL, env=env, cwd=str(REPO_ROOT))

    def await_ready(self) -> str:
        """Ready = the serving banner was printed AND a ping answers."""
        deadline = time.monotonic() + _BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.popen.poll() is not None:
                break
            if self.url is None:
                self.url = self._banner_url()
            if self.url is not None and _ping(self.url):
                return self.url
            time.sleep(0.01)
        raise RuntimeError(
            f"{self.role} did not come up (exit code {self.popen.poll()}); "
            f"see {self.log_path}:\n{self.log_path.read_text()[-2000:]}")

    def _banner_url(self) -> Optional[str]:
        with open(self.log_path, "rb") as handle:
            handle.seek(self._banner_from)
            text = handle.read().decode("utf-8", "replace")
        for line in text.splitlines():
            if line.startswith(("serving ", "coordinating ")) \
                    and " on " in line:
                return line.split(" on ", 1)[1].split()[0].rstrip(",")
        return None

    def kill(self) -> None:
        """``kill -9``: no shutdown hooks run, open files are not flushed
        by the process (the OS page cache survives)."""
        self.popen.send_signal(signal.SIGKILL)
        self.popen.wait(timeout=_STOP_TIMEOUT_S)

    def stop(self) -> None:
        if self.popen.poll() is None:
            self.popen.terminate()
            try:
                self.popen.wait(timeout=_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.popen.kill()
                self.popen.wait(timeout=_STOP_TIMEOUT_S)
        self._log.close()


class _Topology:
    """What both forms share: where the stores live and who serves."""

    def __init__(self, split_dir: Path, work_dir: Path) -> None:
        self.split_dir = split_dir
        self.replica_dir = work_dir / "shard-0-replica"  # empty: bootstraps
        self.urls: Dict[str, str] = {}

    def dirs(self) -> List[Path]:
        """Shard 0, shard 1, then the replica's store directory."""
        return [self.split_dir / "shard-0", self.split_dir / "shard-1",
                self.replica_dir]


class SubprocessTopology(_Topology):
    """The real deployment: every role its own OS process on loopback,
    ephemeral ports, default flags except ``--cache-mb``."""

    def __init__(self, split_dir: Path, work_dir: Path,
                 log_dir: Path) -> None:
        super().__init__(split_dir, work_dir)
        self.log_dir = log_dir
        log_dir.mkdir(parents=True, exist_ok=True)
        self.processes: Dict[str, _Process] = {}

    def _spawn(self, role: str, argv: List[str]) -> _Process:
        process = _Process(role, argv + ["--port", "0",
                                         "--cache-mb", str(CACHE_MB)],
                           self.log_dir / f"{role}.log")
        self.processes[role] = process
        return process

    def _shard_argv(self, index: int) -> List[str]:
        return ["serve", "--store-dir", str(self.split_dir / f"shard-{index}"),
                "--shard-of", f"{index}/{N_SHARDS}"]

    def start(self) -> "SubprocessTopology":
        try:
            shards = [self._spawn(role, self._shard_argv(index))
                      for index, role in enumerate((SHARD0, SHARD1))]
            for process in shards:
                self.urls[process.role] = process.await_ready()
            self.urls[REPLICA] = self._spawn(
                REPLICA, ["serve", "--store-dir", str(self.replica_dir),
                          "--shard-of", f"0/{N_SHARDS}",
                          "--follow", self.urls[SHARD0]]).await_ready()
            self.urls[CLUSTER] = self._spawn(
                CLUSTER, ["cluster", "--store-dir", str(self.split_dir),
                          "--shards",
                          f"{self.urls[SHARD0]},{self.urls[SHARD1]}",
                          "--replica", f"0={self.urls[REPLICA]}"]
            ).await_ready()
        except BaseException:
            self.close()
            raise
        return self

    def pids(self) -> Dict[str, int]:
        return {role: process.popen.pid
                for role, process in self.processes.items()}

    def restart_shard1(self) -> str:
        """``kill -9`` shard 1 and boot it again from its directory;
        returns the new URL (the coordinator still points at the old)."""
        self.processes[SHARD1].kill()
        self.processes[SHARD1].stop()
        self.urls[SHARD1] = self._spawn(
            SHARD1, self._shard_argv(1)).await_ready()
        return self.urls[SHARD1]

    def close(self) -> None:
        for role in reversed(ROLES):  # coordinator first, leaders last
            process = self.processes.pop(role, None)
            if process is not None:
                process.stop()


class InProcessTopology(_Topology):
    """The same four roles as ``KGServer`` threads in this process, over
    the same kind of split directories — what the traced run wraps."""

    def __init__(self, split_dir: Path, work_dir: Path) -> None:
        super().__init__(split_dir, work_dir)
        self.servers: Dict[str, KGServer] = {}
        self._backend: Optional[ClusterBackend] = None

    def _serve(self, role: str, server: KGServer) -> None:
        self.servers[role] = server.start()
        self.urls[role] = server.url

    def _open_shard(self, index: int, directory: Path, **kwargs) -> KGServer:
        return KGServer.open(directory, port=0, shard_index=index,
                             n_shards=N_SHARDS,
                             cache_bytes=_CACHE_BYTES, **kwargs)

    def start(self) -> "InProcessTopology":
        try:
            for index, role in enumerate((SHARD0, SHARD1)):
                self._serve(role, self._open_shard(
                    index, self.split_dir / f"shard-{index}"))
            bootstrap_replica(self.replica_dir, self.urls[SHARD0])
            self._serve(REPLICA, self._open_shard(
                0, self.replica_dir, follow=self.urls[SHARD0]))
            self._backend = ClusterBackend.open(
                self.split_dir, [self.urls[SHARD0], self.urls[SHARD1]],
                replicas={0: [self.urls[REPLICA]]})
            self._serve(CLUSTER, KGServer(
                TripleStore(backend=self._backend), port=0,
                cache_bytes=_CACHE_BYTES))
        except BaseException:
            self.close()
            raise
        return self

    def pids(self) -> Dict[str, int]:
        return {role: os.getpid() for role in self.servers}

    def _stop(self, role: str) -> None:
        server = self.servers.pop(role, None)
        if server is not None:
            server.close()
            server.service.store.close()

    def restart_shard1(self) -> str:
        """Close shard 1 and reopen it from its directory (a clean stop:
        a thread cannot be ``kill -9``'d; the subprocess form does that)."""
        self._stop(SHARD1)
        self._serve(SHARD1, self._open_shard(1, self.split_dir / "shard-1"))
        return self.urls[SHARD1]

    def close(self) -> None:
        self._stop(CLUSTER)
        if self._backend is not None:
            self._backend.close()
            self._backend = None
        for role in (REPLICA, SHARD1, SHARD0):
            self._stop(role)
