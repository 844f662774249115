"""Runs one workload end to end: set-up, warm-up, the timed closed loop,
the oracle check, the outside-in counters and (optionally) the traced
replay.  ``bench/run.py`` is the command line on top of this.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import itertools
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional

import numpy as np

from repro.errors import ReproError
from repro.kg.client import RemoteStore
from repro.kg.cluster import shard_split
from repro.kg.routing import shard_of_id

from bench import metrics as m
from bench import trace
from bench.catalog import CLIENTS, FULL, VIEWED_WITH, Catalog, CatalogSpec, \
    generate
from bench.topology import CLUSTER, N_SHARDS, REPLICA, SHARD0, SHARD1, \
    InProcessTopology, SubprocessTopology, build_stores
from bench.workloads import ADD16, COMPACT, REMOVE16, WARMUP_OPS, \
    WRITE_KINDS, Op, Oracle, Session, op_stream, prefill_ops

#: Share of responses kept whole and compared row by row after the run
#: (every response's row count is compared).
SAMPLE_SHARE = 0.02
_LAG_POLL_S = 0.25
_CONVERGE_TIMEOUT_S = 30.0
_DIGEST_OPS = 500
#: The traced replay alternates this many wrapped ops with as many
#: unwrapped ones.
_TRACE_BLOCK_OPS = 10
#: Far past any real sequence number: ``wal_tail`` then ships nothing
#: and just reports the leader's position.
_PAST_ANY_SEQ = 1 << 62


class Record(NamedTuple):
    """One op as the client saw it."""
    op: Op
    start: int                  # perf_counter_ns
    end: int
    rows: int                   # rows returned; -1 when the op raised
    payload: Optional[object]   # the rows, kept for sampled ops only
    error: Optional[str]

    @property
    def ms(self) -> float:
        return (self.end - self.start) / 1e6


@dataclass
class Plan:
    """The shape of one run."""

    workload: str
    seed: int
    out_dir: Path
    #: Length of the timed window; ignored when ``max_ops`` is set.
    seconds: float = 10.0
    #: Fixed total op count instead of a duration (harness test).
    max_ops: Optional[int] = None
    spec: CatalogSpec = FULL
    clients: int = CLIENTS
    #: Warm-up ops over all clients; ``None`` = the workload's default.
    warmup_ops: Optional[int] = None
    #: Full set-ups performed; ``setup_s`` is their median and the last
    #: one is the system the workload then runs on.
    setups: int = 3
    #: Host the servers in this process instead of as subprocesses.
    in_process: bool = False
    #: Ops of the traced in-process replay (0 = no traced run), a multiple
    #: of the block size; as many again run unwrapped between the blocks
    #: for the overhead ratio.
    traced_ops: int = 0


@dataclass
class Outcome:
    """Everything one run measured."""

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: Metric name -> value.  Time-derived end-to-end metrics are scaled
    #: to reference machine speed (``metrics.SpeedProbe``) ...
    values: Dict[str, float] = field(default_factory=dict)
    #: ... and ``raw`` holds the same metrics as the wall clock read them.
    raw: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)
    digest: str = ""
    ops_run: int = 0
    #: Wall seconds of each phase of the run, for budgeting run time.
    phases: Dict[str, float] = field(default_factory=dict)

    @contextlib.contextmanager
    def phase(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.phases[name] = self.phases.get(name, 0.0) \
                + time.perf_counter() - start

    def fail(self, count: int, detail: str) -> None:
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(detail)


def op_digest(plan: Plan, catalog: Catalog) -> str:
    """sha256 over the first ops of every client's timed stream: the
    same seed must give the same digest, another seed another."""
    digest = hashlib.sha256()
    for client in range(plan.clients):
        stream = op_stream(plan.workload, catalog, plan.seed, client,
                           plan.clients)
        for op in itertools.islice(stream, _DIGEST_OPS):
            digest.update(repr(op).encode())
    return digest.hexdigest()


# --------------------------------------------------------------------- #
# the closed loop
# --------------------------------------------------------------------- #
class _Compaction:
    """Fires one ``compact`` of the shard-0 leader, over the wire, from
    client 0 at the midpoint of the run (under the live follower, which
    must then re-bootstrap)."""

    def __init__(self, url: str, due_ops: Optional[int],
                 due_time: Optional[float],
                 wal_dir: Optional[Path] = None) -> None:
        self.url = url
        self.due_ops = due_ops
        self.due_time = due_time
        self.wal_dir = wal_dir
        self.wal_bytes_before = 0
        self.record: Optional[Record] = None

    def maybe_fire(self, done: int) -> None:
        if self.record is not None:
            return
        if self.due_ops is not None and done < self.due_ops:
            return
        if self.due_time is not None and time.perf_counter() < self.due_time:
            return
        if self.wal_dir is not None:
            # The old generation's log is deleted by the compaction.
            self.wal_bytes_before = m.wal_bytes(self.wal_dir)
        start = time.perf_counter_ns()
        error = None
        try:
            m.call_once(self.url, "compact")
        except (ReproError, OSError) as exc:
            error = repr(exc)
        self.record = Record((COMPACT, 0), start, time.perf_counter_ns(),
                             0 if error is None else -1, None, error)


def _drive(session: Session, ops: Iterator[Op], records: List[Record], *,
           max_ops: Optional[int], deadline: Optional[float],
           sampler: np.random.Generator,
           compaction: Optional[_Compaction] = None,
           recorder: Optional[trace.Recorder] = None,
           first_index: int = 0) -> None:
    """One client: send the next op only after the previous one returned."""
    done = 0
    while (max_ops is None or done < max_ops) and \
            (deadline is None or time.perf_counter() < deadline):
        if compaction is not None:
            compaction.maybe_fire(first_index + done)
        op = next(ops)
        around = recorder.op(first_index + done) if recorder is not None \
            else contextlib.nullcontext()
        rows, payload, error = -1, None, None
        start = time.perf_counter_ns()
        try:
            with around:
                rows, payload = session.run(op)
        except (ReproError, OSError) as exc:
            error = repr(exc)
        end = time.perf_counter_ns()
        if sampler.random() >= SAMPLE_SHARE:
            payload = None
        records.append(Record(op, start, end, rows, payload, error))
        done += 1


def _run_clients(url: str, catalog: Catalog, plan: Plan, *, warmup: bool,
                 per_client_ops: Optional[int], seconds: Optional[float],
                 compaction: Optional[_Compaction] = None
                 ) -> List[List[Record]]:
    """Run every client's loop on its own thread and connection; returns
    the records per client.  A loop that dies takes the run down."""
    records: List[List[Record]] = [[] for _ in range(plan.clients)]
    sessions = [Session(url, catalog) for _ in range(plan.clients)]
    crashes: List[BaseException] = []
    gate = threading.Barrier(plan.clients + 1)

    def work(client: int) -> None:
        ops = op_stream(plan.workload, catalog, plan.seed, client,
                        plan.clients, warmup=warmup)
        count = per_client_ops
        if warmup:  # touch every hot key once, then the seeded stream
            prefill = prefill_ops(plan.workload, catalog, client,
                                  plan.clients)
            ops, count = itertools.chain(prefill, ops), count + len(prefill)
        try:
            gate.wait()
            _drive(sessions[client], ops, records[client], max_ops=count,
                   deadline=None if seconds is None
                   else time.perf_counter() + seconds,
                   sampler=np.random.default_rng(
                       [plan.seed, 0x5A3B, client, int(warmup)]),
                   compaction=compaction if client == 0 else None)
        except BaseException as exc:  # re-raised on the caller's thread
            crashes.append(exc)

    threads = [threading.Thread(target=work, args=(client,),
                                name=f"bench-client-{client}", daemon=True)
               for client in range(plan.clients)]
    try:
        for thread in threads:
            thread.start()
        gate.wait()
        for thread in threads:
            thread.join()
    finally:
        for session in sessions:
            session.close()
    if crashes:
        raise crashes[0]
    return records


# --------------------------------------------------------------------- #
# outside-in observation
# --------------------------------------------------------------------- #
def _snapshot(topology) -> dict:
    """Counters read from outside the servers, over side connections."""
    urls = topology.urls
    shard_dirs = topology.dirs()[:N_SHARDS]
    return {
        "cluster": m.call_once(urls[CLUSTER], "stats"),
        "shards": [m.call_once(urls[role], "stats")
                   for role in (SHARD0, SHARD1)],
        "replica": m.call_once(urls[REPLICA], "replication_status"),
        "cpu": {role: m.process_cpu_seconds(pid)
                for role, pid in topology.pids().items()},
        "client_cpu": time.process_time(),
        "disk": m.tree_bytes(topology.dirs()),
        "wal": [m.wal_bytes(directory) for directory in shard_dirs],
    }


def _replica_lag(urls: Dict[str, str]) -> Optional[int]:
    """Leader seq minus the follower's applied seq, in batches; ``None``
    while they are on different generations (mid re-bootstrap)."""
    leader = m.try_call(urls[SHARD0], "wal_tail", after_seq=_PAST_ANY_SEQ)
    follower = m.try_call(urls[REPLICA], "replication_status")
    if not leader or not follower \
            or leader.get("generation") != follower.get("local_generation") \
            or follower.get("last_error"):
        return None
    return max(0, leader["next_seq"] - 1 - follower["applied_seq"])


class _LagPoller(m.PeriodicSampler):
    """Samples the replica's lag every 250 ms on side connections."""

    def __init__(self, urls: Dict[str, str]) -> None:
        super().__init__(_LAG_POLL_S, "bench-lag-poller")
        self.urls = urls
        self.worst = 0

    def sample(self) -> None:
        lag = _replica_lag(self.urls)
        if lag is not None:
            self.worst = max(self.worst, lag)


def _await_convergence(urls: Dict[str, str]) -> Optional[float]:
    """Seconds until the replica has applied everything its leader
    acked; ``None`` if it has not within the timeout."""
    start = time.perf_counter()
    while time.perf_counter() - start < _CONVERGE_TIMEOUT_S:
        if _replica_lag(urls) == 0:
            return time.perf_counter() - start
        time.sleep(0.02)
    return None


# --------------------------------------------------------------------- #
# correctness
# --------------------------------------------------------------------- #
def check_answers(records: List[List[Record]], oracle: Oracle,
                  outcome: Outcome) -> None:
    """Every op's row count against the oracle's, sampled ops row by
    row.  Clients write disjoint triples, so checking client 0's ops
    then client 1's is as good as any interleaving."""
    for client, client_records in enumerate(records):
        for record in client_records:
            outcome.attempted += 1
            if record.error is not None:
                outcome.fail(1, f"client {client} {record.op[0]} raised "
                                f"{record.error}")
            elif not oracle.agrees(record.op, record.rows, record.payload):
                outcome.fail(1, f"client {client} {record.op[0]} "
                                f"{str(record.op[1])[:60]} returned "
                                f"{record.rows} rows: the oracle disagrees")


def _written_heads(records: List[List[Record]]) -> List[str]:
    heads = {triple[0] for client_records in records
             for record in client_records if record.op[0] == ADD16
             for triple in record.op[1]}
    return sorted(heads)


def _check_heads(url: str, where: str, heads: List[str], oracle: Oracle,
                 outcome: Outcome) -> None:
    """Final ``match`` of every written head on one server against the
    oracle's final state; each head is one attempted read."""
    if not heads:
        return
    patterns = [(head, VIEWED_WITH, None) for head in heads]
    outcome.attempted += len(heads)
    try:
        with RemoteStore(url) as store:
            served = store.match_many(patterns)
    except (ReproError, OSError) as exc:
        outcome.fail(len(heads), f"{where}: final read raised {exc!r}")
        return
    wrong = sum(sorted(map(tuple, got)) != want
                for got, want in zip(served, oracle.written(heads)))
    if wrong:
        outcome.fail(wrong, f"{where}: {wrong} of {len(heads)} written "
                            f"heads disagree with the oracle")


def _verify_writes(topology, records: List[List[Record]], oracle: Oracle,
                   outcome: Outcome) -> None:
    """Acked writes are visible through the coordinator and on the
    replica, and survive a crash-restart of shard 1 (WAL replay)."""
    heads = _written_heads(records)
    interner = oracle.store.backend.entity_interner
    by_shard: Dict[int, List[str]] = {index: [] for index in range(N_SHARDS)}
    for head in heads:
        by_shard[shard_of_id(interner.lookup(head), N_SHARDS)].append(head)
    _check_heads(topology.urls[CLUSTER], "coordinator", heads, oracle,
                 outcome)
    _check_heads(topology.urls[REPLICA], "replica", by_shard[0], oracle,
                 outcome)
    _check_heads(topology.restart_shard1(), "restarted shard 1",
                 by_shard[1], oracle, outcome)


# --------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------- #
def _user_bytes(records: List[List[Record]]) -> int:
    return sum(len(term) for client_records in records
               for record in client_records
               if record.op[0] in WRITE_KINDS and record.error is None
               for triple in record.op[1] for term in triple)


def _end_to_end(records: List[List[Record]], slowdown: float,
                outcome: Outcome) -> None:
    """What a client of the coordinator sees, as the wall clock read it
    (``outcome.raw``) and scaled to reference machine speed."""
    flat = [record for client_records in records for record in client_records]
    wall_s = (max(record.end for record in flat)
              - min(record.start for record in flat)) / 1e9
    good = [record for record in flat if record.error is None]
    reads = sorted((record for record in good
                    if record.op[0] not in WRITE_KINDS),
                   key=lambda record: record.start)
    read_ms = [record.ms for record in reads]
    values, raw, samples = outcome.values, outcome.raw, outcome.samples
    outcome.ops_run = len(flat)
    raw["ops_per_s"] = len(good) / wall_s
    raw["rows_per_s"] = sum(record.rows for record in reads) / wall_s
    raw["read_p50_ms"] = m.percentile(read_ms, 0.50)
    raw["read_p95_ms"] = m.percentile(read_ms, 0.95)
    for name in ("ops_per_s", "rows_per_s"):
        values[name] = raw[name] * slowdown
    for name in ("read_p50_ms", "read_p95_ms"):
        values[name] = raw[name] / slowdown
    values["machine.slowdown"] = slowdown
    samples["ops_per_s"] = samples["rows_per_s"] = len(good)
    samples["read_p50_ms"] = samples["read_p95_ms"] = len(reads)
    for kind, name in ((ADD16, "add16"), (REMOVE16, "remove16")):
        writes = [record.ms for record in good if record.op[0] == kind]
        values[f"{name}_p50_ms"] = m.percentile(writes, 0.50)
        values[f"{name}_p95_ms"] = m.percentile(writes, 0.95)
        samples[f"{name}_p50_ms"] = samples[f"{name}_p95_ms"] = len(writes)
    # Do reads slow down as the written overlay grows under them?
    tenth = max(1, len(reads) // 10)
    values["store.read_slowdown_after_writes"] = m.ratio(
        m.percentile(read_ms[-tenth:], 0.5),
        m.percentile(read_ms[:tenth], 0.5))


def _counters(before: dict, after: dict, records: List[List[Record]],
              compaction: Optional[_Compaction], outcome: Outcome) -> None:
    """Per-layer numbers from ``stats`` deltas, ``/proc`` and ``os.stat``."""
    values = outcome.values
    ops = max(1, outcome.ops_run)
    for role, name in ((CLUSTER, "cluster.cpu_s"),
                       (SHARD0, "server.shard0.cpu_s"),
                       (SHARD1, "server.shard1.cpu_s"),
                       (REPLICA, "server.replica.cpu_s")):
        values[name] = after["cpu"][role] - before["cpu"][role]
    values["client.cpu_s"] = after["client_cpu"] - before["client_cpu"]

    service = m.delta(after["cluster"]["service"],
                      before["cluster"]["service"],
                      ("cache_hits", "cache_misses", "cache_evictions",
                       "cache_invalidations", "requests_served",
                       "batches_dispatched"))
    values["service.cache_hit_rate"] = m.ratio(
        service["cache_hits"],
        service["cache_hits"] + service["cache_misses"])
    values["service.cache_evictions"] = service["cache_evictions"]
    values["service.cache_invalidations"] = service["cache_invalidations"]
    values["service.batch_mean"] = m.ratio(service["requests_served"],
                                           service["batches_dispatched"])
    values["service.largest_batch"] = float(
        after["cluster"]["service"]["largest_batch"])

    totals = m.delta(after["cluster"]["cluster"]["totals"],
                     before["cluster"]["cluster"]["totals"],
                     ("requests", "retries", "reroutes", "leader_reads",
                      "replica_reads", "failures", "promotions"))
    shard_cache = m.delta(after["cluster"]["cluster"]["totals"]["cache"],
                          before["cluster"]["cluster"]["totals"]["cache"],
                          ("cache_hits", "cache_misses"))
    values["server.shard_cache_hit_rate"] = m.ratio(
        shard_cache["cache_hits"],
        shard_cache["cache_hits"] + shard_cache["cache_misses"])
    values["cluster.shard_requests_per_op"] = totals["requests"] / ops
    values["cluster.replica_read_share"] = m.ratio(
        totals["replica_reads"],
        totals["replica_reads"] + totals["leader_reads"])
    for key in ("retries", "reroutes", "failures", "promotions"):
        values[f"cluster.{key}"] = totals[key]

    # WAL bytes: growth of each shard's live log, plus what shard 0's
    # old log held when the compaction deleted it.  Warm-up writes
    # nothing, so the size "before" saw is an empty log's header, which
    # is also where the post-compaction log started.
    header = before["wal"][0]
    wal = sum(after["wal"]) - sum(before["wal"])
    if compaction is not None and compaction.record is not None:
        wal += compaction.wal_bytes_before - header
    batches = sum(
        float(shard_after["service"]["write_batches"])
        - float(shard_before["service"]["write_batches"])
        for shard_after, shard_before in zip(after["shards"],
                                             before["shards"]))
    user = _user_bytes(records)
    values["wal.bytes_per_batch"] = m.ratio(wal, batches)
    values["wal.bytes_per_user_byte"] = m.ratio(wal, user)
    values["disk_bytes_per_user_byte"] = m.ratio(
        after["disk"] - before["disk"], user)
    values["replica.rebootstraps"] = float(
        after["replica"]["rebootstraps"] - before["replica"]["rebootstraps"])

    values["store.compact_s"] = values["store.compact_stall_ms"] = 0.0
    if compaction is not None and compaction.record is not None:
        fired = compaction.record
        values["store.compact_s"] = fired.ms / 1e3
        values["store.compact_stall_ms"] = max(
            (record.ms for client_records in records
             for record in client_records
             if record.op[0] not in WRITE_KINDS
             and record.start < fired.end and record.end > fired.start),
            default=0.0)


# --------------------------------------------------------------------- #
# the traced replay
# --------------------------------------------------------------------- #
#: Per-layer metric -> the span names whose self time it sums.  Encodes
#: and frame reads off the benchmark's own connection carry ".internal"
#: (they are coordinator <-> shard traffic).
_SELF_TIME_METRICS = {
    "client.self_us": (trace.CLIENT_CALL, trace.MATERIALISE),
    "protocol.encode_us": (trace.ENCODE, trace.ENCODE + ".internal"),
    "protocol.decode_us": (trace.DECODE,),
    "wire.wait_us": (trace.WIRE_READ, trace.WIRE_READ + ".internal"),
    "server.self_us": (trace.HANDLE,),
    "service.self_us": (trace.SERVICE,),
    "planner.plan_us": (trace.PLAN,),
    "executor.self_us": (trace.EXECUTE,),
    "cluster.scatter_us": (trace.SCATTER,),
    "store.fetch_us": (trace.FETCH,),
    "store.apply_us": (trace.APPLY,),
    "wal.append_us": (trace.WAL_APPEND,),
}


def _kind_medians(records: List[Record]) -> Dict[str, float]:
    by_kind: Dict[str, List[float]] = {}
    for record in records:
        by_kind.setdefault(record.op[0], []).append(record.ms)
    return {kind: statistics.median(values)
            for kind, values in by_kind.items()}


def _traced_run(plan: Plan, catalog: Catalog, oracle: Oracle,
                source_dir: Path, work_dir: Path, outcome: Outcome) -> None:
    """Replay client 0's stream, one op in flight, against the topology
    hosted in this process — in alternating blocks with the layers
    wrapped and not wrapped, so both halves see the same drift of the
    store and the same cache (a straight repeat of the wrapped ops
    would be served from the result cache they just filled)."""
    split_dir = work_dir / "cluster-traced"
    shard_split(source_dir, N_SHARDS, split_dir)
    topology = InProcessTopology(split_dir, work_dir / "traced").start()
    traced: List[Record] = []
    plain: List[Record] = []
    recorder = trace.Recorder()
    try:
        url = topology.urls[CLUSTER]
        _run_clients(url, catalog, replace(plan, clients=1), warmup=True,
                     per_client_ops=plan.warmup_ops // 2, seconds=None)
        ops = op_stream(plan.workload, catalog, plan.seed, 0, plan.clients)
        compaction = _Compaction(topology.urls[SHARD0],
                                 plan.traced_ops // 2, None) \
            if plan.workload == "mixed_write_read" else None
        sampler = np.random.default_rng([plan.seed, 0x7ACE])
        session = Session(url, catalog)
        try:
            with m.SpeedProbe() as probe:
                while len(plain) < plan.traced_ops:
                    with trace.installed(recorder):
                        _drive(session, ops, traced, sampler=sampler,
                               max_ops=_TRACE_BLOCK_OPS, deadline=None,
                               compaction=compaction, recorder=recorder,
                               first_index=len(traced))
                    _drive(session, ops, plain, sampler=sampler,
                           max_ops=_TRACE_BLOCK_OPS, deadline=None)
        finally:
            session.close()
        # One stream, so its writes are checked in the order it ran them.
        check_answers([sorted(traced + plain,
                              key=lambda record: record.start)],
                      oracle, outcome)
    finally:
        topology.close()

    summary = trace.summarise(
        recorder.spans, [record.end - record.start for record in traced],
        threading.get_ident())
    trace.write_jsonl(recorder.spans,
                      plan.out_dir / f"trace-{plan.workload}.jsonl")
    values = outcome.values
    for metric, names in _SELF_TIME_METRICS.items():
        values[metric] = sum(summary.self_us.get(name, 0.0)
                             for name in names)
    values["cluster.shard_call_us"] = summary.wall_us.get(
        trace.SHARD_CALL, 0.0)
    values["cluster.rounds_per_op"] = summary.rounds_per_op
    values["protocol.bytes_in_per_op"] = summary.counts.get(trace.ENCODE, 0.0)
    values["protocol.bytes_out_per_op"] = summary.counts.get(
        trace.WIRE_READ, 0.0)
    rows_returned = sum(max(0, record.rows) for record in traced
                        if record.op[0] not in WRITE_KINDS)
    values["store.rows_fetched_per_row_returned"] = m.ratio(
        summary.counts.get(trace.FETCH, 0.0) * len(traced), rows_returned)
    values["trace.machine_slowdown"] = probe.slowdown
    values["trace.coverage"] = summary.coverage
    values["trace.spans_per_op"] = summary.spans_per_op
    # Compare like with like: per-kind median latencies, both weighted
    # by how often the wrapped blocks ran each kind (medians, because a
    # block holds a handful of 200 ms writes among 2 ms reads).
    wrapped, unwrapped = _kind_medians(traced), _kind_medians(plain)
    kinds = [record.op[0] for record in traced if record.op[0] in unwrapped]
    values["trace.overhead_ratio"] = m.ratio(
        sum(wrapped[kind] for kind in kinds),
        sum(unwrapped[kind] for kind in kinds))
    outcome.samples["trace.coverage"] = len(traced)


# --------------------------------------------------------------------- #
# one run
# --------------------------------------------------------------------- #
def _set_up(plan: Plan, catalog: Catalog, work_dir: Path):
    """Build, save, split, boot, bootstrap the replica; everything a
    deployment does before it can take its first request."""
    store, split_dir = build_stores(catalog.rows, work_dir)
    if plan.in_process:
        topology = InProcessTopology(split_dir, work_dir)
    else:
        topology = SubprocessTopology(split_dir, work_dir,
                                      plan.out_dir / "logs")
    return store, topology.start()


def run(plan: Plan) -> Outcome:
    """Run one workload once; see the module docstring for the steps."""
    outcome = Outcome()
    if plan.warmup_ops is None:
        plan = replace(plan, warmup_ops=WARMUP_OPS[plan.workload])
    plan.out_dir.mkdir(parents=True, exist_ok=True)
    with outcome.phase("generate"):
        catalog = generate(plan.seed, plan.spec)
        outcome.digest = op_digest(plan, catalog)
    mixed = plan.workload == "mixed_write_read"
    # Either a fixed op count per client or a timed window, never both.
    per_client = plan.max_ops // plan.clients if plan.max_ops else None
    seconds = None if per_client else plan.seconds
    work_dir = Path(tempfile.mkdtemp(prefix="work-", dir=plan.out_dir))
    topology = None
    try:
        setup_times: List[float] = []
        raw_times: List[float] = []
        with outcome.phase("setup"):
            for _attempt in range(plan.setups):
                if topology is not None:
                    topology.close()
                    shutil.rmtree(work_dir)
                    work_dir.mkdir()
                start = time.perf_counter()
                with m.SpeedProbe() as probe:
                    store, topology = _set_up(plan, catalog, work_dir)
                raw_times.append(time.perf_counter() - start)
                setup_times.append(raw_times[-1] / probe.slowdown)
        outcome.values["setup_s"] = statistics.median(setup_times)
        outcome.raw["setup_s"] = statistics.median(raw_times)
        outcome.samples["setup_s"] = len(setup_times)
        oracle = Oracle(store, catalog)
        url = topology.urls[CLUSTER]
        # The catalog and the oracle's store are millions of long-lived
        # objects in the load generator's heap; keep the cyclic collector
        # from walking them in the middle of the timed window.
        gc.collect()
        gc.freeze()

        with outcome.phase("warmup"):
            _run_clients(url, catalog, plan, warmup=True,
                         per_client_ops=plan.warmup_ops // plan.clients,
                         seconds=None)
        compaction = None
        if mixed:
            compaction = _Compaction(
                topology.urls[SHARD0],
                per_client // 2 if per_client else None,
                time.perf_counter() + seconds / 2 if seconds else None,
                wal_dir=topology.dirs()[0])
        before = _snapshot(topology)
        with outcome.phase("timed"), m.SpeedProbe() as probe, \
                _LagPoller(topology.urls) if mixed \
                else contextlib.nullcontext() as poller:
            records = _run_clients(url, catalog, plan, warmup=False,
                                   per_client_ops=per_client,
                                   seconds=seconds, compaction=compaction)
        with outcome.phase("observe"):
            converged = _await_convergence(topology.urls) if mixed else 0.0
            after = _snapshot(topology)
            outcome.values["rss_peak_mb"] = sum(
                m.process_peak_rss_mb(pid)
                for pid in set(topology.pids().values()))
            outcome.samples["rss_peak_mb"] = len(topology.pids())

        _end_to_end(records, probe.slowdown, outcome)
        _counters(before, after, records, compaction, outcome)
        outcome.values["replica.lag_batches_max"] = \
            float(poller.worst) if mixed else 0.0
        outcome.values["replica.converge_s"] = converged or 0.0
        if converged is None:
            outcome.fail(1, "the replica did not converge on its leader "
                            f"within {_CONVERGE_TIMEOUT_S:.0f} s")
        if compaction is not None:
            if compaction.record is None or compaction.record.error:
                outcome.fail(1, "the mid-run compaction did not happen: "
                                f"{compaction.record}")
            outcome.attempted += 1

        with outcome.phase("check"):
            check_answers(records, oracle, outcome)
            if mixed:
                _verify_writes(topology, records, oracle, outcome)
        with outcome.phase("teardown"):
            topology.close()
            topology = None
        if plan.traced_ops:
            with outcome.phase("traced"):
                _traced_run(plan, catalog, Oracle(store, catalog),
                            work_dir / "source", work_dir, outcome)
    finally:
        gc.unfreeze()
        if topology is not None:
            topology.close()
        shutil.rmtree(work_dir, ignore_errors=True)
    return outcome
