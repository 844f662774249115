"""Multi-node serving: a coordinator backend over N shard servers.

:class:`ClusterBackend` implements the same
:class:`~repro.kg.backend.GraphBackend` /
:class:`~repro.kg.backend.IdQueryBackend` contract as the in-process
:class:`~repro.kg.sharded_backend.ShardedBackend`, but its "shards" are
remote :class:`~repro.kg.server.KGServer` processes.  Routing is the
exact code the in-process backend uses — the pure functions of
:mod:`repro.kg.routing` — so a triple's owner shard is a property of its
head id and the shard count, never of which side of a socket the
decision is made on.  ``plan_query`` / ``execute_plans_cursors`` /
``QueryService`` run unchanged on top: a coordinator process is just
``KGServer(TripleStore(backend=ClusterBackend(...)))``.

Deployment shape
----------------
:func:`shard_split` cuts one saved store into N per-shard **live** store
directories (reusing the hash partitioner).  Each shard's snapshot is a
plain columnar store carrying the FULL global interner tables inline, so
a shard server serves a :class:`~repro.kg.backend.ColumnarBackend`
directly.  The split also leaves those tables at the top level for
:meth:`ClusterBackend.open`: the coordinator's interners route.

One id path
-----------
A shard's interners never have to equal the coordinator's.  Reads send
their constants as the coordinator's symbols over ops every shard
serves (``match_many``, ``count_many``, ``execute_many``); each shard
resolves them against its own tables, and every id column that comes
back is re-keyed to coordinator ids through the connection's own
symbol cache (:func:`~repro.kg.protocol.rekey_blocks`): one vectorised
check — and, once that connection's numbering diverged, one lookup —
per column of a connection's response, memoised per connection, so a
reconnect, a re-bootstrapped shard or a replica that numbers symbols
differently starts a fresh map.  The re-key (and any interning it
does) runs on the calling thread after the gather; scatter threads
never touch the interners.  A write that interns new symbols — each
shard interning only those of its own triples — changes nothing about
that path.

Failure story
-------------
Each shard has one leader and optional replicas (followers copying the
leader's WAL bytes through ``snapshot_ship`` chunks and replaying them).
Reads round-robin across leader + replicas; a transport failure drops
the connection, counts a reroute and tries the next endpoint, one more
sweep after a backoff.  Only when the leader AND every replica are
unreachable does a read fail — with a typed
:class:`~repro.errors.ShardUnavailableError` naming the shard.  Writes
go to the leader only and are NEVER silently retried once they may have
reached the wire: a lost response does not mean a lost write.  A leader
that stays unreachable (the write provably never left, twice across a
backoff) triggers **automatic promotion**: the most-caught-up replica —
highest generation, then replayed WAL seq, via ``replication_status`` —
receives a
``promote`` op (stop following, compact into a new generation, reopen
writable), the shard's endpoint list is repointed so it is endpoint 0,
and the promoted generation becomes the split-brain floor: an endpoint
serving an older generation — a demoted ex-leader come back, or a
replica still following it — is refused at connection time until it
rejoins as a follower (``--follow`` against the new leader
re-bootstraps it onto the promoted lineage).  Every connection a
session opens, pooled or a ballot / leader / ``stats`` probe, passes
that gate, and its client never reconnects on its own.

Consistency caveats (documented, by design): replication is
asynchronous, so a replica read may trail the leader by the poll
interval; writes that bypass the coordinator are outside the contract
(placement is the coordinator's hash of its own head ids).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace as dataclass_replace
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Mapping, NoReturn, \
    Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ProtocolError, ShardUnavailableError, StorageError
from repro.kg.backend import (
    ColumnarBackend,
    GraphBackend,
    IdPattern,
    Interner,
    Pattern,
    _IdSurfaceMixin,
    intern_id_rows,
)
from repro.kg.client import RemoteClient
from repro.kg.mmap_backend import (
    SHARD_SET_COUNTS,
    read_header,
    read_interner_pair,
    write_header,
    write_id_store,
    write_interner_pair,
)
from repro.kg.protocol import (DecodedBlock, encode_wire_patterns,
                               encode_wire_query, encode_wire_triples,
                               rekey_blocks)
from repro.kg.routing import (
    BROADCAST as _BROADCAST,
    classify_head,
    concat_id_blocks,
    scatter_gather,
    shard_of_id,
    shard_of_ids,
)
from repro.kg.triple import Triple

#: Identifies a :func:`shard_split` output directory's top-level header.
CLUSTER_MAGIC = "repro-kg-cluster"

#: Bump on any incompatible change to the split layout.
CLUSTER_FORMAT_VERSION = 1

#: Name of the top-level split header file.
CLUSTER_HEADER_FILE = "cluster.json"

#: Sleep between full endpoint sweeps of one shard before giving up.
DEFAULT_RETRY_BACKOFF = 0.05

__all__ = [
    "CLUSTER_MAGIC",
    "CLUSTER_FORMAT_VERSION",
    "CLUSTER_HEADER_FILE",
    "ClusterBackend",
    "load_cluster_header",
    "load_cluster_interners",
    "shard_split",
]


# --------------------------------------------------------------------- #
# shard-split: one saved store -> N per-shard live store directories
# --------------------------------------------------------------------- #
def shard_split(store_dir: Union[str, Path], n_shards: int,
                out_dir: Union[str, Path]) -> List[Path]:
    """Split a saved store into ``n_shards`` per-shard live directories.

    Partitioning reuses :func:`~repro.kg.routing.shard_of_ids` — the
    same rule every sharded backend routes with — over the source's
    global head ids.  Each ``out/shard-K/`` is a generation-0 **live**
    store (snapshot + empty WAL + pointer) whose snapshot is a plain
    columnar store (:func:`~repro.kg.mmap_backend.write_id_store`)
    carrying the FULL global interner tables, so every shard numbers
    every symbol as the source does.  The top level gains a
    ``cluster.json`` header plus the global interner files so
    :meth:`ClusterBackend.open` can load its interners without touching
    any shard.  Returns the per-shard directories in shard order.
    """
    from repro.kg.store import TripleStore
    from repro.kg.wal import (WriteAheadLog, snapshot_dir_name,
                              wal_file_name, write_live_pointer)

    n_shards = int(n_shards)
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    source = TripleStore.open(store_dir)
    try:
        backend = source.backend
        entity_interner = backend.entity_interner
        relation_interner = backend.relation_interner
        rows = backend.match_ids(None, None, None)
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        owners = shard_of_ids(rows[:, 0], n_shards) if len(rows) \
            else np.zeros(0, dtype=np.int64)
        shard_dirs: List[Path] = []
        for index in range(n_shards):
            shard_dir = out / f"shard-{index}"
            write_id_store(shard_dir / snapshot_dir_name(0), entity_interner,
                           relation_interner, rows[owners == index])
            WriteAheadLog.create(shard_dir / wal_file_name(0),
                                 generation=0).close()
            write_live_pointer(shard_dir, 0)
            shard_dirs.append(shard_dir)
        interner_fields = write_interner_pair(out, entity_interner,
                                              relation_interner)
        write_header(out, CLUSTER_HEADER_FILE, {
            "magic": CLUSTER_MAGIC, "version": CLUSTER_FORMAT_VERSION,
            "n_shards": n_shards, **interner_fields,
            "triples": int(len(rows))})
        return shard_dirs
    finally:
        source.close()


def load_cluster_header(directory: Union[str, Path]) -> dict:
    """Read and validate a split directory's ``cluster.json`` header."""
    return read_header(directory, CLUSTER_HEADER_FILE, magic=CLUSTER_MAGIC,
                       version=CLUSTER_FORMAT_VERSION,
                       counts=SHARD_SET_COUNTS, kind="shard-split output")


def load_cluster_interners(
        directory: Union[str, Path]) -> Tuple[dict, Interner, Interner]:
    """Load the global interner pair a split directory carries."""
    header = load_cluster_header(directory)
    return (header, *read_interner_pair(Path(directory), header))


# --------------------------------------------------------------------- #
# per-shard session: leader + replicas, round-robin reads, failover
# --------------------------------------------------------------------- #
class _ShardSession:
    """Connections and failover state for ONE shard's endpoints.

    Endpoint 0 is the leader; the rest are replicas.  Reads round-robin
    over all endpoints and fail over: a transport failure closes the
    broken connection and moves to the next endpoint (counted as a
    reroute), sweeping all endpoints twice with a backoff in between
    before raising :class:`~repro.errors.ShardUnavailableError`.
    Writes pin to the leader, and a write is never *silently* re-sent
    once it may have reached the wire; a leader that stays dead past
    the confirming retry triggers the promotion protocol
    (:meth:`_promote_replica`), after which the most-caught-up replica
    is endpoint 0.  Server-side *typed* errors (``QueryError``,
    ``StorageError``, ...) are not failover events — they propagate.
    """

    def __init__(self, index: int, leader: str, replicas: Sequence[str],
                 *, timeout: Optional[float] = 30.0,
                 retry_backoff: float = DEFAULT_RETRY_BACKOFF) -> None:
        self.index = index
        self.leader = leader
        self.addresses: List[str] = [leader] + list(replicas)
        self.timeout = timeout
        self.retry_backoff = float(retry_backoff)
        self._clients: List[Optional[RemoteClient]] = \
            [None] * len(self.addresses)
        self._rr = 0
        self._counter_lock = threading.Lock()
        self._promote_lock = threading.Lock()
        #: The split-brain fence: once a replica is promoted at
        #: generation G, any endpoint serving an older generation is a
        #: stale ex-leader and is refused at connection time until it
        #: re-bootstraps (``None`` = no promotion yet, no gate).
        self.min_generation: Optional[int] = None
        self.counters: Dict[str, int] = {
            "requests": 0, "retries": 0, "reroutes": 0,
            "leader_reads": 0, "replica_reads": 0,
            "writes": 0, "failures": 0, "promotions": 0,
        }

    def _count(self, key: str, amount: int = 1) -> None:
        with self._counter_lock:
            self.counters[key] += amount

    def _open(self, address: str, codec: str = "auto") -> RemoteClient:
        """Open a connection and apply the generation gate: the one way
        this session connects (pooled by :meth:`_ensure_client`,
        short-lived by :meth:`_probe`).  The client never reconnects on
        its own, so every retry comes back through here.

        After a promotion recorded ``min_generation`` = G, an endpoint
        serving generation < G is a stale ex-leader or a replica still
        following one: reading from it could resurrect pre-promotion
        state, writing to it would fork the shard, and promoting it
        would compact it past the floor without the writes acked since.
        A live connection passed the gate when it opened, so the
        per-call hot path never probes.
        """
        client = RemoteClient(address, codec=codec, timeout=self.timeout,
                              reconnect_attempts=0)
        floor = self.min_generation
        if floor is None:
            return client
        try:
            info = client.call("role")
            generation = info.get("generation") \
                if isinstance(info, dict) else None
            if not isinstance(generation, int) or generation < floor:
                raise ProtocolError(
                    f"shard {self.index} endpoint {address} serves "
                    f"generation {generation!r}, older than the promotion "
                    f"generation {floor} — a stale ex-leader must rejoin "
                    f"as a follower (restart it with --follow pointing at "
                    f"the current leader) before it serves again")
        except ProtocolError:
            client.close()
            raise
        return client

    def _ensure_client(self, endpoint: int) -> RemoteClient:
        """The endpoint's pooled connection, opened on demand."""
        client = self._clients[endpoint]
        if client is None:
            client = self._clients[endpoint] = \
                self._open(self.addresses[endpoint])
        return client

    def _call(self, endpoint: int, op: str, fields: dict):
        return self._ensure_client(endpoint).call(op, **fields)

    def _drop(self, endpoint: int) -> None:
        client = self._clients[endpoint]
        self._clients[endpoint] = None
        if client is not None:
            try:
                client.close()
            except Exception:  # pragma: no cover - close is best-effort
                pass

    def read_call(self, op: str, **fields):
        """One read, rerouted across endpoints until someone answers."""
        self._count("requests")
        n = len(self.addresses)
        self._rr += 1
        start = self._rr % n
        last_error: Optional[BaseException] = None
        for sweep in range(2):
            if sweep:
                self._count("retries")
                time.sleep(self.retry_backoff)
            for step in range(n):
                endpoint = (start + step) % n
                try:
                    result = self._call(endpoint, op, fields)
                except ProtocolError as exc:
                    last_error = exc
                    self._drop(endpoint)
                    self._count("reroutes")
                    continue
                self._count("leader_reads" if endpoint == 0
                            else "replica_reads")
                return result
        self._count("failures")
        raise ShardUnavailableError(
            f"shard {self.index} is unavailable: leader and every replica "
            f"unreachable ({', '.join(self.addresses)}); last error: "
            f"{last_error}", shard_index=self.index)

    def _attempt_write(self, op: str, fields: dict):
        """One leader write attempt, classified by delivery certainty.

        Returns ``("ok", result)``, ``("undelivered", exc)`` when the
        request *provably* never left this process (connecting raised,
        or the generation gate refused the endpoint before anything was
        sent), or ``("unknown", exc)`` when the failure happened after a
        connection existed — the leader may or may not have applied the
        write.  Only "undelivered" writes are ever re-sent.
        """
        try:
            client = self._ensure_client(0)
        except ProtocolError as exc:
            return ("undelivered", exc)
        try:
            return ("ok", client.call(op, **fields))
        except ProtocolError as exc:
            self._drop(0)
            return ("unknown", exc)

    def _probe(self, address: str, op: str):
        """One ``op`` on a dedicated short-lived JSON connection.

        Deliberately outside the failover machinery: no counter moves
        and no pooled socket is shared, but the gate of :meth:`_open`
        applies.  ``None`` on a transport error or a refusal.
        """
        try:
            with self._open(address, codec="json") as probe:
                return probe.call(op)
        except ProtocolError:
            return None

    def _leader_alive(self) -> bool:
        """True if endpoint 0 answers a ``role`` probe."""
        return self._probe(self.addresses[0], "role") is not None

    def _fail_write(self, op: str, exc: BaseException, *,
                    promoted: bool) -> NoReturn:
        self._count("failures")
        if promoted:
            raise ShardUnavailableError(
                f"shard {self.index} write {op} failed: {exc} (a replica "
                f"was promoted to leader at {self.leader}; the outcome of "
                f"THIS write is unknown — verify before resubmitting, "
                f"later writes route to the new leader)",
                shard_index=self.index) from exc
        raise ShardUnavailableError(
            f"shard {self.index} leader {self.leader} failed during "
            f"{op}: {exc} (writes are never retried once they may have "
            f"reached the wire, and no replica could be promoted — "
            f"verify the leader state before resubmitting)",
            shard_index=self.index) from exc

    def write_call(self, op: str, **fields):
        """One write, leader-only; re-sent only while provably undelivered.

        A write that *may* have reached the wire is never replayed —
        double-applying ``add``/``remove`` batches would corrupt the
        replica WAL seq lockstep.  A write that provably never left
        (connect refused twice across a backoff) marks the leader dead:
        the most-caught-up replica is promoted and the same bytes are
        issued there, still exactly-once.  A mid-flight failure probes
        the leader — a dead one still triggers promotion so *later*
        writes succeed, but the in-flight write surfaces as unknown.
        """
        self._count("requests")
        self._count("writes")
        outcome, payload = self._attempt_write(op, fields)
        if outcome == "ok":
            return payload
        if outcome == "undelivered":
            # Provably never sent: one counted retry after a backoff is
            # exactly-once safe and absorbs a leader restart blip.
            self._count("retries")
            time.sleep(self.retry_backoff)
            outcome, payload = self._attempt_write(op, fields)
            if outcome == "ok":
                return payload
            if outcome == "undelivered":
                if self._promote_replica():
                    try:
                        return self._call(0, op, fields)
                    except ProtocolError as exc:
                        self._drop(0)
                        self._fail_write(op, exc, promoted=True)
                self._fail_write(op, payload, promoted=False)
            self._fail_write(op, payload, promoted=False)
        # Mid-flight failure on the first attempt.  Distinguish "leader
        # hiccuped" (connection churn, it still answers) from "leader is
        # gone": only the latter elects a replacement, and even then the
        # failed write is surfaced, never replayed.
        time.sleep(self.retry_backoff)
        if self._leader_alive():
            self._fail_write(op, payload, promoted=False)
        promoted = self._promote_replica()
        self._fail_write(op, payload, promoted=promoted)

    def _promote_replica(self) -> bool:
        """Elect and promote the most-caught-up replica to shard leader.

        Candidates are ranked by ``replication_status``: generation
        first (``local_generation``: a promotion compacts into a new
        one, and a seq counts records within one generation only), then
        a leader over its followers, then ``applied_seq``; ties go to
        the lowest endpoint index.  A replica still on a pre-promotion
        generation fails the probes' gate and is no candidate.  The
        winner gets a ``promote`` call (a no-op on a leader another
        coordinator already promoted) and becomes endpoint 0 via
        :meth:`_repoint`.  Serialized
        under ``_promote_lock`` so concurrent failing writes elect
        exactly once: a loser of the lock race re-checks whether a
        promotion already happened and the new leader answers before
        starting its own election.  Returns True when endpoint 0 is a
        freshly (or already) promoted leader.
        """
        with self._promote_lock:
            if self.min_generation is not None and self._leader_alive():
                return True
            candidates = []
            for endpoint in range(1, len(self.addresses)):
                status = self._probe(self.addresses[endpoint],
                                     "replication_status")
                if not isinstance(status, dict):
                    continue
                applied = status.get("applied_seq")
                if not isinstance(applied, int):
                    continue
                generation = status.get("local_generation")
                candidates.append((
                    generation if isinstance(generation, int) else -1,
                    status.get("role") == "leader", applied, -endpoint))
            for *_, neg_endpoint in sorted(candidates, reverse=True):
                endpoint = -neg_endpoint
                result = self._probe(self.addresses[endpoint], "promote")
                if result is None:
                    continue
                generation = result.get("generation") \
                    if isinstance(result, dict) else None
                self._repoint(
                    endpoint,
                    generation if isinstance(generation, int) else None)
                self._count("promotions")
                return True
            return False

    def _repoint(self, endpoint: int, generation: Optional[int]) -> None:
        """Make ``endpoint`` the shard's leader slot (index 0).

        The address/client lists are reordered in one assignment each
        (their length never changes, so a concurrent read sweeping the
        endpoints at worst reroutes once), the demoted ex-leader's dead
        connection is dropped, and the promoted store's generation is
        recorded as the split-brain floor for the connection-time gate.
        """
        self._drop(0)
        self._drop(endpoint)
        order = [endpoint] + [i for i in range(len(self.addresses))
                              if i != endpoint]
        self.addresses = [self.addresses[i] for i in order]
        self._clients = [self._clients[i] for i in order]
        self.leader = self.addresses[0]
        if generation is not None:
            self.min_generation = generation

    def stats_probe(self) -> Optional[dict]:
        """Best-effort ``stats`` read from whichever endpoint answers.

        Deliberately OUTSIDE the failover machinery: no counter is
        bumped (an observability poll must not skew the request/reroute
        counters tests and dashboards reason about), only one sweep is
        made with no backoff sleep, and a dedicated short-lived
        connection is used so a worker-thread stats call never shares a
        socket with the dispatcher's in-flight reads.  ``None`` when no
        endpoint answers.
        """
        for address in self.addresses:
            result = self._probe(address, "stats")
            if isinstance(result, dict):
                return result
        return None

    def close(self) -> None:
        for endpoint in range(len(self.addresses)):
            self._drop(endpoint)


# --------------------------------------------------------------------- #
# the coordinator backend
# --------------------------------------------------------------------- #
class ClusterBackend(_IdSurfaceMixin):
    """A :class:`GraphBackend` whose shards are remote KGServer processes.

    ``shards`` lists the leader ``host:port`` of every shard in shard
    order; ``replicas`` optionally maps a shard index to its replica
    addresses.  The coordinator owns an interner pair (normally loaded
    from the :func:`shard_split` output via :meth:`open`) that assigns
    the global ids used for routing; every batched operation is ONE
    wire call per touched shard, run concurrently over a persistent
    thread pool (wire I/O releases the GIL).  Construction opens no
    connection: an endpoint connects on its first call.

    The id surface (``match_ids_many``, ``count_ids``,
    ``execute_co_partitioned``) is the one read path, and the string
    surface is :class:`~repro.kg.backend._IdSurfaceMixin`'s, derived
    from it as on a local
    :class:`~repro.kg.sharded_backend.ShardedBackend` — including
    bit-identical result ordering, because per-shard results concatenate
    in shard-index order on both sides of the deployment boundary.
    """

    name = "cluster"

    def __init__(self, shards: Sequence[str], *,
                 replicas: Optional[Mapping[int, Sequence[str]]] = None,
                 timeout: Optional[float] = 30.0,
                 retry_backoff: float = DEFAULT_RETRY_BACKOFF,
                 entity_interner: Optional[Interner] = None,
                 relation_interner: Optional[Interner] = None) -> None:
        if not shards:
            raise ValueError("a cluster needs at least one shard server")
        replicas = dict(replicas or {})
        unknown = [index for index in replicas
                   if not 0 <= index < len(shards)]
        if unknown:
            raise ValueError(
                f"replica map names shard indexes {unknown} but there "
                f"are only {len(shards)} shards")
        self.n_shards = len(shards)
        self.entity_interner = entity_interner \
            if entity_interner is not None else Interner()
        self.relation_interner = relation_interner \
            if relation_interner is not None else Interner()
        self._sessions = [
            _ShardSession(index, address, replicas.get(index, ()),
                          timeout=timeout, retry_backoff=retry_backoff)
            for index, address in enumerate(shards)
        ]
        self._pool = ThreadPoolExecutor(max_workers=max(2, self.n_shards),
                                        thread_name_prefix="kg-cluster")
        self._closed = False

    @classmethod
    def open(cls, directory: Union[str, Path], shards: Sequence[str],
             **kwargs) -> "ClusterBackend":
        """Connect to a cluster whose stores came from :func:`shard_split`.

        Loads the coordinator's interner pair — the ids routing hashes —
        from the split directory's top-level tables and validates the
        shard count against the ``cluster.json`` header.
        """
        header, entity_interner, relation_interner = \
            load_cluster_interners(directory)
        if len(shards) != header["n_shards"]:
            raise StorageError(
                f"{directory} was split into {header['n_shards']} shards "
                f"but {len(shards)} shard servers were given")
        return cls(shards, entity_interner=entity_interner,
                   relation_interner=relation_interner, **kwargs)

    # ------------------------------------------------------------------ #
    # plumbing
    # ------------------------------------------------------------------ #
    def _run(self, thunks: Sequence, parallel: bool = True) -> List:
        """Run per-shard jobs concurrently, results in submission order.

        Unlike the in-process backend, the jobs here are dominated by
        socket waits, so concurrency pays off regardless of batch size
        — the ``parallel`` hint from the shared skeleton is ignored.
        """
        if len(thunks) <= 1:
            return [thunk() for thunk in thunks]
        return [future.result()
                for future in [self._pool.submit(thunk)
                               for thunk in thunks]]

    def _scatter(self, items: Sequence, *, classify, empty, shard_call,
                 merge=None) -> List:
        return scatter_gather(
            items, n_shards=self.n_shards, classify=classify, empty=empty,
            shard_call=shard_call, merge=merge, run=self._run)

    # ------------------------------------------------------------------ #
    # mutation — leader-only, routed exactly like ShardedBackend
    # ------------------------------------------------------------------ #
    def add(self, head: str, relation: str, tail: str) -> bool:
        return self.add_many([Triple(head, relation, tail)]) > 0

    def add_many(self, triples: Iterable[Triple]) -> int:
        """Intern locally in first-appearance order (identical to the
        in-process backend, so routing ids match a same-order local
        load), partition by head id, ship ONE ``add_many`` per touched
        shard leader.  Per-shard batches apply atomically; there is no
        cross-shard transaction — a failed shard raises
        :class:`~repro.errors.ShardUnavailableError` after the others
        may have applied, exactly like a crashed in-process bulk load.
        """
        items = list(triples)
        if not items:
            return 0
        rows = intern_id_rows(items, self.entity_interner,
                              self.relation_interner)
        owners = shard_of_ids(rows[:, 0], self.n_shards)
        grouped: Dict[int, List[Triple]] = {}
        for triple, owner in zip(items, owners.tolist()):
            grouped.setdefault(owner, []).append(triple)
        results = self._run([
            (lambda index=index, group=group:
             self._sessions[index].write_call(
                 "add_many", triples=encode_wire_triples(group)))
            for index, group in sorted(grouped.items())
        ])
        return sum(result["added"] for result in results)

    def discard(self, head: str, relation: str, tail: str) -> bool:
        return self.discard_many([Triple.unchecked(head, relation,
                                                   tail)]) > 0

    def discard_many(self, triples: Iterable[Triple]) -> int:
        lookup = self.entity_interner.lookup
        grouped: Dict[int, List[Triple]] = {}
        for triple in triples:
            head_id = lookup(triple.head)
            if head_id is None:
                continue
            grouped.setdefault(shard_of_id(head_id, self.n_shards),
                               []).append(triple)
        if not grouped:
            return 0
        results = self._run([
            (lambda index=index, group=group:
             self._sessions[index].write_call(
                 "remove_many", triples=encode_wire_triples(group)))
            for index, group in sorted(grouped.items())
        ])
        return sum(result["removed"] for result in results)

    def clone_empty(self) -> "GraphBackend":
        """An empty in-process columnar store.

        A copy of a distributed store materializes locally — cloning N
        empty remote servers is not this layer's call to make.
        """
        return ColumnarBackend()

    # ------------------------------------------------------------------ #
    # reads — constants out as symbols, id blocks back re-keyed
    # ------------------------------------------------------------------ #
    def contains(self, head: str, relation: str, tail: str) -> bool:
        where = classify_head(self.entity_interner, self.n_shards, head)
        if where is None:
            return False
        return self._sessions[where].read_call(
            "count", pattern=[head, relation, tail]) > 0

    def __len__(self) -> int:
        return sum(self._run([
            (lambda session=session: session.read_call("len"))
            for session in self._sessions]))

    def _fetch(self, patterns: Sequence[Optional[list]],
               heads: Sequence[Optional[int]]) -> List[np.ndarray]:
        """Per wire pattern, its triples in coordinator ids, in shard
        order: ONE ``match_many`` per touched shard, routed by the
        pattern's coordinator head id (``None``: every shard); a
        ``None`` pattern is statically empty.  The scatter threads only
        fetch; each shard's response is re-keyed whole on this thread
        after the gather.  Not a traced entry point, so a fetch is one
        outermost scatter."""
        n_shards = self.n_shards
        responses: List[List[DecodedBlock]] = [[] for _ in range(n_shards)]

        def classify(position: int):
            if patterns[position] is None:
                return None
            head = heads[position]
            return _BROADCAST if head is None else shard_of_id(head, n_shards)

        def shard_call(index: int, group: List[int]) -> List[list]:
            responses[index] = self._sessions[index].read_call(
                "match_many",
                patterns=[patterns[position] for position in group])
            return [[(index, offset)] for offset in range(len(group))]

        located = self._scatter(
            range(len(patterns)), classify=classify, empty=list,
            shard_call=shard_call,
            merge=lambda parts: [part for shard in parts for part in shard])
        keyed = [rekey_blocks(blocks, self.entity_interner,
                              self.relation_interner)
                 for blocks in responses]
        return [keyed[parts[0][0]][parts[0][1]] if len(parts) == 1 else
                concat_id_blocks([keyed[index][offset]
                                  for index, offset in parts])
                for parts in located]

    def match_many(self, patterns: Sequence[Pattern],
                   sort: bool = False) -> List[List[Triple]]:
        lookup = self.entity_interner.lookup
        heads = [None if pattern[0] is None else lookup(pattern[0])
                 for pattern in patterns]
        wire = [None if pattern[0] is not None and head is None
                else list(pattern)
                for pattern, head in zip(patterns, heads)]
        results = [self._materialize(ids) for ids in self._fetch(wire, heads)]
        if sort:
            for triples in results:
                triples.sort()
        return results

    def count_many(self, patterns: Sequence[Pattern]) -> List[int]:
        return self._scatter(
            patterns,
            classify=lambda pattern: classify_head(
                self.entity_interner, self.n_shards, pattern[0]),
            empty=lambda: 0,
            shard_call=lambda index, group: self._sessions[index].read_call(
                "count_many", patterns=encode_wire_patterns(group)),
            merge=sum)

    def degree_many(self, nodes: Sequence[str]) -> List[int]:
        """Two counts per node (as head, as tail) in one batched call;
        a self-loop counts twice, matching every local backend."""
        counts = self.count_many([pattern for node in nodes for pattern in
                                  ((node, None, None), (None, None, node))])
        return [counts[2 * i] + counts[2 * i + 1]
                for i in range(len(nodes))]

    def _symbols(self, patterns: Sequence[IdPattern]) \
            -> List[Optional[list]]:
        """Id patterns as wire patterns of coordinator symbols; ``None``
        for one with an out-of-range id (statically empty, mirroring the
        service's range check)."""
        entities = self.entity_interner.symbol_table()
        relations = self.relation_interner.symbol_table()
        n_entities, n_relations = len(entities), len(relations)
        wire: List[Optional[list]] = []
        for head, relation, tail in patterns:
            if (head is not None and not 0 <= head < n_entities) \
                    or (relation is not None
                        and not 0 <= relation < n_relations) \
                    or (tail is not None and not 0 <= tail < n_entities):
                wire.append(None)
            else:
                wire.append([None if head is None else entities[head],
                             None if relation is None else relations[relation],
                             None if tail is None else entities[tail]])
        return wire

    def match_ids_many(self, patterns: Sequence[IdPattern]) \
            -> List[np.ndarray]:
        """Batched id-pattern lookup: ONE ``match_many`` per touched
        shard, whatever ids the shards' interners assign.

        Constants go out as the coordinator's symbols; every block comes
        back re-keyed to coordinator ids (one memoised lookup per
        connection's response, on this thread after the gather), and the
        blocks concatenate in shard order — the order the in-process
        backend produces.
        """
        return self._fetch(self._symbols(patterns),
                           [pattern[0] for pattern in patterns])

    def match_ids(self, head_id: Optional[int] = None,
                  relation_id: Optional[int] = None,
                  tail_id: Optional[int] = None) -> np.ndarray:
        return self.match_ids_many([(head_id, relation_id, tail_id)])[0]

    def count_ids(self, head_id: Optional[int] = None,
                  relation_id: Optional[int] = None,
                  tail_id: Optional[int] = None) -> int:
        (wire,) = self._symbols([(head_id, relation_id, tail_id)])
        return 0 if wire is None else self.count_many([tuple(wire)])[0]

    def iter_triples(self) -> Iterator[Triple]:
        return iter(self.match())

    def _entity_degree_counts(self) -> Tuple[np.ndarray, np.ndarray]:
        """(out_degree, in_degree) per coordinator entity id."""
        rows = self.match_ids()
        size = len(self.entity_interner)
        return (np.bincount(rows[:, 0], minlength=size),
                np.bincount(rows[:, 2], minlength=size))

    def _relation_counts(self) -> np.ndarray:
        """Triple count per coordinator relation id."""
        rows = self.match_ids()
        return np.bincount(rows[:, 1], minlength=len(self.relation_interner))

    def execute_co_partitioned(self, queries: Sequence) -> List[np.ndarray]:
        """Star queries answered whole by the shards: ONE scatter round.

        The :func:`~repro.kg.planner.co_partitioned` queries go out
        through ``execute_many``, one ``read_call`` per shard (replica
        routing, retry, fencing and counters as for any read); each
        shard plans and joins locally behind its own result cache; per
        query the shards' id blocks, re-keyed like
        :meth:`match_ids_many`'s, concatenate in shard order.  A query
        with ``select`` goes without its ``limit``: a shard's first *k*
        sorted rows are in ITS id order, not the coordinator's, so the
        limit is left to the caller's projection.
        """
        wire = [encode_wire_query(
            dataclass_replace(query, limit=None)
            if query.select and query.limit is not None else query)
            for query in queries]
        per_query = list(zip(*self._run([
            (lambda session=session: session.read_call(
                "execute_many", queries=wire))
            for session in self._sessions])))
        keyed = iter(rekey_blocks(
            [part for parts in per_query for part in parts],
            self.entity_interner, self.relation_interner))
        return [np.concatenate([next(keyed) for _part in parts])
                for parts in per_query]

    # ------------------------------------------------------------------ #
    # observability + lifecycle
    # ------------------------------------------------------------------ #
    def cluster_stats(self, *, probe_shards: bool = True) -> dict:
        """Per-shard request/retry/reroute counters, the replica read
        share, and (with ``probe_shards``, the default) each shard
        server's result-cache counters — the ``stats`` op of a
        coordinator server includes all of it under ``"cluster"``.

        Counters are snapshotted FIRST, then shards are probed over
        dedicated connections that bump nothing, so reading stats never
        perturbs the numbers being read.  A shard whose endpoints are
        all unreachable reports ``"cache": None`` rather than failing
        the whole stats call.
        """
        totals = {key: 0 for key in
                  ("requests", "retries", "reroutes", "leader_reads",
                   "replica_reads", "writes", "failures", "promotions")}
        shards = []
        for session in self._sessions:
            with session._counter_lock:
                counters = dict(session.counters)
            for key in totals:
                totals[key] += counters.get(key, 0)
            shards.append({"index": session.index,
                           "leader": session.leader,
                           "replicas": list(session.addresses[1:]),
                           **counters})
        reads = totals["leader_reads"] + totals["replica_reads"]
        totals["replica_read_share"] = \
            (totals["replica_reads"] / reads) if reads else 0.0
        if probe_shards:
            cache_keys = ("cache_hits", "cache_misses", "cache_evictions",
                          "cache_invalidations", "cache_entries",
                          "cache_bytes")
            cache_totals = {key: 0 for key in cache_keys}
            reachable = 0
            for shard, session in zip(shards, self._sessions):
                probed = session.stats_probe()
                service = (probed or {}).get("service")
                if not isinstance(service, dict):
                    shard["cache"] = None
                    continue
                reachable += 1
                shard["cache"] = {key: service.get(key, 0)
                                  for key in cache_keys}
                shard["cache"]["enabled"] = bool(
                    service.get("cache_enabled", False))
                for key in cache_keys:
                    cache_totals[key] += int(service.get(key, 0) or 0)
            cache_totals["shards_reporting"] = reachable
            totals["cache"] = cache_totals
        return {"n_shards": self.n_shards,
                "shards": shards,
                "totals": totals}

    def close(self) -> None:
        """Close every connection and the job pool (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._pool.shutdown(wait=True)
        for session in self._sessions:
            session.close()

    def __enter__(self) -> "ClusterBackend":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
