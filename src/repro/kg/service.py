"""A concurrent, batching query service over a :class:`TripleStore`.

The ROADMAP's service-layer milestone: many clients — request-handler
threads of a web front-end, worker processes sharing one on-disk store
directory — issue pattern queries and point lookups concurrently, and
the store answers them through its *batched* APIs rather than one
round-trip per request.

:class:`QueryService` is that multiplexer:

* clients call :meth:`execute` / :meth:`execute_batch` /
  :meth:`lookup_many` (or :meth:`submit` for a future) from any number
  of threads;
* requests land on an internal queue; a single **dispatcher** thread
  drains whatever has accumulated (up to ``max_batch`` requests),
  plans every pattern query in the batch (pure analysis, no store
  round-trip), fetches all their patterns in ONE shared
  ``match_ids_many`` call and joins each plan's blocks fewest rows
  first (:func:`repro.kg.executor.execute_plans_cursors`), and answers
  point lookups with one more ``match_ids_many`` call — then resolves
  each request's future to an :class:`~repro.kg.executor.IdBlock`, the
  only read result there is (an empty or variable-free answer is a
  block too).  Ids become strings only in ``IdBlock.materialize()``,
  never on the dispatcher: the blocking facades call it in the
  caller's thread, :class:`~repro.kg.server.KGServer` where it encodes
  the response.  The served store must therefore have an id-capable
  backend;
* because only the dispatcher touches the backend (a cache probe reads
  nothing but its interners' symbol maps), the service is safe over
  backends whose lazy attach/consolidate steps are not thread-safe,
  while an in-memory sharded backend still parallelizes *inside* each
  batched call across its shard pool;
* huge results stream instead of materializing: :meth:`open_cursor` /
  :meth:`open_match_cursor` park the block :meth:`submit` /
  :meth:`submit_lookup` answered as a
  :class:`~repro.kg.executor.ResultCursor` in a TTL-evicted table, and
  :meth:`fetch_cursor` pages it out on the caller's thread — a page is
  a slice of rows already computed, so the dispatcher, which serves
  backend work and nothing else, never sees it.  Every cursor-lifecycle
  violation (expiry, double close, unknown id, non-positive page)
  raises a typed :class:`~repro.errors.CursorError`.

The service is also the store's **exclusive writer**: :meth:`add_many`
/ :meth:`remove_many` / :meth:`compact` enqueue write requests that the
same single dispatcher serves — writes serialize against each other and
against reads with no extra locking, reads keep batching, and within
one dispatch round every read observes the state *after* that round's
writes.  Each acked write batch bumps a monotonically increasing
``mutation_epoch`` (exposed in :attr:`stats`); on a live store
(:meth:`TripleStore.create_live`) the batch is WAL-logged and fsync'd
before its future resolves.  Writes against a store opened read-only
from a plain snapshot directory raise a typed
:class:`~repro.errors.StorageError` at submit time.  Open cursors keep
paging the snapshot they materialized — a write never splices
mixed-epoch rows into an existing cursor.

Hot queries short-circuit all of the above: :meth:`QueryService.submit`
probes a **result cache** on the caller's thread before a pattern query
is queued, and a hit comes back resolved, never touching the queue or
the dispatcher — key = :func:`repro.kg.planner.cache_key` (interned
pattern ids + select, limit-independent), value = the full deduplicated
:class:`~repro.kg.executor.IdBlock` (strings still materialize per
request/page, so the binary codec ships cached blocks without
re-stringifying), LRU-evicted under a byte budget.  A miss carries its
key to the dispatcher, which fills the entry.  A write drops exactly
the entries with a pattern one of its triples matches, variables read
as wildcards — no other entry's answer can change — and a store swap or
a failed apply drops them all; ``compact()`` changes no triple, so
compaction keeps the cache warm.  Three invariants make a hit as good
as a served read (docs/architecture.md, "Result cache"): a write's
entries go *before* its ack, the store and the cache swap in one
critical section, and every hit and miss is counted once.

Construction warms the backend up (attaches memmaps, folds any pending
overlay) so steady-state dispatch never pays a consolidation.  The
store must not be mutated *around* a running service — all mutations go
through the service's write surface.

For multi-process deployments, every process opens the same columnar
store directory via :func:`QueryService.open` — ``TripleStore.open``
memory-maps the column files read-only, so the OS page cache is shared
and each process runs its own dispatcher.
"""

from __future__ import annotations

import queue
import secrets
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import replace as dataclass_replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import CursorError, QueryError, ReproError, StorageError
from repro.kg.backend import Pattern, empty_id_block
from repro.kg.executor import (Binding, IdBlock, ResultCursor,
                               execute_co_partitioned, execute_plans_cursors,
                               id_backend)
from repro.kg.planner import (PatternQuery, cache_key as plan_cache_key,
                              key_triple, plan_queries, validate_limit)
from repro.kg.store import TripleStore
from repro.kg.triple import Triple

#: Kinds of requests the service multiplexes.
_QUERY = "query"                 # pattern query -> bindings IdBlock
_LOOKUP = "lookup"               # point lookup  -> triples IdBlock
_ID_LOOKUP = "id-lookup"         # raw id pattern -> triples IdBlock
_COUNT = "count"                 # point pattern -> int
_ADD = "add"                     # List[Triple] -> newly-added count
_REMOVE = "remove"               # List[Triple] -> removed count
_COMPACT = "compact"             # crash_hook | None -> new generation
_SWAP = "swap-store"             # TripleStore -> the replaced store

#: Kinds the dispatcher serves before any read in the same batch.
_WRITE_KINDS = frozenset((_ADD, _REMOVE, _COMPACT, _SWAP))

#: Sentinel shoved down the queue to stop the dispatcher.
_SHUTDOWN = object()

#: Default idle lifetime of an open cursor, seconds.
DEFAULT_CURSOR_TTL = 300.0

#: Default byte budget of the hot-query result cache (0 disables it).
DEFAULT_CACHE_BYTES = 64 * 1024 * 1024


def _resolve(future: "Future", result=None, exception: Optional[BaseException] = None) -> None:
    """Resolve a future, tolerating client-side cancellation.

    A client may ``cancel()`` a still-pending future before its batch is
    dispatched; ``set_result`` on a cancelled future raises
    ``InvalidStateError``, which would kill the dispatcher thread and
    hang every later request — the cancelled request just gets dropped
    instead.
    """
    if not future.set_running_or_notify_cancel():
        return
    if exception is not None:
        future.set_exception(exception)
    else:
        future.set_result(result)


def _interned_patterns(backend):
    """Resolver for string point patterns: constants interned to ids;
    ``None`` for a pattern naming a symbol the store never interned."""
    entity_lookup = backend.entity_interner.lookup
    relation_lookup = backend.relation_interner.lookup

    def resolve(pattern: Pattern) -> Optional[Tuple]:
        head, relation, tail = pattern
        head_id = relation_id = tail_id = None
        if head is not None:
            head_id = entity_lookup(head)
            if head_id is None:
                return None
        if relation is not None:
            relation_id = relation_lookup(relation)
            if relation_id is None:
                return None
        if tail is not None:
            tail_id = entity_lookup(tail)
            if tail_id is None:
                return None
        return head_id, relation_id, tail_id

    return resolve


def _ranged_patterns(backend):
    """Resolver for raw id patterns: passed through; ``None`` for a
    pattern holding an id beyond the interner tables."""
    n_entities = len(backend.entity_interner)
    n_relations = len(backend.relation_interner)

    def resolve(ids: Tuple) -> Optional[Tuple]:
        for identifier, limit in zip(ids, (n_entities, n_relations,
                                           n_entities)):
            if identifier is not None and not 0 <= identifier < limit:
                return None
        return ids

    return resolve


class _Request(Future):
    """One queued client request, and the future its client holds;
    ``picked``: the ``perf_counter_ns`` the dispatcher took it at."""

    def __init__(self, kind: str, payload) -> None:
        super().__init__()
        self.kind = kind
        self.payload = payload
        self.picked: Optional[int] = None
        # Set by a missed probe: the plan cache key the result fills,
        # and the store whose ids it names.
        self.cache_key: Optional[Tuple] = None
        self.keyed: Optional[TripleStore] = None


def _slot(mask: int, terms: Sequence) -> Tuple:
    """A reverse-index slot: the mask of bound positions (bit ``p`` set:
    position ``p`` holds a constant), then the terms there."""
    return (mask,) + tuple(term for position, term in enumerate(terms)
                           if mask >> position & 1)


def _slots(key: Tuple) -> set:
    """A cache key's slots, one per pattern.  Variables are the key's
    only strings (constants are ids or ``("#", term)``)."""
    terms = key[1]
    patterns = [terms[start:start + 3] for start in range(0, len(terms), 3)]
    return {_slot(sum(1 << position for position, term in enumerate(pattern)
                      if not isinstance(term, str)), pattern)
            for pattern in patterns}


class _ResultCache:
    """Hot-query result cache: plan cache key → the full deduplicated
    :class:`~repro.kg.executor.IdBlock`, LRU-evicted under a byte budget.

    A reverse index maps each pattern's slot — its mask of bound
    positions and its bound terms — to the keys of the entries holding
    it, so :meth:`drop_matching` finds every entry a written triple
    matches with one probe per mask.  An entry enters the index on
    :meth:`put` and leaves it when evicted or dropped.

    Every call runs under the service's stats lock: :meth:`get` on any
    submitting thread, everything else on the dispatcher, so
    :attr:`QueryService.stats` reads one consistent snapshot.  ``misses``
    and ``invalidations`` are counted by the service (once per served
    miss, once per dispatch round with writes).  Cached blocks are
    immutable — a hit serves zero-copy slices of the stored
    array, and invalidation merely drops references, so views handed to
    still-open cursors survive a drop unchanged.  An entry bigger than
    the whole budget is never admitted (it could only thrash).
    """

    __slots__ = ("max_bytes", "bytes", "entries", "hits", "misses",
                 "evictions", "invalidations", "_table", "_index")

    #: Per-entry bookkeeping charge on top of the raw row bytes (key
    #: tuple, table slot, block header) so a flood of tiny results
    #: still counts against the budget.
    ENTRY_OVERHEAD = 128

    def __init__(self, max_bytes: int) -> None:
        self.max_bytes = int(max_bytes)
        self.bytes = 0
        self.entries = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self._table: "OrderedDict[Tuple, Tuple[int, IdBlock]]" = OrderedDict()
        self._index: Dict[Tuple, set] = {}

    @classmethod
    def _cost(cls, block: IdBlock) -> int:
        return int(block.rows.nbytes) + cls.ENTRY_OVERHEAD

    def get(self, key: Tuple) -> Optional[IdBlock]:
        entry = self._table.get(key)
        if entry is None:
            return None
        self._table.move_to_end(key)
        self.hits += 1
        return entry[1]

    def put(self, key: Tuple, block: IdBlock) -> None:
        cost = self._cost(block)
        if cost > self.max_bytes:
            return
        previous = self._table.pop(key, None)
        if previous is not None:
            self.bytes -= previous[0]
        while self._table and self.bytes + cost > self.max_bytes:
            evicted_key, (evicted_cost, _block) = \
                self._table.popitem(last=False)
            self._unindex(evicted_key)
            self.bytes -= evicted_cost
            self.evictions += 1
        if previous is None:
            for slot in _slots(key):
                self._index.setdefault(slot, set()).add(key)
        self._table[key] = (cost, block)
        self.bytes += cost
        self.entries = len(self._table)

    def _unindex(self, key: Tuple) -> None:
        for slot in _slots(key):
            keys = self._index[slot]
            keys.discard(key)
            if not keys:
                del self._index[slot]

    def drop_matching(self, triples: Sequence[Tuple]) -> None:
        """Drop every entry with a pattern one of ``triples`` (in
        :func:`~repro.kg.planner.key_triple` form) matches, variables
        read as wildcards; nothing else can change its answer."""
        doomed = set()
        for triple in triples:
            for mask in range(8):
                doomed.update(self._index.get(_slot(mask, triple), ()))
        for key in doomed:
            self.bytes -= self._table.pop(key)[0]
            self._unindex(key)
        self.entries = len(self._table)

    def clear(self) -> None:
        self._table.clear()
        self._index.clear()
        self.bytes = 0
        self.entries = 0


class QueryService:
    """Multiplexes concurrent pattern queries into backend batch calls.

    The dispatcher thread owns the backend and serves nothing else; the
    cursor table and result-cache hits are served on the caller's
    thread under the stats lock.

    Parameters
    ----------
    store:
        The (already built or opened) store to serve; its backend must
        be id-capable (:class:`~repro.errors.QueryError` otherwise).
    max_batch:
        Upper bound on how many requests one dispatch round coalesces.
        Larger batches amortize planning and fetch round-trips better;
        the default is plenty to saturate the batched backend APIs.
    cache_bytes:
        Byte budget of the hot-query result cache (``0`` disables it).
        :meth:`submit` probes it on the calling thread and answers a
        hit there; a miss is queued with its key and the dispatcher
        fills the entry.  Entries are the full limit-stripped id-row
        blocks keyed by :func:`~repro.kg.planner.cache_key`,
        LRU-evicted under this budget.  A write drops the entries with
        a pattern one of its triples matches (a swap or a failed apply
        drops all; ``compact()`` drops none) *before* its ack, so no
        read sent after an ack can hit a stale entry.

    Use as a context manager or call :meth:`close` — the dispatcher is
    a daemon thread, but closing deterministically drains in-flight
    requests first.
    """

    def __init__(self, store: TripleStore, *, max_batch: int = 256,
                 cursor_ttl: float = DEFAULT_CURSOR_TTL,
                 cache_bytes: int = DEFAULT_CACHE_BYTES) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if cursor_ttl <= 0:
            raise ValueError(f"cursor_ttl must be > 0 seconds, got {cursor_ttl}")
        if cache_bytes < 0:
            raise ValueError(f"cache_bytes must be >= 0, got {cache_bytes}")
        self.store = store
        self.max_batch = int(max_batch)
        self.cursor_ttl = float(cursor_ttl)
        self._queue: "queue.SimpleQueue" = queue.SimpleQueue()
        self._closed = False
        self._close_lock = threading.Lock()
        # Open cursors: id -> (ResultCursor, monotonic deadline), read
        # and written only under _stats_lock.
        self._cursors: Dict[str, Tuple[ResultCursor, float]] = {}
        # Observability: how much multiplexing actually happens.  All
        # counters mutate under _stats_lock so `stats` can read one
        # consistent snapshot (held only for few-instruction bumps and
        # O(1) cursor-table steps, never across backend calls).
        self._stats_lock = threading.Lock()
        self.requests_served = 0
        self.batches_dispatched = 0
        self.largest_batch = 0
        self.cursors_opened = 0
        self.cursors_expired = 0
        # Monotonically increasing write clock: +1 per acked write batch.
        self.mutation_epoch = 0
        self.write_batches = 0
        self._cache: Optional[_ResultCache] = (
            _ResultCache(cache_bytes) if cache_bytes > 0 else None)
        # Force lazy attach/consolidation before concurrent dispatch
        # starts.  ``count_ids()`` touches the consolidated id surface
        # without copying any column data.
        id_backend(store).count_ids()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="kg-query-service", daemon=True)
        self._dispatcher.start()

    @classmethod
    def open(cls, directory: Union[str, Path], *, max_batch: int = 256,
             cursor_ttl: float = DEFAULT_CURSOR_TTL,
             cache_bytes: int = DEFAULT_CACHE_BYTES) -> "QueryService":
        """Open a saved store directory (a snapshot or a live store) and
        serve it: :meth:`TripleStore.open` maps its columns."""
        return cls(TripleStore.open(directory), max_batch=max_batch,
                   cursor_ttl=cursor_ttl, cache_bytes=cache_bytes)

    @property
    def stats(self) -> Dict[str, int]:
        """A consistent snapshot of the multiplexing counters.

        ``batches_dispatched < requests_served`` is the signature of
        coalescing actually happening (the first request of a burst can
        only ever dispatch solo).  Taken under the same lock every
        counter bump holds (a hit's included), so the fields cohere —
        e.g. ``cache_hits + cache_misses`` never transiently exceeds
        the pattern queries served.
        """
        with self._stats_lock:
            cache = self._cache
            return {
                "requests_served": self.requests_served,
                "batches_dispatched": self.batches_dispatched,
                "largest_batch": self.largest_batch,
                "cursors_opened": self.cursors_opened,
                "cursors_expired": self.cursors_expired,
                "open_cursors": len(self._cursors),
                "max_batch": self.max_batch,
                "mutation_epoch": self.mutation_epoch,
                "write_batches": self.write_batches,
                "writable": self.store.writable,
                "cache_enabled": cache is not None,
                "cache_max_bytes": cache.max_bytes if cache else 0,
                "cache_bytes": cache.bytes if cache else 0,
                "cache_entries": cache.entries if cache else 0,
                "cache_hits": cache.hits if cache else 0,
                "cache_misses": cache.misses if cache else 0,
                "cache_evictions": cache.evictions if cache else 0,
                "cache_invalidations": cache.invalidations if cache else 0,
            }

    def _apply_swap(self, new_store: TripleStore) -> TripleStore:
        """Dispatcher-side half of :meth:`swap_store`."""
        new_store.backend.count_ids()
        # Invariant 2: the store and the cache change in ONE critical
        # section, the one a probe keys and looks up in — no key of the
        # new store's ids ever meets an entry of the old one.
        with self._stats_lock:
            old_store, self.store = self.store, new_store
            if self._cache is not None:
                self._cache.clear()
        return old_store

    # ------------------------------------------------------------------ #
    # client surface (thread-safe)
    # ------------------------------------------------------------------ #
    def submit(self, query: PatternQuery) -> "Future":
        """Enqueue one query; returns a future yielding its bindings as
        an :class:`~repro.kg.executor.IdBlock`.  A result-cache hit
        returns it already resolved, answered on this thread."""
        request = _Request(_QUERY, query)
        if self._cache is None or not self._probe(request):
            self._enqueue(request)
        return request

    def submit_lookup(self, pattern: Pattern) -> "Future":
        """Enqueue one point lookup; future yields a triples
        :class:`~repro.kg.executor.IdBlock`.

        Point lookups take constants and ``None`` wildcards only — a
        ``?variable`` here is almost certainly a pattern query routed to
        the wrong entry point, and would otherwise silently match
        nothing; use :meth:`submit` for variables.
        """
        return self._enqueue(_Request(_LOOKUP, self._checked_pattern(pattern)))

    @staticmethod
    def _checked_pattern(pattern: Pattern) -> Pattern:
        pattern = tuple(pattern)
        for term in pattern:
            if isinstance(term, str) and term.startswith("?"):
                raise QueryError(
                    f"point lookup got variable term {term!r}; use "
                    f"submit()/execute() with a PatternQuery for variables "
                    f"(wildcards here are spelled None)")
        return pattern

    def execute(self, query: PatternQuery) -> List[Binding]:
        """Run one query, blocking until its batch is dispatched; the
        bindings materialize here, in the caller's thread."""
        return self.submit(query).result().materialize()

    def execute_batch(self, queries: Sequence[PatternQuery]
                      ) -> List[List[Binding]]:
        """Run a client-side batch; one future per query, awaited together."""
        futures = [self.submit(query) for query in queries]
        return [future.result().materialize() for future in futures]

    def lookup_many(self, patterns: Sequence[Pattern]) -> List[List[Triple]]:
        """Batched point lookups ((head, relation, tail), ``None`` wildcards)."""
        futures = [self.submit_lookup(pattern) for pattern in patterns]
        return [future.result().materialize() for future in futures]

    def submit_id_lookup(self, id_pattern) -> "Future":
        """Enqueue one **raw id-space** lookup; future yields a triples
        :class:`~repro.kg.executor.IdBlock`.

        The pattern is ``(head_id, relation_id, tail_id)`` with ``None``
        wildcards — this store's own interned ids.  Nothing in the
        package calls it (a coordinator sends symbols); it stays as the
        ``match_ids_many`` op's server side.
        """
        checked = []
        for term in tuple(id_pattern):
            if term is None:
                checked.append(None)
            elif isinstance(term, (int, np.integer)) \
                    and not isinstance(term, bool):
                checked.append(int(term))
            else:
                raise QueryError(
                    f"id patterns take integer ids and None wildcards, "
                    f"got {term!r}")
        if len(checked) != 3:
            raise QueryError(
                f"id patterns have exactly 3 terms, got {len(checked)}")
        return self._enqueue(_Request(_ID_LOOKUP, tuple(checked)))

    def match_ids_many(self, id_patterns: Sequence) -> List[IdBlock]:
        """Batched raw id-space lookups (one backend call per round)."""
        futures = [self.submit_id_lookup(pattern)
                   for pattern in id_patterns]
        return [future.result() for future in futures]

    def submit_count(self, pattern: Pattern) -> "Future":
        """Enqueue one pattern count; future yields ``int``."""
        return self._enqueue(_Request(_COUNT, self._checked_pattern(pattern)))

    def count_many(self, patterns: Sequence[Pattern]) -> List[int]:
        """Batched pattern counts (``None`` wildcards; one backend call)."""
        futures = [self.submit_count(pattern) for pattern in patterns]
        return [future.result() for future in futures]

    # ------------------------------------------------------------------ #
    # writes (the exclusive-writer surface)
    # ------------------------------------------------------------------ #
    def _checked_write(self, triples) -> List[Triple]:
        """Validate a write batch up front, in the caller's thread.

        Refusing read-only stores *here* means the typed
        :class:`~repro.errors.StorageError` surfaces before anything is
        enqueued or logged, and reaches remote clients as itself rather
        than a generic wire error.
        """
        if not self.store.writable:
            raise StorageError(
                "store was opened read-only from a snapshot directory; "
                "writes need a live store (TripleStore.create_live / a "
                "live.json directory) or an in-memory store")
        items = list(triples)
        for item in items:
            if not isinstance(item, Triple):
                raise QueryError(
                    f"write batches take Triple items, got "
                    f"{type(item).__name__!s}")
        return items

    def submit_add(self, triples: Sequence[Triple]) -> "Future":
        """Enqueue one add batch; future yields the newly-added count.

        The batch is applied atomically with respect to every read the
        service serves: a concurrent query sees none or all of it.  On
        a live store the future resolves only after the batch's WAL
        record is fsync'd.
        """
        return self._enqueue(_Request(_ADD, self._checked_write(triples)))

    def add_many(self, triples: Sequence[Triple]) -> int:
        """Durably add a batch of triples; returns the newly-added count."""
        return self.submit_add(triples).result()

    def submit_remove(self, triples: Sequence[Triple]) -> "Future":
        """Enqueue one remove batch; future yields the removed count."""
        return self._enqueue(_Request(_REMOVE, self._checked_write(triples)))

    def remove_many(self, triples: Sequence[Triple]) -> int:
        """Durably remove a batch of triples; returns the removed count."""
        return self.submit_remove(triples).result()

    def compact(self, *, crash_hook=None) -> int:
        """Fold the live store's WAL into a new snapshot generation.

        Serialized through the dispatcher like any write, so it never
        races a mutation; returns the new generation.  Raises
        :class:`~repro.errors.StorageError` when the store is not live.
        ``crash_hook`` is the fault-injection hook of
        :meth:`TripleStore.compact` (tests only).
        """
        return self._enqueue(_Request(_COMPACT, crash_hook)).result()

    def swap_store(self, new_store: TripleStore) -> TripleStore:
        """Atomically replace the served store; returns the old one.

        The replica re-bootstrap handoff: after a follower fetches a new
        snapshot generation over the wire it opens the adopted directory
        as a fresh :class:`TripleStore` and swaps it in here.  The swap
        is serialized through the dispatcher like any write, so no read
        ever observes half-old, half-new state; the result cache is
        dropped in the same critical section (the new store has its own
        interners, so cached id blocks are meaningless against it).
        Closing the returned old store is the caller's job — blocks and
        open cursors resolved before the swap carry the old store's
        symbol tables and keep stringifying against them.  The new store
        must be id-capable too (:class:`~repro.errors.QueryError`, raised
        here, before anything is enqueued).
        """
        id_backend(new_store)
        return self._enqueue(_Request(_SWAP, new_store)).result()

    # ------------------------------------------------------------------ #
    # cursors (paged results; remote clients stream through these)
    # ------------------------------------------------------------------ #
    def open_cursor(self, query: PatternQuery) -> str:
        """Execute ``query`` into a server-side cursor; returns its id.

        The cursor holds the compact id-row projection (strings
        materialize per fetched page) and lives until :meth:`close_cursor`
        or ``cursor_ttl`` seconds of inactivity, whichever comes first.
        The query runs through :meth:`submit`, so it batches and hits
        the result cache like any other.
        """
        return self.register_cursor(self.submit(query).result())

    def open_match_cursor(self, pattern: Pattern) -> str:
        """Point-lookup counterpart of :meth:`open_cursor` (pages triples)."""
        return self.register_cursor(self.submit_lookup(pattern).result())

    def fetch_cursor(self, cursor_id: str, max_rows: int) -> Tuple:
        """Return ``(next page, exhausted)`` and refresh the cursor's TTL.

        The page is an :class:`~repro.kg.executor.IdBlock` —
        :meth:`~repro.kg.executor.IdBlock.materialize` it for strings.
        Raises :class:`~repro.errors.CursorError` for
        an unknown, closed or expired cursor, and for a non-positive
        ``max_rows`` — never a silently partial result.
        """
        with self._stats_lock:
            cursor = self._lookup_cursor(cursor_id)
            page = cursor.fetch_block(max_rows)
            exhausted = cursor.exhausted
            if exhausted:
                # Release the rows now rather than pin them for the TTL
                # (clients that iterate to exhaustion never close).  The
                # id stays valid: later fetches page zero rows.
                cursor.close()
                cursor = ResultCursor(cursor.block)
            self._cursors[cursor_id] = (cursor,
                                        time.monotonic() + self.cursor_ttl)
        return page, exhausted

    def close_cursor(self, cursor_id: str) -> None:
        """Release a cursor.  Closing one twice (or an unknown/expired id)
        raises :class:`~repro.errors.CursorError`."""
        with self._stats_lock:
            self._lookup_cursor(cursor_id).close()
            del self._cursors[cursor_id]

    def _enqueue(self, request: _Request) -> "Future":
        # The closed-check and the put share the close lock: otherwise a
        # request could slip into the queue after close() has drained it
        # (closed flag read, preempted, close runs fully, then put) and
        # its future would never resolve — a hung client.
        with self._close_lock:
            self._check_open()
            self._queue.put(request)
        return request

    def _probe(self, request: _Request) -> bool:
        """Answer a pattern query from the result cache, on the caller's
        thread: True for a hit, resolved here.

        The key is computed and looked up under ONE ``_stats_lock``
        hold, the lock :meth:`_apply_swap` swaps under.  A miss keeps
        its key for the dispatcher to fill; a query whose key or limit
        is malformed is left to the planner, which raises its typed
        error.
        """
        query = request.payload
        try:
            validate_limit(query.limit)
        except QueryError:
            return False
        with self._stats_lock:
            self._check_open()
            try:
                key = plan_cache_key(self.store.backend, query)
            except Exception:
                return False
            block = self._cache.get(key)
            if block is None:
                request.cache_key, request.keyed = key, self.store
                return False
            # Invariant 3: a hit is served here, counted with its hit.
            self.requests_served += 1
        _resolve(request, block if query.limit is None
                 else block[:query.limit])
        return True

    def _check_open(self) -> None:
        # Called under _close_lock (enqueue) or _stats_lock (the cursor
        # table, which close() releases under it after setting the flag).
        if self._closed:
            raise QueryError("QueryService is closed")

    # ------------------------------------------------------------------ #
    # dispatcher (single thread; the only backend toucher)
    # ------------------------------------------------------------------ #
    def _dispatch_loop(self) -> None:
        while True:
            first = self._queue.get()
            if first is _SHUTDOWN:
                return
            batch: List[_Request] = [first]
            shutdown = False
            while len(batch) < self.max_batch:
                try:
                    nxt = self._queue.get_nowait()
                except queue.Empty:
                    break
                if nxt is _SHUTDOWN:
                    shutdown = True
                    break
                batch.append(nxt)
            try:
                self._serve(batch)
            except BaseException as exc:
                # The dispatcher must never die with futures in hand:
                # a request mid-serve when something as blunt as a
                # KeyboardInterrupt-class error escapes would otherwise
                # never resolve — its client blocks forever and close()
                # can only drain the queue, not the lost batch.
                failure = QueryError(f"dispatch failed: {exc!r}")
                failure.__cause__ = exc
                for request in batch:
                    if not request.done():
                        _resolve(request, exception=failure)
            if shutdown:
                return

    def _serve(self, batch: List[_Request]) -> None:
        with self._stats_lock:
            self.batches_dispatched += 1
            self.largest_batch = max(self.largest_batch, len(batch))
            self.requests_served += len(batch)
            if self._cache is not None:
                # Invariant 3: a miss counts once, when it is served.
                self._cache.misses += sum(request.cache_key is not None
                                          for request in batch)
            self._evict_expired_cursors()
        by_kind: Dict[str, List[_Request]] = {}
        writes: List[_Request] = []
        picked = time.perf_counter_ns()
        for request in batch:
            request.picked = picked
            if request.kind in _WRITE_KINDS:
                writes.append(request)
            else:
                by_kind.setdefault(request.kind, []).append(request)
        # Writes go first, in arrival order (add/remove of the same
        # triple must not commute), so every read in this round
        # observes one consistent post-write epoch — never a batch
        # half-applied around it.
        if writes:
            self._serve_writes(writes)
        queries = by_kind.get(_QUERY, [])
        if queries:
            self._serve_queries(queries)
        lookups = by_kind.get(_LOOKUP, [])
        if lookups:
            self._serve_id_lookups(lookups, _interned_patterns)
        id_lookups = by_kind.get(_ID_LOOKUP, [])
        if id_lookups:
            self._serve_id_lookups(id_lookups, _ranged_patterns)
        counts = by_kind.get(_COUNT, [])
        if counts:
            self._serve_counts(counts)

    def _serve_writes(self, requests: List[_Request]) -> None:
        """Apply write batches one by one, in arrival order.

        Log-then-apply-then-ack: on a live store ``TripleStore`` fsyncs
        the batch's WAL record before applying it, and the future (the
        ack) resolves only after both — a batch whose ack was observed
        is recoverable, a batch whose ack never arrived may or may not
        be.

        Each write drops, before its ack, exactly the result-cache
        entries with a pattern one of its ADD/REMOVE triples matches
        (variables read as wildcards): no other write can change a
        conjunctive answer.  An ADD/REMOVE whose apply *failed* drops
        the whole cache, and so does a store SWAP (the adopted store's
        interners share nothing with the cached id blocks).  COMPACT
        keeps it: compaction changes the on-disk generation, not the
        triple set or the interners.  ``cache_invalidations`` counts
        the rounds that dropped.
        """
        invalidated = False
        for request in requests:
            # Re-read self.store per request: a SWAP earlier in this
            # round must route the rest of the round to the new store.
            store = self.store
            # The written triples in cache-key form, keyed before the
            # apply interns them; None: drop the whole cache.
            written = None
            if self._cache is not None and request.kind in (_ADD, _REMOVE):
                written = [key_triple(store.backend, triple)
                           for triple in request.payload]
            result = failure = None
            try:
                if request.kind == _ADD:
                    result = store.add_many(request.payload)
                elif request.kind == _REMOVE:
                    result = store.remove_many(request.payload)
                elif request.kind == _SWAP:
                    result = self._apply_swap(request.payload)
                else:
                    result = store.compact(crash_hook=request.payload)
            except Exception as exc:
                failure, written = exc, None
            if request.kind != _COMPACT:
                with self._stats_lock:
                    if failure is None:
                        self.mutation_epoch += 1
                        self.write_batches += 1
                    # Invariant 1: invalidate, then ack.  Resolving runs
                    # the ack (a server reply, a done-callback) at once,
                    # and the next read probes on the reader's thread.
                    if self._cache is not None:
                        if written is None:
                            self._cache.clear()
                        else:
                            self._cache.drop_matching(written)
                        if not invalidated:
                            self._cache.invalidations += 1
                            invalidated = True
            _resolve(request, result, failure)

    def _serve_queries(self, requests: List[_Request]) -> None:
        queries = [self._plannable_query(request) for request in requests]
        # Star queries a cluster backend answers whole skip planning; if
        # that round fails, the planned path lands the error per request.
        try:
            pushed = execute_co_partitioned(self.store, queries)
        except ReproError:
            pushed = [None] * len(requests)
        rest = []
        for request, query, cursor in zip(requests, queries, pushed):
            if cursor is None:
                rest.append((request, query))
            else:
                _resolve(request, self._maybe_cache_result(request, cursor))
        try:
            # The fast path: the whole batch validates in one call.
            plans = plan_queries([query for _request, query in rest])
            planned = [request for request, _query in rest]
        except Exception:
            # Some query in the batch is malformed; re-plan one by one
            # so the error lands on the offending request only.
            plans, planned = [], []
            for request, query in rest:
                try:
                    plans.append(plan_queries([query])[0])
                    planned.append(request)
                except Exception as exc:
                    _resolve(request, exception=exc)
        if not planned:
            return
        try:
            cursors = execute_plans_cursors(self.store, plans)
        except Exception as exc:
            # The one fetch round failed (a shard with no live
            # endpoint): every planned request gets the typed error;
            # nothing is retried one by one.
            for request in planned:
                _resolve(request, exception=exc)
            return
        for request, cursor in zip(planned, cursors):
            _resolve(request, self._maybe_cache_result(request, cursor))

    @staticmethod
    def _plannable_query(request: _Request) -> PatternQuery:
        """The query the miss path actually executes.

        Cacheable queries plan with ``limit`` stripped — execution only
        ever applies a limit as the final projection slice, so the full
        block costs the same fetch/join work and every limit variant of
        the query can be served from the one cached entry.  The
        original limit was already validated by the probe.
        """
        query = request.payload
        if request.cache_key is not None and query.limit is not None:
            return dataclass_replace(query, limit=None)
        return query

    def _maybe_cache_result(self, request: _Request,
                            cursor: ResultCursor) -> IdBlock:
        """Insert a cacheable executed result; return the block to serve.

        The executed cursor holds the FULL block (the limit was
        stripped before planning), so the request is handed a zero-copy
        limited view of it.  Empty answers are pinned too: an empty join
        costs its fetch round like any other.
        """
        block = cursor.block
        key = request.cache_key
        if key is None:
            return block
        with self._stats_lock:
            # The key names ids of the store it was probed against: a
            # swap served since (this round's included) keeps it out.
            if request.keyed is self.store:
                self._cache.put(key, block)
        limit = request.payload.limit
        return block if limit is None else block[:limit]

    def _serve_id_lookups(self, requests: List[_Request], resolver) -> None:
        """Batched point lookups answered as triples blocks: ONE
        ``match_ids_many`` call.

        ``resolver(backend)`` builds the payload → id-pattern function
        (:func:`_interned_patterns` for string terms,
        :func:`_ranged_patterns` for raw ids).  A pattern it resolves to
        ``None`` matches nothing by definition and is answered as an
        empty block without a backend call.
        """
        backend = self.store.backend
        resolve = resolver(backend)
        empty = empty_id_block()
        resolved = [resolve(request.payload) for request in requests]
        fetchable = [ids for ids in resolved if ids is not None]
        try:
            blocks = iter(backend.match_ids_many(fetchable)
                          if fetchable else [])
            rows_per_request = [empty if ids is None else next(blocks)
                                for ids in resolved]
        except Exception as exc:
            for request in requests:
                _resolve(request, exception=exc)
            return
        for request, rows in zip(requests, rows_per_request):
            _resolve(request, IdBlock.over(
                backend, (), ("e", "r", "e"), rows, triples=True))

    def _serve_counts(self, requests: List[_Request]) -> None:
        try:
            results = self.store.count_many([request.payload
                                             for request in requests])
        except Exception as exc:
            # Where a coordinator's shard with no live endpoint surfaces
            # (ShardUnavailableError): the batch was ONE count_many, so
            # each request gets it once and none is re-attempted.
            for request in requests:
                _resolve(request, exception=exc)
            return
        for request, result in zip(requests, results):
            _resolve(request, int(result))

    # ------------------------------------------------------------------ #
    # cursor table (every step O(1) and under _stats_lock)
    # ------------------------------------------------------------------ #
    def register_cursor(self, block: IdBlock) -> str:
        """Park an answered block as a cursor; returns its id."""
        cursor_id = f"cur-{secrets.token_hex(8)}"
        with self._stats_lock:
            self._check_open()
            self._cursors[cursor_id] = (ResultCursor(block),
                                        time.monotonic() + self.cursor_ttl)
            self.cursors_opened += 1
        return cursor_id

    def _evict_expired_cursors(self) -> None:
        now = time.monotonic()
        for cursor_id in [identifier for identifier, (_cursor, deadline)
                          in self._cursors.items() if deadline < now]:
            cursor, _deadline = self._cursors.pop(cursor_id)
            cursor.close()
            self.cursors_expired += 1

    def _lookup_cursor(self, cursor_id: str) -> ResultCursor:
        self._check_open()
        entry = self._cursors.get(cursor_id)
        if entry is None:
            raise CursorError(
                f"unknown cursor {cursor_id!r}: never opened on this "
                f"service, already closed, or expired after "
                f"{self.cursor_ttl:g}s idle (results are not recoverable "
                f"— re-run the query)")
        cursor, deadline = entry
        if deadline < time.monotonic():
            del self._cursors[cursor_id]
            cursor.close()
            self.cursors_expired += 1
            raise CursorError(
                f"cursor {cursor_id!r} expired after {self.cursor_ttl:g}s "
                f"idle; re-run the query")
        return cursor

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Stop accepting requests, drain in-flight work, join the dispatcher.

        Every request enqueued before close is either served or failed
        with a clear ``QueryError`` — no future is ever left pending —
        and every open cursor is released.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        self._queue.put(_SHUTDOWN)
        self._dispatcher.join()
        # Fail anything that raced in behind the sentinel.
        while True:
            try:
                leftover = self._queue.get_nowait()
            except queue.Empty:
                break
            if leftover is not _SHUTDOWN:
                _resolve(leftover,
                         exception=QueryError("QueryService is closed"))
        with self._stats_lock:
            for cursor, _deadline in self._cursors.values():
                cursor.close()
            self._cursors.clear()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
