"""Hash-partitioned sharded columnar graph storage.

The ROADMAP's multi-core milestone: a :class:`ShardedBackend` implements
the :class:`~repro.kg.backend.GraphBackend` protocol by partitioning
triples on the **head-entity id** across ``n_shards`` inner backends of
the columnar family.  All shards share one global
:class:`~repro.kg.backend.Interner` pair, so symbol ids are identical no
matter which shard a triple landed in and query results are invariant to
the shard count.

Partitioning rule
-----------------
A triple ``(h, r, t)`` lives in shard
``((id(h) * 2654435761) & 0xFFFFFFFF) % n_shards`` (Knuth's
multiplicative hash over the interned head id, so consecutive ids do not
stripe).  The hash, the per-item batch grouping and the scatter/gather
merge skeleton live in :mod:`repro.kg.routing` as pure functions — the
distributed :class:`~repro.kg.cluster.ClusterBackend` routes with the
same code, so a triple's owner is independent of deployment shape.
Because the rule only looks at the head, a head-bound id pattern (and
``contains`` / ``discard``) reads **exactly one** shard, and any other
pattern fans out to every shard and concatenates the per-shard blocks in
shard order.  That routing is written once, over global ids
(``match_ids`` / ``count_ids`` / ``match_ids_many``): the single-pattern
string surface (``match``, ``count``, ``tails``, ``heads``, ``degree``,
``entities``, ...) is inherited from
:class:`~repro.kg.backend._IdSurfaceMixin`, which resolves a pattern's
constants once against the global interners and takes the id route, so a
string query on a sharded store has one route.  ``degree`` and the
``entities`` / ``relations`` family read per-id count vectors summed
over the shards — every triple lives in exactly one shard, so the sums
count each edge once.

Parallelism
-----------
Bulk operations — :meth:`ShardedBackend.add_many` and the batched query
surface — fan per-shard work out over a ``concurrent.futures`` thread
pool.  The per-shard units are dominated by numpy sorting and searching,
which release the GIL, so threads scale with cores without any
pickling.  Single-pattern queries and small ``add_many`` batches
(applied through the shards' overlays, GIL-bound Python) stay serial:
thread dispatch would cost more than the work it hides.

Persistence
-----------
There is no sharded on-disk layout.  ``TripleStore.save`` writes this
backend's own interners and id rows as one columnar directory
(:func:`~repro.kg.mmap_backend.write_id_store`), which reopens as a
:class:`~repro.kg.backend.ColumnarBackend` with every symbol id intact.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

import numpy as np

from repro.kg.backend import (
    ColumnarBackend,
    GraphBackend,
    IdPattern,
    Interner,
    Pattern,
    _IdSurfaceMixin,
    empty_id_block,
    intern_id_rows,
)
from repro.kg.routing import (
    BROADCAST as _BROADCAST,
    classify_head,
    concat_id_blocks,
    merge_triple_lists,
    scatter_gather,
    shard_of_id,
    shard_of_ids,
)
from repro.kg.triple import Triple

#: Shard count of ``ShardedBackend()`` and of ``repro shard-split``
#: without ``--shards``.
DEFAULT_SHARDS = 4

_T = TypeVar("_T")

__all__ = ["DEFAULT_SHARDS", "ShardedBackend", "shard_of_ids"]


class ShardedBackend(_IdSurfaceMixin):
    """Hash-partitioned composite over ``n_shards`` columnar-family shards.

    The inner shards are in-memory
    :class:`~repro.kg.backend.ColumnarBackend` instances; the per-shard
    bulk-load unit
    (:meth:`ColumnarBackend.bulk_load_ids
    <repro.kg.backend.ColumnarBackend.bulk_load_ids>`) is pure numpy and
    parallelizes across threads.  All shards alias the two interners
    owned by this object; ids are global and backend-independent.

    ``max_workers`` caps the thread pool (default: the machine's core
    count); pass ``max_workers=1`` to force serial execution, or a
    larger value to exercise the threaded paths on small machines.
    """

    name = "sharded"

    def __init__(self, n_shards: int = DEFAULT_SHARDS, *,
                 delta_threshold: int = 1024,
                 max_workers: Optional[int] = None) -> None:
        n_shards = int(n_shards)
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.n_shards = n_shards
        self.delta_threshold = int(delta_threshold)
        self._max_workers = max_workers
        self.entity_interner = Interner()
        self.relation_interner = Interner()
        self._shards: List[ColumnarBackend] = [self._new_shard()
                                               for _ in range(n_shards)]

    def _new_shard(self) -> ColumnarBackend:
        shard = ColumnarBackend(delta_threshold=self.delta_threshold)
        shard.entity_interner = self.entity_interner
        shard.relation_interner = self.relation_interner
        return shard

    def clone_empty(self) -> "GraphBackend":
        return type(self)(self.n_shards, delta_threshold=self.delta_threshold,
                          max_workers=self._max_workers)

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    def _shard_index(self, head_id: int) -> int:
        return shard_of_id(head_id, self.n_shards)

    def _route(self, head: str) -> Optional[ColumnarBackend]:
        """The shard owning ``head``, or ``None`` when it was never interned."""
        head_id = self.entity_interner.lookup(head)
        if head_id is None:
            return None
        return self._shards[self._shard_index(head_id)]

    def _workers(self) -> int:
        if self._max_workers is not None:
            return max(1, int(self._max_workers))
        return os.cpu_count() or 1

    def _parallel(self, thunks: Sequence[Callable[[], _T]],
                  parallel: bool = True) -> List[_T]:
        """Run thunks — threaded when it can help, in submission order."""
        if not parallel or len(thunks) <= 1 or self._workers() <= 1:
            return [thunk() for thunk in thunks]
        with ThreadPoolExecutor(
                max_workers=min(self._workers(), len(thunks)),
                thread_name_prefix="kg-shard") as pool:
            return [future.result()
                    for future in [pool.submit(thunk) for thunk in thunks]]

    def _per_shard(self, fn: Callable[[ColumnarBackend], _T],
                   parallel: bool = False) -> List[_T]:
        return self._parallel([(lambda shard=shard: fn(shard))
                               for shard in self._shards], parallel=parallel)

    def _routed_batch(self, items: Sequence, classify: Callable,
                      empty: Callable[[], _T],
                      shard_call: Callable[[ColumnarBackend, List], List[_T]],
                      broadcast_call: Optional[Callable[[ColumnarBackend, List],
                                                        List[_T]]] = None,
                      merge: Optional[Callable[[List[_T]], _T]] = None
                      ) -> List[_T]:
        """Batched route/broadcast/merge over the in-process shards.

        The skeleton itself —
        :func:`repro.kg.routing.scatter_gather` — is shared with the
        distributed coordinator; this adapter binds shard indexes to
        this backend's shard objects and supplies the ad-hoc thread pool
        as the runner.  Exactly ONE job per shard answers that shard's
        routed group and the broadcast set together — a shard must never
        be driven by two pool threads at once (its lazy attach/rebuild
        is not thread-safe within a fan-out).
        """
        return scatter_gather(
            items, n_shards=self.n_shards, classify=classify, empty=empty,
            shard_call=lambda index, group: shard_call(self._shards[index],
                                                       group),
            broadcast_call=None if broadcast_call is None else (
                lambda index, group: broadcast_call(self._shards[index],
                                                    group)),
            merge=merge,
            run=lambda thunks, parallel: self._parallel(thunks,
                                                        parallel=parallel))

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def add(self, head: str, relation: str, tail: str) -> bool:
        if not (head and relation and tail):
            raise ValueError(
                f"triple components must be non-empty, got ({head!r}, {relation!r}, {tail!r})")
        head_id = self.entity_interner.intern(head)
        return self._shards[self._shard_index(head_id)].add(head, relation, tail)

    def add_many(self, triples: Iterable[Triple]) -> int:
        """Bulk load: intern once, partition by head id, load every shard.

        The serial prefix (string interning — dict lookups assigning ids
        in first-appearance order, exactly like an ``add`` loop) is
        unavoidable Python.  Per shard, a block that fits the overlay is
        applied inline in O(block · log n); any other block is a numpy
        merge + sort + index build and runs threaded (see
        :meth:`~repro.kg.backend.ColumnarBackend.bulk_load_ids`).
        Returns the number of triples that were actually new.
        """
        rows = intern_id_rows(triples, self.entity_interner,
                              self.relation_interner)
        if not len(rows):
            return 0
        shard_ids = shard_of_ids(rows[:, 0], self.n_shards)
        blocks = [rows[shard_ids == index] for index in range(self.n_shards)]
        thunks = [(lambda shard=shard, block=block: shard.bulk_load_ids(block))
                  for shard, block in zip(self._shards, blocks)]
        # Overlay applies are GIL-bound Python: the pool only pays off for
        # blocks that take the numpy merge + sort.
        return sum(self._parallel(thunks, parallel=not all(
            shard.fits_overlay(len(block))
            for shard, block in zip(self._shards, blocks))))

    def discard(self, head: str, relation: str, tail: str) -> bool:
        shard = self._route(head)
        return shard.discard(head, relation, tail) if shard is not None else False

    def discard_many(self, triples: Iterable[Triple]) -> int:
        """Bulk removal: group by owner shard, one pass per shard.

        The WAL replay path folds remove runs through this; grouping
        keeps each shard's overlay churn contiguous instead of
        ping-ponging between shards triple by triple.
        """
        lookup = self.entity_interner.lookup
        grouped: Dict[int, List[Triple]] = {}
        for triple in triples:
            head_id = lookup(triple.head)
            if head_id is None:
                continue
            grouped.setdefault(self._shard_index(head_id), []).append(triple)
        removed = 0
        for shard_index, group in grouped.items():
            discard = self._shards[shard_index].discard
            removed += sum(1 for t in group
                           if discard(t.head, t.relation, t.tail))
        return removed

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def contains(self, head: str, relation: str, tail: str) -> bool:
        shard = self._route(head)
        return shard.contains(head, relation, tail) if shard is not None else False

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def iter_triples(self) -> Iterator[Triple]:
        for shard in self._shards:
            yield from shard.iter_triples()

    def _entity_degree_counts(self) -> Tuple[np.ndarray, np.ndarray]:
        """(out_degree, in_degree) per global entity id, summed over shards."""
        counts = self._per_shard(lambda shard: shard._entity_degree_counts())
        return (sum(out_counts for out_counts, _in_counts in counts),
                sum(in_counts for _out_counts, in_counts in counts))

    def _relation_counts(self) -> np.ndarray:
        """Triple count per global relation id, summed over shards."""
        return sum(self._per_shard(lambda shard: shard._relation_counts()))

    # ------------------------------------------------------------------ #
    # id-level query surface — global ids, shard-routed
    # ------------------------------------------------------------------ #
    def match_ids(self, head_id: Optional[int] = None,
                  relation_id: Optional[int] = None,
                  tail_id: Optional[int] = None) -> np.ndarray:
        """The (k, 3) id triples matching an id pattern.

        Ids are global (all shards share this object's interners), so a
        head-bound pattern reads exactly one shard; unbound patterns
        concatenate the per-shard blocks (each internally consistent,
        overall order shard-major).
        """
        if head_id is not None:
            return self._shards[self._shard_index(head_id)].match_ids(
                head_id, relation_id, tail_id)
        return concat_id_blocks(self._per_shard(
            lambda shard: shard.match_ids(head_id, relation_id, tail_id)))

    def count_ids(self, head_id: Optional[int] = None,
                  relation_id: Optional[int] = None,
                  tail_id: Optional[int] = None) -> int:
        """Number of triples matching an id pattern."""
        if head_id is not None:
            return self._shards[self._shard_index(head_id)].count_ids(
                head_id, relation_id, tail_id)
        return sum(self._per_shard(
            lambda shard: shard.count_ids(head_id, relation_id, tail_id)))

    def match_ids_many(self, patterns: Sequence[IdPattern]) -> List[np.ndarray]:
        """Batched :meth:`match_ids`: route head-bound id patterns to
        their owner shard, broadcast and concatenate the rest."""
        if self.n_shards == 1:
            return self._shards[0].match_ids_many(patterns)
        return self._routed_batch(
            patterns,
            classify=lambda pattern: _BROADCAST if pattern[0] is None
            else self._shard_index(pattern[0]),
            empty=empty_id_block,
            shard_call=lambda shard, group: shard.match_ids_many(group),
            merge=concat_id_blocks)

    # ------------------------------------------------------------------ #
    # batched queries — route head-bound items, fan out the rest
    # ------------------------------------------------------------------ #
    def count_many(self, patterns: Sequence[Pattern]) -> List[int]:
        """Batched :meth:`count`: head-bound patterns hit one shard,
        the rest sum across shards — one pass per shard, not one per
        (pattern, shard) pair."""
        if self.n_shards == 1:
            return self._shards[0].count_many(patterns)
        return self._routed_batch(
            patterns,
            classify=lambda pattern: classify_head(
                self.entity_interner, self.n_shards, pattern[0]),
            empty=lambda: 0,
            shard_call=lambda shard, group: shard.count_many(group),
            merge=sum)

    def match_many(self, patterns: Sequence[Pattern],
                   sort: bool = False) -> List[List[Triple]]:
        """Head-bound patterns go only to their owner shard; unbound ones
        fan out to every shard and merge.  Total work therefore does not
        grow with the shard count, and the per-shard groups run threaded
        for large batches."""
        if self.n_shards == 1:
            return self._shards[0].match_many(patterns, sort=sort)
        return self._routed_batch(
            patterns,
            classify=lambda pattern: classify_head(
                self.entity_interner, self.n_shards, pattern[0]),
            empty=list,
            shard_call=lambda shard, group: shard.match_many(group, sort=sort),
            # Per-shard sorting would be thrown away by the merge.
            broadcast_call=lambda shard, group: shard.match_many(group,
                                                                 sort=False),
            merge=lambda parts: merge_triple_lists(parts, sort=sort))
