"""Shard routing: head-id hashing, batch grouping, scatter/gather merge.

The partitioning rule and the route/broadcast/merge skeleton used by
every sharded deployment live here as **pure functions**, so the
in-process :class:`~repro.kg.sharded_backend.ShardedBackend` and the
distributed :class:`~repro.kg.cluster.ClusterBackend` (N shard *server*
processes behind one coordinator) route identically — a triple's owner
shard is a property of its head id and the shard count, never of which
side of a socket the decision is made on.

Partitioning rule
-----------------
A triple ``(h, r, t)`` lives in shard
``((id(h) * 2654435761) & 0xFFFFFFFF) % n_shards`` (Knuth's
multiplicative hash over the interned head id, so consecutive ids do not
stripe).  Because the rule only looks at the head, head-bound operations
route to exactly one shard; everything else fans out and merges.  Only
the router's own ids are hashed: a remote shard may number symbols its
own way, since the coordinator speaks to it in symbols and re-keys the
ids that come back (see :mod:`repro.kg.cluster`).

The scatter/gather skeleton
---------------------------
:func:`scatter_gather` is the shared shape of every batched operation:
classify each item (owner shard / broadcast / statically empty), build
exactly ONE job per touched shard answering that shard's routed group
plus the broadcast set, run the jobs through a caller-supplied runner
(the sharded backend's ad-hoc thread pool, the cluster's persistent
pool doing wire I/O), and merge each broadcast item's per-shard parts.
One job per shard is a hard invariant: an in-process shard's lazy
attach/rebuild is not thread-safe within a fan-out, and a remote
shard's connection serves one request at a time.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, TypeVar

import numpy as np

from repro.kg.backend import Interner, empty_id_block

#: Knuth's multiplicative hash constant (mod 2**32).
HASH_MULTIPLIER = 2654435761
HASH_MASK = (1 << 32) - 1

_T = TypeVar("_T")

#: ``classify`` return value: the item fans out to every shard.
BROADCAST = object()

#: A runner takes (thunks, parallel-allowed) and returns their results
#: in submission order.
Runner = Callable[[Sequence[Callable[[], object]], bool], List]

#: Batches at least this large run their per-shard jobs threaded; below
#: it, thread dispatch costs more than the work it hides.
PARALLEL_BATCH_THRESHOLD = 32


def shard_of_id(head_id: int, n_shards: int) -> int:
    """The shard owning one interned head id."""
    return ((head_id * HASH_MULTIPLIER) & HASH_MASK) % n_shards


def shard_of_ids(head_ids: np.ndarray, n_shards: int) -> np.ndarray:
    """Vectorized shard assignment for an int64 array of head ids."""
    mixed = (head_ids.astype(np.uint64) * np.uint64(HASH_MULTIPLIER)) \
        & np.uint64(HASH_MASK)
    return (mixed % np.uint64(n_shards)).astype(np.int64)


def classify_head(entity_interner: Interner, n_shards: int,
                  head: Optional[str]):
    """:func:`scatter_gather`'s ``classify`` for a string pattern head:
    :data:`BROADCAST` for a wildcard, the owner shard of an interned
    head, ``None`` (statically empty) for a symbol never interned."""
    if head is None:
        return BROADCAST
    head_id = entity_interner.lookup(head)
    return None if head_id is None else shard_of_id(head_id, n_shards)


def run_serially(thunks: Sequence[Callable[[], _T]],
                 parallel: bool = False) -> List[_T]:
    """The trivial :data:`Runner`: call every thunk in order."""
    return [thunk() for thunk in thunks]


def scatter_gather(items: Sequence, *, n_shards: int,
                   classify: Callable,
                   empty: Callable[[], _T],
                   shard_call: Callable[[int, List], List[_T]],
                   run: Runner = run_serially,
                   broadcast_call: Optional[Callable[[int, List],
                                                     List[_T]]] = None,
                   merge: Optional[Callable[[List[_T]], _T]] = None
                   ) -> List[_T]:
    """Route/broadcast/merge a batch across shards, one job per shard.

    ``classify(item)`` returns the owner shard index, :data:`BROADCAST`
    to fan the item out to every shard, or ``None`` when the answer is
    statically ``empty()`` (an unknown head symbol).  A shard's routed
    group and the broadcast items go to it in ONE
    ``shard_call(shard_index, group + broadcast_items)`` — one request
    per shard per round; only when a distinct ``broadcast_call`` is
    given do the broadcast items take that second call.  Each broadcast
    item's per-shard results are combined with ``merge`` in shard-index
    order — deterministic, so merged results are identical no matter
    where the shards live.  The per-shard jobs are handed to ``run``
    with a parallel hint for batches of
    ≥ :data:`PARALLEL_BATCH_THRESHOLD` items.
    """
    results: List[Optional[_T]] = [None] * len(items)
    routed: Dict[int, List[int]] = {}
    broadcast: List[int] = []
    for position, item in enumerate(items):
        where = classify(item)
        if where is None:
            results[position] = empty()
        elif where is BROADCAST:
            broadcast.append(position)
        else:
            routed.setdefault(where, []).append(position)
    broadcast_items = [items[position] for position in broadcast]
    job_shards = list(range(n_shards)) if broadcast else sorted(routed)

    def make_thunk(shard_index: int) -> Callable[[], List[_T]]:
        group = [items[position] for position in routed.get(shard_index, ())]
        if broadcast_call is None:
            return lambda: shard_call(shard_index, group + broadcast_items)
        return lambda: (shard_call(shard_index, group) if group else []) \
            + (broadcast_call(shard_index, broadcast_items)
               if broadcast_items else [])

    parts = run([make_thunk(shard_index) for shard_index in job_shards],
                len(items) >= PARALLEL_BATCH_THRESHOLD)
    broadcast_parts: List[List[_T]] = []
    for shard_index, part in zip(job_shards, parts):
        positions = routed.get(shard_index, ())
        for position, value in zip(positions, part):
            results[position] = value
        broadcast_parts.append(part[len(positions):])
    for offset, position in enumerate(broadcast):
        results[position] = merge([part[offset]
                                   for part in broadcast_parts if part])
    return results


# --------------------------------------------------------------------------- #
# merge helpers — re-establish the documented guarantees on gathered parts
# --------------------------------------------------------------------------- #
def concat_id_blocks(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """Concatenate per-shard ``(k, 3)`` id blocks in shard order."""
    blocks = [block for block in blocks if len(block)]
    if not blocks:
        return empty_id_block()
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def merge_triple_lists(parts: Sequence[List], sort: bool = False) -> List:
    """Flatten per-shard triple lists; ``sort=True`` restores the
    canonical ascending ``(head, relation, tail)`` order."""
    merged = [triple for part in parts for triple in part]
    if sort:
        merged.sort()
    return merged
