"""Pluggable storage backends for the triple store.

The seed implementation kept a Python ``set`` of :class:`Triple` objects
plus six dict-of-set indexes — allocation heavy and string-compare bound
once every upper layer starts hot-looping over pattern queries.  This
module introduces the storage seam the ROADMAP asks for:

* :class:`Interner` — a shared string ↔ contiguous ``int`` id table,
* :class:`GraphBackend` — the protocol every backend implements,
* :class:`ColumnarBackend` — the default: triples live in parallel numpy
  ``int64`` columns with CSR-style adjacency indexes per head, relation
  and tail, plus (head, relation) / (relation, tail) / (tail, head)
  subgroup lookups via binary search.  Pattern queries slice arrays and
  only materialize :class:`Triple` objects (or sort) when asked; there
  is no per-row Python object, membership is a binary search too.

Index maintenance is **incremental**: mutations land in a small sorted
delta overlay (added rows + a deleted-row mask over the base block) that
is merged into every query result, and the expensive full CSR rebuild is
deferred until the overlay outgrows ``delta_threshold``.  Interleaved
mutate-then-query loops (the dedup stage's
``add_missing_taxonomy_links`` → ``parents()`` pattern) therefore pay
O(overlay) per query instead of one full O(n log n) rebuild per
mutation burst.

Backends answer the same string-level query surface.  For the
id-capable family the **id surface is the contract**: a backend
implements ``match_ids`` / ``count_ids``, membership, the interner pair
and two per-id count vectors, and inherits every string-level query from
:class:`_IdSurfaceMixin`, which resolves a pattern's constants once
against the interners and takes the id route.  Queries — string *and*
id — merge the overlay and never consolidate below ``delta_threshold``;
only the flat surface (``id_triples``, ``match_id_rows``, the sort
ranks, ``save``) describes one consolidated column block and folds a
pending overlay back into the base first.

:meth:`ColumnarBackend.open` attaches the base block from a saved
directory instead — read-only memory maps of the files
:mod:`repro.kg.mmap_backend` writes, the one on-disk store format.
:class:`~repro.kg.sharded_backend.ShardedBackend` is an in-memory
composite that hash-partitions triples on the head-entity id across
columnar shards sharing one global interner pair; it routes the id
surface over global ids and inherits the same string surface, and
``TripleStore.save`` writes it as one columnar directory.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

import numpy as np

from repro.kg.triple import Triple

#: A (head, relation, tail) pattern; ``None`` is a wildcard.
Pattern = Tuple[Optional[str], Optional[str], Optional[str]]

#: An id-level (head_id, relation_id, tail_id) pattern; ``None`` is a
#: wildcard.  Ids come from the backend's interners.
IdPattern = Tuple[Optional[int], Optional[int], Optional[int]]


class Interner:
    """An append-only string ↔ contiguous int-id table.

    The same structure as :class:`~repro.kg.vocab.Vocabulary` but kept
    separate so the storage layer has no dependency on the embedding
    vocabulary semantics (and can later grow backend-specific features
    such as shard-local id spaces).
    """

    __slots__ = ("_symbol_to_id", "_id_to_symbol")

    def __init__(self, symbols: Iterable[str] = ()) -> None:
        self._symbol_to_id: Dict[str, int] = {}
        self._id_to_symbol: List[str] = []
        for symbol in symbols:
            self.intern(symbol)

    def intern(self, symbol: str) -> int:
        """Return the id of ``symbol``, assigning the next free id if new."""
        existing = self._symbol_to_id.get(symbol)
        if existing is not None:
            return existing
        new_id = len(self._id_to_symbol)
        self._symbol_to_id[symbol] = new_id
        self._id_to_symbol.append(symbol)
        return new_id

    def lookup(self, symbol: str) -> Optional[int]:
        """Return the id of ``symbol`` or ``None`` when it was never interned."""
        return self._symbol_to_id.get(symbol)

    def symbol_of(self, identifier: int) -> str:
        """Return the symbol with id ``identifier``."""
        return self._id_to_symbol[identifier]

    def symbols(self) -> List[str]:
        """All interned symbols in id order (a copy)."""
        return list(self._id_to_symbol)

    def symbol_table(self) -> Sequence[str]:
        """The live id → symbol table (treat as read-only).

        The zero-copy batch counterpart of :meth:`symbol_of` — hot
        stringification loops index it directly instead of paying a
        method call per id.
        """
        return self._id_to_symbol

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._symbol_to_id

    def __len__(self) -> int:
        return len(self._id_to_symbol)

    def __iter__(self) -> Iterator[str]:
        return iter(self._id_to_symbol)


@runtime_checkable
class GraphBackend(Protocol):
    """The storage contract behind :class:`~repro.kg.store.TripleStore`.

    All query methods accept ``None`` as a wildcard.  ``match`` returns
    triples in backend-defined order unless ``sort=True`` is requested;
    ``tails`` / ``heads`` stay sorted because their callers rely on
    deterministic small result lists.
    """

    def add(self, head: str, relation: str, tail: str) -> bool: ...

    def add_many(self, triples: Iterable[Triple]) -> int: ...

    def discard(self, head: str, relation: str, tail: str) -> bool: ...

    def contains(self, head: str, relation: str, tail: str) -> bool: ...

    def clone_empty(self) -> "GraphBackend": ...

    def __len__(self) -> int: ...

    def iter_triples(self) -> Iterator[Triple]: ...

    def match(self, head: Optional[str] = None, relation: Optional[str] = None,
              tail: Optional[str] = None, sort: bool = False) -> List[Triple]: ...

    def iter_match(self, head: Optional[str] = None, relation: Optional[str] = None,
                   tail: Optional[str] = None) -> Iterator[Triple]: ...

    def count(self, head: Optional[str] = None, relation: Optional[str] = None,
              tail: Optional[str] = None) -> int: ...

    def tails(self, head: str, relation: str) -> List[str]: ...

    def heads(self, relation: str, tail: str) -> List[str]: ...

    def degree(self, node: str) -> int: ...

    def entities(self) -> List[str]: ...

    def relations(self) -> List[str]: ...

    def heads_only(self) -> List[str]: ...

    def relation_frequencies(self) -> Dict[str, int]: ...

    def match_many(self, patterns: Sequence[Pattern],
                   sort: bool = False) -> List[List[Triple]]: ...

    def tails_many(self, pairs: Sequence[Tuple[str, str]]) -> List[List[str]]: ...

    def degree_many(self, nodes: Sequence[str]) -> List[int]: ...

    def count_many(self, patterns: Sequence[Pattern]) -> List[int]: ...


class IdQueryBackend(Protocol):
    """The integer-id query surface of the columnar backend family.

    Backends that intern symbols to contiguous int64 ids additionally
    answer pattern queries entirely in id space — the query executor
    (:mod:`repro.kg.executor`) interns a query's constants once and then
    joins numpy id arrays without materializing a single
    :class:`Triple` or string.  The query layer runs on nothing else
    (see :func:`supports_id_queries`).
    """

    entity_interner: Interner
    relation_interner: Interner

    def match_ids(self, head_id: Optional[int] = None,
                  relation_id: Optional[int] = None,
                  tail_id: Optional[int] = None) -> np.ndarray: ...

    def match_ids_many(self, patterns: Sequence[IdPattern]) -> List[np.ndarray]: ...

    def count_ids(self, head_id: Optional[int] = None,
                  relation_id: Optional[int] = None,
                  tail_id: Optional[int] = None) -> int: ...


def supports_id_queries(backend: object) -> bool:
    """True when ``backend`` has every name :class:`IdQueryBackend` declares
    (an ``isinstance`` against the Protocol costs ~20x this attribute check)."""
    return all(hasattr(backend, name) for name in (
        "match_ids", "match_ids_many", "count_ids",
        "entity_interner", "relation_interner"))


def empty_id_block() -> np.ndarray:
    """A fresh zero-row ``(0, 3)`` int64 id block."""
    return np.zeros((0, 3), dtype=np.int64)


def unique_rows(rows: np.ndarray) -> np.ndarray:
    """Deduplicate a (n, k) id block; rows come back sorted column-major
    (for a triple block: by (head, relation, tail))."""
    if len(rows) <= 1:
        return rows
    rows = rows[np.lexsort(rows.T[::-1])]
    keep = np.empty(len(rows), dtype=bool)
    keep[0] = True
    np.any(rows[1:] != rows[:-1], axis=1, out=keep[1:])
    return rows[keep]


def _sort_rank(interner: Interner) -> np.ndarray:
    """``rank[id]`` = position of the id's symbol in ``sorted(symbols)``."""
    symbols = interner.symbols()
    order = sorted(range(len(symbols)), key=symbols.__getitem__)
    rank = np.empty(len(symbols), dtype=np.int64)
    rank[np.asarray(order, dtype=np.int64)] = np.arange(len(symbols), dtype=np.int64)
    return rank


def intern_id_rows(triples: Iterable[Triple], entity_interner: Interner,
                   relation_interner: Interner) -> np.ndarray:
    """Intern a batch of triples into a (k, 3) int64 id block.

    Ids are assigned in first-appearance order, exactly like an ``add``
    loop; an empty component raises ``ValueError`` like ``add`` does.
    Every batch write path (columnar, sharded, cluster) uses this — the
    per-triple ``add`` keeps its plain-Python interning.
    """
    intern_entity = entity_interner.intern
    intern_relation = relation_interner.intern

    def components() -> Iterator[int]:
        for triple in triples:
            head, relation, tail = triple.head, triple.relation, triple.tail
            if not (head and relation and tail):
                raise ValueError(
                    f"triple components must be non-empty, got "
                    f"({head!r}, {relation!r}, {tail!r})")
            yield intern_entity(head)
            yield intern_relation(relation)
            yield intern_entity(tail)

    return np.fromiter(components(), dtype=np.int64).reshape(-1, 3)


class _BatchedQueriesMixin:
    """Default batched implementations shared by all backends.

    Backends override the single-pattern primitives; the batched surface
    composes them so every backend speaks the same batched API even before
    it grows a vectorized fast path.
    """

    def match_many(self, patterns: Sequence[Pattern],
                   sort: bool = False) -> List[List[Triple]]:
        """One result list per (head, relation, tail) pattern."""
        return [self.match(head, relation, tail, sort=sort)
                for head, relation, tail in patterns]

    def tails_many(self, pairs: Sequence[Tuple[str, str]]) -> List[List[str]]:
        """One sorted tail list per (head, relation) pair."""
        return [self.tails(head, relation) for head, relation in pairs]

    def degree_many(self, nodes: Sequence[str]) -> List[int]:
        """Total degree per node."""
        return [self.degree(node) for node in nodes]

    def count_many(self, patterns: Sequence[Pattern]) -> List[int]:
        """One match count per (head, relation, tail) pattern.

        The query planner orders a conjunctive query's patterns by these
        counts in a single batched call; the sharded backend overrides
        this to route head-bound patterns to their owner shard.
        """
        return [self.count(head, relation, tail)
                for head, relation, tail in patterns]

    def add_many(self, triples: Iterable[Triple]) -> int:
        """Add a batch of triples; returns how many were actually new.

        Backends with a vectorized bulk-load path (the columnar family,
        the sharded backend) override this; the default simply loops
        :meth:`add`.
        """
        add = self.add
        return sum(1 for triple in triples
                   if add(triple.head, triple.relation, triple.tail))

    def discard_many(self, triples: Iterable[Triple]) -> int:
        """Remove a batch of triples; returns how many were present.

        The bulk counterpart of :meth:`discard` — the WAL replay path
        and ``TripleStore.remove_many`` both fold removals through it.
        The sharded backend overrides this to group the batch by owner
        shard first.
        """
        discard = self.discard
        return sum(1 for triple in triples
                   if discard(triple.head, triple.relation, triple.tail))

    def clone_empty(self) -> "GraphBackend":
        """A fresh empty in-memory backend of the same kind and
        configuration — what :meth:`TripleStore.copy` fills.  Backends
        with constructor arguments override this to reproduce them.
        """
        return type(self)()


class _IdSurfaceMixin(_BatchedQueriesMixin):
    """The string-level query surface, derived once from the id surface.

    An id-capable backend provides the interner pair, ``contains`` /
    ``__len__``, ``match_ids`` / ``match_ids_many`` / ``count_ids``,
    ``iter_triples`` and the two per-id count
    vectors (``_entity_degree_counts``, ``_relation_counts``); every
    string query below resolves its constants once against the interners
    and takes the id route.  Result order is whatever ``match_ids``
    returns, so it is the backend's own (a sharded store: the owner
    shard's order when the head is bound, shard-major otherwise).
    """

    def _resolve(self, head: Optional[str], relation: Optional[str],
                 tail: Optional[str]) -> Optional[Tuple[Optional[int], Optional[int], Optional[int]]]:
        """Translate a string pattern to ids; ``None`` if any constant is unknown."""
        head_id = relation_id = tail_id = None
        if head is not None:
            head_id = self.entity_interner.lookup(head)
            if head_id is None:
                return None
        if relation is not None:
            relation_id = self.relation_interner.lookup(relation)
            if relation_id is None:
                return None
        if tail is not None:
            tail_id = self.entity_interner.lookup(tail)
            if tail_id is None:
                return None
        return head_id, relation_id, tail_id

    def _materialize(self, ids: np.ndarray) -> List[Triple]:
        """Turn a (k, 3) id block into Triple objects in one batched conversion."""
        if not len(ids):
            return []
        entity = self.entity_interner.symbol_table()
        relation = self.relation_interner.symbol_table()
        new_triple = Triple.unchecked
        return [new_triple(entity[head_id], relation[relation_id], entity[tail_id])
                for head_id, relation_id, tail_id in ids.tolist()]

    def match(self, head: Optional[str] = None, relation: Optional[str] = None,
              tail: Optional[str] = None, sort: bool = False) -> List[Triple]:
        if head is not None and relation is not None and tail is not None:
            return [Triple(head, relation, tail)] if self.contains(head, relation, tail) else []
        resolved = self._resolve(head, relation, tail)
        if resolved is None:
            return []
        result = self._materialize(self.match_ids(*resolved))
        if sort:
            result.sort()
        return result

    def iter_match(self, head: Optional[str] = None, relation: Optional[str] = None,
                   tail: Optional[str] = None) -> Iterator[Triple]:
        if head is not None and relation is not None and tail is not None:
            if self.contains(head, relation, tail):
                yield Triple(head, relation, tail)
            return
        resolved = self._resolve(head, relation, tail)
        if resolved is None:
            return
        entity = self.entity_interner.symbol_table()
        relation_symbols = self.relation_interner.symbol_table()
        new_triple = Triple.unchecked
        for head_id, relation_id, tail_id in self.match_ids(*resolved).tolist():
            yield new_triple(entity[head_id], relation_symbols[relation_id],
                             entity[tail_id])

    def count(self, head: Optional[str] = None, relation: Optional[str] = None,
              tail: Optional[str] = None) -> int:
        if head is not None and relation is not None and tail is not None:
            return 1 if self.contains(head, relation, tail) else 0
        if head is None and relation is None and tail is None:
            return len(self)
        resolved = self._resolve(head, relation, tail)
        if resolved is None:
            return 0
        return self.count_ids(*resolved)

    def tails(self, head: str, relation: str) -> List[str]:
        resolved = self._resolve(head, relation, None)
        if resolved is None:
            return []
        symbols = self.entity_interner.symbol_table()
        return sorted(symbols[tail_id]
                      for tail_id in self.match_ids(*resolved)[:, 2].tolist())

    def tails_many(self, pairs: Sequence[Tuple[str, str]]) -> List[List[str]]:
        """:meth:`tails` per pair, every pair in ONE ``match_ids_many``."""
        resolved = [self._resolve(head, relation, None)
                    for head, relation in pairs]
        blocks = iter(self.match_ids_many(
            [ids for ids in resolved if ids is not None]))
        symbols = self.entity_interner.symbol_table()
        return [[] if ids is None else
                sorted(symbols[tail_id]
                       for tail_id in next(blocks)[:, 2].tolist())
                for ids in resolved]

    def heads(self, relation: str, tail: str) -> List[str]:
        resolved = self._resolve(None, relation, tail)
        if resolved is None:
            return []
        symbols = self.entity_interner.symbol_table()
        return sorted(symbols[head_id]
                      for head_id in self.match_ids(*resolved)[:, 0].tolist())

    def degree(self, node: str) -> int:
        """Out- plus in-degree (a self-loop counts twice), in ONE
        ``count_many`` — one round on a remote backend."""
        return sum(self.count_many([(node, None, None), (None, None, node)]))

    def degree_many(self, nodes: Sequence[str]) -> List[int]:
        out_counts, in_counts = self._entity_degree_counts()
        result: List[int] = []
        for node in nodes:
            node_id = self.entity_interner.lookup(node)
            if node_id is None or node_id >= len(out_counts):
                result.append(0)
            else:
                result.append(int(out_counts[node_id] + in_counts[node_id]))
        return result

    def entities(self) -> List[str]:
        out_counts, in_counts = self._entity_degree_counts()
        active = (out_counts > 0) | (in_counts > 0)
        symbol = self.entity_interner.symbol_of
        return sorted(symbol(int(entity_id)) for entity_id in np.flatnonzero(active))

    def relations(self) -> List[str]:
        active = self._relation_counts() > 0
        symbol = self.relation_interner.symbol_of
        return sorted(symbol(int(relation_id)) for relation_id in np.flatnonzero(active))

    def heads_only(self) -> List[str]:
        out_counts, _in_counts = self._entity_degree_counts()
        symbol = self.entity_interner.symbol_of
        return sorted(symbol(int(entity_id)) for entity_id in np.flatnonzero(out_counts > 0))

    def relation_frequencies(self) -> Dict[str, int]:
        counts = self._relation_counts()
        symbol = self.relation_interner.symbol_of
        return {symbol(int(relation_id)): int(counts[relation_id])
                for relation_id in np.flatnonzero(counts > 0)}


class ColumnarBackend(_IdSurfaceMixin):
    """Interned-id columnar store with CSR adjacency indexes.

    The state is a **base block plus an overlay** and nothing else.  The
    base is three parallel ``int64`` numpy columns with three sort
    permutations:

    * ``spo`` — sorted by (head, relation, tail): per-head CSR offsets,
      (head, relation) subranges by binary search inside the head slice;
    * ``pos`` — sorted by (relation, tail, head): per-relation CSR
      offsets, (relation, tail) subranges;
    * ``osp`` — sorted by (tail, head, relation): per-tail CSR offsets,
      (tail, head) subranges.

    Pattern queries therefore slice arrays; strings only appear when a
    caller asks for :class:`Triple` objects.  There is no in-heap dict of
    all rows: membership (and therefore ``add`` / ``discard`` dedup) is an
    overlay lookup plus a binary search on the base ``spo`` permutation.
    A new store attaches an empty in-heap base; :meth:`open` attaches
    read-only memmaps of a saved directory instead.

    **Incremental index maintenance.**  Mutations do not invalidate the
    base.  Adds accumulate in a small sorted delta block, deletes flip
    bits in a deleted-row mask over the base, and every query merges
    base slices (minus deleted rows) with a vectorized scan of the
    delta.  A full rebuild only happens when the overlay (added +
    deleted rows) exceeds ``delta_threshold``, or when a caller touches
    the flat id surface (:meth:`id_triples`, :meth:`match_id_rows`, the
    sort ranks), which by contract describes a single consolidated
    column block.  An **empty base** is never searched and never served
    through the overlay: adds onto it are plain dict inserts, however
    many, and the first query consolidates them — the bulk-build path of
    a per-triple ``add`` loop.  :attr:`rebuild_count` counts full
    rebuilds so tests and benchmarks can assert the deferral actually
    happens; ``delta_threshold=0`` consolidates every pending mutation
    burst at the next query.
    """

    name = "columnar"

    def __init__(self, delta_threshold: int = 1024) -> None:
        self.entity_interner = Interner()
        self.relation_interner = Interner()
        self.delta_threshold = int(delta_threshold)
        #: Number of full index (re)builds performed so far.
        self.rebuild_count = 0
        # The base block, attached on first use (see _attach).
        self._cols: Optional[np.ndarray] = None  # (n, 3) int64
        self._perm_spo: Optional[np.ndarray] = None
        self._perm_pos: Optional[np.ndarray] = None
        self._perm_osp: Optional[np.ndarray] = None
        self._head_offsets: Optional[np.ndarray] = None
        self._rel_offsets: Optional[np.ndarray] = None
        self._tail_offsets: Optional[np.ndarray] = None
        self._entity_rank: Optional[np.ndarray] = None
        self._relation_rank: Optional[np.ndarray] = None
        # Delta overlay over the base block: rows added since the last
        # rebuild (insertion-ordered dict + lazily sorted block) and a
        # deleted-row mask over the base columns.
        self._delta_add: Dict[Tuple[int, int, int], None] = {}
        self._delta_block: Optional[np.ndarray] = None
        self._deleted_mask: Optional[np.ndarray] = None
        self._num_deleted = 0
        # The saved directory (and its header) the base is mapped from.
        self._directory: Optional[Path] = None
        self._header: Optional[dict] = None

    @classmethod
    def open(cls, directory: "str | Path", *,
             delta_threshold: int = 1024) -> "ColumnarBackend":
        """Open a store directory written by :meth:`save`: the header and
        interner tables load now, the base maps on first use."""
        from repro.kg.mmap_backend import load_header, read_interner_pair
        backend = cls(delta_threshold=delta_threshold)
        backend._directory = Path(directory)
        backend._header = load_header(backend._directory)
        backend.entity_interner, backend.relation_interner = \
            read_interner_pair(backend._directory, backend._header)
        return backend

    @property
    def directory(self) -> Optional[Path]:
        """The directory the base is mapped from, or ``None`` in memory."""
        return self._directory

    def clone_empty(self) -> "GraphBackend":
        """An empty in-memory store: a copy never inherits the source's files."""
        return type(self)(delta_threshold=self.delta_threshold)

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def add(self, head: str, relation: str, tail: str) -> bool:
        if not (head and relation and tail):
            raise ValueError(
                f"triple components must be non-empty, got ({head!r}, {relation!r}, {tail!r})")
        key = (self.entity_interner.intern(head),
               self.relation_interner.intern(relation),
               self.entity_interner.intern(tail))
        self._ensure_attached()
        return self._overlay_add(key)

    def add_many(self, triples: Iterable[Triple]) -> int:
        """Bulk load: intern the batch in first-appearance order (exactly
        like an ``add`` loop), then merge it as one id block — see
        :meth:`bulk_load_ids`.  Returns how many triples were new."""
        return self.bulk_load_ids(intern_id_rows(
            triples, self.entity_interner, self.relation_interner))

    def bulk_load_ids(self, rows: np.ndarray) -> int:
        """Merge a (k, 3) int64 block of already-interned id triples.

        A block that fits under ``delta_threshold`` together with the
        current overlay (:meth:`fits_overlay`) goes row by row through
        the overlay, O(k · log n).  Any other block — and every block
        onto an empty base: initial build, ``shard_split`` — is one
        consolidation: the live base rows, any overlay adds and the new
        block are concatenated, sorted and deduplicated with pure numpy
        (all of which release the GIL — this is the per-shard unit of
        work the sharded backend fans out over a thread pool), then
        installed as the new base.  Returns the number of rows that were
        actually new.  Ids must come from this backend's interners;
        callers (``ShardedBackend.add_many``) intern before partitioning.
        """
        rows = np.ascontiguousarray(rows, dtype=np.int64).reshape(-1, 3)
        if not len(rows):
            return 0
        if self.fits_overlay(len(rows)):
            return sum(map(self._overlay_add, map(tuple, rows.tolist())))
        before = len(self)
        existing = self._rebuild_source()
        combined = np.concatenate((existing, rows)) if len(existing) else rows
        self._install_cols(unique_rows(combined))
        return len(self) - before

    def fits_overlay(self, num_rows: int) -> bool:
        """Whether :meth:`bulk_load_ids` takes ``num_rows`` without consolidating."""
        self._ensure_attached()
        return not num_rows or (
            len(self._cols) > 0
            and self._overlay_size() + num_rows <= self.delta_threshold)

    def discard(self, head: str, relation: str, tail: str) -> bool:
        key = self._key_of(head, relation, tail)
        if key is None:
            return False
        self._ensure_attached()
        return self._overlay_discard(key)

    def _key_of(self, head: str, relation: str,
                tail: str) -> Optional[Tuple[int, int, int]]:
        head_id = self.entity_interner.lookup(head)
        relation_id = self.relation_interner.lookup(relation)
        tail_id = self.entity_interner.lookup(tail)
        if head_id is None or relation_id is None or tail_id is None:
            return None
        return (head_id, relation_id, tail_id)

    # ------------------------------------------------------------------ #
    # base attachment / consolidation
    # ------------------------------------------------------------------ #
    def _attach(self) -> None:
        """Attach the base block: an opened store maps its directory's
        files, an in-memory store starts on an empty one."""
        if self._directory is not None:
            from repro.kg.mmap_backend import map_base
            for attr, array in map_base(self._directory, self._header).items():
                setattr(self, attr, array)
            return
        no_rows = np.zeros(0, dtype=np.int64)
        no_groups = np.zeros(1, dtype=np.int64)
        self._cols = empty_id_block()
        self._perm_spo = self._perm_pos = self._perm_osp = no_rows
        self._head_offsets = self._rel_offsets = self._tail_offsets = no_groups

    def _ensure_attached(self) -> None:
        if self._cols is None:
            self._attach()

    def _detach_from(self, directory: Path) -> None:
        """Copy the base into the heap if it is mapped from ``directory``:
        a save is about to overwrite those files (truncating a mapped file
        is undefined behaviour territory)."""
        if self._directory is None or self._cols is None \
                or self._directory.resolve() != Path(directory).resolve():
            return
        from repro.kg.mmap_backend import BASE_FILES
        for attr in BASE_FILES.values():
            value = getattr(self, attr)
            if not value.flags.writeable:  # a mapped (read-only) view
                setattr(self, attr, np.array(value, dtype=np.int64))

    def _install_cols(self, cols: np.ndarray) -> None:
        """Install ``cols`` as the base block and (re)build all indexes.

        Also resets the delta overlay: after installation the base block
        alone describes the store.
        """
        num_entities = len(self.entity_interner)
        num_relations = len(self.relation_interner)
        heads, rels, tails = cols[:, 0], cols[:, 1], cols[:, 2]
        entity_ids = np.arange(num_entities + 1, dtype=np.int64)
        relation_ids = np.arange(num_relations + 1, dtype=np.int64)
        perm_spo = np.lexsort((tails, rels, heads))
        perm_pos = np.lexsort((heads, tails, rels))
        perm_osp = np.lexsort((rels, heads, tails))
        self._cols = cols
        self._perm_spo = perm_spo
        self._perm_pos = perm_pos
        self._perm_osp = perm_osp
        self._head_offsets = np.searchsorted(heads[perm_spo], entity_ids)
        self._rel_offsets = np.searchsorted(rels[perm_pos], relation_ids)
        self._tail_offsets = np.searchsorted(tails[perm_osp], entity_ids)
        self._entity_rank = None
        self._relation_rank = None
        self._delta_add.clear()
        self._delta_block = None
        self._deleted_mask = None
        self._num_deleted = 0
        self.rebuild_count += 1

    def _rebuild_source(self) -> np.ndarray:
        """Live base rows (stored order) followed by overlay adds (sorted),
        as a fresh in-heap block — a mapped base is immutable."""
        self._ensure_attached()
        base = self._cols
        if self._num_deleted:
            base = base[~self._deleted_mask]
        return np.concatenate((base, self._delta_cols()))

    def _rebuild(self) -> None:
        self._install_cols(self._rebuild_source())

    def _overlay_size(self) -> int:
        return len(self._delta_add) + self._num_deleted

    def _ensure_base(self) -> None:
        """Make the base servable: consolidate an oversized overlay, and
        any overlay at all over an empty base."""
        self._ensure_attached()
        if self._overlay_size() > self.delta_threshold \
                or (self._delta_add and not len(self._cols)):
            self._rebuild()

    def _ensure_index(self) -> None:
        """Fully consolidate: fold any pending overlay into the base block.

        The flat id surface (:meth:`id_triples`, :meth:`match_id_rows`,
        the sort ranks) describes exactly one column block, so it calls
        this instead of :meth:`_ensure_base`.
        """
        self._ensure_attached()
        if self._delta_add or self._num_deleted:
            self._rebuild()

    # ------------------------------------------------------------------ #
    # delta overlay
    # ------------------------------------------------------------------ #
    def _find_base_row(self, key: Tuple[int, int, int]) -> Optional[int]:
        """Row index of ``key`` in the base block (deleted or not), else
        None.  An empty base is not searched: adds onto it stay O(1)."""
        if not len(self._cols):
            return None
        rows = self._base_match_rows(*key)
        return int(rows[0]) if len(rows) else None

    def _overlay_add(self, key: Tuple[int, int, int]) -> bool:
        """Make id row ``key`` live through the overlay; False if it already is."""
        if key in self._delta_add:
            return False
        base_row = self._find_base_row(key)
        if base_row is None:
            self._delta_add[key] = None
            self._delta_block = None
            return True
        if self._deleted_mask is None or not self._deleted_mask[base_row]:
            return False
        # Re-adding an overlay-deleted base row: resurrect it in place
        # instead of growing the delta.
        self._deleted_mask[base_row] = False
        self._num_deleted -= 1
        return True

    def _overlay_discard(self, key: Tuple[int, int, int]) -> bool:
        """Remove id row ``key`` through the overlay; False if it is not live."""
        if key in self._delta_add:
            del self._delta_add[key]
            self._delta_block = None
            return True
        base_row = self._find_base_row(key)
        if base_row is None:
            return False
        if self._deleted_mask is None:
            self._deleted_mask = np.zeros(len(self._cols), dtype=bool)
        elif self._deleted_mask[base_row]:
            return False
        self._deleted_mask[base_row] = True
        self._num_deleted += 1
        return True

    def _delta_cols(self) -> np.ndarray:
        """The overlay's added rows as a (d, 3) block sorted by (h, r, t)."""
        if self._delta_block is None:
            if self._delta_add:
                block = np.fromiter(
                    (component for row in self._delta_add for component in row),
                    dtype=np.int64, count=3 * len(self._delta_add),
                ).reshape(-1, 3)
                block = block[np.lexsort((block[:, 2], block[:, 1], block[:, 0]))]
            else:
                block = empty_id_block()
            self._delta_block = block
        return self._delta_block

    def _delta_match(self, head_id: Optional[int], relation_id: Optional[int],
                     tail_id: Optional[int]) -> np.ndarray:
        """Overlay-added rows matching an id pattern (vectorized scan)."""
        delta = self._delta_cols()
        for column, value in enumerate((head_id, relation_id, tail_id)):
            if value is not None and len(delta):
                delta = delta[delta[:, column] == value]
        return delta

    def _merged_block(self, head_id: Optional[int], relation_id: Optional[int],
                      tail_id: Optional[int]) -> np.ndarray:
        """:meth:`match_ids` once the caller has run :meth:`_ensure_base`."""
        rows = self._base_match_rows(head_id, relation_id, tail_id)
        if self._num_deleted:
            rows = rows[~self._deleted_mask[rows]]
        base = self._cols[rows]
        if not self._delta_add:
            return base
        delta = self._delta_match(head_id, relation_id, tail_id)
        if not len(delta):
            return base
        return np.concatenate((base, delta)) if len(base) else delta

    # ------------------------------------------------------------------ #
    # id-level query surface
    # ------------------------------------------------------------------ #
    def id_triples(self) -> np.ndarray:
        """The full (n, 3) int64 array of (head, relation, tail) ids.

        The returned array is the backend's live column block — treat it
        as read-only.
        """
        self._ensure_index()
        return self._cols

    def _slice(self, perm: np.ndarray, offsets: np.ndarray,
               group_id: int) -> np.ndarray:
        if group_id < 0 or group_id >= len(offsets) - 1:
            return perm[0:0]
        return perm[offsets[group_id]:offsets[group_id + 1]]

    def _subrange(self, rows: np.ndarray, column: int, value: int) -> np.ndarray:
        """Narrow ``rows`` (already sorted by ``column``) to one value: a
        binary search that reads one base key per step, never the group."""
        key = self._cols[:, column].__getitem__
        lo = bisect_left(rows, value, key=key)
        return rows[lo:bisect_right(rows, value, lo, key=key)]

    def match_id_rows(self, head_id: Optional[int] = None,
                      relation_id: Optional[int] = None,
                      tail_id: Optional[int] = None) -> np.ndarray:
        """Row indices into :meth:`id_triples` matching an id pattern."""
        self._ensure_index()
        return self._base_match_rows(head_id, relation_id, tail_id)

    def _base_match_rows(self, head_id: Optional[int] = None,
                         relation_id: Optional[int] = None,
                         tail_id: Optional[int] = None) -> np.ndarray:
        """Base-block row indices matching an id pattern (ignores overlay)."""
        if head_id is not None:
            rows = self._slice(self._perm_spo, self._head_offsets, head_id)
            if relation_id is not None:
                rows = self._subrange(rows, 1, relation_id)
                if tail_id is not None:
                    rows = self._subrange(rows, 2, tail_id)
            elif tail_id is not None:
                rows = self._slice(self._perm_osp, self._tail_offsets, tail_id)
                rows = self._subrange(rows, 0, head_id)
            return rows
        if relation_id is not None:
            rows = self._slice(self._perm_pos, self._rel_offsets, relation_id)
            if tail_id is not None:
                rows = self._subrange(rows, 2, tail_id)
            return rows
        if tail_id is not None:
            return self._slice(self._perm_osp, self._tail_offsets, tail_id)
        return self._perm_spo

    def match_ids(self, head_id: Optional[int] = None,
                  relation_id: Optional[int] = None,
                  tail_id: Optional[int] = None) -> np.ndarray:
        """The (k, 3) id triples matching an id pattern, overlay included."""
        self._ensure_base()
        return self._merged_block(head_id, relation_id, tail_id)

    def match_ids_many(self, patterns: Sequence[IdPattern]) -> List[np.ndarray]:
        """One (k, 3) id block per id pattern.

        The batched entry point the ID-space query executor drives; the
        sharded backend overrides it to route head-bound patterns to
        their owner shard and fan the rest out across shards.
        """
        self._ensure_base()
        merged = self._merged_block
        return [merged(*pattern) for pattern in patterns]

    def count_ids(self, head_id: Optional[int] = None,
                  relation_id: Optional[int] = None,
                  tail_id: Optional[int] = None) -> int:
        """Number of triples matching an id pattern (no materialization)."""
        self._ensure_base()
        rows = self._base_match_rows(head_id, relation_id, tail_id)
        count = len(rows) - (self._deleted_mask[rows].sum() if self._num_deleted else 0)
        if self._delta_add:
            count += len(self._delta_match(head_id, relation_id, tail_id))
        return int(count)

    def entity_sort_rank(self) -> np.ndarray:
        """Rank of each entity id in lexicographic symbol order.

        ``rank[id]`` is the position the entity's symbol would take in
        ``sorted(symbols)``; used by the sampling layer to reproduce
        string-sorted orderings without materializing strings per triple.
        Python's own ``sorted`` is used (not numpy's code-point unicode
        sort) so the ordering matches ``sorted()`` everywhere else.
        """
        self._ensure_index()
        if self._entity_rank is None or len(self._entity_rank) != len(self.entity_interner):
            self._entity_rank = _sort_rank(self.entity_interner)
        return self._entity_rank

    def relation_sort_rank(self) -> np.ndarray:
        """Rank of each relation id in lexicographic symbol order."""
        self._ensure_index()
        if self._relation_rank is None \
                or len(self._relation_rank) != len(self.relation_interner):
            self._relation_rank = _sort_rank(self.relation_interner)
        return self._relation_rank

    # ------------------------------------------------------------------ #
    # membership, iteration and the per-id count vectors — the string
    # query surface is inherited from _IdSurfaceMixin
    # ------------------------------------------------------------------ #
    def contains(self, head: str, relation: str, tail: str) -> bool:
        key = self._key_of(head, relation, tail)
        if key is None:
            return False
        self._ensure_attached()
        if key in self._delta_add:
            return True
        base_row = self._find_base_row(key)
        if base_row is None:
            return False
        return not (self._deleted_mask is not None and self._deleted_mask[base_row])

    def __len__(self) -> int:
        self._ensure_attached()
        return len(self._cols) - self._num_deleted + len(self._delta_add)

    def iter_triples(self) -> Iterator[Triple]:
        """Live base rows in stored order, then overlay adds in insertion
        order; the base is read in chunks so a mapped block never has to
        fit in the heap."""
        self._ensure_attached()
        entity = self.entity_interner.symbol_table()
        relation = self.relation_interner.symbol_table()
        new_triple = Triple.unchecked
        mask = self._deleted_mask
        chunk = 4096
        for start in range(0, len(self._cols), chunk):
            block = self._cols[start:start + chunk]
            if mask is not None:
                block = block[~mask[start:start + chunk]]
            for head_id, relation_id, tail_id in block.tolist():
                yield new_triple(entity[head_id], relation[relation_id],
                                 entity[tail_id])
        for head_id, relation_id, tail_id in self._delta_add:
            yield new_triple(entity[head_id], relation[relation_id],
                             entity[tail_id])

    def _entity_degree_counts(self) -> Tuple[np.ndarray, np.ndarray]:
        """(out_degree, in_degree) per entity id, overlay included."""
        self._ensure_base()
        out_counts = np.diff(self._head_offsets)
        in_counts = np.diff(self._tail_offsets)
        num_entities = len(self.entity_interner)
        if self._num_deleted:
            deleted = np.flatnonzero(self._deleted_mask)
            out_counts = out_counts - np.bincount(self._cols[deleted, 0],
                                                  minlength=len(out_counts))
            in_counts = in_counts - np.bincount(self._cols[deleted, 2],
                                                minlength=len(in_counts))
        if len(out_counts) < num_entities:
            grow = np.zeros(num_entities - len(out_counts), dtype=np.int64)
            out_counts = np.concatenate((out_counts, grow))
            in_counts = np.concatenate((in_counts, grow))
        delta = self._delta_cols()
        if len(delta):
            out_counts = out_counts + np.bincount(delta[:, 0], minlength=num_entities)
            in_counts = in_counts + np.bincount(delta[:, 2], minlength=num_entities)
        return out_counts, in_counts

    def _relation_counts(self) -> np.ndarray:
        """Triple count per relation id, overlay included."""
        self._ensure_base()
        counts = np.diff(self._rel_offsets)
        num_relations = len(self.relation_interner)
        if self._num_deleted:
            deleted = np.flatnonzero(self._deleted_mask)
            counts = counts - np.bincount(self._cols[deleted, 1],
                                          minlength=len(counts))
        if len(counts) < num_relations:
            counts = np.concatenate(
                (counts, np.zeros(num_relations - len(counts), dtype=np.int64)))
        delta = self._delta_cols()
        if len(delta):
            counts = counts + np.bincount(delta[:, 1], minlength=num_relations)
        return counts

    def save(self, directory: "str | Path") -> Path:
        """Persist the (consolidated) store as a memory-mappable directory.

        Returns the directory path; reopen with :meth:`open`.
        """
        from repro.kg.mmap_backend import write_backend_dir
        return write_backend_dir(self, directory)


#: Registered backend implementations, keyed by their CLI name.
BACKENDS: Dict[str, type] = {
    ColumnarBackend.name: ColumnarBackend,
}

#: The backend used when callers don't pick one explicitly.
DEFAULT_BACKEND = ColumnarBackend.name


def make_backend(name: str, **options) -> GraphBackend:
    """Instantiate a registered backend by name.

    Keyword options are forwarded to the backend constructor (e.g.
    ``make_backend("columnar", delta_threshold=0)``).
    """
    try:
        backend_class = BACKENDS[name]
    except KeyError:
        known = ", ".join(sorted(BACKENDS))
        raise ValueError(f"unknown graph backend {name!r} (known: {known})") from None
    return backend_class(**options)
