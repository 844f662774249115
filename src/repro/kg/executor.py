"""Query execution: vectorized joins in id space.

The counterpart of :mod:`repro.kg.planner`, and the one executor:
:func:`execute_plans_cursors` evaluates a batch of
:class:`~repro.kg.planner.QueryPlan`\\ s.  Each pattern's constants are
interned once; the pattern is fetched as one ``(k, 3)`` int64 block
from the backend's CSR indexes (the batched :meth:`match_ids_many`);
the binding frontier is a set of parallel numpy id columns (one per
variable) that each step extends with a vectorized hash join —
factorize the shared-variable key columns, sort one side,
``searchsorted`` the other, expand matches with ``repeat``/``cumsum``
arithmetic.  Every step of every plan in a batch is fetched in ONE
``match_ids_many`` call (which the sharded backend routes per shard —
one round, one request per shard), and each plan joins its blocks
fewest rows first.

Every answer is an :class:`IdBlock`; strings appear exactly once, in
:meth:`IdBlock.materialize`, on the thread that encodes or consumes the
rows.  The degenerate answers are blocks too: an unknown constant or an
empty join is a zero-row block with the query's columns, and a query
without variables is a zero-column block of one row (it holds) or none.
A variable bound in both relation and entity positions joins in entity
space: its relation-position column is re-keyed through one relation →
entity id table, and a relation that is no entity drops its row.

:func:`execute_co_partitioned` runs first: a batch's star queries go to
a backend that answers them whole (the coordinator).  Only the row
order is executor-defined; the symbol-level reference the parity tests
compare against lives in ``tests/_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CursorError, QueryError
from repro.kg.backend import IdPattern, supports_id_queries, unique_rows
from repro.kg.planner import (
    PatternQuery,
    PatternStep,
    QueryPlan,
    co_partitioned,
    is_variable,
)
from repro.kg.store import TripleStore
from repro.kg.triple import Triple

Binding = Dict[str, str]


def id_backend(store: TripleStore):
    """``store``'s backend, which must expose the id-level query surface:
    the one guard :class:`~repro.kg.query.QueryEngine` and
    :class:`~repro.kg.service.QueryService` share."""
    backend = store.backend
    if not supports_id_queries(backend):
        raise QueryError(
            f"queries run on id-capable backends only: "
            f"{type(backend).__name__} (backend {store.backend_name!r}) has "
            f"no id-level query surface — load it into a "
            f"columnar or sharded store")
    return backend


# --------------------------------------------------------------------------- #
# ID-space executor
# --------------------------------------------------------------------------- #
@dataclass
class _Frontier:
    """The binding frontier: one int64 id column per bound variable.

    ``num_rows`` tracks the row count explicitly so the empty-variable
    start state (one row binding nothing) is representable.
    """

    num_rows: int = 1
    columns: Dict[str, np.ndarray] = field(default_factory=dict)


def _resolve_constants(backend, plan: QueryPlan) -> Optional[List[IdPattern]]:
    """Intern every step's constants once; ``None`` if any is unknown."""
    entity_lookup = backend.entity_interner.lookup
    relation_lookup = backend.relation_interner.lookup
    resolved: List[IdPattern] = []
    for step in plan.steps:
        ids: List[Optional[int]] = []
        for position, constant in enumerate(step.constants):
            if constant is None:
                ids.append(None)
                continue
            lookup = relation_lookup if position == 1 else entity_lookup
            identifier = lookup(constant)
            if identifier is None:
                return None
            ids.append(identifier)
        resolved.append((ids[0], ids[1], ids[2]))
    return resolved


def _relation_entity_ids(backend) -> np.ndarray:
    """Relation id → the entity id of the same symbol, ``-1`` where the
    symbol is no entity."""
    entities = backend.entity_interner
    return np.array([entities.lookup(symbol) if symbol in entities else -1
                     for symbol in backend.relation_interner.symbol_table()],
                    dtype=np.int64)


def _pattern_columns(step: PatternStep, block: np.ndarray,
                     rekey: Optional[np.ndarray]
                     ) -> Tuple[np.ndarray, Dict[str, int]]:
    """Filter repeated-variable rows; map each variable to its column.

    ``rekey`` (:func:`_relation_entity_ids`) is given when the step's
    relation variable binds entity positions too: its column becomes
    entity ids first, and a row whose relation is no entity drops — it
    could never join an entity position.  A variable occurring twice
    in one pattern (``(?x, r, ?x)``) then keeps only rows where the
    occurrences agree; the surviving first position becomes the
    variable's column.
    """
    if rekey is not None:
        entity_ids = rekey[block[:, 1]]
        block = np.column_stack((block[:, 0], entity_ids,
                                 block[:, 2]))[entity_ids >= 0]
    var_position: Dict[str, int] = {}
    for position, name in step.variables:
        first = var_position.setdefault(name, position)
        if first != position and len(block):
            block = block[block[:, first] == block[:, position]]
    return block, var_position


def _factorize_pair(left: np.ndarray, right: np.ndarray,
                    left_extra: np.ndarray, right_extra: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Combine two key columns into one joint group-id column per side."""
    num_left = len(left)
    pair = np.empty((num_left + len(right), 2), dtype=np.int64)
    pair[:num_left, 0] = left
    pair[:num_left, 1] = left_extra
    pair[num_left:, 0] = right
    pair[num_left:, 1] = right_extra
    _, inverse = np.unique(pair, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    return inverse[:num_left], inverse[num_left:]


def _join_indices(left_keys: Sequence[np.ndarray],
                  right_keys: Sequence[np.ndarray]
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Row-index pairs (left_row, right_row) where all key columns match.

    Multi-column keys collapse to one int64 group-id column per side:
    mixed-radix packing (``gid * base + column`` with ``base`` = the
    column's value range, identical on both sides so ids stay
    comparable) while the product of ranges fits int64, falling back to
    pairwise ``np.unique`` factorization over both sides at once beyond
    that.  The right side is then sorted by group id and every left row
    expands to its matching right range via ``searchsorted`` +
    ``repeat``/``cumsum`` arithmetic.  Pure numpy; no Python-level
    per-row work.
    """
    left_gid, right_gid = left_keys[0], right_keys[0]
    for left_extra, right_extra in zip(left_keys[1:], right_keys[1:]):
        base = 1 + max(int(left_extra.max()) if len(left_extra) else 0,
                       int(right_extra.max()) if len(right_extra) else 0)
        widest = max(int(left_gid.max()) if len(left_gid) else 0,
                     int(right_gid.max()) if len(right_gid) else 0)
        if widest < (1 << 62) // base:
            left_gid = left_gid * base + left_extra
            right_gid = right_gid * base + right_extra
        else:  # pragma: no cover - needs ~2^62 distinct key combinations
            left_gid, right_gid = _factorize_pair(left_gid, right_gid,
                                                  left_extra, right_extra)
    order = np.argsort(right_gid, kind="stable")
    sorted_gid = right_gid[order]
    lo = np.searchsorted(sorted_gid, left_gid, side="left")
    hi = np.searchsorted(sorted_gid, left_gid, side="right")
    counts = hi - lo
    total = int(counts.sum())
    left_rows = np.repeat(np.arange(len(left_gid), dtype=np.int64), counts)
    if not total:
        return left_rows, np.zeros(0, dtype=np.int64)
    # right rows: for each left row i, the slice order[lo[i]:hi[i]].
    prefix = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=prefix[1:])
    within = np.arange(total, dtype=np.int64) - np.repeat(prefix, counts)
    right_rows = order[np.repeat(lo, counts) + within]
    return left_rows, right_rows


def _advance(frontier: _Frontier, step: PatternStep, block: np.ndarray,
             rekey: Optional[np.ndarray]) -> Optional[_Frontier]:
    """Join one step's matched block into the frontier; ``None`` once
    no binding survives."""
    block, var_position = _pattern_columns(step, block, rekey)
    shared = [name for name in var_position if name in frontier.columns]
    fresh = [name for name in var_position if name not in frontier.columns]
    num_rows, num_matches = frontier.num_rows, len(block)
    if not num_matches or not num_rows:
        return None
    if shared:
        left_rows, right_rows = _join_indices(
            [frontier.columns[name] for name in shared],
            [block[:, var_position[name]] for name in shared])
    else:
        # No shared variables: cartesian product — every binding pairs
        # with every match.
        left_rows = np.repeat(np.arange(num_rows, dtype=np.int64), num_matches)
        right_rows = np.tile(np.arange(num_matches, dtype=np.int64), num_rows)
    if not len(left_rows):
        return None
    columns = {name: column[left_rows]
               for name, column in frontier.columns.items()}
    for name in fresh:
        columns[name] = block[right_rows, var_position[name]]
    return _Frontier(num_rows=len(left_rows), columns=columns)


@dataclass(frozen=True)
class IdBlock:
    """Read results in id space — the one representation the read path
    carries from the backend to whoever encodes or consumes them.

    ``rows`` is a ``(n, k)`` int64 block; ``kinds`` says which interner
    space each column's ids live in (``"e"`` entities, ``"r"``
    relations).  Bindings blocks carry the variable ``names``; triples
    blocks (``triples=True``) are always ``(head, relation, tail)`` and
    ship no names.  The server-side
    :class:`~repro.kg.protocol.BinaryResponseEncoder` packs these
    attributes directly; everyone else calls :meth:`materialize` — the
    only place ids become strings.

    ``entities`` / ``relations`` are the producing backend's live,
    append-only id → symbol tables, so a block outlives a
    ``QueryService.swap_store``: it stringifies against the store that
    produced it.
    """

    names: Tuple[str, ...]
    kinds: Tuple[str, ...]
    rows: np.ndarray
    triples: bool = False
    entities: Sequence[str] = ()
    relations: Sequence[str] = ()

    @classmethod
    def over(cls, backend, names: Sequence[str], kinds: Sequence[str],
             rows: np.ndarray, *, triples: bool = False) -> "IdBlock":
        """A block of ``rows`` produced against ``backend``'s interners."""
        return cls(tuple(names), tuple(kinds), rows, triples,
                   backend.entity_interner.symbol_table(),
                   backend.relation_interner.symbol_table())

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, rows: slice) -> "IdBlock":
        """The same columns over a zero-copy slice of the rows (a page,
        a ``limit`` prefix)."""
        return replace(self, rows=self.rows[rows])

    def materialize(self) -> List:
        """The rows as strings: one binding dict per row, or one
        :class:`~repro.kg.triple.Triple` per row of a triples block."""
        entities, relations = self.entities, self.relations
        if self.triples:
            unchecked = Triple.unchecked
            return [unchecked(entities[h], relations[r], entities[t])
                    for h, r, t in self.rows.tolist()]
        tables = [entities if kind == "e" else relations
                  for kind in self.kinds]
        names = self.names
        return [{name: table[identifier]
                 for name, table, identifier in zip(names, tables, row)}
                for row in self.rows.tolist()]


class ResultCursor:
    """Pages over one query's results without re-running the query.

    The executor hands a cursor the **deduplicated id-row projection**
    as one :class:`IdBlock`, and each :meth:`fetch` stringifies only the
    rows of the page it returns, so a huge result set never materializes
    all its binding dicts at once.

    Cursors are single-consumer and not thread-safe;
    :class:`~repro.kg.service.QueryService` serializes access for its
    remote-cursor table.  A query ``limit`` is applied once, at cursor
    creation, so paging happens *within* the cap.
    """

    __slots__ = ("_block", "_position", "_closed")

    def __init__(self, block: IdBlock) -> None:
        self._block = block
        self._position = 0
        self._closed = False

    @property
    def total_rows(self) -> int:
        """How many result rows the cursor covers (limit already applied)."""
        return len(self._block)

    @property
    def position(self) -> int:
        """How many rows have been fetched so far."""
        return self._position

    @property
    def exhausted(self) -> bool:
        """True once every row has been fetched (or the cursor closed)."""
        return self._closed or self._position >= self.total_rows

    @property
    def block(self) -> IdBlock:
        """The cursor's *entire* id-row block, independent of paging state.

        This is what the :class:`~repro.kg.service.QueryService` result
        cache pins: the full deduplicated block of a limit-stripped
        execution, from which every per-request limited view is a
        zero-copy slice.
        """
        return self._block

    def _page(self, stop: int) -> IdBlock:
        """The one pager: a view of rows ``[position, stop)``."""
        if self._closed:
            raise CursorError("cursor is closed")
        page = self._block[self._position:stop]
        self._position += len(page)
        return page

    def fetch_block(self, max_rows: int) -> IdBlock:
        """The next page of at most ``max_rows`` results, unmaterialized.

        An empty page means the cursor is exhausted.  ``max_rows`` must
        be positive — a zero/negative page is always a caller bug and
        raises :class:`~repro.errors.CursorError` instead of silently
        spinning forever.
        """
        if not isinstance(max_rows, int) or isinstance(max_rows, bool) \
                or max_rows < 1:
            raise CursorError(
                f"fetch page size must be a positive integer, got {max_rows!r}")
        return self._page(self._position + max_rows)

    def fetch_all_block(self) -> IdBlock:
        """Every remaining row in one page (the non-paged path)."""
        return self._page(self.total_rows)

    def fetch(self, max_rows: int) -> List:
        """:meth:`fetch_block`, materialized as strings."""
        return self.fetch_block(max_rows).materialize()

    def fetch_all(self) -> List:
        """:meth:`fetch_all_block`, materialized as strings."""
        return self.fetch_all_block().materialize()

    def close(self) -> None:
        """Release the rows (the block keeps its columns, zero rows).
        Idempotent; later fetches raise."""
        self._closed = True
        self._block = replace(self._block, rows=self._block.rows[:0].copy())

    def __enter__(self) -> "ResultCursor":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def _project_cursor(backend, plan: QueryPlan,
                    frontier: Optional[_Frontier]) -> ResultCursor:
    """The plan's id projection; a ``None`` frontier (an unknown
    constant, an empty join) projects zero rows."""
    names = plan.select or plan.variables
    if frontier is not None and names:
        rows = np.stack([frontier.columns[name] for name in names], axis=1)
    else:   # nothing survived, or a query binding nothing holds: one row
        rows = np.zeros((0 if frontier is None else 1, len(names)),
                        dtype=np.int64)
    return _id_cursor(backend, plan.query, rows)


def _entity_terms(query: PatternQuery) -> set:
    """Every term in a head or tail position of ``query``."""
    return {term for head, _relation, tail in query.patterns
            for term in (head, tail)}


def _id_cursor(backend, query: PatternQuery,
               rows: np.ndarray) -> ResultCursor:
    """The one projection rule over a query's id rows: ``select``
    deduplicates (:func:`unique_rows` sorts too, so a selected result
    is independent of join or gather order), then ``limit`` slices.  A
    variable is a relation column only if it binds no entity position."""
    names = query.select or query.variables()
    if query.select:
        rows = unique_rows(rows)
    if query.limit is not None:
        rows = rows[:query.limit]
    entities = _entity_terms(query)
    kinds = ["e" if name in entities else "r" for name in names]
    return ResultCursor(IdBlock.over(backend, names, kinds, rows))


def execute_co_partitioned(store: TripleStore,
                           queries: Sequence[PatternQuery]
                           ) -> List[Optional[ResultCursor]]:
    """Answer the star queries of a batch where the data lives.

    One entry per query: a cursor where the backend answered it whole,
    ``None`` where the caller still has to plan and execute it.  A
    backend takes part by exposing ``execute_co_partitioned(queries)``
    → per query its id rows in shard order; only the cluster
    coordinator does.  Projected like a planned result: bit-identical
    under ``select``, else the same binding multiset in shard order.
    """
    cursors: List[Optional[ResultCursor]] = [None] * len(queries)
    pushdown = getattr(store.backend, "execute_co_partitioned", None)
    pushed = [position for position, query in enumerate(queries)
              if pushdown is not None and co_partitioned(query)]
    blocks = pushdown([queries[position] for position in pushed]) \
        if pushed else []
    for position, rows in zip(pushed, blocks):
        cursors[position] = _id_cursor(store.backend, queries[position], rows)
    return cursors


def execute_plans_cursors(store: TripleStore,
                          plans: Sequence[QueryPlan]) -> List[ResultCursor]:
    """Evaluate a batch of plans into one :class:`ResultCursor` each.

    Every step's pattern is resolved from constants only, so no fetch
    waits on another step's rows: all steps of all plans go out in ONE
    ``match_ids_many`` call, each distinct pattern once (shard-routed on
    the sharded backend, one request per shard on the coordinator).
    Each plan then joins its blocks fewest rows first — ``len(block)``
    is the selectivity a count probe would have reported; the sort is
    stable, so ties keep the written order — and stops at the first
    empty frontier.  A plan with an unknown constant is empty before
    any fetch.  Projection is deferred to the cursors: the join
    frontiers are materialized (compact int64 columns), the string
    bindings are not.
    """
    backend = store.backend
    results: List[Optional[ResultCursor]] = [None] * len(plans)
    resolved_plans: List[Tuple[int, List[IdPattern]]] = []
    for index, plan in enumerate(plans):
        resolved = _resolve_constants(backend, plan)
        if resolved is None:
            results[index] = _project_cursor(backend, plan, None)
        else:
            resolved_plans.append((index, resolved))
    distinct = list(dict.fromkeys(
        pattern for _index, resolved in resolved_plans for pattern in resolved))
    blocks = dict(zip(distinct, backend.match_ids_many(distinct))) \
        if distinct else {}
    for index, resolved in resolved_plans:
        plan = plans[index]
        entities = _entity_terms(plan.query)
        fetched = sorted(((step, blocks[pattern])
                          for step, pattern in zip(plan.steps, resolved)),
                         key=lambda pair: len(pair[1]))
        frontier: Optional[_Frontier] = _Frontier()
        for step, block in fetched:
            relation = step.pattern[1]
            rekey = _relation_entity_ids(backend) \
                if is_variable(relation) and relation in entities else None
            frontier = _advance(frontier, step, block, rekey)
            if frontier is None:
                break
        results[index] = _project_cursor(backend, plan, frontier)
    return results
