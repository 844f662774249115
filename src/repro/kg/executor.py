"""Query execution: vectorized ID-space joins plus the legacy backtracker.

The counterpart of :mod:`repro.kg.planner`.  Two executors evaluate a
:class:`~repro.kg.planner.QueryPlan`:

* :func:`execute_plans_cursors` — the **ID-space executor**.  Each
  pattern's constants are interned once; the pattern is fetched as one
  ``(k, 3)`` int64 block from the backend's CSR indexes
  (:meth:`match_ids` / the batched :meth:`match_ids_many`); the binding
  frontier is a set of parallel numpy id columns (one per variable)
  that each step extends with a vectorized hash join — factorize the
  shared-variable key columns, sort one side, ``searchsorted`` the
  other, expand matches with ``repeat``/``cumsum`` arithmetic.  Every
  step of every plan in a batch is fetched in ONE ``match_ids_many``
  call (which the sharded backend routes per shard — one round, one
  request per shard), and each plan joins its blocks fewest rows
  first.  The result is an :class:`IdBlock`; strings appear exactly
  once, in :meth:`IdBlock.materialize`, on the thread that encodes or
  consumes the rows.

* :func:`execute_backtracking` — the original symbol-level evaluator
  (one ``iter_match`` round-trip per binding per pattern), kept both as
  the parity reference and as the fallback for backends without an id
  surface (``SetBackend``) and for the rare query whose variable binds
  in both entity and relation positions (``plan.id_space`` False —
  entity and relation ids are different spaces, only symbols compare).

Both executors produce identical binding *sets*; only the row order is
executor-defined (deterministic for a deterministic store either way).

:func:`execute_co_partitioned` runs before either: a batch's star
queries go to a backend that answers them whole (the coordinator).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CursorError
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


# --------------------------------------------------------------------------- #
# legacy symbol-level backtracking executor
# --------------------------------------------------------------------------- #
def execute_backtracking(store: TripleStore, plan: QueryPlan) -> List[Binding]:
    """Evaluate a plan by per-binding backtracking over ``iter_match``.

    This is the seed engine's strategy, word for word: substitute the
    bindings accumulated so far into the next pattern, ask the store for
    matching triples, extend each binding per match.  Kept as the parity
    oracle and the fallback for non-id backends / non-id-space plans.
    Its per-binding probes do depend on earlier rows, so it orders its
    own steps first: one ``count_many``, fewest matches first, ties in
    written order.
    """
    steps = list(plan.steps)
    if len(steps) > 1:
        counts = store.count_many([step.constants for step in steps])
        steps = [steps[index] for index in
                 sorted(range(len(steps)), key=counts.__getitem__)]
    bindings: List[Binding] = [{}]
    for step in steps:
        next_bindings: List[Binding] = []
        for binding in bindings:
            next_bindings.extend(_extend(store, binding, step.pattern))
        bindings = next_bindings
        if not bindings:
            return []
    return _project_bindings(bindings, plan.select)


def _extend(store: TripleStore, binding: Binding,
            pattern: Tuple[str, str, str]) -> Iterable[Binding]:
    head, relation, tail = (_substitute(term, binding) for term in pattern)
    matches = store.iter_match(
        head=None if is_variable(head) else head,
        relation=None if is_variable(relation) else relation,
        tail=None if is_variable(tail) else tail,
    )
    for triple in matches:
        extended = dict(binding)
        if not _bind(extended, head, triple.head):
            continue
        if not _bind(extended, relation, triple.relation):
            continue
        if not _bind(extended, tail, triple.tail):
            continue
        yield extended


def _substitute(term: str, binding: Binding) -> str:
    if is_variable(term) and term in binding:
        return binding[term]
    return term


def _bind(binding: Binding, term: str, value: str) -> bool:
    if not is_variable(term):
        return term == value
    existing = binding.get(term)
    if existing is None:
        binding[term] = value
        return True
    return existing == value


def _project_bindings(bindings: List[Binding],
                      select: Tuple[str, ...]) -> List[Binding]:
    if not select:
        return bindings
    projected: List[Binding] = []
    seen = set()
    for binding in bindings:
        row = {var: binding[var] for var in select}
        key = tuple(sorted(row.items()))
        if key not in seen:
            seen.add(key)
            projected.append(row)
    return projected


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


def _pattern_columns(step: PatternStep,
                     block: np.ndarray) -> Tuple[np.ndarray, Dict[str, int]]:
    """Filter repeated-variable rows; map each variable to its column.

    A variable occurring twice in one pattern (``(?x, r, ?x)``) keeps
    only rows where the occurrences agree; the surviving first position
    becomes the variable's column.
    """
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


def _advance(frontier: _Frontier, step: PatternStep,
             block: np.ndarray) -> Optional[_Frontier]:
    """Join one step's matched block into the frontier; ``None`` once
    no binding survives."""
    block, var_position = _pattern_columns(step, block)
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
        # No shared variables: cartesian product (the legacy executor
        # does the same — every binding pairs with every match).
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


def materialize(result) -> List:
    """A read result as strings: blocks materialize, the executor's own
    list-backed results (no-variable queries, the backtracking
    fallback) already are."""
    return result.materialize() if isinstance(result, IdBlock) else result


class ResultCursor:
    """Pages over one query's results without re-running the query.

    The ID-space executor hands a cursor the **deduplicated id-row
    projection** as one :class:`IdBlock`, and each :meth:`fetch`
    stringifies only the rows of the page it returns, so a huge result
    set never materializes all its binding dicts at once.  Results from
    the backtracking fallback (and degenerate no-variable results) page
    over an already-built list; either way the paging surface is
    identical.

    Cursors are single-consumer and not thread-safe;
    :class:`~repro.kg.service.QueryService` serializes access for its
    remote-cursor table.  A query ``limit`` is applied once, at cursor
    creation, so paging happens *within* the cap.
    """

    __slots__ = ("_result", "_position", "_closed")

    def __init__(self, result) -> None:
        self._result = result                # IdBlock, or a list
        self._position = 0
        self._closed = False

    @property
    def total_rows(self) -> int:
        """How many result rows the cursor covers (limit already applied)."""
        return len(self._result)

    @property
    def position(self) -> int:
        """How many rows have been fetched so far."""
        return self._position

    @property
    def exhausted(self) -> bool:
        """True once every row has been fetched (or the cursor closed)."""
        return self._closed or self._position >= self.total_rows

    @property
    def block(self) -> Optional[IdBlock]:
        """The cursor's *entire* id-row block, independent of paging state.

        ``None`` for list-backed cursors.  This is what the
        :class:`~repro.kg.service.QueryService` result cache pins: the
        full deduplicated block of a limit-stripped execution, from
        which every per-request limited view is a zero-copy slice.
        """
        result = self._result
        return result if isinstance(result, IdBlock) else None

    def _page(self, stop: int):
        """The one pager: rows ``[position, stop)`` in the cursor's own
        representation (an :class:`IdBlock` view, or a list slice)."""
        if self._closed:
            raise CursorError("cursor is closed")
        page = self._result[self._position:stop]
        self._position += len(page)
        return page

    def fetch_block(self, max_rows: int):
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

    def fetch_all_block(self):
        """Every remaining row in one page (the non-paged path)."""
        return self._page(self.total_rows)

    def fetch(self, max_rows: int) -> List:
        """:meth:`fetch_block`, materialized as strings."""
        return materialize(self.fetch_block(max_rows))

    def fetch_all(self) -> List:
        """:meth:`fetch_all_block`, materialized as strings."""
        return materialize(self.fetch_all_block())

    def close(self) -> None:
        """Release the row block.  Idempotent; later fetches raise."""
        self._closed = True
        self._result = []

    def __enter__(self) -> "ResultCursor":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def _project_cursor(backend, plan: QueryPlan,
                    frontier: _Frontier) -> ResultCursor:
    """Build the deduplicated, limit-capped id projection for a plan."""
    names = list(plan.select) if plan.select else list(plan.variables)
    limit = plan.query.limit
    if not names:
        rows = [{}] if frontier.num_rows else []
        return ResultCursor(rows if limit is None else rows[:limit])
    stacked = np.stack([frontier.columns[name] for name in names], axis=1)
    return _id_cursor(backend, plan.query, names, stacked)


def _id_cursor(backend, query: PatternQuery, names: Sequence[str],
               rows: np.ndarray) -> ResultCursor:
    """The one projection rule over an id-space query's rows: ``select``
    deduplicates (:func:`unique_rows` sorts too, so a selected result
    is independent of join or gather order), then ``limit`` slices."""
    if query.select:
        rows = unique_rows(rows)
    if query.limit is not None:
        rows = rows[:query.limit]
    # Id-space: a relation variable is one in a relation position.
    relation_variables = {pattern[1] for pattern in query.patterns}
    kinds = ["r" if name in relation_variables else "e" for name in names]
    return ResultCursor(IdBlock.over(backend, names, kinds, rows))


def execute_co_partitioned(store: TripleStore,
                           queries: Sequence[PatternQuery]
                           ) -> List[Optional[ResultCursor]]:
    """Answer the star queries of a batch where the data lives.

    One entry per query: a cursor where the backend answered it whole,
    ``None`` where the caller still has to plan and execute it.  A
    backend takes part by exposing ``execute_co_partitioned(queries)``
    → per query its id rows in shard order, or ``None`` when it cannot
    right now; only the cluster coordinator does.  Projected
    like a planned result: bit-identical under ``select``, else the
    same binding multiset in shard order.
    """
    cursors: List[Optional[ResultCursor]] = [None] * len(queries)
    pushdown = getattr(store.backend, "execute_co_partitioned", None)
    pushed = [position for position, query in enumerate(queries)
              if pushdown is not None and co_partitioned(query)]
    blocks = pushdown([queries[position] for position in pushed]) \
        if pushed else None
    for position, rows in zip(pushed, blocks or ()):
        query = queries[position]
        cursors[position] = _id_cursor(
            store.backend, query, query.select or query.variables(), rows)
    return cursors


def execute_plans_cursors(store: TripleStore,
                          plans: Sequence[QueryPlan]) -> List[ResultCursor]:
    """Evaluate a batch of plans into one :class:`ResultCursor` each.

    Every step's pattern is resolved from constants only, so no fetch
    waits on another step's rows: all steps of all ID-space-executable
    plans go out in ONE ``match_ids_many`` call, each distinct pattern
    once (shard-routed on the sharded backend, one request per shard on
    the coordinator).  Each plan then joins its blocks fewest rows
    first — ``len(block)`` is the selectivity a count probe would have
    reported; the sort is stable, so ties keep the written order — and
    stops at the first empty frontier.  A plan with an unknown constant
    is empty before any fetch.  Plans the id executor cannot run (no id
    backend, mixed-kind variables) fall back to
    :func:`execute_backtracking` transparently (their cursor pages over
    the materialized list).  Projection is deferred to the cursors: the
    join frontiers are materialized (compact int64 columns), the string
    bindings are not.
    """
    backend = store.backend
    id_backend = supports_id_queries(backend)
    results: List[Optional[ResultCursor]] = [None] * len(plans)
    resolved_plans: List[Tuple[int, List[IdPattern]]] = []
    for index, plan in enumerate(plans):
        if not plan.id_space or not id_backend:
            rows = execute_backtracking(store, plan)
            if plan.query.limit is not None:
                rows = rows[:plan.query.limit]
            results[index] = ResultCursor(rows)
            continue
        resolved = _resolve_constants(backend, plan)
        if resolved is None:
            results[index] = ResultCursor([])
        else:
            resolved_plans.append((index, resolved))
    distinct = list(dict.fromkeys(
        pattern for _index, resolved in resolved_plans for pattern in resolved))
    blocks = dict(zip(distinct, backend.match_ids_many(distinct))) \
        if distinct else {}
    for index, resolved in resolved_plans:
        plan = plans[index]
        fetched = sorted(((step, blocks[pattern])
                          for step, pattern in zip(plan.steps, resolved)),
                         key=lambda pair: len(pair[1]))
        frontier: Optional[_Frontier] = _Frontier()
        for step, block in fetched:
            frontier = _advance(frontier, step, block)
            if frontier is None:
                break
        results[index] = ResultCursor([]) if frontier is None \
            else _project_cursor(backend, plan, frontier)
    return results
