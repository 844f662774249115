"""Query planning: pattern normalization, validation, variable analysis.

The query layer is split into a **planner** (this module) and an
**executor** (:mod:`repro.kg.executor`).  Planning is pure analysis of
the query text — no store is consulted:

* :class:`PatternQuery` — the user-facing conjunctive query (a sequence
  of (head, relation, tail) patterns with ``?variables``);
* :func:`plan_query` / :func:`plan_queries` — turn queries into
  :class:`QueryPlan` objects: the patterns in written order, each
  annotated with its constants and variable occurrences — the join
  order is the executor's decision, taken from the sizes of the blocks
  it fetched;
* select validation — a ``select`` naming a variable the query never
  binds raises :class:`~repro.errors.QueryError` instead of silently
  producing partial rows;
* :func:`cache_key` — the stable canonical identity of a plan that the
  :class:`~repro.kg.service.QueryService` result cache is keyed by:
  interned pattern ids plus ``select``, deliberately
  **limit-independent** (cache entries hold the full deduplicated
  id-row block; ``limit`` applies at projection), and :func:`key_triple`,
  a written triple in that key's term space (what invalidation probes);
* :func:`co_partitioned` — the star-query shape test: what a store
  partitioned by head hash answers shard by shard, unplanned.

Plans are inert data; handing one to
:func:`repro.kg.executor.execute_plans_cursors` produces result cursors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import QueryError


def is_variable(term: str) -> bool:
    """Terms starting with ``?`` are variables; anything else is a constant."""
    return term.startswith("?")


@dataclass(frozen=True)
class PatternQuery:
    """A conjunctive query: a sequence of (head, relation, tail) patterns.

    Each position is either a constant identifier or a ``?variable``.
    ``select`` optionally restricts which variables appear in the results.
    ``limit`` caps how many result rows execution materializes (``None``
    means all; a cursor over a limited query pages within the cap).
    """

    patterns: Tuple[Tuple[str, str, str], ...]
    select: Tuple[str, ...] = ()
    limit: Optional[int] = None

    @classmethod
    def from_patterns(cls, patterns: Sequence[Sequence[str]],
                      select: Sequence[str] = (),
                      limit: Optional[int] = None) -> "PatternQuery":
        """Build a query from plain lists/tuples."""
        normalized = tuple(tuple(pattern) for pattern in patterns)
        for pattern in normalized:
            if len(pattern) != 3:
                raise ValueError(f"pattern must have 3 terms, got {pattern!r}")
        return cls(patterns=normalized, select=tuple(select), limit=limit)

    def variables(self) -> List[str]:
        """All variables mentioned in the query, in first-appearance order."""
        seen: List[str] = []
        for pattern in self.patterns:
            for term in pattern:
                if is_variable(term) and term not in seen:
                    seen.append(term)
        return seen


@dataclass(frozen=True)
class PatternStep:
    """One pattern of a plan: constants split out, variables located.

    ``constants`` holds the constant symbol per position (``None`` where
    the position is a variable); ``variables`` lists every
    ``(position, name)`` variable occurrence, including repeats of the
    same variable within the pattern (the executor turns repeats into
    equality filters).
    """

    pattern: Tuple[str, str, str]
    constants: Tuple[Optional[str], Optional[str], Optional[str]]
    variables: Tuple[Tuple[int, str], ...]


@dataclass(frozen=True)
class QueryPlan:
    """An analyzed query ready for execution.

    ``steps`` are the query's patterns in written order; the executor
    joins them fewest-matching-rows first (a stable sort: ties keep the
    written order).
    ``variables`` is the first-appearance order
    :meth:`PatternQuery.variables` reports.
    """

    query: PatternQuery
    steps: Tuple[PatternStep, ...]
    variables: Tuple[str, ...]
    select: Tuple[str, ...]


def validate_select(query: PatternQuery) -> None:
    """Raise :class:`QueryError` when ``select`` names an unbindable variable.

    Every selected name must be a ``?variable`` that some pattern
    mentions; anything else (a misspelled variable, a plain constant)
    would previously be silently dropped from the result rows.
    """
    if not query.select:
        return
    known = set(query.variables())
    for name in query.select:
        if not is_variable(name):
            raise QueryError(
                f"select term {name!r} is not a variable (variables start with '?')")
        if name not in known:
            raise QueryError(
                f"select variable {name!r} is never bound by any pattern "
                f"(query binds: {', '.join(sorted(known)) or 'nothing'})")


def validate_limit(limit: Optional[int]) -> None:
    """Raise :class:`QueryError` for a limit that cannot mean anything.

    ``limit=0`` (or negative) is always a caller bug — "no rows" is not
    a query worth executing, and silently returning an empty result
    would mask a dropped variable upstream — so it fails loudly instead
    of producing a partial silent result.
    """
    if limit is None:
        return
    if not isinstance(limit, int) or isinstance(limit, bool) or limit < 1:
        raise QueryError(
            f"limit must be a positive integer or None, got {limit!r}")


def _make_step(pattern: Tuple[str, str, str]) -> PatternStep:
    constants = tuple(None if is_variable(term) else term for term in pattern)
    variables = tuple((position, term) for position, term in enumerate(pattern)
                      if is_variable(term))
    return PatternStep(pattern=pattern, constants=constants,
                       variables=variables)


def plan_queries(queries: Sequence[PatternQuery]) -> List[QueryPlan]:
    """Validate and analyze a batch of queries; no store is consulted."""
    return [plan_query(query) for query in queries]


def plan_query(query: PatternQuery) -> QueryPlan:
    """Plan a single query: a pure function of the query text."""
    validate_select(query)
    validate_limit(query.limit)
    return QueryPlan(
        query=query,
        steps=tuple(_make_step(pattern) for pattern in query.patterns),
        variables=tuple(query.variables()),
        select=query.select,
    )


def co_partitioned(query: PatternQuery) -> bool:
    """True for a well-formed star query: ≥ 2 patterns, every head the
    same variable.  A store partitioned by head hash finds each binding
    whole on the shard owning its head, so the shards' answers just
    concatenate into the full binding multiset."""
    heads = {pattern[0] for pattern in query.patterns}
    if len(query.patterns) < 2 or len(heads) > 1 \
            or not is_variable(min(heads)):
        return False
    try:
        validate_select(query)
        validate_limit(query.limit)
    except QueryError:
        return False    # never shipped: planning raises it, per request
    return True


def cache_key(backend: object, query: PatternQuery) -> Tuple:
    """The stable identity of a query's *result*.

    Two queries get the same key exactly when the executor is
    guaranteed to produce bit-identical id-row blocks for them against
    an unchanged store:

    * constants are canonicalized to their interned ids (position 1
      through the relation interner, positions 0/2 through the entity
      interner), so spelling differences that alias the same id — there
      are none today, but the interner owns that decision — cannot
      split the cache;
    * variables keep their names verbatim: renaming a variable changes
      projection column names, which are part of the result;
    * ``select`` is part of the key (it changes the projected
      columns), but ``limit`` is deliberately **not**: execution only
      applies ``limit`` as a final projection slice, so one cache entry
      holds the full block and every limit is a view of it.

    A constant the interner has never seen keys as ``("#", term)``.
    Interners are append-only: an id never changes, and an
    ``("#", term)`` entry becomes unreachable (no query computes its
    key again) once ``term`` is interned there.  So while an entry is
    reachable each of its constants canonicalizes now exactly as it did
    at fill, and a written triple put in this term space by
    :func:`key_triple` — before or after its own apply — meets the
    key's terms wherever it matches a pattern.  That is why the service
    may drop only the entries a write matches instead of all of them.
    """
    entity_lookup = backend.entity_interner.lookup
    relation_lookup = backend.relation_interner.lookup
    terms: List[object] = []
    for pattern in query.patterns:
        for position, term in enumerate(pattern):
            if is_variable(term):
                terms.append(term)
                continue
            lookup = relation_lookup if position == 1 else entity_lookup
            terms.append(_known(lookup(term), term))
    return (tuple(query.select), tuple(terms))


def key_triple(backend: object, triple) -> Tuple:
    """A written ``(head, relation, tail)`` in :func:`cache_key`'s term
    space: every term canonicalized as the constant it is, an interned
    id or ``("#", term)``.  A written term is never a variable, even
    one spelled ``?x``."""
    entity_lookup = backend.entity_interner.lookup
    head, relation, tail = triple
    return (_known(entity_lookup(head), head),
            _known(backend.relation_interner.lookup(relation), relation),
            _known(entity_lookup(tail), tail))


def _known(interned: Optional[int], term: str) -> object:
    return ("#", term) if interned is None else interned
