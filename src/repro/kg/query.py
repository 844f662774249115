"""The triple-pattern query facade.

OpenBG's applications need more than single-pattern lookups: joining
products to their brand's place, walking taxonomy chains, filtering by
attribute values.  :class:`QueryEngine` evaluates conjunctive queries of
triple patterns with named variables (a pragmatic subset of SPARQL basic
graph patterns) against a :class:`~repro.kg.store.TripleStore`.

The engine is a thin facade over a plan/execute pipeline:

* :mod:`repro.kg.planner` normalizes and validates patterns and
  analyzes variables — a pure function of the query;
* :mod:`repro.kg.executor` evaluates the plan in **id space**:
  constants interned once, every pattern of every query fetched as an
  int64 block in one batched backend call, the blocks joined fewest
  rows first with the binding frontier carried as numpy id columns
  through vectorized hash joins, strings materialized only at
  projection.  The store's backend must have the id surface (the
  columnar family, the cluster coordinator); any other raises a typed
  :class:`~repro.errors.QueryError` at construction.

Row order is executor-defined.  For a concurrent, batching front-end
over the same pipeline see :class:`repro.kg.service.QueryService`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence, Tuple

from repro.kg.executor import (
    Binding,
    ResultCursor,
    execute_co_partitioned,
    execute_plans_cursors,
    id_backend,
)
from repro.kg.planner import (
    PatternQuery,
    QueryPlan,
    is_variable,
    plan_queries,
    plan_query,
)
from repro.kg.store import TripleStore

__all__ = [
    "Binding",
    "PatternQuery",
    "QueryEngine",
    "QueryPlan",
    "ResultCursor",
    "is_variable",
]


class QueryEngine:
    """Evaluates :class:`PatternQuery` objects against a :class:`TripleStore`
    whose backend has the id surface (:class:`~repro.errors.QueryError`
    otherwise)."""

    def __init__(self, store: TripleStore) -> None:
        id_backend(store)
        self.store = store

    def plan(self, query: PatternQuery) -> QueryPlan:
        """Plan a query without executing it (no store round-trip).

        Raises :class:`~repro.errors.QueryError` when ``select`` names a
        variable no pattern binds.
        """
        return plan_query(query)

    def execute(self, query: PatternQuery,
                limit: Optional[int] = None) -> List[Binding]:
        """Return all variable bindings satisfying every pattern.

        The fetched pattern blocks are joined in selectivity order —
        fewest matching triples first — which is what keeps conjunctive
        queries fast on skewed stores.  ``limit`` caps the materialized
        rows (overriding any cap on the query itself); ``limit=0``
        raises — see :func:`repro.kg.planner.validate_limit`.

        A ``select`` naming a variable that never binds raises
        :class:`~repro.errors.QueryError` instead of silently dropping
        the column from result rows.
        """
        return self.execute_many([query], limit=limit)[0]

    def execute_many(self, queries: Sequence[PatternQuery],
                     limit: Optional[int] = None) -> List[List[Binding]]:
        """Execute a batch of queries with one batched fetch.

        Every pattern of every query goes out in a single
        ``match_ids_many`` backend call (each distinct pattern once); no
        count probe is issued.  ``limit`` (when given) caps every query
        in the batch.
        """
        return [cursor.fetch_all()
                for cursor in self.cursor_many(queries, limit=limit)]

    def cursor(self, query: PatternQuery,
               limit: Optional[int] = None) -> ResultCursor:
        """Execute a query into a :class:`ResultCursor` instead of a list.

        The joins run to completion (the id frontier is compact), but
        string bindings materialize page by page as the caller
        :meth:`~repro.kg.executor.ResultCursor.fetch`\\ es — the
        streaming form huge result sets want, and what the network
        protocol pages over the wire.
        """
        return self.cursor_many([query], limit=limit)[0]

    def cursor_many(self, queries: Sequence[PatternQuery],
                    limit: Optional[int] = None) -> List[ResultCursor]:
        """Batched :meth:`cursor` — one fetch round, one cursor each."""
        if limit is not None:
            queries = [replace(query, limit=limit) for query in queries]
        cursors = execute_co_partitioned(self.store, queries)
        rest = [query for query, cursor in zip(queries, cursors)
                if cursor is None]
        planned = iter(execute_plans_cursors(self.store, plan_queries(rest)))
        return [next(planned) if cursor is None else cursor
                for cursor in cursors]

    # ------------------------------------------------------------------ #
    # convenience helpers used by the applications layer
    # ------------------------------------------------------------------ #
    def one_hop(self, head: str, relation: str) -> List[str]:
        """Tails reachable from ``head`` through ``relation``."""
        return self.store.tails(head, relation)

    def two_hop(self, head: str, relation1: str, relation2: str) -> List[str]:
        """Tails reachable through a 2-step relation path."""
        middles = self.store.tails(head, relation1)
        results = set()
        for tails in self.store.tails_many([(middle, relation2) for middle in middles]):
            results.update(tails)
        return sorted(results)

    def co_occurring_heads(self, relation: str, tail: str,
                           limit: Optional[int] = None) -> List[str]:
        """Heads sharing the given (relation, tail) pair, e.g. same-brand items."""
        heads = self.store.heads(relation, tail)
        return heads if limit is None else heads[:limit]
