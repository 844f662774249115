"""The query oracle the parity tests and benches compare against."""

from __future__ import annotations

from typing import Dict, List

from repro.kg.executor import execute_backtracking
from repro.kg.planner import PatternQuery, plan_query
from repro.kg.store import TripleStore


def backtrack(store: TripleStore, query: PatternQuery) -> List[Dict[str, str]]:
    """``query`` answered by the symbol-level reference executor."""
    rows = execute_backtracking(store, plan_query(query))
    return rows if query.limit is None else rows[:query.limit]


def multiset(rows: List[Dict[str, str]]) -> List[tuple]:
    """Binding rows in a canonical order: equal exactly when the two
    answers hold the same bindings the same number of times."""
    return sorted(tuple(sorted(row.items())) for row in rows)
