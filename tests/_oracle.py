"""The reference pair the parity tests and benches compare against.

:func:`execute_backtracking` is the symbol-level evaluator the seed
engine shipped (one ``iter_match`` round-trip per binding per pattern)
and :class:`SetBackend` the dict-of-set store it ran on; neither is in
the package.  Production answers every query with the id executor over
the columnar family, and the suites check it against these two.
:func:`neighbourhood` is the string-level walk the store bench times on
:class:`SetBackend`, which ``KnowledgeGraph.neighbourhood`` refuses.
"""

from __future__ import annotations

import tempfile
import weakref
from collections import defaultdict
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.kg.backend import ColumnarBackend, _BatchedQueriesMixin
from repro.kg.planner import PatternQuery, QueryPlan, is_variable, plan_query
from repro.kg.sharded_backend import ShardedBackend
from repro.kg.store import TripleStore
from repro.kg.triple import Triple

Binding = Dict[str, str]


def backtrack(store: TripleStore, query: PatternQuery) -> List[Binding]:
    """``query`` answered by the symbol-level reference executor."""
    rows = execute_backtracking(store, plan_query(query))
    return rows if query.limit is None else rows[:query.limit]


def multiset(rows: List[Binding]) -> List[tuple]:
    """Binding rows in a canonical order: equal exactly when the two
    answers hold the same bindings the same number of times."""
    return sorted(tuple(sorted(row.items())) for row in rows)


def backend_named(name: str):
    """What ``TripleStore(backend=...)`` takes for a parametrize id:
    ``"set"`` is the reference store here, ``"mmap"`` an empty
    :func:`mapped_backend`, ``"sharded"`` an in-memory
    :class:`ShardedBackend` (not a registered name), any other a
    registered name."""
    if name == "set":
        return SetBackend()
    if name == "sharded":
        return ShardedBackend()
    return mapped_backend() if name == "mmap" else name


def mapped_backend(triples: Iterable[Triple] = (),
                   **options) -> ColumnarBackend:
    """A ``ColumnarBackend`` holding ``triples``, saved and reopened with
    ``ColumnarBackend.open(directory, **options)``: its base is mapped
    from disk.  The directory lives as long as the returned backend."""
    holder = tempfile.TemporaryDirectory()
    source = ColumnarBackend()
    source.add_many(triples)
    backend = ColumnarBackend.open(source.save(holder.name), **options)
    weakref.finalize(backend, holder.cleanup)
    return backend


def neighbourhood(store, node: str, hops: int = 1) -> List[Triple]:
    """All triples within ``hops`` undirected hops of ``node``, sorted: a
    breadth-first walk over any store's ``iter_match``, node by node."""
    frontier: Set[str] = {node}
    seen_nodes: Set[str] = {node}
    collected: Set[Triple] = set()
    for _ in range(hops):
        next_frontier: Set[str] = set()
        for current in frontier:
            for triple in store.iter_match(head=current):
                collected.add(triple)
                next_frontier.add(triple.tail)
            for triple in store.iter_match(tail=current):
                collected.add(triple)
                next_frontier.add(triple.head)
        frontier = next_frontier - seen_nodes
        seen_nodes.update(next_frontier)
    return sorted(collected)


def execute_backtracking(store: TripleStore, plan: QueryPlan) -> List[Binding]:
    """Evaluate a plan by per-binding backtracking over ``iter_match``.

    The seed engine's strategy, word for word: substitute the bindings
    accumulated so far into the next pattern, ask the store for
    matching triples, extend each binding per match.  It compares
    symbols, so it needs no id surface and no entity/relation rekey —
    which is what makes it the reference.  Its per-binding probes do
    depend on earlier rows, so it orders its own steps first: one
    ``count_many``, fewest matches first, ties in written order.
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


class SetBackend(_BatchedQueriesMixin):
    """The original dict-of-set store, kept as the parity reference.

    Six single- and two-key indexes (SPO / POS / OSP style) make every
    pattern lookup a dictionary access rather than a scan.  Index buckets
    are insertion-ordered dicts rather than sets so unsorted ``match``
    results are deterministic for a deterministic insertion sequence
    (plain sets would leak ``PYTHONHASHSEED`` into query order).
    """

    name = "set"

    def __init__(self) -> None:
        self._triples: Dict[Triple, None] = {}
        self._by_head: Dict[str, Dict[Triple, None]] = defaultdict(dict)
        self._by_relation: Dict[str, Dict[Triple, None]] = defaultdict(dict)
        self._by_tail: Dict[str, Dict[Triple, None]] = defaultdict(dict)
        self._by_head_relation: Dict[Tuple[str, str], Dict[Triple, None]] = defaultdict(dict)
        self._by_relation_tail: Dict[Tuple[str, str], Dict[Triple, None]] = defaultdict(dict)
        self._by_head_tail: Dict[Tuple[str, str], Dict[Triple, None]] = defaultdict(dict)

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def add(self, head: str, relation: str, tail: str) -> bool:
        triple = Triple(head, relation, tail)
        if triple in self._triples:
            return False
        self._triples[triple] = None
        self._by_head[head][triple] = None
        self._by_relation[relation][triple] = None
        self._by_tail[tail][triple] = None
        self._by_head_relation[(head, relation)][triple] = None
        self._by_relation_tail[(relation, tail)][triple] = None
        self._by_head_tail[(head, tail)][triple] = None
        return True

    def discard(self, head: str, relation: str, tail: str) -> bool:
        triple = Triple(head, relation, tail)
        if triple not in self._triples:
            return False
        del self._triples[triple]
        self._by_head[head].pop(triple, None)
        self._by_relation[relation].pop(triple, None)
        self._by_tail[tail].pop(triple, None)
        self._by_head_relation[(head, relation)].pop(triple, None)
        self._by_relation_tail[(relation, tail)].pop(triple, None)
        self._by_head_tail[(head, tail)].pop(triple, None)
        return True

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def contains(self, head: str, relation: str, tail: str) -> bool:
        return Triple(head, relation, tail) in self._triples

    def __len__(self) -> int:
        return len(self._triples)

    def iter_triples(self) -> Iterator[Triple]:
        return iter(self._triples)

    def _candidates(self, head: Optional[str], relation: Optional[str],
                    tail: Optional[str]) -> Iterable[Triple]:
        if head is not None and relation is not None and tail is not None:
            candidate = Triple(head, relation, tail)
            return (candidate,) if candidate in self._triples else ()
        if head is not None and relation is not None:
            return self._by_head_relation.get((head, relation), ())
        if relation is not None and tail is not None:
            return self._by_relation_tail.get((relation, tail), ())
        if head is not None and tail is not None:
            return self._by_head_tail.get((head, tail), ())
        if head is not None:
            return self._by_head.get(head, ())
        if relation is not None:
            return self._by_relation.get(relation, ())
        if tail is not None:
            return self._by_tail.get(tail, ())
        return self._triples

    def match(self, head: Optional[str] = None, relation: Optional[str] = None,
              tail: Optional[str] = None, sort: bool = False) -> List[Triple]:
        candidates = self._candidates(head, relation, tail)
        return sorted(candidates) if sort else list(candidates)

    def iter_match(self, head: Optional[str] = None, relation: Optional[str] = None,
                   tail: Optional[str] = None) -> Iterator[Triple]:
        return iter(self._candidates(head, relation, tail))

    def count(self, head: Optional[str] = None, relation: Optional[str] = None,
              tail: Optional[str] = None) -> int:
        # Every branch of _candidates returns a sized container.
        return len(self._candidates(head, relation, tail))

    def tails(self, head: str, relation: str) -> List[str]:
        return sorted(t.tail for t in self._by_head_relation.get((head, relation), ()))

    def heads(self, relation: str, tail: str) -> List[str]:
        return sorted(t.head for t in self._by_relation_tail.get((relation, tail), ()))

    def degree(self, node: str) -> int:
        return len(self._by_head.get(node, ())) + len(self._by_tail.get(node, ()))

    def entities(self) -> List[str]:
        nodes = {key for key, triples in self._by_head.items() if triples}
        nodes.update(key for key, triples in self._by_tail.items() if triples)
        return sorted(nodes)

    def relations(self) -> List[str]:
        return sorted(rel for rel, triples in self._by_relation.items() if triples)

    def heads_only(self) -> List[str]:
        return sorted(key for key, triples in self._by_head.items() if triples)

    def relation_frequencies(self) -> Dict[str, int]:
        return {rel: len(triples) for rel, triples in self._by_relation.items() if triples}
