"""Tests for the plan/execute query layer (ID-space executor parity)."""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracle import backtrack
from repro.errors import QueryError
from repro.kg.backend import IdQueryBackend, supports_id_queries
from repro.kg.executor import execute_plans_cursors
from repro.kg.planner import is_variable, plan_queries, plan_query
from repro.kg.query import PatternQuery, QueryEngine
from repro.kg.sharded_backend import ShardedBackend
from repro.kg.store import TripleStore
from repro.kg.triple import triples_from_tuples

BACKENDS = ("set", "columnar", "mmap", "sharded")


def _store(rows, backend: str) -> TripleStore:
    if backend == "sharded":
        return TripleStore(triples_from_tuples(rows),
                           backend=ShardedBackend(n_shards=2))
    return TripleStore(triples_from_tuples(rows), backend=backend)


def _binding_set(rows):
    return {frozenset(binding.items()) for binding in rows}


SAMPLE_ROWS = [
    ("p1", "brandIs", "apple"),
    ("p2", "brandIs", "apple"),
    ("p3", "brandIs", "tesla"),
    ("p1", "placeOfOrigin", "china"),
    ("p2", "placeOfOrigin", "china"),
    ("p3", "placeOfOrigin", "america"),
    ("apple", "headquartersIn", "america"),
    ("tesla", "headquartersIn", "america"),
]

SAMPLE_QUERIES = [
    PatternQuery.from_patterns([("?p", "brandIs", "apple")], select=["?p"]),
    PatternQuery.from_patterns([("?p", "brandIs", "?b"),
                                ("?b", "headquartersIn", "?c")]),
    PatternQuery.from_patterns([("?p", "brandIs", "?b"),
                                ("?b", "headquartersIn", "?c"),
                                ("?p", "placeOfOrigin", "china")],
                               select=["?p", "?c"]),
    PatternQuery.from_patterns([("?a", "?r", "america")]),
    PatternQuery.from_patterns([("?p", "placeOfOrigin", "?x"),
                                ("?b", "headquartersIn", "?x")]),
    PatternQuery.from_patterns([("p1", "brandIs", "apple"),
                                ("?p", "placeOfOrigin", "?where")]),
    PatternQuery.from_patterns([("?p", "brandIs", "nokia")]),
    PatternQuery.from_patterns([]),
]


@pytest.mark.parametrize("backend", BACKENDS)
def test_id_executor_matches_backtracking_on_samples(backend):
    engine = QueryEngine(_store(SAMPLE_ROWS, backend))
    for query in SAMPLE_QUERIES:
        for reorder in (True, False):
            auto = engine.execute(query, reorder=reorder)
            legacy = backtrack(engine.store, query, reorder=reorder)
            assert _binding_set(auto) == _binding_set(legacy), query


@pytest.mark.parametrize("backend", ("columnar", "mmap", "sharded"))
def test_id_strategy_explicitly(backend):
    """An id-capable backend and an id-space plan run on the ID-space
    executor — the cursor is block-backed — and match the oracle."""
    store = _store(SAMPLE_ROWS, backend)
    query = SAMPLE_QUERIES[2]
    (cursor,) = execute_plans_cursors(store, [plan_query(store, query)])
    assert cursor.block is not None
    assert _binding_set(cursor.fetch_all()) == \
        _binding_set(backtrack(store, query))


def test_id_strategy_rejected_on_set_backend():
    """No id surface: the executor itself picks the backtracking
    reference (a list-backed cursor), and the engine still answers."""
    store = _store(SAMPLE_ROWS, "set")
    query = SAMPLE_QUERIES[0]
    (cursor,) = execute_plans_cursors(store, [plan_query(store, query)])
    assert cursor.block is None
    assert cursor.fetch_all() == backtrack(store, query)
    assert QueryEngine(store).execute(query) == backtrack(store, query)


def test_id_strategy_rejected_on_mixed_kind_variable():
    store = _store(SAMPLE_ROWS + [("brandIs", "r", "x")], "columnar")
    engine = QueryEngine(store)
    # ?m binds a relation in the first pattern and an entity in the second.
    query = PatternQuery.from_patterns([("?p", "?m", "apple"), ("?m", "r", "?t")])
    plan = plan_query(store, query)
    assert not plan.id_space
    (cursor,) = execute_plans_cursors(store, [plan])
    assert cursor.block is None     # fell back: ids of two spaces don't join
    auto = engine.execute(query)
    legacy = backtrack(store, query)
    assert _binding_set(auto) == _binding_set(legacy)
    assert auto  # (?p=brandIs is not a real binding; ?m=brandIs joins both)


def test_unknown_strategy_raises():
    """The executor is chosen from the store and the plan; ``strategy``
    is not a parameter of the engine."""
    engine = QueryEngine(_store(SAMPLE_ROWS, "columnar"))
    for call in (engine.execute, engine.execute_many):
        with pytest.raises(TypeError, match="strategy"):
            call(SAMPLE_QUERIES[0], strategy="backtracking")


def test_repeated_variable_within_pattern():
    rows = SAMPLE_ROWS + [("loop", "r", "loop"), ("a", "r", "b")]
    for backend in BACKENDS:
        engine = QueryEngine(_store(rows, backend))
        query = PatternQuery.from_patterns([("?x", "r", "?x")])
        assert engine.execute(query) == [{"?x": "loop"}]
        assert backtrack(engine.store, query) == [{"?x": "loop"}]


def test_cartesian_product_between_disjoint_patterns():
    for backend in BACKENDS:
        engine = QueryEngine(_store(SAMPLE_ROWS, backend))
        query = PatternQuery.from_patterns([("?p", "brandIs", "apple"),
                                            ("?b", "headquartersIn", "?c")])
        auto = engine.execute(query)
        legacy = backtrack(engine.store, query)
        assert _binding_set(auto) == _binding_set(legacy)
        assert len(auto) == 4  # 2 apple products x 2 headquarters

# --------------------------------------------------------------------------- #
# select validation (the silently-dropped-variable bugfix)
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("executor", ("auto", "backtracking"))
def test_select_unknown_variable_raises_naming_it(executor):
    store = _store(SAMPLE_ROWS, "columnar")
    query = PatternQuery.from_patterns([("?p", "brandIs", "apple")],
                                       select=["?p", "?brand"])
    with pytest.raises(QueryError, match=r"\?brand"):
        if executor == "auto":
            QueryEngine(store).execute(query)
        else:
            backtrack(store, query)


def test_select_non_variable_raises():
    engine = QueryEngine(_store(SAMPLE_ROWS, "columnar"))
    query = PatternQuery.from_patterns([("?p", "brandIs", "apple")],
                                       select=["p"])
    with pytest.raises(QueryError, match="not a variable"):
        engine.execute(query)


def test_select_projection_dedupes():
    for backend in BACKENDS:
        engine = QueryEngine(_store(SAMPLE_ROWS, backend))
        query = PatternQuery.from_patterns([("?p", "placeOfOrigin", "china"),
                                            ("?p", "brandIs", "?b")],
                                           select=["?b"])
        assert engine.execute(query) == [{"?b": "apple"}]


# --------------------------------------------------------------------------- #
# planner
# --------------------------------------------------------------------------- #
def test_plan_orders_by_selectivity():
    store = _store(SAMPLE_ROWS, "columnar")
    query = PatternQuery.from_patterns([("?p", "brandIs", "?b"),
                                        ("?b", "headquartersIn", "america"),
                                        ("?p", "placeOfOrigin", "china")])
    plan = plan_query(store, query)
    counts = [step.count for step in plan.steps]
    assert counts == sorted(counts)
    assert plan.steps[0].pattern != query.patterns[0]
    unordered = plan_query(store, query, reorder=False)
    assert tuple(step.pattern for step in unordered.steps) == query.patterns


def test_plan_many_batches_counts(monkeypatch):
    store = _store(SAMPLE_ROWS, "columnar")
    calls = []
    original = type(store.backend).count_many

    def spy(self, patterns):
        calls.append(len(patterns))
        return original(self, patterns)

    monkeypatch.setattr(type(store.backend), "count_many", spy)
    queries = [SAMPLE_QUERIES[1], SAMPLE_QUERIES[2], SAMPLE_QUERIES[4]]

    def distinct_patterns(batch):
        return {tuple(None if is_variable(term) else term for term in pattern)
                for query in batch for pattern in query.patterns}

    # Still ONE call per batch — of the *distinct* constants-only
    # patterns: a repeated pattern is counted once and fanned back out.
    plans = plan_queries(store, queries)
    assert calls == [len(distinct_patterns(queries))]
    assert calls[0] < sum(len(query.patterns) for query in queries)
    # A batch that is all duplicates costs what one copy costs, and
    # every copy is planned exactly like the original.
    del calls[:]
    tripled = plan_queries(store, queries * 3)
    assert calls == [len(distinct_patterns(queries))]
    assert tripled == plans * 3


def test_supports_id_queries_flags():
    assert not supports_id_queries(_store(SAMPLE_ROWS, "set").backend)
    for backend in ("columnar", "mmap", "sharded"):
        assert supports_id_queries(_store(SAMPLE_ROWS, backend).backend)
    # It is an attribute check over exactly what IdQueryBackend declares.
    declared = [name for name in vars(IdQueryBackend) if name[0] != "_"] \
        + list(IdQueryBackend.__annotations__)
    assert len(declared) == 5
    for missing in declared:
        stub = SimpleNamespace(**dict.fromkeys(declared))
        assert supports_id_queries(stub)
        delattr(stub, missing)
        assert not supports_id_queries(stub), missing


# --------------------------------------------------------------------------- #
# reopened (on-disk) stores
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", ("columnar", "sharded"))
def test_executor_parity_on_reopened_store(tmp_path, backend):
    store = _store(SAMPLE_ROWS, backend)
    store.save(tmp_path / backend)
    reopened = TripleStore.open(tmp_path / backend)
    engine = QueryEngine(reopened)
    for query in SAMPLE_QUERIES:
        expected = _binding_set(backtrack(store, query))
        assert _binding_set(engine.execute(query)) == expected
        assert _binding_set(backtrack(reopened, query)) == expected


# --------------------------------------------------------------------------- #
# property test: random stores, random queries, every backend
# --------------------------------------------------------------------------- #
_ENTITIES = ("a", "b", "c", "d")
_RELATIONS = ("r", "s")
_VARIABLES = ("?x", "?y", "?z")

_triples_strategy = st.lists(
    st.tuples(st.sampled_from(_ENTITIES), st.sampled_from(_RELATIONS),
              st.sampled_from(_ENTITIES)),
    min_size=1, max_size=18)

_entity_term = st.sampled_from(_ENTITIES + _VARIABLES)
_relation_term = st.sampled_from(_RELATIONS + _VARIABLES)

_query_strategy = st.lists(
    st.tuples(_entity_term, _relation_term, _entity_term),
    min_size=1, max_size=3)


@settings(max_examples=60, deadline=None)
@given(rows=_triples_strategy, patterns=_query_strategy,
       select_bits=st.integers(min_value=0, max_value=7))
def test_property_id_executor_bit_identical_binding_sets(rows, patterns,
                                                         select_bits):
    """Property: ID-space and backtracking binding sets agree everywhere.

    Random small stores and random conjunctive queries (including
    relation variables, repeated variables and variables that mix
    entity/relation positions — the executor must fall back
    correctly), across all four backends.  ``select`` projects a random
    subset of the bound variables.
    """
    query = PatternQuery.from_patterns(patterns)
    variables = query.variables()
    select = [var for bit, var in enumerate(variables) if select_bits >> bit & 1]
    query = PatternQuery.from_patterns(patterns, select=select)
    reference = None
    for backend in BACKENDS:
        engine = QueryEngine(_store(rows, backend))
        legacy = _binding_set(backtrack(engine.store, query))
        auto = _binding_set(engine.execute(query))
        assert auto == legacy
        if reference is None:
            reference = legacy
        else:
            assert legacy == reference  # backends agree with each other


# --------------------------------------------------------------------------- #
# limit + cursor (the streaming surface the network layer pages over)
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", BACKENDS)
def test_limit_is_a_prefix_of_the_unlimited_result(backend):
    engine = QueryEngine(_store(SAMPLE_ROWS, backend))
    query = PatternQuery.from_patterns([("?p", "brandIs", "?b"),
                                        ("?p", "placeOfOrigin", "?where")])
    full = engine.execute(query)
    for limit in (1, 2, len(full), len(full) + 10):
        assert engine.execute(query, limit=limit) == full[:limit]
    # The cap can also live on the query itself (how it crosses the wire).
    capped = PatternQuery.from_patterns(query.patterns, limit=2)
    assert engine.execute(capped) == full[:2]


@pytest.mark.parametrize("backend", BACKENDS)
def test_limit_zero_and_negative_raise(backend):
    engine = QueryEngine(_store(SAMPLE_ROWS, backend))
    query = PatternQuery.from_patterns([("?p", "brandIs", "?b")])
    for bad in (0, -1, True):
        with pytest.raises(QueryError, match="limit"):
            engine.execute(query, limit=bad)


@pytest.mark.parametrize("backend", BACKENDS)
def test_cursor_pages_reassemble_execute_exactly(backend):
    from repro.errors import CursorError

    engine = QueryEngine(_store(SAMPLE_ROWS, backend))
    for query in SAMPLE_QUERIES:
        full = engine.execute(query)
        for page_size in (1, 2, 100):
            cursor = engine.cursor(query)
            assert cursor.total_rows == len(full)
            rows = []
            while not cursor.exhausted:
                rows.extend(cursor.fetch(page_size))
            assert rows == full, (query, page_size)
            assert cursor.fetch(page_size) == []  # exhausted, not an error
    cursor = engine.cursor(SAMPLE_QUERIES[0])
    with pytest.raises(CursorError, match="positive"):
        cursor.fetch(0)
    cursor.close()
    cursor.close()  # engine-level close is idempotent (service adds typing)
    with pytest.raises(CursorError, match="closed"):
        cursor.fetch(1)


def test_cursor_many_shares_one_batched_execution():
    engine = QueryEngine(_store(SAMPLE_ROWS, "columnar"))
    cursors = engine.cursor_many(SAMPLE_QUERIES[:4], limit=3)
    results = engine.execute_many(SAMPLE_QUERIES[:4], limit=3)
    assert [cursor.fetch_all() for cursor in cursors] == results


def test_limit_validation_lives_in_the_planner():
    from repro.kg.planner import validate_limit

    validate_limit(None)
    validate_limit(5)
    for bad in (0, -3, True, 2.5, "10"):
        with pytest.raises(QueryError):
            validate_limit(bad)
