"""Tests for the plan/execute query layer (ID-space executor parity)."""

from __future__ import annotations

import inspect
import json
import threading
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracle import (SetBackend, backend_named, backtrack, mapped_backend,
                     multiset)
from repro.errors import QueryError
from repro.kg import executor, planner
from repro.kg import query as query_module
from repro.kg import service as service_module
from repro.kg.backend import IdQueryBackend, supports_id_queries
from repro.kg.client import RemoteQueryEngine
from repro.kg.cluster import ClusterBackend
from repro.kg.executor import execute_plans_cursors
from repro.kg.planner import is_variable, plan_query
from repro.kg.query import PatternQuery, QueryEngine
from repro.kg.service import QueryService
from repro.kg.sharded_backend import ShardedBackend
from repro.kg.store import TripleStore
from repro.kg.triple import triples_from_tuples

#: ``set`` builds the oracle's dict-of-set store: the reference answers
#: come from it, the id executor's from a columnar store of the same rows.
BACKENDS = ("set", "columnar", "mmap", "sharded")


def _store(rows, backend: str) -> TripleStore:
    """``mmap`` is a columnar store of ``rows`` saved and reopened: its
    base is mapped from disk."""
    if backend == "mmap":
        return TripleStore(backend=mapped_backend(triples_from_tuples(rows)))
    if backend == "sharded":
        return TripleStore(triples_from_tuples(rows),
                           backend=ShardedBackend(n_shards=2))
    return TripleStore(triples_from_tuples(rows),
                       backend=backend_named(backend))


def _engine(rows, backend: str) -> QueryEngine:
    """The id executor for a parametrization (the oracle's ``set`` store
    has no id surface: its rows are served from a columnar store)."""
    return QueryEngine(_store(rows, "columnar" if backend == "set"
                              else backend))


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
    engine = _engine(SAMPLE_ROWS, backend)
    reference = _store(SAMPLE_ROWS, backend)
    for query in SAMPLE_QUERIES:
        auto = engine.execute(query)
        legacy = backtrack(reference, query)
        assert _binding_set(auto) == _binding_set(legacy), query


@pytest.mark.parametrize("backend", ("columnar", "mmap", "sharded"))
def test_id_strategy_explicitly(backend):
    """An id-capable backend runs the id executor — the cursor is
    block-backed, one column per selected variable — and matches the
    oracle."""
    store = _store(SAMPLE_ROWS, backend)
    query = SAMPLE_QUERIES[2]
    (cursor,) = execute_plans_cursors(store, [plan_query(query)])
    assert cursor.block.names == ("?p", "?c")
    assert _binding_set(cursor.fetch_all()) == \
        _binding_set(backtrack(store, query))


def test_id_strategy_rejected_on_set_backend(monkeypatch):
    """No id surface, no executor: ``QueryEngine`` over the oracle's
    dict-of-set store raises the typed error ``QueryService`` raises —
    one guard — before any backend call."""
    store = _store(SAMPLE_ROWS, "set")
    query = SAMPLE_QUERIES[0]
    assert backtrack(store, query) == [{"?p": "p1"}, {"?p": "p2"}]

    def never(*_args, **_kwargs):
        raise AssertionError("the backend was called")

    for name in ("match", "match_many", "iter_match", "count", "count_many",
                 "tails", "heads", "__len__"):
        monkeypatch.setattr(SetBackend, name, never)
    with pytest.raises(QueryError, match="SetBackend.*id-level") as engine:
        QueryEngine(store)
    with pytest.raises(QueryError) as service:
        QueryService(store)
    assert str(engine.value) == str(service.value)


def test_id_strategy_rejected_on_mixed_kind_variable():
    """?m binds a relation in the first pattern and an entity in the
    second: the id executor joins it in entity space — a block-backed
    cursor whose ?m column is entity ids — and answers what the oracle
    answers.  (?p=brandIs is not a real binding; ?m=brandIs joins both.)"""
    store = _store(SAMPLE_ROWS + [("brandIs", "r", "x")], "columnar")
    query = PatternQuery.from_patterns([("?p", "?m", "apple"), ("?m", "r", "?t")])
    plan = plan_query(query)
    assert not hasattr(plan, "id_space")
    (cursor,) = execute_plans_cursors(store, [plan])
    assert cursor.block.names == ("?p", "?m", "?t")
    assert cursor.block.kinds == ("e", "e", "e")
    auto = cursor.fetch_all()
    assert multiset(auto) == multiset(backtrack(store, query)) == multiset(
        [{"?p": "p1", "?m": "brandIs", "?t": "x"},
         {"?p": "p2", "?m": "brandIs", "?t": "x"}])
    assert QueryEngine(store).execute(query) == auto


def test_unknown_strategy_raises():
    """There is one executor; ``strategy`` is not a parameter of the
    engine."""
    engine = QueryEngine(_store(SAMPLE_ROWS, "columnar"))
    for call in (engine.execute, engine.execute_many):
        with pytest.raises(TypeError, match="strategy"):
            call(SAMPLE_QUERIES[0], strategy="backtracking")


def test_repeated_variable_within_pattern():
    rows = SAMPLE_ROWS + [("loop", "r", "loop"), ("a", "r", "b")]
    for backend in BACKENDS:
        engine = _engine(rows, backend)
        query = PatternQuery.from_patterns([("?x", "r", "?x")])
        assert engine.execute(query) == [{"?x": "loop"}]
        assert backtrack(_store(rows, backend), query) == [{"?x": "loop"}]


def test_cartesian_product_between_disjoint_patterns():
    for backend in BACKENDS:
        engine = _engine(SAMPLE_ROWS, backend)
        query = PatternQuery.from_patterns([("?p", "brandIs", "apple"),
                                            ("?b", "headquartersIn", "?c")])
        auto = engine.execute(query)
        legacy = backtrack(_store(SAMPLE_ROWS, backend), query)
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
        query = PatternQuery.from_patterns([("?p", "placeOfOrigin", "china"),
                                            ("?p", "brandIs", "?b")],
                                           select=["?b"])
        assert _engine(SAMPLE_ROWS, backend).execute(query) == [{"?b": "apple"}]
        assert backtrack(_store(SAMPLE_ROWS, backend), query) == \
            [{"?b": "apple"}]


# --------------------------------------------------------------------------- #
# planner
# --------------------------------------------------------------------------- #
@pytest.fixture
def joined(monkeypatch):
    """``(pattern, len(block))`` of every join the id executor runs, in
    the order it runs them."""
    seen = []
    original = executor._advance

    def spy(frontier, step, block, rekey):
        seen.append((step.pattern, len(block)))
        return original(frontier, step, block, rekey)

    monkeypatch.setattr(executor, "_advance", spy)
    return seen


# Every callable that took the join-order knob before it was deleted.
_JOIN_ORDER_IS_NOT_A_PARAMETER_OF = (
    planner.plan_query, planner.plan_queries, planner.cache_key,
    executor.execute_co_partitioned, ClusterBackend.execute_co_partitioned,
    QueryEngine.plan, QueryEngine.execute, QueryEngine.execute_many,
    QueryEngine.cursor, QueryEngine.cursor_many,
    QueryService.submit, QueryService.execute, QueryService.execute_batch,
    QueryService.open_cursor,
    RemoteQueryEngine.execute, RemoteQueryEngine.execute_many,
    RemoteQueryEngine.cursor,
)


def test_plan_orders_by_selectivity(joined):
    """A plan is the query as written and nothing else; the *executed*
    order is smallest block first, ties in written order — the
    executor's decision, which no callable takes a parameter for."""
    store = _store(SAMPLE_ROWS, "columnar")
    query = PatternQuery.from_patterns([("?p", "brandIs", "?b"),
                                        ("?b", "headquartersIn", "america"),
                                        ("?p", "placeOfOrigin", "china")])
    plan = plan_query(query)
    assert tuple(step.pattern for step in plan.steps) == query.patterns
    assert not hasattr(plan, "reorder")
    assert not hasattr(plan.steps[0], "count")
    assert len(_JOIN_ORDER_IS_NOT_A_PARAMETER_OF) == 17
    for function in _JOIN_ORDER_IS_NOT_A_PARAMETER_OF:
        assert "reorder" not in inspect.signature(function).parameters, \
            function.__qualname__
    engine = QueryEngine(store)
    rows = engine.execute(query)
    # Stable smallest-first: the two 2-row legs in written order, then
    # the 3-row leg that was written first.
    assert joined == [(query.patterns[1], 2), (query.patterns[2], 2),
                      (query.patterns[0], 3)]
    # Written in another order: another join order, the same bindings.
    del joined[:]
    rewritten = engine.execute(
        PatternQuery.from_patterns(query.patterns[::-1]))
    assert joined == [(query.patterns[2], 2), (query.patterns[1], 2),
                      (query.patterns[0], 3)]
    assert _binding_set(rows) == _binding_set(rewritten)
    # Equal sizes everywhere: the written order is the executed order.
    tie = PatternQuery.from_patterns([("?p", "placeOfOrigin", "china"),
                                      ("?b", "headquartersIn", "america")])
    for written in (tie.patterns, tie.patterns[::-1]):
        del joined[:]
        engine.execute(PatternQuery.from_patterns(written))
        assert joined == [(pattern, 2) for pattern in written]


def _spy_backend(monkeypatch, store):
    """Record every ``count_many`` / ``match_ids_many`` the backend sees."""
    calls = {"count_many": [], "match_ids_many": []}
    for name, seen in calls.items():
        original = getattr(type(store.backend), name)

        def spy(self, patterns, _original=original, _seen=seen):
            _seen.append(list(patterns))
            return _original(self, patterns)

        monkeypatch.setattr(type(store.backend), name, spy)
    return calls


def _in_one_round(service, run):
    """``run`` (a batch call on ``service``) with every request it
    submits drained into ONE dispatch round: the dispatcher is parked
    in a swap to the store it already serves until all of them are
    queued — otherwise it may pick up the first before the rest."""
    def parked_run(queries):
        parked, release = threading.Event(), threading.Event()
        apply_swap = service._apply_swap

        def parked_swap(store):
            parked.set()
            release.wait(10)
            return apply_swap(store)

        def release_when_queued():
            deadline = time.monotonic() + 10
            while service._queue.qsize() < len(queries) \
                    and not release.is_set() and time.monotonic() < deadline:
                time.sleep(0.001)
            release.set()

        service._apply_swap = parked_swap
        swap = threading.Thread(target=service.swap_store,
                                args=(service.store,))
        swap.start()
        try:
            assert parked.wait(10)
            threading.Thread(target=release_when_queued).start()
            return run(queries)
        finally:
            release.set()
            swap.join()
            del service._apply_swap

    return parked_run


@pytest.fixture
def rounds(monkeypatch):
    """How often the two batch executors ran, through the binding
    either facade (``QueryEngine``, ``QueryService``) calls them by."""
    counts = Counter()
    for facade in (query_module, service_module):
        for name in ("execute_co_partitioned", "execute_plans_cursors"):
            def spy(*args, _name=name, _original=getattr(facade, name)):
                counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(facade, name, spy)
    return counts


def test_plan_many_batches_counts(monkeypatch, rounds):
    """A batch costs ZERO count probes, ONE ``execute_co_partitioned``
    and ONE ``execute_plans_cursors`` making exactly ONE
    ``match_ids_many`` — of the distinct resolved patterns across all
    steps of all plans — through ``QueryEngine`` and through
    ``QueryService`` alike; and whatever a dispatched service batch
    holds, it never costs a second round of either executor."""
    store = _store(SAMPLE_ROWS, "columnar")
    queries = [SAMPLE_QUERIES[1], SAMPLE_QUERIES[2], SAMPLE_QUERIES[4]]
    entity = store.backend.entity_interner.lookup
    relation = store.backend.relation_interner.lookup
    distinct = {tuple(None if is_variable(term)
                      else (relation if position == 1 else entity)(term)
                      for position, term in enumerate(pattern))
                for query in queries for pattern in query.patterns}
    assert len(distinct) < sum(len(query.patterns) for query in queries)
    calls = _spy_backend(monkeypatch, store)
    engine = QueryEngine(store)
    with QueryService(store, cache_bytes=0) as service:
        for run in (engine.execute_many,
                    _in_one_round(service, service.execute_batch)):
            calls["match_ids_many"].clear()
            rounds.clear()
            results = run(queries)
            assert calls["count_many"] == []
            (fetched,) = calls["match_ids_many"]
            assert len(fetched) == len(distinct) and set(fetched) == distinct
            assert rounds == {"execute_co_partitioned": 1,
                              "execute_plans_cursors": 1}
            # A batch that is all duplicates fetches what one copy
            # fetches, and every copy is answered like the original.
            assert run(queries * 3) == results * 3
            assert calls["count_many"] == []
            assert calls["match_ids_many"] == [fetched, fetched]
    # A second batch, written the other way round: the same single
    # fetch of the same patterns, still no probe.
    calls["match_ids_many"].clear()
    engine.execute_many(queries[::-1])
    assert calls["count_many"] == []
    (again,) = calls["match_ids_many"]
    assert set(again) == distinct and len(again) == len(distinct)
    # Whatever the dispatcher puts in one batch — one-shot queries and
    # cursor opens, a star, duplicates, a malformed query (re-planned
    # one by one), a batch that is nothing but malformed — it costs ONE
    # pushdown call and AT MOST one planned round.
    per_batch = []
    serve_queries = QueryService._serve_queries

    def counted(self, requests):
        before = Counter(rounds)
        serve_queries(self, requests)
        per_batch.append(rounds - before)   # a Counter: 0 where unmoved

    monkeypatch.setattr(QueryService, "_serve_queries", counted)
    malformed = PatternQuery.from_patterns([("?p", "brandIs", "?b")],
                                           select=["?nope"])
    star = PatternQuery.from_patterns([("?p", "brandIs", "?b"),
                                       ("?p", "placeOfOrigin", "?x")])
    with QueryService(store, cache_bytes=0) as service:
        futures = [service.submit(query)
                   for query in (*queries, malformed, star, *queries)]
        cursor_id = service.open_cursor(star)
        assert service.fetch_cursor(cursor_id, 100)[0].materialize() \
            == engine.execute(star)
        for future in futures:
            if future is futures[len(queries)]:
                with pytest.raises(QueryError, match="nope"):
                    future.result()
            else:
                future.result()
        with pytest.raises(QueryError, match="nope"):
            service.execute(malformed)
    assert per_batch and all(
        batch["execute_co_partitioned"] == 1
        and batch["execute_plans_cursors"] <= 1 for batch in per_batch)
    assert per_batch[-1]["execute_plans_cursors"] == 0    # all malformed


def test_an_unknown_constant_makes_no_backend_call(monkeypatch):
    """Early exit one: a plan naming a symbol the store never interned is
    empty before any fetch; alone in its batch it costs no call at all."""
    store = _store(SAMPLE_ROWS, "columnar")
    calls = _spy_backend(monkeypatch, store)
    unknown = [PatternQuery.from_patterns([("?p", "brandIs", "nokia"),
                                           ("?p", "placeOfOrigin", "?x")]),
               PatternQuery.from_patterns([("?p", "madeOf", "?m"),
                                           ("?p", "brandIs", "?b")])]
    assert QueryEngine(store).execute_many(unknown) == [[], []]
    assert calls == {"count_many": [], "match_ids_many": []}
    # Beside a live batch-mate none of its patterns is fetched either.
    mate = SAMPLE_QUERIES[1]
    alone = QueryEngine(store).execute(mate)
    calls["match_ids_many"].clear()
    assert QueryEngine(store).execute_many([unknown[0], mate, unknown[1]]) \
        == [[], alone, []]
    assert [len(call) for call in calls["match_ids_many"]] == [2]


def test_an_empty_block_stops_that_plan_only(joined):
    """Early exit two: an empty block sorts first, so its plan joins
    nothing more — and its batch-mates, sharing the same fetched blocks,
    are answered exactly as they are alone."""
    store = _store(SAMPLE_ROWS + [("china", "partOf", "asia")], "columnar")
    mate = SAMPLE_QUERIES[1]
    # Own variable names: the same fetched blocks as ``mate``, but the
    # spy can tell whose join it is.  Every constant of the last leg is
    # interned, yet no triple matches it.
    empty = PatternQuery.from_patterns([("?q", "brandIs", "?b2"),
                                        ("?b2", "headquartersIn", "?c2"),
                                        ("?q", "partOf", "america")])
    # Non-empty blocks (1, 2 and 3 rows) whose join dies at the second.
    dead_end = PatternQuery.from_patterns([("?r", "brandIs", "tesla"),
                                           ("?r", "placeOfOrigin", "china"),
                                           ("?r", "brandIs", "?b3")])
    alone = QueryEngine(store).execute(mate)
    assert alone

    def sizes_joined(query):
        return [size for pattern, size in joined if pattern in query.patterns]

    del joined[:]
    assert QueryEngine(store).execute_many(
        [empty, mate, dead_end]) == [[], alone, []]
    assert sizes_joined(empty) == [0]
    assert sizes_joined(dead_end) == [1, 2]     # the third never ran
    assert sorted(sizes_joined(mate)) == [2, 3]


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
# row-for-row parity with the count-probe planner (parent-written fixture)
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", ("columnar", "mmap", "sharded"))
def test_join_order_matches_the_parent_commit_row_for_row(backend):
    """``tests/data/join-order-written-by-pr20.json`` was written by
    running the commit before the single fetch round — ``plan_queries``
    still probed ``count_many`` and sorted the steps.  Joining the
    fetched blocks smallest first must reproduce every answer in order:
    chains, stars, cartesian pairs, repeated variables, equal-count
    ties, empty steps and unknown constants, with and without
    ``select``, one by one and as one batch.  The parent could also be
    told to join as written; those answers are the same bindings in
    another order (the fixture proves the order is observable), and
    bit-identical where ``select`` sorts them."""
    fixture = json.loads((Path(__file__).parent / "data" /
                          "join-order-written-by-pr20.json").read_text())
    store = _store(fixture["triples"], backend)
    queries = [PatternQuery.from_patterns(entry["patterns"],
                                          select=entry["select"])
               for entry in fixture["queries"]]
    assert sum(not query.select for query in queries) >= 30
    engine = QueryEngine(store)
    ordered = fixture["answers"][backend]["reorder"]
    written = fixture["answers"][backend]["written"]
    assert len(ordered) == len(written) == len(queries)
    one_by_one = [engine.execute(query) for query in queries]
    assert one_by_one == ordered
    assert engine.execute_many(queries) == ordered
    for query, got, rows in zip(queries, one_by_one, written):
        assert multiset(got) == multiset(rows), query
        if query.select:
            assert got == rows, query
    assert ordered != written     # the order matters


@pytest.mark.parametrize("backend", ("columnar", "mmap", "sharded"))
def test_list_backed_answers_match_the_parent_commit(backend):
    """``tests/data/list-backed-answers-written-by-pr24.json`` was
    written by the commit whose executor still answered some queries
    with plain lists: no-variable queries (true and false, with and
    without ``limit``), unknown constants, empty joins, and mixed-kind
    queries — a relation variable reused as head or tail,
    ``(?x, ?x, ?y)``, a mixed star — which the symbol-level backtracker
    answered.  Every answer is a block now: the same multisets, one by
    one and as one batch, and the identical rows wherever the parent
    said ``[]`` or ``[{}]``."""
    fixture = json.loads((Path(__file__).parent / "data" /
                          "list-backed-answers-written-by-pr24.json"
                          ).read_text())
    store = _store(fixture["triples"], backend)
    queries = [PatternQuery.from_patterns(entry["patterns"],
                                          select=entry["select"],
                                          limit=entry["limit"])
               for entry in fixture["queries"]]
    engine = QueryEngine(store)
    cursors = engine.cursor_many(queries)
    for query, cursor in zip(queries, cursors):
        assert len(cursor.block.names) == cursor.block.rows.shape[1] \
            == len(query.select or query.variables())
    batch = [cursor.fetch_all() for cursor in cursors]
    assert engine.execute_many(queries) == batch
    one_by_one = [engine.execute(query) for query in queries]
    parent = fixture["answers"][backend]
    for query, got, alone, rows, rows_alone in zip(
            queries, batch, one_by_one, parent["batch"],
            parent["one_by_one"]):
        assert multiset(got) == multiset(alone) == multiset(rows) \
            == multiset(rows_alone), query
        if rows in ([], [{}]):
            assert got == alone == rows, query
    assert sum(rows in ([], [{}]) for rows in parent["batch"]) >= 18
    assert sum(any(is_variable(relation) and relation in
                   {term for pattern in query.patterns
                    for term in (pattern[0], pattern[2])}
                   for _head, relation, _tail in query.patterns)
               for query in queries) >= 14


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
    entity/relation positions — joined in entity space), across all
    four backends.  ``select`` projects a random subset of the bound
    variables.
    """
    query = PatternQuery.from_patterns(patterns)
    variables = query.variables()
    select = [var for bit, var in enumerate(variables) if select_bits >> bit & 1]
    query = PatternQuery.from_patterns(patterns, select=select)
    reference = None
    for backend in BACKENDS:
        legacy = _binding_set(backtrack(_store(rows, backend), query))
        auto = _binding_set(_engine(rows, backend).execute(query))
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
    engine = _engine(SAMPLE_ROWS, backend)
    query = PatternQuery.from_patterns([("?p", "brandIs", "?b"),
                                        ("?p", "placeOfOrigin", "?where")])
    full = engine.execute(query)
    oracle = backtrack(_store(SAMPLE_ROWS, backend), query)
    assert multiset(full) == multiset(oracle)
    for limit in (1, 2, len(full), len(full) + 10):
        assert engine.execute(query, limit=limit) == full[:limit]
        limited = PatternQuery.from_patterns(query.patterns, limit=limit)
        assert backtrack(_store(SAMPLE_ROWS, backend), limited) \
            == oracle[:limit]
    # The cap can also live on the query itself (how it crosses the wire).
    capped = PatternQuery.from_patterns(query.patterns, limit=2)
    assert engine.execute(capped) == full[:2]


@pytest.mark.parametrize("backend", BACKENDS)
def test_limit_zero_and_negative_raise(backend):
    engine = _engine(SAMPLE_ROWS, backend)
    query = PatternQuery.from_patterns([("?p", "brandIs", "?b")])
    for bad in (0, -1, True):
        with pytest.raises(QueryError, match="limit"):
            engine.execute(query, limit=bad)
        with pytest.raises(QueryError, match="limit"):
            backtrack(_store(SAMPLE_ROWS, backend),
                      PatternQuery.from_patterns(query.patterns, limit=bad))


@pytest.mark.parametrize("backend", BACKENDS)
def test_cursor_pages_reassemble_execute_exactly(backend):
    from repro.errors import CursorError

    engine = _engine(SAMPLE_ROWS, backend)
    for query in SAMPLE_QUERIES:
        full = engine.execute(query)
        assert multiset(full) == multiset(
            backtrack(_store(SAMPLE_ROWS, backend), query))
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
