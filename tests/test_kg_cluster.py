"""Multi-node serving: coordinator over shard servers, replicas, failover.

Covers the distributed deployment of the sharded store:

- :func:`repro.kg.cluster.shard_split` cutting a saved store into
  per-shard live directories that carry the full global interner tables;
- :class:`repro.kg.cluster.ClusterBackend` satisfying the exact same
  backend contract as the in-process ``ShardedBackend`` — including the
  existing backend-parity property suite, reused unchanged;
- bit-identical results between a cluster of N shard servers and a
  single-process ``ShardedBackend(N)`` across shard counts;
- the co-partitioned pushdown: star queries answered whole by the
  shards in one scatter round, equal to the planned path and the
  backtracking oracle, still pushed after writes that intern new
  symbols, paging, and per-request error isolation;
- the one id path: constants out as symbols, every connection's ids
  re-keyed to the coordinator's, whatever a shard or replica numbers;
- the failure story: reads reroute to replicas with zero failures while
  a shard leader is down, and fail with a typed, shard-naming
  :class:`~repro.errors.ShardUnavailableError` when no replica exists;
- WAL-copying replicas (``snapshot_ship`` chunks of the leader's
  ``wal-G.log``, the ``wal_tail`` position report and the follower loop);
- cluster self-management: over-the-wire replica bootstrap
  (``snapshot_ship``), automatic follower re-bootstrap across leader
  compactions, automatic leader promotion on a dead leader, the
  split-brain connection gate, and the torn-stats / resource-leak
  regressions;
- the client's bounded reconnect for idempotent reads across a server
  kill/restart.
"""

from __future__ import annotations

import json
import re
import shutil
import threading
import time
from contextlib import ExitStack, closing, contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracle import SetBackend, backtrack, multiset as _multiset
from repro.errors import ProtocolError, QueryError, ShardUnavailableError
from repro.kg.backend import Interner
from repro.kg.client import (RemoteClient, RemoteQueryEngine, RemoteStore,
                             connect)
from repro.kg.cluster import (
    ClusterBackend,
    _ShardSession,
    load_cluster_header,
    load_cluster_interners,
    shard_split,
)
from repro.kg.executor import IdBlock
from repro.kg.planner import co_partitioned
from repro.kg.protocol import (SHAPE_SINGLE, BinaryResponseDecoder,
                               BinaryResponseEncoder, DecodedBlock,
                               decode_snapshot_chunk, encode_wire_query,
                               rekey_blocks)
from repro.kg.query import PatternQuery, QueryEngine
from repro.kg.routing import shard_of_id
from repro.kg.server import KGServer, bootstrap_replica
from repro.kg.service import QueryService
from repro.kg.sharded_backend import ShardedBackend
from repro.kg.store import TripleStore
from repro.kg.triple import Triple
from repro.kg.wal import (HEADER_BYTES, OP_ADD, list_snapshot_files,
                          scan_records, scan_wal, snapshot_dir_name,
                          wal_file_name)

from test_kg_backends import (
    test_backend_parity_batched_queries,
    test_backend_parity_random_workload,
)


def _sample_triples(count: int = 120):
    return [Triple(f"e{i}", f"r{i % 3}", f"e{(i * 7) % 40}")
            for i in range(count)]


def _shard_parts(local: ShardedBackend):
    """In-process per-shard stores, each with its own copy of the local
    backend's interner tables — the memory-only equivalent of a
    :func:`shard_split` deployment: the ids start equal, and every
    shard interns later writes on its own."""
    parts = []
    for shard in local._shards:
        part = ShardedBackend(1)
        part.entity_interner = Interner(local.entity_interner)
        part.relation_interner = Interner(local.relation_interner)
        part._shards = [part._new_shard()]
        rows = shard.match_ids(None, None, None)
        if len(rows):
            part._shards[0].bulk_load_ids(rows)
        parts.append(part)
    return parts


@contextmanager
def _cluster_over(local: ShardedBackend, *,
                  replicate_shard: int | None = None):
    """Serve every shard of ``local`` and connect a coordinator.

    Yields ``(backend, servers, replica_server)``; with
    ``replicate_shard`` set, that shard additionally gets a same-content
    replica endpoint (static copy — replication streaming has its own
    tests below).
    """
    with ExitStack() as stack:
        parts = _shard_parts(local)
        servers = [
            stack.enter_context(
                KGServer(TripleStore(backend=part), port=0,
                         shard_index=index,
                         n_shards=local.n_shards).start())
            for index, part in enumerate(parts)
        ]
        replicas = {}
        replica_server = None
        if replicate_shard is not None:
            twin = _shard_parts(local)[replicate_shard]
            replica_server = stack.enter_context(
                KGServer(TripleStore(backend=twin), port=0,
                         shard_index=replicate_shard,
                         n_shards=local.n_shards).start())
            replicas[replicate_shard] = [replica_server.url]
        backend = ClusterBackend(
            [server.url for server in servers], replicas=replicas,
            entity_interner=local.entity_interner,
            relation_interner=local.relation_interner,
            retry_backoff=0.01)
        stack.enter_context(closing(backend))
        yield backend, servers, replica_server


# --------------------------------------------------------------------- #
# the existing backend-parity property suite, reused unchanged
# --------------------------------------------------------------------- #
@pytest.fixture
def cluster_factory():
    """Zero-arg factory handing out fresh empty 2-shard clusters.

    Each call (one per hypothesis example) tears down the previous
    cluster's servers and boots new empty ones, so examples stay
    independent exactly like the in-process factories.
    """
    live: list = []

    def close_live():
        while live:
            live.pop().close()

    def factory():
        close_live()
        servers = [
            KGServer(TripleStore(backend=ShardedBackend(1)), port=0,
                     shard_index=index, n_shards=2).start()
            for index in range(2)
        ]
        backend = ClusterBackend([server.url for server in servers],
                                 retry_backoff=0.01)
        live.extend([backend] + servers)
        return backend

    yield factory
    close_live()


def test_cluster_passes_backend_parity_suite_unchanged(cluster_factory):
    """The ISSUE's contract: the same property tests that pin every
    in-process backend to the SetBackend reference accept the cluster
    factory with no edits."""
    test_backend_parity_random_workload(cluster_factory)
    test_backend_parity_batched_queries(cluster_factory)


# --------------------------------------------------------------------- #
# bit-identical results vs the single-process ShardedBackend
# --------------------------------------------------------------------- #
_symbol = st.text(alphabet="abcdefgh", min_size=1, max_size=3)
_rows = st.lists(st.tuples(_symbol, st.sampled_from(["r1", "r2"]), _symbol),
                 max_size=25)


@pytest.mark.parametrize("n_shards,kill_leader", [
    # The ids keep the word that used to name the link codec: shard
    # links always negotiate the binary frame now.
    pytest.param(1, False, id="1-binary-False"),
    pytest.param(2, True, id="2-binary-True"),
    pytest.param(4, False, id="4-auto-False"),
])
@settings(max_examples=5, deadline=None)
@given(rows=_rows)
def test_cluster_results_bit_identical_to_sharded(n_shards, kill_leader,
                                                  rows):
    """Queries through N shard servers return byte-for-byte what a
    single-process ``ShardedBackend(N)`` returns — same rows, same
    order, same dtypes — surviving an injected leader kill when a
    replica is present."""
    local = ShardedBackend(n_shards)
    local.add_many([Triple(*row) for row in rows])
    heads = sorted({row[0] for row in rows})
    patterns = [(head, None, None) for head in heads[:6]] \
        + [(None, "r1", None), (None, None, heads[0] if heads else "x"),
           (None, None, None)]
    id_patterns = [(local.entity_interner.lookup(head), None, None)
                   for head in heads[:6]] + [(None, 0, None), (None, None, None)]
    star = PatternQuery.from_patterns(
        [("?x", "r1", "?y"), ("?x", "r2", "?z")], select=["?x", "?z"])
    star_rows = QueryEngine(TripleStore(backend=local)).execute(star)

    def check(backend):
        assert QueryEngine(TripleStore(backend=backend)).execute(star) \
            == star_rows
        assert backend.match_many(patterns) == local.match_many(patterns)
        assert backend.match_many(patterns, sort=True) \
            == local.match_many(patterns, sort=True)
        assert backend.count_many(patterns) == local.count_many(patterns)
        for mine, theirs in zip(backend.match_ids_many(id_patterns),
                                local.match_ids_many(id_patterns)):
            assert mine.dtype == theirs.dtype
            assert np.array_equal(mine, theirs)

    with _cluster_over(local,
                       replicate_shard=0 if kill_leader else None) \
            as (backend, servers, _replica):
        check(backend)
        if kill_leader:
            servers[0].close()
            check(backend)
            assert backend.cluster_stats()["totals"]["failures"] == 0


def test_cluster_query_engine_and_cursor_identical():
    """``plan_query``/``execute_plans``/``QueryService`` run unchanged on
    a coordinator: a join through a coordinator KGServer over the
    cluster returns exactly the single-process server's rows, for both
    one-shot execution and the paging cursor."""
    triples = []
    for i in range(60):
        triples.append(Triple(f"p{i}", "knows", f"p{(i + 1) % 60}"))
        triples.append(Triple(f"p{i}", "lives_in", f"c{i % 5}"))
    local = ShardedBackend(2)
    local.add_many(triples)
    query = PatternQuery.from_patterns(
        [("?x", "knows", "?y"), ("?y", "lives_in", "?c")])
    with _cluster_over(local) as (backend, _servers, _replica):
        with KGServer(TripleStore(backend=backend), port=0).start() \
                as coordinator, \
                KGServer(TripleStore(backend=local), port=0).start() \
                as single:
            with RemoteQueryEngine(coordinator.url) as via_cluster, \
                    RemoteQueryEngine(single.url) as via_local:
                expected = via_local.execute(query)
                assert via_cluster.execute(query) == expected
                assert list(via_cluster.cursor(query, page_size=7)) \
                    == expected
            with connect(coordinator.url) as admin:
                stats = admin.stats()
            assert stats["cluster"]["n_shards"] == 2
            assert stats["cluster"]["totals"]["requests"] > 0


# --------------------------------------------------------------------- #
# co-partitioned pushdown: star queries answered whole by the shards
# --------------------------------------------------------------------- #
def _requests(backend: ClusterBackend) -> int:
    return backend.cluster_stats(probe_shards=False)["totals"]["requests"]


@pytest.fixture
def shard_ops(monkeypatch):
    """Every read op the coordinator sends a shard, in order."""
    ops = []
    original = _ShardSession.read_call

    def spy(self, op, **fields):
        ops.append(op)
        return original(self, op, **fields)

    monkeypatch.setattr(_ShardSession, "read_call", spy)
    return ops


# "r1" is a relation and an entity, and ?r may bind both positions.
_node = st.sampled_from(["a", "b", "c", "d", "r1"])
_small_rows = st.lists(st.tuples(_node, st.sampled_from(["r1", "r2"]), _node),
                       max_size=25)
_relation_term = st.sampled_from(["r1", "r2", "?r"])
_tail_term = st.one_of(_node, st.sampled_from(["?x", "?y", "?z", "?r"]))
_star_pattern = st.tuples(st.just("?x"), _relation_term, _tail_term)
_any_pattern = st.tuples(st.one_of(_node, st.sampled_from(["?x", "?y"])),
                         _relation_term, _tail_term)


@st.composite
def _join_queries(draw):
    """A 2–3 pattern query, star-shaped half the time; ``select`` is any
    subset of its variables (so it may drop the head variable)."""
    pattern = _star_pattern if draw(st.booleans()) else _any_pattern
    patterns = draw(st.lists(pattern, min_size=2, max_size=3))
    bound = PatternQuery.from_patterns(patterns).variables()
    select = [name for name in bound if draw(st.booleans())]
    limit = draw(st.one_of(st.none(), st.integers(1, 4)))
    return PatternQuery.from_patterns(patterns, select=select, limit=limit)


@pytest.mark.parametrize("n_shards", [
    pytest.param(n, id=f"{n}-binary") for n in (1, 2, 3)])
@settings(max_examples=5, deadline=None)
@given(rows=_small_rows, queries=st.lists(_join_queries(), min_size=4,
                                          max_size=4))
def test_pushdown_equals_planned_equals_oracle(n_shards, rows, queries):
    """Coordinator ≡ ``QueryEngine(ShardedBackend(n))`` ≡ backtracking
    over random stores and random star / non-star joins: row-for-row
    under ``select`` (the projection sorts), as multisets otherwise —
    and a ``limit`` without ``select`` is any that many rows of the full
    answer.  Every star query costs exactly one request per shard, and
    every other id-space query at most that."""
    local = ShardedBackend(n_shards)
    local.add_many([Triple(*row) for row in rows])
    local_store = TripleStore(backend=local)
    planned = QueryEngine(local_store)
    with _cluster_over(local) as (backend, _servers, _replica):
        engine = QueryEngine(TripleStore(backend=backend))
        for query in queries:
            before = _requests(backend)
            got = engine.execute(query)
            if rows and co_partitioned(query):
                assert _requests(backend) - before == n_shards
            else:
                assert _requests(backend) - before <= n_shards
            unlimited = PatternQuery(query.patterns, query.select, None)
            full = _multiset(backtrack(local_store, unlimited))
            assert _multiset(planned.execute(unlimited)) == full
            if query.select:
                assert got == planned.execute(query)
            if query.limit is None:
                assert _multiset(got) == full
            else:
                assert len(got) == min(query.limit, len(full))
                remaining = list(full)
                for row in _multiset(got):
                    remaining.remove(row)       # a sub-multiset of it


def _guide_cluster_store() -> ShardedBackend:
    """Products with a brand, a category and a place; brands with a
    headquarters — the star (guide / facet) and chain (point) shapes."""
    local = ShardedBackend(2)
    for i in range(60):
        local.add_many([Triple(f"p{i}", "brandIs", f"b{i % 4}"),
                        Triple(f"p{i}", "type", f"c{i % 3}"),
                        Triple(f"p{i}", "placeOfOrigin", f"pl{i % 5}")])
    local.add_many([Triple(f"b{i}", "headquartersIn", f"city{i % 2}")
                    for i in range(4)])
    return local


_GUIDE_STAR = PatternQuery.from_patterns(
    [("?p", "brandIs", "b1"), ("?p", "type", "c2")], select=["?p"])
_FACET_STAR = PatternQuery.from_patterns(
    [("?p", "brandIs", "b1"), ("?p", "type", "?c"),
     ("?p", "placeOfOrigin", "?pl")])
_POINT_CHAIN = PatternQuery.from_patterns(
    [("p1", "brandIs", "?b"), ("?b", "headquartersIn", "?c")])


def test_star_query_costs_one_request_per_shard():
    """The round count the pushdown exists for: a star query is ONE
    ``execute_many`` per shard — no count probe, no per-pattern fetch —
    through ``QueryEngine`` and through ``QueryService`` alike, and a
    chain join (not co-partitioned, planned here) is ONE ``match_many``
    per shard: every step in the same round."""
    local = _guide_cluster_store()
    reference = QueryEngine(TripleStore(backend=local))
    with _cluster_over(local) as (backend, _servers, _rep):
        store = TripleStore(backend=backend)
        before = _requests(backend)
        assert QueryEngine(store).execute(_GUIDE_STAR) \
            == reference.execute(_GUIDE_STAR)
        assert _requests(backend) - before == backend.n_shards
        with QueryService(store) as service:
            before = _requests(backend)
            assert _multiset(service.execute(_FACET_STAR)) \
                == _multiset(reference.execute(_FACET_STAR))
            assert _requests(backend) - before == backend.n_shards
            before = _requests(backend)
            assert service.execute(_POINT_CHAIN) \
                == reference.execute(_POINT_CHAIN)
            assert _requests(backend) - before == backend.n_shards


def test_a_star_and_chain_batch_is_one_pushed_and_one_planned_round(
        monkeypatch):
    """One batch mixing stars and a chain: BOTH stars ride one
    ``execute_co_partitioned`` scatter and the chain one
    ``match_ids_many`` — two rounds, ``2 * n_shards`` requests, however
    many queries — through ``QueryEngine``; a ``QueryService`` never
    makes more of either than it dispatched batches."""
    calls = []
    for name in ("execute_co_partitioned", "match_ids_many"):
        def spy(self, batch, _name=name,
                _original=getattr(ClusterBackend, name)):
            calls.append(_name)
            return _original(self, batch)

        monkeypatch.setattr(ClusterBackend, name, spy)
    local = _guide_cluster_store()
    batch = [_GUIDE_STAR, _POINT_CHAIN, _FACET_STAR]
    expected = QueryEngine(TripleStore(backend=local)).execute_many(batch)
    with _cluster_over(local) as (backend, _servers, _rep):
        store = TripleStore(backend=backend)
        before = _requests(backend)
        got = QueryEngine(store).execute_many(batch)
        assert calls == ["execute_co_partitioned", "match_ids_many"]
        assert _requests(backend) - before == 2 * backend.n_shards
        assert [_multiset(rows) for rows in got] \
            == [_multiset(rows) for rows in expected]
        del calls[:]
        with QueryService(store, cache_bytes=0) as service:
            before = _requests(backend)
            assert [_multiset(rows) for rows in service.execute_batch(batch)] \
                == [_multiset(rows) for rows in expected]
            batches = service.stats["batches_dispatched"]
        assert 1 <= calls.count("execute_co_partitioned") <= batches
        assert 1 <= calls.count("match_ids_many") <= batches
        assert _requests(backend) - before == len(calls) * backend.n_shards


def test_a_write_of_new_symbols_keeps_the_star_pushed(shard_ops):
    """A coordinator write that interns a new entity and a new relation
    — which each shard then numbers its own way — changes nothing about
    the read path: the star query is still one ``execute_many`` per
    shard, the chain still one ``match_many`` per shard, and both answer
    what a ``ShardedBackend`` that took the same writes answers, the new
    product and the new brand included."""
    local = _guide_cluster_store()
    # New heads land on both shards, so each numbers its share apart.
    fresh = [Triple("p-new", "brandIs", "b1"),
             Triple("p-new", "type", "c2"),
             Triple("p-new", "soldBy", "shop-new"),
             Triple("shop-new", "locatedIn", "city-new"),
             Triple("p1", "brandIs", "b-new"),
             Triple("b-new", "headquartersIn", "city-new")]
    with _cluster_over(local) as (backend, servers, _rep):
        engine = QueryEngine(TripleStore(backend=backend))
        assert backend.add_many(fresh) == len(fresh)
        local.add_many(fresh)
        for symbol in ("shop-new", "b-new", "city-new"):
            assert {server.service.store.backend.entity_interner.lookup(
                symbol) for server in servers} \
                - {backend.entity_interner.lookup(symbol), None}
        reference = QueryEngine(TripleStore(backend=local))
        for query, op in ((_GUIDE_STAR, "execute_many"),
                          (_POINT_CHAIN, "match_many")):
            expected = reference.execute(query)
            del shard_ops[:]
            assert engine.execute(query) == expected
            assert shard_ops == [op] * backend.n_shards
        assert {"?p": "p-new"} in reference.execute(_GUIDE_STAR)
        assert {"?b": "b-new", "?c": "city-new"} \
            in reference.execute(_POINT_CHAIN)


def test_each_connection_rekeys_its_own_id_space():
    """Shard 0's replica holds the same triples loaded in another order
    and numbers only its own symbols, so its ids differ from the
    leader's; reads round-robin over both and go on across a leader
    kill.  Every ``match_ids_many`` answer is still exactly the local
    backend's arrays, and the star and chain answers its rows."""
    local = ShardedBackend(2)       # one bulk load: the parts' row order
    local.add_many(list(_guide_cluster_store().iter_triples()))
    leader_part = _shard_parts(local)[0]
    rows = leader_part.match_ids(None, None, None)
    twin = ShardedBackend(1)
    for interner, space, columns in (
            (twin.entity_interner, local.entity_interner, [0, 2]),
            (twin.relation_interner, local.relation_interner, [1])):
        for symbol_id in np.unique(rows[:, columns]).tolist():
            interner.intern(space.symbol_of(symbol_id))
    twin.add_many(reversed(leader_part.match()))
    assert twin.entity_interner.symbols() \
        != local.entity_interner.symbols()[:len(twin.entity_interner)]
    reference = QueryEngine(TripleStore(backend=local))
    lookup = local.entity_interner.lookup
    id_patterns = [(lookup(f"p{i}"), None, None) for i in range(8)] + [
        (None, local.relation_interner.lookup("brandIs"), None),
        (None, None, lookup("b1")), (None, None, None)]
    expected = local.match_ids_many(id_patterns)
    with ExitStack() as stack:
        servers = [stack.enter_context(
            KGServer(TripleStore(backend=part), port=0, shard_index=index,
                     n_shards=2).start())
            for index, part in enumerate(_shard_parts(local))]
        replica = stack.enter_context(
            KGServer(TripleStore(backend=twin), port=0, shard_index=0,
                     n_shards=2).start())
        backend = stack.enter_context(closing(ClusterBackend(
            [server.url for server in servers], replicas={0: [replica.url]},
            entity_interner=local.entity_interner,
            relation_interner=local.relation_interner, retry_backoff=0.01)))
        engine = QueryEngine(TripleStore(backend=backend))
        for _round in range(2):
            for _read in range(3):
                for mine, theirs in zip(backend.match_ids_many(id_patterns),
                                        expected):
                    assert mine.dtype == theirs.dtype
                    assert np.array_equal(mine, theirs)
                for query in (_GUIDE_STAR, _FACET_STAR, _POINT_CHAIN):
                    assert engine.execute(query) == reference.execute(query)
            servers[0].close()
        totals = backend.cluster_stats(probe_shards=False)["totals"]
        assert totals["replica_reads"] > 0 and totals["leader_reads"] > 0
        assert totals["failures"] == 0


def test_a_limited_star_keeps_the_coordinator_order(shard_ops):
    """A star with ``select`` and ``limit`` is still pushed whole, and
    its rows are the first ones in the COORDINATOR's id order: shard 0's
    leader here numbers its symbols in reverse, so the first rows in its
    own order are the coordinator's last, and a shard-side limit would
    keep the wrong ones."""
    local = _guide_cluster_store()
    part = _shard_parts(local)[0]
    rows = part.match_ids(None, None, None)
    reversed_twin = ShardedBackend(1)
    for interner, space, columns in (
            (reversed_twin.entity_interner, local.entity_interner, [0, 2]),
            (reversed_twin.relation_interner, local.relation_interner, [1])):
        for symbol_id in np.unique(rows[:, columns])[::-1].tolist():
            interner.intern(space.symbol_of(symbol_id))
    reversed_twin.add_many(part.match())
    reference = QueryEngine(TripleStore(backend=local))
    with ExitStack() as stack:
        servers = [stack.enter_context(
            KGServer(TripleStore(backend=store), port=0, shard_index=index,
                     n_shards=2).start())
            for index, store in enumerate(
                [reversed_twin, _shard_parts(local)[1]])]
        backend = stack.enter_context(closing(ClusterBackend(
            [server.url for server in servers],
            entity_interner=local.entity_interner,
            relation_interner=local.relation_interner, retry_backoff=0.01)))
        engine = QueryEngine(TripleStore(backend=backend))
        for brand in ("b0", "b1", "b2", "b3"):
            for limit in (1, 2):
                query = PatternQuery.from_patterns(
                    [("?p", "brandIs", brand), ("?p", "placeOfOrigin", "?pl")],
                    select=["?p"], limit=limit)
                del shard_ops[:]
                assert engine.execute(query) == reference.execute(query)
                assert shard_ops == ["execute_many"] * backend.n_shards


def test_rekey_refuses_ids_the_connection_has_no_symbol_for():
    """Ids from the wire are checked before they index anything: a
    negative id, an id past every id the sender shipped a symbol for (no
    allocation sized by it) and an id inside that range the sender never
    shipped are each a typed ``ProtocolError``, as is a negative id in
    an interner delta.  Honest ids re-key to the caller's numbering."""
    entities, relations = Interner(), Interner()
    for symbol in "abcdef":
        entities.intern(symbol)
    relations.intern("r")
    encoder = BinaryResponseEncoder(entities, relations)
    decoder = BinaryResponseDecoder()
    mine = Interner(), Interner()

    def block(rows, forged=None):
        body = encoder.encode(1, SHAPE_SINGLE, [IdBlock(
            (), ("e", "r", "e"), np.array(rows, dtype=np.int64),
            triples=True)])[4:]
        if forged is not None:
            body = body[:-24] + np.array(forged, dtype="<i8").tobytes()
        return decoder.decode(body)["result"]

    (keyed,) = rekey_blocks([block([[0, 0, 5]])], *mine)
    assert keyed.tolist() == [[0, 0, 1]]
    assert mine[0].symbols() == ["a", "f"]
    for forged, message in (([-1, 0, 5], "outside"),
                            ([10 ** 15, 0, 5], "outside"),
                            ([3, 0, 5], "no symbol mapping")):
        with pytest.raises(ProtocolError, match=message):
            rekey_blocks([block([[0, 0, 5]], forged)], *mine)
    assert len(decoder._resolved["e"]) <= 2 * len(entities)
    body = BinaryResponseEncoder(entities, relations).encode(
        1, SHAPE_SINGLE, [IdBlock(("?x",), ("e",),
                                  np.array([[0]], dtype=np.int64))])[4:]
    delta_id = 12 + 4                # header, then the delta's count
    assert body[delta_id:delta_id + 8] == bytes(8)
    with pytest.raises(ProtocolError, match="negative"):
        BinaryResponseDecoder().decode(
            body[:delta_id] + np.array([-1], dtype="<i8").tobytes()
            + body[delta_id + 8:])


def test_degree_is_one_round(shard_ops):
    """``degree`` is the id surface's: one ``count_many`` per shard for
    both directions together, whether or not the node exists."""
    local = _guide_cluster_store()
    with _cluster_over(local) as (backend, _servers, _rep):
        store = TripleStore(backend=backend)
        for node in ("p1", "b1", "city0", "nowhere"):
            del shard_ops[:]
            assert store.degree(node) == local.degree(node)
            assert shard_ops == ["count_many"] * backend.n_shards


def test_pushed_result_pages_through_a_coordinator_cursor():
    """``open_cursor`` + paged ``fetch`` over a pushed result through a
    coordinator ``KGServer`` is the one-shot answer, row for row."""
    local = _guide_cluster_store()
    with _cluster_over(local) as (backend, _servers, _replica):
        with KGServer(TripleStore(backend=backend), port=0).start() \
                as coordinator:
            before = _requests(backend)
            with RemoteQueryEngine(coordinator.url) as remote:
                # The cursor opens first: it is the miss that is pushed.
                paged = list(remote.cursor(_FACET_STAR, page_size=4))
                assert _requests(backend) - before == backend.n_shards
                assert remote.execute(_FACET_STAR) == paged
                limited = PatternQuery(_FACET_STAR.patterns, (), 5)
                assert remote.execute(limited) == paged[:5]
            # ... and the two one-shot answers were cache hits.
            assert _requests(backend) - before == backend.n_shards
    assert len(paged) > 4
    assert _multiset(paged) == _multiset(
        QueryEngine(TripleStore(backend=local)).execute(_FACET_STAR))


def test_malformed_star_query_fails_typed_on_that_request_only():
    """A star query that cannot mean anything (``select`` of a variable
    nothing binds, ``limit=0``) is validated before shipping: it gets
    the planner's typed ``QueryError``, its batch neighbours are
    answered, and no shard ever sees it."""
    local = _guide_cluster_store()
    unbound = PatternQuery(_GUIDE_STAR.patterns, ("?nope",), None)
    no_rows = PatternQuery(_GUIDE_STAR.patterns, ("?p",), 0)
    with _cluster_over(local) as (backend, _servers, _rep):
        store = TripleStore(backend=backend)
        for bad in (unbound, no_rows):
            with pytest.raises(QueryError):
                QueryEngine(store).execute(bad)
        assert _requests(backend) == 0
        with QueryService(store, cache_bytes=0) as service:
            before = _requests(backend)
            futures = [service.submit(query) for query in
                       (unbound, _GUIDE_STAR, no_rows, _FACET_STAR)]
            for future in (futures[0], futures[2]):
                with pytest.raises(QueryError):
                    future.result()
            assert len(futures[1].result()) == 5
            assert len(futures[3].result()) == 15
        # The two good stars, shipped (together or apart): nothing else.
        assert _requests(backend) - before in (backend.n_shards,
                                               2 * backend.n_shards)


# --------------------------------------------------------------------- #
# shard-split
# --------------------------------------------------------------------- #
def test_shard_split_roundtrip(tmp_path):
    """Splitting then serving loses nothing: shard dirs are live stores
    carrying the full global interners, the union of their contents is
    the source store, and the coordinator metadata round-trips."""
    triples = _sample_triples()
    store = TripleStore(triples, backend=ShardedBackend(2))
    source_dir = tmp_path / "source"
    store.save(source_dir)
    shard_dirs = shard_split(source_dir, 3, tmp_path / "split")
    assert [d.name for d in shard_dirs] == ["shard-0", "shard-1", "shard-2"]
    header = load_cluster_header(tmp_path / "split")
    assert header["n_shards"] == 3
    assert header["triples"] == len(store)
    _header, entities, relations = load_cluster_interners(tmp_path / "split")
    assert list(entities) == list(store.backend.entity_interner)
    assert list(relations) == list(store.backend.relation_interner)
    seen = []
    total = 0
    for shard_dir in shard_dirs:
        part = TripleStore.open(shard_dir)
        assert part.writable  # live store: snapshot + WAL + pointer
        assert list(part.backend.entity_interner) == list(entities)
        total += len(part)
        seen.extend(part.backend.iter_triples())
        part.close()
    assert total == len(store)
    assert sorted(seen) == store.triples()


def test_shard_split_rejects_bad_input(tmp_path):
    with pytest.raises(ValueError):
        shard_split(tmp_path / "nowhere", 0, tmp_path / "out")
    from repro.errors import StorageError
    with pytest.raises(StorageError):
        load_cluster_header(tmp_path)  # no cluster.json


def test_shard_split_cli(tmp_path, capsys):
    from repro.cli import main

    store = TripleStore(_sample_triples(30), backend=ShardedBackend(2))
    store.save(tmp_path / "source")
    rc = main(["shard-split", "--store-dir", str(tmp_path / "source"),
               "--shards", "2", "--out", str(tmp_path / "out")])
    assert rc == 0
    assert "split" in capsys.readouterr().out
    assert (tmp_path / "out" / "cluster.json").is_file()
    assert (tmp_path / "out" / "shard-1" / "live.json").is_file()


def test_cluster_open_validates_shard_count(tmp_path):
    from repro.errors import StorageError

    store = TripleStore(_sample_triples(10), backend=ShardedBackend(1))
    store.save(tmp_path / "source")
    shard_split(tmp_path / "source", 2, tmp_path / "split")
    with pytest.raises(StorageError):
        ClusterBackend.open(tmp_path / "split", ["127.0.0.1:1"])


def test_shard_split_writes_plain_columnar_shards(tmp_path):
    """Every shard snapshot is the one store format: a columnar header
    with the full global interner tables inline, no nested shard
    directory, and a shard server serves it as a ``columnar`` backend
    numbering every symbol as the source does."""
    from repro.kg.mmap_backend import MAGIC, load_header

    store = TripleStore(_sample_triples(40), backend=ShardedBackend(2))
    store.save(tmp_path / "source")
    shard_dirs = shard_split(tmp_path / "source", 2, tmp_path / "split")
    for index, shard_dir in enumerate(shard_dirs):
        snapshot = shard_dir / snapshot_dir_name(0)
        header = load_header(snapshot)
        assert header["magic"] == MAGIC
        assert header["num_entities"] == len(store.backend.entity_interner)
        assert (snapshot / "entities.blob.utf8").is_file()
        assert not any(path.is_dir() for path in snapshot.iterdir())
        with KGServer.open(shard_dir, port=0, shard_index=index,
                           n_shards=2).start() as server:
            assert server.service.store.backend.entity_interner.symbols() \
                == store.backend.entity_interner.symbols()
            with connect(server.url) as client:
                assert client.call("stats")["store"]["backend"] \
                    == "columnar"
                assert client.call("role")["backend"] == "columnar"


def test_a_split_written_by_the_parent_commit_is_refused(tmp_path):
    """``tests/data/split-written-by-pr41`` is a ``shard_split`` output
    of the build before the one store format: each shard snapshot is a
    1-shard ``repro-kg-sharded`` layout.  Its live shard directory and
    its snapshot are refused with a typed error naming the fix, before
    any file is touched."""
    from repro.errors import StorageError

    fixture = Path(__file__).parent / "data" / "split-written-by-pr41"
    shutil.copytree(fixture, tmp_path / "split")
    shard = tmp_path / "split" / "shard-0"
    for directory in (shard, shard / snapshot_dir_name(0)):
        with pytest.raises(StorageError, match="re-run shard-split from the "
                                               "source store"):
            TripleStore.open(directory)
        with pytest.raises(StorageError, match="sharded store directory"):
            KGServer.open(directory, port=0)
    assert (shard / wal_file_name(0)).read_bytes() \
        == (fixture / "shard-0" / wal_file_name(0)).read_bytes()
    # The coordinator's half of the split never changed format.
    assert load_cluster_header(tmp_path / "split")["n_shards"] == 2


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 4: a coordinator places and resolves a head by the id "
    "its own in-memory interner gave it, so a head another coordinator "
    "wrote is invisible and a re-add lands it on a second shard"))
@pytest.mark.parametrize("overlap", [False, True],
                         ids=["after-a-restart", "two-at-once"])
def test_a_head_written_by_one_coordinator_is_one_head_to_the_next(
        tmp_path, overlap):
    """Coordinator A writes eight new heads; coordinator B — opened after
    A closed, or alongside A — must read all eight, count and delete
    them, and re-adding them must leave every head on exactly one
    shard."""
    rows = [Triple(f"product:{index}", "brandIs", f"brand:{index % 4}")
            for index in range(40)]
    TripleStore(rows, backend=ShardedBackend(2)).save(tmp_path / "source")
    split = tmp_path / "split"
    shard_split(tmp_path / "source", 2, split)
    new = [Triple(f"p{index}", "brandIs", "bX") for index in range(8)]
    with ExitStack() as stack:
        servers = [stack.enter_context(KGServer.open(
            split / f"shard-{index}", port=0, shard_index=index,
            n_shards=2).start()) for index in range(2)]

        def coordinator():
            return stack.enter_context(closing(ClusterBackend.open(
                split, [server.url for server in servers],
                retry_backoff=0.01)))

        def heads_read(backend):
            return sum(len(found) for found in backend.match_many(
                [(triple.head, "brandIs", None) for triple in new]))

        first = coordinator()
        second = coordinator() if overlap else None
        assert first.add_many(new) == 8
        assert heads_read(first) == 8
        if not overlap:
            first.close()
            second = coordinator()
        assert heads_read(second) == 8
        assert second.count(None, "brandIs", "bX") == 8
        assert second.discard_many(new) == 8
        assert second.add_many(new[::-1]) == 8
        owners = [[server.service.store.count(triple.head, None, None)
                   for server in servers] for triple in new]
        assert owners.count([1, 0]) + owners.count([0, 1]) == 8, owners


# --------------------------------------------------------------------- #
# failure story
# --------------------------------------------------------------------- #
def test_reads_reroute_to_replica_with_zero_failures():
    """Kill a shard leader mid-workload with a live replica: every read
    still answers, and the cluster counters prove it — reroutes > 0,
    replica reads > 0, failures == 0."""
    local = ShardedBackend(2)
    local.add_many(_sample_triples())
    head0 = next(f"e{i}" for i in range(120)
                 if shard_of_id(local.entity_interner.lookup(f"e{i}"), 2) == 0)
    expected = local.match(head0, None, None, sort=True)
    with _cluster_over(local, replicate_shard=0) \
            as (backend, servers, _replica):
        for _ in range(3):
            assert backend.match(head0, None, None, sort=True) == expected
        servers[0].close()
        for _ in range(6):
            assert backend.match(head0, None, None, sort=True) == expected
        totals = backend.cluster_stats()["totals"]
        assert totals["failures"] == 0
        assert totals["reroutes"] > 0
        assert totals["replica_reads"] > 0
        assert backend.cluster_stats()["totals"]["replica_read_share"] > 0


def test_reads_fail_typed_and_named_without_replica():
    local = ShardedBackend(2)
    local.add_many(_sample_triples())
    head0 = next(f"e{i}" for i in range(120)
                 if shard_of_id(local.entity_interner.lookup(f"e{i}"), 2) == 0)
    with _cluster_over(local) as (backend, servers, _replica):
        servers[0].close()
        with pytest.raises(ShardUnavailableError) as excinfo:
            backend.match(head0, None, None)
        assert excinfo.value.shard_index == 0
        assert "shard 0" in str(excinfo.value)
        # The healthy shard keeps answering head-bound reads.
        head1 = next(f"e{i}" for i in range(120)
                     if shard_of_id(local.entity_interner.lookup(f"e{i}"),
                                    2) == 1)
        assert backend.match(head1, None, None, sort=True) \
            == local.match(head1, None, None, sort=True)
        assert backend.cluster_stats()["totals"]["failures"] > 0


def test_a_dead_shard_fails_each_planned_request_once(monkeypatch):
    """A shard with no live endpoint surfaces from the executor's one
    fetch round: every planned request of the batch gets the typed,
    shard-naming error — and only those.  A malformed query beside them
    keeps its own ``QueryError``, a head-bound ``match`` on the live
    shard is answered, and nothing is re-attempted one by one: no count
    probe, at most one ``match_ids_many`` round per dispatched batch."""
    local = _guide_cluster_store()
    chains = [PatternQuery.from_patterns(
        [(f"p{i}", "brandIs", "?b"), ("?b", "headquartersIn", "?c")])
        for i in range(3)]
    malformed = PatternQuery(chains[0].patterns, ("?nope",), None)
    live_head = next(f"p{i}" for i in range(60) if shard_of_id(
        local.entity_interner.lookup(f"p{i}"), 2) == 1)
    rounds = []
    for name in ("match_ids_many", "count_many"):
        original = getattr(ClusterBackend, name)

        def spy(self, patterns, _name=name, _original=original):
            rounds.append(_name)
            return _original(self, patterns)

        monkeypatch.setattr(ClusterBackend, name, spy)
    with _cluster_over(local) as (backend, servers, _rep), \
            ExitStack() as stack:
        store = TripleStore(backend=backend)
        # Both front-ends warm the backend up while the shard is alive.
        coordinator = stack.enter_context(KGServer(store, port=0).start())
        remote = stack.enter_context(RemoteQueryEngine(coordinator.url))
        with QueryService(store, cache_bytes=0) as service:
            servers[0].close()
            del rounds[:]
            batches = service.stats["batches_dispatched"]
            futures = [service.submit(query)
                       for query in (chains[0], malformed, *chains[1:])]
            lookup = service.submit_lookup((live_head, None, None))
            for future in (futures[0], *futures[2:]):
                with pytest.raises(ShardUnavailableError) as excinfo:
                    future.result()
                assert excinfo.value.shard_index == 0
            with pytest.raises(QueryError, match=r"\?nope"):
                futures[1].result()
            assert lookup.result().materialize() \
                == local.match(live_head, None, None)
            batches = service.stats["batches_dispatched"] - batches
            assert "count_many" not in rounds
            # (the lookup is one more match_ids_many in its batch)
            assert 1 <= rounds.count("match_ids_many") - 1 <= batches
        del rounds[:]
        with pytest.raises(ShardUnavailableError) as excinfo:
            remote.execute(chains[0])
        assert "shard 0" in str(excinfo.value)      # typed across the wire
        assert rounds == ["match_ids_many"]       # one round, not N + 1
        with pytest.raises(QueryError, match=r"\?nope"):
            remote.execute(malformed)
        assert RemoteStore(remote.client).match(live_head, None, None) \
            == local.match(live_head, None, None)


def test_a_dead_shard_fails_each_count_of_its_batch_once(monkeypatch):
    """``count`` / ``count_many`` through a coordinator meet a shard
    with no live endpoint in the service's count handler: the
    dispatched batch is ONE ``count_many``, so every count request in
    it gets the typed, shard-naming error once — nothing is re-attempted
    one by one.  A head-bound ``match`` batch-mate on the live shard and
    a later head-bound ``count`` there are answered, and the same error
    arrives typed over a never-``hello`` control connection to a
    coordinator server: counts are scalars and keep working there."""
    local = _guide_cluster_store()
    heads = {owner: [f"p{i}" for i in range(60) if shard_of_id(
        local.entity_interner.lookup(f"p{i}"), 2) == owner]
        for owner in (0, 1)}
    doomed = [(head, "brandIs", None) for head in heads[0][:3]] \
        + [(None, "brandIs", "b1")]
    live = (heads[1][0], None, None)
    rounds = []
    original = ClusterBackend.count_many

    def spy(self, patterns):
        rounds.append(len(patterns))
        return original(self, patterns)

    monkeypatch.setattr(ClusterBackend, "count_many", spy)
    with _cluster_over(local) as (backend, servers, _rep), ExitStack() as stack:
        store = TripleStore(backend=backend)
        coordinator = stack.enter_context(KGServer(store, port=0).start())
        control = stack.enter_context(
            RemoteClient(coordinator.url, codec="json"))
        with QueryService(store, cache_bytes=0) as service:
            assert service.count_many(doomed) == local.count_many(doomed)
            servers[0].close()
            del rounds[:]
            batches = service.stats["batches_dispatched"]
            counts = [service.submit_count(pattern) for pattern in doomed]
            lookup = service.submit_lookup(live)
            for future in counts:
                with pytest.raises(ShardUnavailableError) as excinfo:
                    future.result()
                assert excinfo.value.shard_index == 0
            assert lookup.result().materialize() == local.match(*live)
            batches = service.stats["batches_dispatched"] - batches
            assert 1 <= len(rounds) <= batches and sum(rounds) == len(doomed)
            assert service.count_many([live]) == local.count_many([live])
        del rounds[:]
        remote = RemoteStore(control)
        with pytest.raises(ShardUnavailableError, match="shard 0"):
            remote.count(*doomed[-1])
        assert rounds == [1]                        # asked once, not retried
        assert remote.count(*live) == local.count(*live)
        with pytest.raises(ProtocolError, match="never said 'hello'"):
            remote.match(*live)


def test_write_to_dead_leader_promotes_replica():
    """Kill a shard leader under an established write connection: the
    in-flight write surfaces as unknown (never silently replayed), the
    replica is promoted automatically, and every subsequent write
    succeeds against it — ``promotions == 1`` in the cluster stats."""
    local = ShardedBackend(2)
    local.add_many(_sample_triples(20))
    with _cluster_over(local, replicate_shard=0) \
            as (backend, servers, replica):
        head0 = next(f"e{i}" for i in range(20)
                     if shard_of_id(local.entity_interner.lookup(f"e{i}"),
                                    2) == 0)
        backend.add_many([Triple(head0, "rnew", "warm")])
        servers[0].close()
        with pytest.raises(ShardUnavailableError) as excinfo:
            backend.add_many([Triple(head0, "rnew", "during-the-kill")])
        assert excinfo.value.shard_index == 0
        assert "promoted" in str(excinfo.value)
        # Endpoint 0 of shard 0 is now the ex-replica; writes flow again
        # with no operator action and reads observe them.
        backend.add_many([Triple(head0, "rnew", "after-promotion")])
        assert Triple(head0, "rnew", "after-promotion") \
            in backend.match(head0, "rnew", None)
        stats = backend.cluster_stats()
        assert stats["totals"]["promotions"] == 1
        assert stats["shards"][0]["leader"] == replica.url


def test_write_fails_typed_when_no_replica_to_promote():
    """A dead leader with nothing to promote still fails the write with
    the no-silent-retry contract spelled out."""
    local = ShardedBackend(2)
    local.add_many(_sample_triples(20))
    with _cluster_over(local) as (backend, servers, _replica):
        head0 = next(f"e{i}" for i in range(20)
                     if shard_of_id(local.entity_interner.lookup(f"e{i}"),
                                    2) == 0)
        backend.add_many([Triple(head0, "rnew", "warm")])
        servers[0].close()
        with pytest.raises(ShardUnavailableError) as excinfo:
            backend.add_many([Triple(head0, "rnew", "somewhere")])
        assert excinfo.value.shard_index == 0
        assert "never retried" in str(excinfo.value)
        assert backend.cluster_stats()["totals"]["promotions"] == 0


def test_undelivered_write_promotes_and_retries_transparently():
    """A write that provably never left the coordinator (the leader was
    already dead, connecting raised) is safe to re-issue: the backend
    promotes the replica and delivers the SAME write there — the caller
    sees plain success, zero failures."""
    local = ShardedBackend(2)
    local.add_many(_sample_triples(20))
    with _cluster_over(local, replicate_shard=0) \
            as (warm, servers, replica):
        urls = [server.url for server in servers]
        servers[0].close()
        head0 = next(f"e{i}" for i in range(20)
                     if shard_of_id(local.entity_interner.lookup(f"e{i}"),
                                    2) == 0)
        backend = ClusterBackend(urls, replicas={0: [replica.url]},
                                 entity_interner=local.entity_interner,
                                 relation_interner=local.relation_interner,
                                 retry_backoff=0.01)
        try:
            backend.add_many([Triple(head0, "rnew", "transparent")])
            assert Triple(head0, "rnew", "transparent") \
                in backend.match(head0, "rnew", None)
            totals = backend.cluster_stats()["totals"]
            assert totals["promotions"] == 1
            assert totals["failures"] == 0
        finally:
            backend.close()


def test_cluster_backend_failed_open_releases_resources():
    """Construction opens no connection, so a shard that cannot be
    reached costs nothing until it is read: over one live shard and one
    unreachable shard the constructor opens zero connections, the first
    read of the dead shard raises a typed ``ShardUnavailableError``
    naming shard 1, and after ``close()`` no ``kg-cluster`` thread (nor
    any connection) is left."""
    local = ShardedBackend(1)
    local.add_many(_sample_triples(10))
    part = _shard_parts(local)[0]
    dead_head = next(entity_id
                     for entity_id in range(len(local.entity_interner))
                     if shard_of_id(entity_id, 2) == 1)
    with KGServer(TripleStore(backend=part), port=0, shard_index=0,
                  n_shards=2).start() as server:
        backend = ClusterBackend([server.url, "127.0.0.1:1"],
                                 entity_interner=local.entity_interner,
                                 relation_interner=local.relation_interner,
                                 retry_backoff=0.01)
        try:
            assert server.connection_count == 0
            assert all(client is None for session in backend._sessions
                       for client in session._clients)
            with pytest.raises(ShardUnavailableError) as excinfo:
                backend.match_ids(dead_head)
            assert excinfo.value.shard_index == 1
            with pytest.raises(ShardUnavailableError):
                backend.match_ids()         # both shards, over the pool
        finally:
            backend.close()
        assert _wait_until(lambda: server.connection_count == 0)
        assert not [t for t in threading.enumerate()
                    if t.name.startswith("kg-cluster")]


def test_client_reconnects_across_server_restart(tmp_path):
    """Regression for the bounded reconnect: killing and restarting the
    server mid-session, idempotent reads on the SAME client object keep
    working on a fresh connection; the dead socket is never reused."""
    store = TripleStore(_sample_triples(20), backend=ShardedBackend(1))
    store.save(tmp_path / "store")
    first = KGServer.open(tmp_path / "store", port=0).start()
    _host, port = first.address
    client = RemoteClient(first.url)
    assert client.ping() is True
    first.close()
    second = KGServer.open(tmp_path / "store", port=port).start()
    try:
        assert client.call("len") == 20  # reconnects under the hood
        assert client.call("count", pattern=[None, None, None]) == 20
        assert isinstance(client.stats(), dict)
    finally:
        client.close()
        second.close()


# --------------------------------------------------------------------- #
# replication: WAL chunks, the wal_tail position report, the follower loop
# --------------------------------------------------------------------- #
def _wait_until(predicate, timeout=5.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def test_wal_tail_streams_batches(tmp_path):
    """``wal_tail`` reports the leader's WAL position; the log itself
    streams as ``snapshot_ship`` chunks of ``wal-G.log``, each poll the
    records past the follower's byte offset."""
    TripleStore.create_live(tmp_path / "live",
                            [Triple("a", "r", "b")])
    store = TripleStore.open(tmp_path / "live")
    with KGServer(store, port=0).start() as server, \
            connect(server.url) as client:

        def tail(offset: int, first_seq: int):
            chunk = client.call("snapshot_ship", path=wal_file_name(0),
                                offset=offset, generation=0)
            batches, consumed, corrupt = scan_records(
                decode_snapshot_chunk(chunk), offset, first_seq)
            assert not corrupt and chunk["eof"]
            assert chunk["size"] == offset + consumed
            return ([(batch.seq, batch.op, batch.triples)
                     for batch in batches], offset + consumed)

        assert client.call("wal_tail", after_seq=0) \
            == {"generation": 0, "next_seq": 1}
        assert tail(HEADER_BYTES, 1) == ([], HEADER_BYTES)
        client.call("add_many", triples=[["a2", "r", "b2"]])
        assert client.call("wal_tail", after_seq=0) \
            == {"generation": 0, "next_seq": 2}
        shipped, end = tail(HEADER_BYTES, 1)
        assert shipped == [(1, OP_ADD, (("a2", "r", "b2"),))]
        client.call("add_many", triples=[["c", "r", "d"]])
        shipped, end = tail(end, 2)
        assert shipped == [(2, OP_ADD, (("c", "r", "d"),))]
        assert tail(end, 3) == ([], end)
        assert client.call("wal_tail", after_seq=99) \
            == {"generation": 0, "next_seq": 3}
        with pytest.raises(ProtocolError):
            client.call("wal_tail", after_seq=-1)
        with pytest.raises(ProtocolError):
            client.call("snapshot_ship", path=wal_file_name(0), offset=-1,
                        generation=0)
        with pytest.raises(ProtocolError, match="generation"):
            client.call("snapshot_ship", path=wal_file_name(1),
                        offset=HEADER_BYTES, generation=1)


def test_a_leaders_replication_status_reports_its_durable_seq(tmp_path):
    """A leader's ``applied_seq`` is its durable seq read live from its
    WAL (``len(wal.ends)``), not the value it had when it opened: three
    acked batches give 3."""
    TripleStore.create_live(tmp_path / "live", [Triple("a", "r", "b")],
                            wal_fsync=False)
    store = TripleStore.open(tmp_path / "live", wal_fsync=False)
    with KGServer(store, port=0).start() as server, \
            connect(server.url) as client:
        assert client.call("replication_status")["applied_seq"] == 0
        for index in range(3):
            client.call("add_many", triples=[[f"a{index}", "r", "b"]])
        status = client.call("replication_status")
        assert status["role"] == "leader"
        assert status["applied_seq"] == 3 == len(store.wal.ends)
        assert status["local_generation"] == 0


def test_wal_tail_requires_live_store():
    with KGServer(TripleStore([Triple("a", "r", "b")]), port=0).start() \
            as server, connect(server.url) as client:
        with pytest.raises(ProtocolError, match="live store"):
            client.call("wal_tail", after_seq=0)
        with pytest.raises(ProtocolError, match="live store"):
            client.call("snapshot_ship", path=wal_file_name(0),
                        offset=HEADER_BYTES, generation=0)


def test_replica_follows_a_tail_larger_than_a_frame(tmp_path):
    """Batches acked while the replica was down add up to more than one
    frame, and one record is larger than a chunk: the replica copies
    the log in chunks that fit its leader's 2 KiB frame cap, keeps a
    cut record until its end arrives, converges with no error, and its
    WAL equals its leader's byte for byte."""
    TripleStore.create_live(tmp_path / "leader", _sample_triples(10))
    shutil.copytree(tmp_path / "leader", tmp_path / "replica")
    with KGServer.open(tmp_path / "leader", port=0,
                       max_frame_bytes=2048).start() as leader:
        with connect(leader.url) as writer:
            for batch in range(4):      # each request fits the cap
                writer.call("add_many", triples=[
                    [f"big:{batch}:{i}", "inBatch", f"batch:{batch}"]
                    for i in range(20)])
        # Acked in-process: its request would not fit the cap either.
        leader.service.add_many([Triple(f"huge:{i}", "inBatch", "batch:huge")
                                 for i in range(100)])
        wal = leader.service.store.wal
        starts = [HEADER_BYTES] + list(wal.ends)
        assert wal.end - HEADER_BYTES > leader.max_frame_bytes
        assert max(b - a for a, b in zip(starts, starts[1:])) \
            > leader._chunk_bytes
        replica = KGServer.open(tmp_path / "replica", port=0,
                                follow=leader.url,
                                follow_poll_interval=0.01).start()
        try:
            assert _wait_until(lambda: replica._replication_snapshot()[
                "applied_seq"] == 5)
            assert replica._replication_snapshot()["last_error"] is None
            assert replica.service.store.triples() \
                == leader.service.store.triples()
            assert replica.service.store.wal.path.read_bytes() \
                == wal.path.read_bytes()
        finally:
            replica.close()


def test_a_replica_written_by_the_parent_commit_follows_from_its_offset(
        tmp_path):
    """``tests/data/replica-written-by-pr36`` holds a leader and a
    replica live directory written by the commit before replicas copied
    WAL bytes: the replica was bootstrapped over the wire, applied the
    leader's first three batches through ``wal_tail`` and stopped; the
    leader then logged two more.  Opened here, the replica follows from
    its own WAL's end and its log stays a byte prefix of its leader's."""
    fixture = Path(__file__).parent / "data" / "replica-written-by-pr36"
    shutil.copytree(fixture, tmp_path / "fixture")
    leader_dir = tmp_path / "fixture" / "leader"
    replica_dir = tmp_path / "fixture" / "replica"
    leader_log = (leader_dir / wal_file_name(0)).read_bytes()
    replica_log = (replica_dir / wal_file_name(0)).read_bytes()
    assert leader_log.startswith(replica_log)
    assert [len(scan_wal(directory / wal_file_name(0)).batches)
            for directory in (leader_dir, replica_dir)] == [5, 3]
    with KGServer.open(leader_dir, port=0).start() as leader:
        replica = KGServer.open(replica_dir, port=0, follow=leader.url,
                                follow_poll_interval=0.01).start()
        try:
            def applied():
                return replica._replication_snapshot()["applied_seq"]

            assert _wait_until(lambda: applied() == 5)
            with connect(leader.url) as writer:
                writer.call("add_many",
                            triples=[["product:77", "brandIs", "brand:7"]])
            assert _wait_until(lambda: applied() == 6)
            assert replica._replication_snapshot()["last_error"] is None
            assert replica.service.store.wal.path.read_bytes() \
                == leader.service.store.wal.path.read_bytes()
            assert replica.service.store.triples() \
                == leader.service.store.triples()
        finally:
            replica.close()


def test_a_replica_ahead_of_its_leader_stops_for_a_rebootstrap(tmp_path):
    """The leader lost acked records — its WAL cut to 3 of its 5, as a
    power loss under ``wal_fsync=False`` leaves it — while a replica
    had applied all 5.  Every chunk past the leader's end comes back
    empty, so the replica must not take that for "caught up": it stops
    with the re-bootstrap error instead of polling forever."""
    TripleStore.create_live(tmp_path / "leader", _sample_triples(10))
    with KGServer.open(tmp_path / "leader", port=0).start() as leader:
        with connect(leader.url) as writer:
            for index in range(5):
                writer.call("add_many",
                            triples=[[f"lost:{index}", "r", "e0"]])
    shutil.copytree(tmp_path / "leader", tmp_path / "replica")
    log = tmp_path / "leader" / wal_file_name(0)
    batches = scan_wal(log).batches
    assert len(batches) == 5
    with log.open("r+b") as handle:
        handle.truncate(batches[2].end_offset)
    with KGServer.open(tmp_path / "leader", port=0).start() as leader:
        assert leader.service.store.wal.next_seq == 4
        replica = KGServer.open(tmp_path / "replica", port=0,
                                follow=leader.url,
                                follow_poll_interval=0.01).start()
        try:
            assert _wait_until(
                lambda: not replica._replication_snapshot()["running"])
            status = replica._replication_snapshot()
            assert status["applied_seq"] == 5
            assert "lost acked records" in status["last_error"]
            assert "re-bootstrap this replica" in status["last_error"]
        finally:
            replica.close()


def test_follower_replays_leader_wal(tmp_path):
    """A replica bootstrapped from a copy of the leader directory
    converges on every leader write, advertises its lag through stats,
    and rejects writes with an error naming the leader."""
    TripleStore.create_live(tmp_path / "leader", _sample_triples(10))
    leader = KGServer.open(tmp_path / "leader", port=0).start()
    shutil.copytree(tmp_path / "leader", tmp_path / "replica")
    replica = KGServer.open(tmp_path / "replica", port=0,
                            follow=leader.url,
                            follow_poll_interval=0.01).start()
    try:
        with connect(leader.url) as writer:
            writer.call("add_many",
                        triples=[["new1", "r", "new2"], ["new3", "r", "new1"]])
            writer.call("remove_many", triples=[["e0", "r0", "e0"]])
        with connect(replica.url) as reader:
            assert reader.call("role")["role"] == "replica"
            assert _wait_until(
                lambda: reader.call("count",
                                    pattern=["new1", "r", "new2"]) == 1)
            assert _wait_until(
                lambda: reader.call("count",
                                    pattern=["e0", "r0", "e0"]) == 0)
            stats = reader.stats()
            assert stats["server"]["role"] == "replica"
            replication = stats["replication"]
            assert replication["batches_applied"] >= 2
            assert replication["last_error"] is None
            with pytest.raises(ProtocolError, match="read-only replica"):
                reader.call("add_many", triples=[["x", "r", "y"]])
    finally:
        replica.close()
        leader.close()


def test_replica_requires_writable_store(tmp_path):
    store = TripleStore(_sample_triples(5), backend=ShardedBackend(1))
    store.save(tmp_path / "snapshot")
    snapshot = TripleStore.open(tmp_path / "snapshot")
    assert not snapshot.writable
    with pytest.raises(ValueError, match="replica"):
        KGServer(snapshot, port=0, follow="127.0.0.1:1")
    snapshot.close()


def test_follower_rebootstraps_on_leader_compaction(tmp_path):
    """Leader compaction truncates the WAL the follower tails; instead
    of stopping, the follower now fetches the new snapshot generation
    over the wire (``snapshot_ship``), flips its live pointer, and
    resumes tailing the new WAL — converging bit-identically with zero
    operator action."""
    TripleStore.create_live(tmp_path / "leader", _sample_triples(10))
    leader = KGServer.open(tmp_path / "leader", port=0).start()
    shutil.copytree(tmp_path / "leader", tmp_path / "replica")
    replica = KGServer.open(tmp_path / "replica", port=0,
                            follow=leader.url,
                            follow_poll_interval=0.01).start()
    try:
        with connect(leader.url) as writer:
            writer.call("add_many", triples=[["x1", "r", "x2"]])
            writer.call("compact")
            writer.call("add_many", triples=[["x3", "r", "x4"]])
            leader_len = writer.call("len")
        with connect(replica.url) as reader:
            assert _wait_until(
                lambda: reader.call("count", pattern=["x3", "r", "x4"]) == 1)
            assert _wait_until(lambda: reader.call("len") == leader_len)
            assert reader.call("count", pattern=["x1", "r", "x2"]) == 1
            rep = reader.stats()["replication"]
            assert rep["rebootstraps"] == 1
            assert rep["last_error"] is None
            assert rep["generation"] == 1
            assert reader.call("role")["role"] == "replica"
        # The adoption went all the way to disk: new generation live
        # pointer, stale generation swept.
        assert replica.service.store.live_generation == 1
        assert not (tmp_path / "replica" / "wal-000000.log").exists()
        assert not (tmp_path / "replica" / "snap-000000").exists()
    finally:
        replica.close()
        leader.close()


def test_in_memory_follower_stops_on_generation_change(tmp_path):
    """A follower re-logs its leader's WAL records and adopts shipped
    snapshots across compactions, so it needs a live store directory:
    an in-memory store is refused before anything follows."""
    TripleStore.create_live(tmp_path / "leader", _sample_triples(6))
    leader = KGServer.open(tmp_path / "leader", port=0).start()
    twin = TripleStore(_sample_triples(6), backend=ShardedBackend(1))
    try:
        assert twin.writable
        with pytest.raises(ValueError, match="replica.*live store"):
            KGServer(twin, port=0, follow=leader.url,
                     follow_poll_interval=0.01)
    finally:
        leader.close()


def test_bootstrap_replica_from_scratch(tmp_path):
    """A replica born from nothing: :func:`bootstrap_replica` pages the
    leader's snapshot over the wire into an empty directory, and the
    follower opened over it converges on the leader's WAL — no
    hand-copied files anywhere."""
    TripleStore.create_live(tmp_path / "leader", _sample_triples(12))
    leader = KGServer.open(tmp_path / "leader", port=0).start()
    try:
        with connect(leader.url) as writer:
            writer.call("add_many", triples=[["w1", "r", "w2"]])
            leader_len = writer.call("len")
        generation = bootstrap_replica(tmp_path / "replica", leader.url)
        assert generation == 0
        assert (tmp_path / "replica" / "live.json").is_file()
        replica = KGServer.open(tmp_path / "replica", port=0,
                                follow=leader.url,
                                follow_poll_interval=0.01).start()
        try:
            with connect(replica.url) as reader:
                assert _wait_until(
                    lambda: reader.call("count",
                                        pattern=["w1", "r", "w2"]) == 1)
                assert reader.call("len") == leader_len
        finally:
            replica.close()
    finally:
        leader.close()


def test_bootstrap_replica_under_a_small_frame_cap(tmp_path):
    """Snapshot chunks are sized from the answering server's frame cap:
    a leader capped at 2 KiB still bootstraps a replica whose snapshot
    files span many frames, byte for byte."""
    TripleStore.create_live(tmp_path / "leader", _sample_triples(400))
    snapshot = tmp_path / "leader" / snapshot_dir_name(0)
    members = list_snapshot_files(snapshot)
    assert max(size for _member, size in members) > 2048
    with KGServer.open(tmp_path / "leader", port=0,
                       max_frame_bytes=2048).start() as leader:
        assert bootstrap_replica(tmp_path / "replica", leader.url) == 0
    copy = tmp_path / "replica" / snapshot_dir_name(0)
    for member, _size in members:
        assert (copy / member).read_bytes() \
            == (snapshot / member).read_bytes(), member
    replica = TripleStore.open(tmp_path / "replica")
    try:
        assert replica.triples() == sorted(set(_sample_triples(400)))
    finally:
        replica.close()


def test_promoted_ex_leader_rejoins_as_follower(tmp_path):
    """The full self-management loop over real sockets: leader dies →
    replica is promoted (new generation = the fencing token) → the
    ex-leader restarts over its OLD directory as a follower of the new
    leader, detects the newer generation, re-bootstraps over the wire
    and converges on post-promotion writes — no split brain."""
    TripleStore.create_live(tmp_path / "leader", _sample_triples(8))
    leader = KGServer.open(tmp_path / "leader", port=0).start()
    bootstrap_replica(tmp_path / "replica", leader.url)
    replica = KGServer.open(tmp_path / "replica", port=0,
                            follow=leader.url,
                            follow_poll_interval=0.01).start()
    backend = ClusterBackend([leader.url], replicas={0: [replica.url]},
                             retry_backoff=0.01)
    try:
        backend.add_many([Triple("pre", "r", "kill")])
        with connect(replica.url) as reader:
            assert _wait_until(
                lambda: reader.call("count",
                                    pattern=["pre", "r", "kill"]) == 1)
        leader.close()
        with pytest.raises(ShardUnavailableError):
            backend.add_many([Triple("lost", "r", "unknown-outcome")])
        backend.add_many([Triple("post", "r", "promotion")])
        assert backend.cluster_stats()["totals"]["promotions"] == 1
        assert replica.role == "leader"
        assert replica.service.store.live_generation >= 1
        rejoined = KGServer.open(tmp_path / "leader", port=0,
                                 follow=replica.url,
                                 follow_poll_interval=0.01).start()
        try:
            with connect(rejoined.url) as reader:
                assert reader.call("role")["role"] == "replica"
                assert _wait_until(
                    lambda: reader.call(
                        "count", pattern=["post", "r", "promotion"]) == 1)
                rep = reader.stats()["replication"]
                assert rep["rebootstraps"] >= 1
                assert rep["last_error"] is None
        finally:
            rejoined.close()
    finally:
        backend.close()
        replica.close()
        leader.close()


def test_stale_ex_leader_connection_refused(tmp_path):
    """The split-brain rejection rule in isolation: once a session has
    recorded a promotion generation, a fresh connection to an endpoint
    serving an older generation is dropped with a typed error naming
    the remedy."""
    from repro.kg.cluster import _ShardSession

    TripleStore.create_live(tmp_path / "stale", _sample_triples(5))
    stale = KGServer.open(tmp_path / "stale", port=0).start()
    try:
        session = _ShardSession(0, stale.url, ())
        try:
            assert session._call(0, "ping", {}) == "pong"  # no floor yet
            session._drop(0)
            session.min_generation = 1
            with pytest.raises(ProtocolError, match="stale ex-leader"):
                session._call(0, "ping", {})
            assert session._clients[0] is None  # gate dropped the conn
        finally:
            session.close()
    finally:
        stale.close()


def test_stale_ex_leader_refused_when_a_read_reconnects(tmp_path):
    """A retry-safe read whose live socket dies reconnects through the
    session, so the new connection passes the generation gate too: the
    pre-promotion server refuses it instead of answering the read."""
    import socket

    from repro.kg.cluster import _ShardSession

    TripleStore.create_live(tmp_path / "stale", _sample_triples(5))
    stale = KGServer.open(tmp_path / "stale", port=0).start()
    try:
        session = _ShardSession(0, stale.url, (), retry_backoff=0.0)
        try:
            assert session.read_call("len") == 5  # no floor yet
            session.min_generation = 1
            session._clients[0]._sock.shutdown(socket.SHUT_RDWR)
            with pytest.raises(ShardUnavailableError,
                               match="stale ex-leader"):
                session.read_call("len")
            assert session._clients[0] is None
        finally:
            session.close()
    finally:
        stale.close()


def _count_on(url: str, pattern) -> int:
    with connect(url) as reader:
        return reader.call("count", pattern=pattern)


def test_a_replica_on_a_pre_promotion_generation_is_never_promoted(tmp_path):
    """Leader L with replicas r1 and r2: L dies and r1 is promoted to
    generation 1, ``w2`` is acked on r1, then r1 dies too.  r2 still
    follows L at generation 0, so the ballot probe must refuse it the
    way a pooled connection would: promoting it would compact it to
    generation 1 as well, pass the floor, and answer reads without the
    acked ``w2``."""
    TripleStore.create_live(tmp_path / "leader", _sample_triples(8))
    leader = KGServer.open(tmp_path / "leader", port=0).start()
    replicas = []
    for name in ("r1", "r2"):
        bootstrap_replica(tmp_path / name, leader.url)
        replicas.append(KGServer.open(tmp_path / name, port=0,
                                      follow=leader.url,
                                      follow_poll_interval=0.01).start())
    r1, r2 = replicas
    backend = ClusterBackend([leader.url], replicas={0: [r1.url, r2.url]},
                             retry_backoff=0.01)
    try:
        backend.add_many([Triple("w1", "r", "both")])
        for replica in replicas:
            assert _wait_until(
                lambda: _count_on(replica.url, ["w1", "r", "both"]) == 1)
        leader.close()
        with pytest.raises(ShardUnavailableError):
            backend.add_many([Triple("lost", "r", "unknown-outcome")])
        assert r1.role == "leader"
        backend.add_many([Triple("w2", "r", "acked")])
        r1.close()
        with pytest.raises(ShardUnavailableError):
            backend.add_many([Triple("w3", "r", "no-leader")])
        assert backend.cluster_stats()["totals"]["promotions"] == 1
        assert r2.role == "replica"
        with pytest.raises(ShardUnavailableError):
            backend.match("w2", "r", None)
    finally:
        backend.close()
        for server in (r2, r1, leader):
            server.close()


def test_a_second_coordinator_repoints_to_a_replica_another_promoted(
        tmp_path):
    """Leader L with replicas r1 and r2, three batches replicated to
    both.  L dies; coordinator A promotes r1 (generation 1) and acks
    one write there, so r1 reports seq 1 against r2's frozen 3.  A
    fresh coordinator B, built from the original addresses with r2
    listed first, then writes: its ballot must rank r1's newer
    generation above r2's higher seq and repoint to r1, never promote
    r2 into a second leader that lacks the write acked on r1."""
    TripleStore.create_live(tmp_path / "leader", _sample_triples(8))
    leader = KGServer.open(tmp_path / "leader", port=0).start()
    leader_url = leader.url
    replicas = []
    for name in ("r1", "r2"):
        bootstrap_replica(tmp_path / name, leader.url)
        replicas.append(KGServer.open(tmp_path / name, port=0,
                                      follow=leader.url,
                                      follow_poll_interval=0.01).start())
    r1, r2 = replicas
    first = ClusterBackend([leader_url], replicas={0: [r1.url, r2.url]},
                           retry_backoff=0.01)
    second = None
    try:
        for index in range(3):
            first.add_many([Triple(f"w{index}", "r", "both")])
        for replica in replicas:
            assert _wait_until(
                lambda: _count_on(replica.url, ["w2", "r", "both"]) == 1)
        leader.close()
        with pytest.raises(ShardUnavailableError):
            first.add_many([Triple("lost", "r", "unknown-outcome")])
        assert r1.role == "leader"
        first.add_many([Triple("acked", "r", "on-r1")])
        with connect(r1.url) as client:
            assert client.call("replication_status")["applied_seq"] == 1
        with connect(r2.url) as client:
            assert client.call("replication_status")["applied_seq"] == 3
        second = ClusterBackend([leader_url],
                                replicas={0: [r2.url, r1.url]},
                                retry_backoff=0.01)
        second.add_many([Triple("from", "r", "second")])
        assert second._sessions[0].leader == r1.url
        assert r2.role == "replica"
        assert r1.service.store.live_generation == 1
        # Read through B: the gate refuses r2, so the rows are r1's.
        assert set(second.match(None, "r", None)) == {
            Triple("w0", "r", "both"), Triple("w1", "r", "both"),
            Triple("w2", "r", "both"), Triple("acked", "r", "on-r1"),
            Triple("from", "r", "second")}
        assert _count_on(r1.url, ["from", "r", "second"]) == 1
    finally:
        for backend in (second, first):
            if backend is not None:
                backend.close()
        for server in (r2, r1, leader):
            server.close()


def test_a_stale_server_on_the_old_leader_address_never_answers_a_read(
        tmp_path):
    """The full topology: a 1-shard leader and its replica, a promotion,
    then a generation-0 server restarted on the old leader's address
    while every coordinator socket is shut down.  Each retry-safe read
    reconnects through the session: the stale endpoint is refused typed
    and the read is answered by the new leader, never by the stale
    server (which lacks the post-promotion write)."""
    import socket

    TripleStore.create_live(tmp_path / "leader", _sample_triples(8))
    leader = KGServer.open(tmp_path / "leader", port=0).start()
    host, port = leader.address
    bootstrap_replica(tmp_path / "replica", leader.url)
    replica = KGServer.open(tmp_path / "replica", port=0, follow=leader.url,
                            follow_poll_interval=0.01).start()
    backend = ClusterBackend([leader.url], replicas={0: [replica.url]},
                             retry_backoff=0.01)
    stale = None
    try:
        backend.add_many([Triple("pre", "r", "promotion")])
        assert _wait_until(
            lambda: _count_on(replica.url, ["pre", "r", "promotion"]) == 1)
        leader.close()
        with pytest.raises(ShardUnavailableError):
            backend.add_many([Triple("lost", "r", "unknown-outcome")])
        backend.add_many([Triple("post", "r", "promotion")])
        assert replica.role == "leader"
        stale = KGServer.open(tmp_path / "leader", host=host,
                              port=port).start()
        assert _count_on(stale.url, ["post", "r", "promotion"]) == 0
        served = stale.service.stats["requests_served"]
        session = backend._sessions[0]
        assert session.addresses == [replica.url, stale.url]
        for _ in range(4):
            for client in session._clients:
                if client is not None:
                    client._sock.shutdown(socket.SHUT_RDWR)
            assert backend.match("post", "r", None) \
                == [Triple("post", "r", "promotion")]
        assert session.counters["reroutes"] >= 1
        with pytest.raises(ProtocolError, match="stale ex-leader"):
            session._call(1, "ping", {})
        assert stale.service.stats["requests_served"] == served
    finally:
        backend.close()
        for server in (stale, replica, leader):
            if server is not None:
                server.close()


def test_replication_stats_never_torn_under_concurrent_polls(tmp_path):
    """Regression: the follower loop used to bump ``applied_seq`` /
    ``batches_applied`` / ``triples_applied`` without the stats lock, so
    a concurrent ``stats`` reader could observe a half-updated
    replication block.  With 3-triple batches, every snapshot any poller
    ever sees must satisfy the lockstep invariants exactly."""
    TripleStore.create_live(tmp_path / "leader", [])
    leader = KGServer.open(tmp_path / "leader", port=0).start()
    shutil.copytree(tmp_path / "leader", tmp_path / "replica")
    replica = KGServer.open(tmp_path / "replica", port=0,
                            follow=leader.url,
                            follow_poll_interval=0.001).start()
    try:
        stop = threading.Event()
        torn: list = []

        def poll():
            with connect(replica.url) as reader:
                while not stop.is_set():
                    rep = reader.stats()["replication"]
                    if rep["triples_applied"] != 3 * rep["batches_applied"] \
                            or rep["applied_seq"] != rep["batches_applied"]:
                        torn.append(dict(rep))
                        return

        pollers = [threading.Thread(target=poll) for _ in range(3)]
        for poller in pollers:
            poller.start()
        with connect(leader.url) as writer:
            for i in range(40):
                writer.call("add_many", triples=[
                    [f"h{i}", "r", f"t{i}a"], [f"h{i}", "r", f"t{i}b"],
                    [f"h{i}", "r", f"t{i}c"]])
        with connect(replica.url) as reader:
            assert _wait_until(
                lambda: reader.stats()["replication"]["batches_applied"]
                >= 40)
        stop.set()
        for poller in pollers:
            poller.join(timeout=10)
        assert torn == []
    finally:
        replica.close()
        leader.close()


# --------------------------------------------------------------------- #
# one result type: every read answer is a block, on every server kind
# --------------------------------------------------------------------- #
#: Names that only the reference pair in ``tests/_oracle.py`` and the
#: deleted JSON item may carry; the package holds none of them.
_GONE_FROM_SRC = ("execute_backtracking", "SetBackend", "ITEM_JSON",
                  "id_space")


def test_every_read_answer_is_a_block_on_every_server_kind(tmp_path):
    """A plain server, a WAL-following replica and a coordinator over two
    shards answer the list-backed fixture's queries — variable-free,
    unknown constants, empty joins, mixed kinds (stars among them, which
    the coordinator ships whole) — with an ``IdBlock`` from their own
    service and a ``DecodedBlock`` on the wire, through ``execute``,
    ``execute_many``, ``open_cursor`` / ``fetch`` (a fetch past the end
    included), ``match`` and ``match_ids_many``; the rows equal the
    oracle's.  A binary item of kind 0 is refused typed, and no name of
    the old second result path is left under ``src/``."""
    root = Path(__file__).resolve().parents[1]
    fixture = json.loads((root / "tests" / "data" /
                          "list-backed-answers-written-by-pr24.json"
                          ).read_text(encoding="utf-8"))
    triples = [Triple(*row) for row in fixture["triples"]]
    queries = [PatternQuery.from_patterns(entry["patterns"],
                                          select=entry["select"],
                                          limit=entry["limit"])
               for entry in fixture["queries"]]
    oracle = TripleStore(triples, backend=SetBackend())
    patterns = [(None, "maps", None), ("ghost", None, None),
                ("p1", None, None)]
    id_patterns = [[0, None, None], [None, 0, None], [10 ** 9, None, None]]
    TripleStore.create_live(tmp_path / "leader", triples)
    local = ShardedBackend(2)
    local.add_many(triples)
    with ExitStack() as stack:
        leader = stack.enter_context(
            KGServer.open(tmp_path / "leader", port=0).start())
        bootstrap_replica(tmp_path / "replica", leader.url)
        replica = stack.enter_context(KGServer.open(
            tmp_path / "replica", port=0, follow=leader.url,
            follow_poll_interval=0.01).start())
        backend, _shards, _ = stack.enter_context(_cluster_over(local))
        coordinator = stack.enter_context(
            KGServer(TripleStore(backend=backend), port=0).start())
        for server in (leader, replica, coordinator):
            service = server.service
            futures = [service.submit(query) for query in queries]
            assert all(isinstance(future.result(), IdBlock)
                       for future in futures)
            page, _exhausted = service.fetch_cursor(
                service.open_cursor(queries[0]), 5)
            assert isinstance(page, IdBlock)
            assert all(isinstance(block, IdBlock)
                       for block in service.match_ids_many(id_patterns))
            assert isinstance(service.submit_lookup(patterns[0]).result(),
                              IdBlock)
            with RemoteClient(server.url) as client:
                answers = client.call("execute_many", queries=[
                    encode_wire_query(query) for query in queries])
                for query, answer in zip(queries, answers):
                    alone = client.call("execute",
                                        query=encode_wire_query(query))
                    expected = _multiset(backtrack(oracle, query))
                    for block in (answer, alone):
                        assert isinstance(block, DecodedBlock), query
                        assert len(block.names) == block.rows.shape[1]
                        assert _multiset(block.to_bindings()) == expected, \
                            (server.role, query)
                    cursor = client.call("open_cursor",
                                         query=encode_wire_query(query))
                    paged, exhausted = [], False
                    for _ in range(len(expected) + 2):
                        reply = client.call("fetch", cursor=cursor,
                                            max_rows=4)
                        assert isinstance(reply["rows"], DecodedBlock)
                        if exhausted:       # past the end: an empty page
                            assert len(reply["rows"]) == 0
                            break
                        paged.extend(reply["rows"].to_bindings())
                        exhausted = reply["exhausted"]
                    assert _multiset(paged) == expected, query
                for pattern in patterns:
                    block = client.call("match", pattern=list(pattern))
                    assert isinstance(block, DecodedBlock)
                    assert sorted(block.to_triples()) == \
                        oracle.match(*pattern, sort=True)
                blocks = client.call("match_ids_many", patterns=id_patterns)
                assert [isinstance(block, DecodedBlock)
                        for block in blocks] == [True] * 3
                assert len(blocks[2]) == 0
    assert _requests(backend) > 0
    # A kind-0 item (a JSON value inside a binary frame) is refused typed.
    body = BinaryResponseEncoder(Interner(), Interner()).encode(
        7, SHAPE_SINGLE, [IdBlock((), (), np.zeros((1, 0), dtype=np.int64))]
    )[4:]
    assert BinaryResponseDecoder().decode(body)["result"].to_bindings() == \
        [{}]
    kind = len(body) - (1 + 1 + 2 + 8)     # kind, flags, ncols, nrows
    with pytest.raises(ProtocolError, match="unknown binary item kind 0"):
        BinaryResponseDecoder().decode(body[:kind] + b"\0" + body[kind + 1:])
    # The CI step ``! grep -rnwE "execute_backtracking|SetBackend|..." src/``.
    word = re.compile(r"\b(%s)\b" % "|".join(_GONE_FROM_SRC))
    hits = [f"{path}:{number}" for path in sorted((root / "src").rglob("*"))
            if path.is_file()
            for number, line in enumerate(
                path.read_text(encoding="utf-8", errors="replace")
                .splitlines(), 1)
            if word.search(line)]
    assert hits == []
