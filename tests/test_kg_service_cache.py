"""Correctness of the hot-query result cache.

The cache's one safety claim: a service with the cache enabled is
OBSERVATIONALLY IDENTICAL to one without it — same rows, same order,
same errors — under any interleaving of queries and writes.  A hit is
answered on the submitting thread, off the dispatcher, so the claim
rests on three invariants: a write's entries are dropped before its
ack, the store and the cache swap in one critical section, and every
hit and miss is counted once.  Invalidation is per pattern: a write
drops exactly the entries with a pattern one of its triples matches
(variables as wildcards); a SWAP or a failed apply drops them all.
These suites attack that claim:

* **property** — random query/write interleavings on columnar stores
  (in-heap, and reopened with a mapped base) and sharded ones, cached vs cache-disabled twin services, results
  compared bit-identically after every step (hypothesis-driven); the
  write pool holds triples under relations no query names, triples
  that intern a constant a query keyed as unknown (in its position and
  elsewhere), and one that interns a relation a query names before it
  exists;
* **invalidation** — a write keeps the entries it cannot change, drops
  the ones it matches a pattern of, an all-variable pattern is dropped
  by any write, a failed apply mid-round drops everything, and the
  reverse index holds exactly the live entries' keys through LRU churn
  and drops;
* **wire** — the same twin comparison through real servers, plus a
  concurrent remote writer appending markers while every acked write is
  checked immediately visible through the hot path (an acked write
  must never be answered by a stale entry); both are rows scenarios,
  so from a connection that never said ``hello`` they end in the typed
  refusal;
* **off the dispatcher** — a hit resolves while the dispatcher is
  parked inside a write and a miss does not, a read sent from a
  write's ack sees that write, and hits racing store swaps never answer
  with an entry of the other store;
* **mechanics** — limit variants sharing one entry, key canonicality,
  LRU eviction under the byte budget, cursor snapshots surviving
  invalidation, ``RemoteCursor`` release draining the server table with
  caching on, and the stats snapshot staying consistent under
  concurrent writers.
"""

from __future__ import annotations

import gc
import random
import threading
import time
from dataclasses import replace as dataclass_replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _oracle import mapped_backend
from repro.kg.client import RemoteClient, RemoteQueryEngine, RemoteStore
from repro.kg.planner import PatternQuery, cache_key
from repro.kg.server import KGServer
from repro.errors import StorageError
from repro.kg.service import QueryService, _slots
from repro.kg.sharded_backend import ShardedBackend
from repro.kg.store import TripleStore
from repro.kg.triple import Triple, triples_from_tuples

from test_kg_server import _asks_for_rows


def _base_rows():
    rows = []
    for index in range(24):
        product = f"product:{index:03d}"
        rows.append((product, "brandIs", f"brand:{index % 4}"))
        rows.append((product, "rdf:type", f"category:{index % 3}"))
    return rows


def _make_store(backend_name: str) -> TripleStore:
    triples = triples_from_tuples(_base_rows())
    if backend_name == "mmap":
        return TripleStore(backend=mapped_backend(triples))
    if backend_name == "sharded":
        return TripleStore(triples, backend=ShardedBackend(n_shards=2))
    return TripleStore(triples)


#: A pool of queries spanning every answer shape, each cached: joins,
#: constants, selects, limits, unknown constants, a mixed-kind query
#: (variable in entity AND relation position), an empty join over
#: known constants, a query without variables, and a join over a
#: relation (``madeIn``) no base triple has.
_QUERIES = [
    PatternQuery.from_patterns([("?p", "brandIs", "?b")]),
    PatternQuery.from_patterns([("?p", "brandIs", "brand:1")],
                               select=("?p",)),
    PatternQuery.from_patterns([("?p", "brandIs", "?b"),
                                ("?p", "rdf:type", "category:0")],
                               select=("?p", "?b")),
    PatternQuery.from_patterns([("?p", "brandIs", "?b")], limit=3),
    PatternQuery.from_patterns([("?p", "brandIs", "?b"),
                                ("?p", "rdf:type", "?c")], limit=7),
    PatternQuery.from_patterns([("?p", "brandIs", "brand:none")]),
    PatternQuery.from_patterns([("?x", "?r", "?y")], select=("?x",),
                               limit=5),
    PatternQuery.from_patterns([("?p", "?q", "?t"),
                                ("?q", "brandIs", "?b")]),
    PatternQuery.from_patterns([("?p", "brandIs", "?b"),
                                ("?b", "rdf:type", "?c")]),
    PatternQuery.from_patterns([("product:001", "brandIs", "brand:1")]),
    PatternQuery.from_patterns([("?p", "brandIs", "?b"),
                                ("?p", "madeIn", "?c")]),
]

#: Triples the write ops flip in and out, overlapping the base rows so
#: removes actually remove and adds actually change hot results — plus
#: writes per-pattern invalidation must tell apart: under a relation no
#: query names, interning ``brand:none`` where a query keyed it as
#: unknown (and, under the unnamed relation, elsewhere), and interning
#: the ``madeIn`` relation a query names before any triple has it.
_WRITE_POOL = triples_from_tuples(
    [(f"product:{index:03d}", "brandIs", f"brand:{index % 4}")
     for index in range(6)]
    + [(f"extra:{index}", "brandIs", f"brand:{index % 4}")
       for index in range(6)]
    + [(f"extra:{index}", "rdf:type", "category:0") for index in range(4)]
    + [("product:001", "viewedWith", "product:002"),
       ("extra:1", "viewedWith", "product:003"),
       ("brand:none", "viewedWith", "brand:1"),
       ("extra:5", "brandIs", "brand:none"),
       ("product:002", "madeIn", "country:0")])

_OP = st.one_of(
    st.tuples(st.just("query"),
              st.integers(min_value=0, max_value=len(_QUERIES) - 1)),
    st.tuples(st.just("add"),
              st.lists(st.sampled_from(_WRITE_POOL), min_size=1,
                       max_size=3)),
    st.tuples(st.just("remove"),
              st.lists(st.sampled_from(_WRITE_POOL), min_size=1,
                       max_size=3)),
)


# --------------------------------------------------------------------------- #
# property: cache on/off twins are bit-identical under interleavings
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("backend_name", ["columnar", "mmap", "sharded"])
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ops=st.lists(_OP, min_size=1, max_size=10))
def test_cache_on_off_bit_identical_under_interleavings(backend_name, ops):
    cached = QueryService(_make_store(backend_name), cache_bytes=1 << 20)
    plain = QueryService(_make_store(backend_name), cache_bytes=0)
    try:
        for op in ops:
            if op[0] == "add":
                assert cached.add_many(op[1]) == plain.add_many(op[1])
            elif op[0] == "remove":
                assert cached.remove_many(op[1]) == plain.remove_many(op[1])
            else:
                query = _QUERIES[op[1]]
                # Ask twice: the second answer is (likely) a cache hit
                # and must be byte-for-byte the fresh execution.
                first = cached.execute(query)
                expected = plain.execute(query)
                assert first == expected
                assert cached.execute(query) == expected
    finally:
        cached.close()
        plain.close()


# --------------------------------------------------------------------------- #
# invalidation: a write drops exactly the entries it can change
# --------------------------------------------------------------------------- #
_GUIDE = PatternQuery.from_patterns([("?p", "brandIs", "brand:1"),
                                     ("?p", "rdf:type", "category:0")],
                                    select=("?p",), limit=2)
_POINT = PatternQuery.from_patterns([("product:001", "brandIs", "?b"),
                                     ("?b", "headquartersIn", "?c")])
_OTHER_GUIDE = PatternQuery.from_patterns([("?p", "brandIs", "brand:2"),
                                           ("?p", "rdf:type", "category:2")],
                                          select=("?p",))
_VIEWED = [Triple("product:001", "viewedWith", "product:002")]


def _guide_store() -> TripleStore:
    return TripleStore(triples_from_tuples(
        _base_rows() + [(f"brand:{index}", "headquartersIn",
                         f"country:{index % 2}") for index in range(4)]))


def _cache_state(service):
    stats = service.stats
    return (stats["cache_entries"], stats["cache_hits"],
            stats["cache_misses"], stats["cache_invalidations"])


def test_a_write_keeps_the_entries_it_cannot_change():
    """Adding and removing a ``viewedWith`` triple changes neither a
    guide join nor a point join: both stay cached and keep hitting."""
    with QueryService(_guide_store()) as service:
        answers = [service.execute(query) for query in (_GUIDE, _POINT)]
        entries, hits, misses, invalidations = _cache_state(service)
        assert entries == 2
        assert service.add_many(_VIEWED) == 1
        assert [service.execute(query) for query in (_GUIDE, _POINT)] \
            == answers
        assert service.remove_many(_VIEWED) == 1
        assert [service.execute(query) for query in (_GUIDE, _POINT)] \
            == answers
        assert _cache_state(service) == (entries, hits + 4, misses,
                                         invalidations + 2)


def test_a_write_drops_the_entry_one_of_whose_patterns_it_matches():
    """``product:005`` is a brand:1 product; typing it category:0
    matches the guide join's second pattern only — that entry goes, the
    others stay, and the re-asked guide join sees the new row."""
    with QueryService(_guide_store()) as service:
        queries = (_GUIDE, _POINT, _OTHER_GUIDE)
        answers = [service.execute(query) for query in queries]
        entries, hits, misses, _ = _cache_state(service)
        assert entries == 3
        service.add_many([Triple("product:005", "rdf:type", "category:0")])
        assert service.stats["cache_entries"] == 2
        assert service.execute(_POINT) == answers[1]
        assert service.execute(_OTHER_GUIDE) == answers[2]
        guide = service.execute(dataclass_replace(_GUIDE, limit=None))
        assert {"?p": "product:005"} in guide
        assert _cache_state(service)[:3] == (3, hits + 2, misses + 1)


def test_an_all_variable_pattern_is_dropped_by_any_write():
    everything = PatternQuery.from_patterns([("?x", "?r", "?y")],
                                            select=("?x",), limit=5)
    with QueryService(_guide_store()) as service:
        service.execute(everything)
        service.execute(_GUIDE)
        service.add_many(_VIEWED)
        assert service.stats["cache_entries"] == 1
        _, hits, misses, _ = _cache_state(service)
        service.execute(_GUIDE)
        service.execute(everything)
        assert _cache_state(service)[1:3] == (hits + 1, misses + 1)


def test_interning_an_unknown_constant_drops_its_entry():
    """``brand:none`` keys as unknown; the write that interns it in the
    pattern's position drops the entry at once instead of leaving an
    unreachable one for the LRU."""
    none = PatternQuery.from_patterns([("?p", "brandIs", "brand:none")])
    with QueryService(_guide_store()) as service:
        assert service.execute(none) == []
        service.execute(_GUIDE)
        service.add_many([Triple("extra:5", "brandIs", "brand:none")])
        assert service.stats["cache_entries"] == 1
        assert service.execute(none) == [{"?p": "extra:5"}]


def test_a_failed_apply_mid_round_drops_the_whole_cache(monkeypatch):
    """Two writes in one dispatch round, the second's apply raising:
    the first matches no cached pattern, yet the round drops all."""
    store = _guide_store()
    held, release = threading.Event(), threading.Event()
    count_many, add_many = store.count_many, store.add_many

    def holding_count_many(patterns):
        held.set()
        release.wait(10)
        return count_many(patterns)

    def failing_add_many(triples):
        if any(triple.relation == "poison" for triple in triples):
            raise StorageError("apply failed")
        return add_many(triples)

    with QueryService(store) as service:
        for query in (_GUIDE, _POINT):
            service.execute(query)
        invalidations = service.stats["cache_invalidations"]
        monkeypatch.setattr(store, "count_many", holding_count_many)
        monkeypatch.setattr(store, "add_many", failing_add_many)
        # Park the dispatcher so both writes queue into one round.
        counted = service.submit_count(("product:001", "brandIs", None))
        assert held.wait(10)
        harmless = service.submit_add(_VIEWED)
        poisoned = service.submit_add(
            [Triple("product:001", "poison", "product:002")])
        release.set()
        assert counted.result() == 1
        assert harmless.result() == 1
        with pytest.raises(StorageError):
            poisoned.result()
        stats = service.stats
        assert (stats["cache_entries"], stats["cache_bytes"]) == (0, 0)
        assert stats["cache_invalidations"] == invalidations + 1
        assert not service._cache._index


def _assert_index_is_live_keys(cache):
    live = set(cache._table)
    assert set().union(*cache._index.values()) == live
    assert all(cache._index.values())
    for key in live:
        for slot in _slots(key):
            assert key in cache._index[slot]


def test_reverse_index_holds_exactly_the_live_keys_through_churn():
    rows = [(f"product:{index:04d}", "brandIs", f"brand:{index % 64}")
            for index in range(4096)]
    rows += [(f"product:{index:04d}", "rdf:type", f"category:{index % 8}")
             for index in range(4096)]
    store = TripleStore(triples_from_tuples(rows))
    with QueryService(store, cache_bytes=8192) as service:
        cache = service._cache
        for index in range(64):
            service.execute(PatternQuery.from_patterns(
                [("?p", "brandIs", f"brand:{index}")], select=("?p",)))
            service.execute(PatternQuery.from_patterns(
                [("?p", "brandIs", f"brand:{index}"),
                 ("?p", "rdf:type", f"category:{index % 8}")],
                select=("?p",)))
            service.execute(PatternQuery.from_patterns(
                [(f"product:{index:04d}", "brandIs", "?b"),
                 ("?b", "headquartersIn", "?c")]))
            _assert_index_is_live_keys(cache)
            if index % 8 == 7:
                service.add_many([Triple(f"product:{index:04d}", "rdf:type",
                                         "category:0")])
                _assert_index_is_live_keys(cache)
        assert service.stats["cache_evictions"] > 0
        assert 0 < len(cache._table) < 3 * 64


# --------------------------------------------------------------------------- #
# mechanics: key canonicality and the one-entry-per-plan guarantee
# --------------------------------------------------------------------------- #
def test_cache_key_is_limit_independent_and_shape_sensitive():
    backend = _make_store("columnar").backend
    patterns = [("?p", "brandIs", "?b")]
    base = PatternQuery.from_patterns(patterns, select=("?p",))
    limited = PatternQuery.from_patterns(patterns, select=("?p",), limit=7)
    assert cache_key(backend, base) == cache_key(backend, limited)
    # The key is (select, interned terms) and nothing else.
    assert cache_key(backend, base) == (
        ("?p",), ("?p", backend.relation_interner.lookup("brandIs"), "?b"))
    # Anything that changes the projected result changes the key.
    renamed = PatternQuery.from_patterns([("?q", "brandIs", "?b")],
                                         select=("?q",))
    wider = PatternQuery.from_patterns(patterns, select=("?p", "?b"))
    assert cache_key(backend, renamed) != cache_key(backend, base)
    assert cache_key(backend, wider) != cache_key(backend, base)
    # Constants canonicalize through the interner; unknown constants are
    # tagged, never confused with interned ids or variables.
    known = PatternQuery.from_patterns([("?p", "brandIs", "brand:1")])
    unknown = PatternQuery.from_patterns([("?p", "brandIs", "brand:nope")])
    assert cache_key(backend, known) != cache_key(backend, unknown)
    # Every query has a key: a mixed-kind variable (entity + relation
    # position) and a query projecting no columns are blocks like any.
    mixed = PatternQuery.from_patterns([("?p", "?q", "?t"),
                                        ("?q", "brandIs", "?b")])
    assert cache_key(backend, mixed) == (
        (), ("?p", "?q", "?t", "?q", backend.relation_interner.lookup(
            "brandIs"), "?b"))
    constant = PatternQuery.from_patterns(
        [("product:000", "brandIs", "brand:0")])
    assert cache_key(backend, constant)[0] == ()


def test_limit_variants_share_one_cache_entry():
    with QueryService(_make_store("columnar")) as service:
        patterns = [("?p", "brandIs", "?b")]
        full = service.execute(PatternQuery.from_patterns(
            patterns, select=("?p", "?b")))
        # None: the query again — two submissions of one query always
        # share one entry, there is nothing else a caller could vary.
        for limit in (1, 3, 999, None):
            limited = PatternQuery.from_patterns(
                patterns, select=("?p", "?b"), limit=limit)
            assert service.execute(limited) == full[:limit]
        stats = service.stats
        assert stats["cache_entries"] == 1
        assert stats["cache_misses"] == 1
        assert stats["cache_hits"] == 4


def test_an_empty_join_is_fetched_once(monkeypatch):
    """An empty join over known constants is a zero-row block, pinned
    like any other answer: sent twice it is fetched once and served
    from the cache once — and so is a query without variables."""
    store = _make_store("columnar")
    fetched = []
    original = type(store.backend).match_ids_many

    def spy(self, patterns):
        fetched.append(list(patterns))
        return original(self, patterns)

    monkeypatch.setattr(type(store.backend), "match_ids_many", spy)
    empty = PatternQuery.from_patterns([("?p", "brandIs", "?b"),
                                        ("?b", "rdf:type", "?c")])
    holds = PatternQuery.from_patterns([("product:001", "brandIs",
                                         "brand:1")])
    with QueryService(store) as service:
        assert service.execute(empty) == []
        assert service.execute(empty) == []
        assert (len(fetched), service.stats["cache_hits"]) == (1, 1)
        assert service.execute(holds) == [{}]
        assert service.execute(holds) == [{}]
        stats = service.stats
    assert (len(fetched), stats["cache_hits"], stats["cache_misses"],
            stats["cache_entries"]) == (2, 2, 2, 2)


def test_lru_eviction_respects_byte_budget():
    rows = [(f"product:{index:04d}", "brandIs", f"brand:{index % 64}")
            for index in range(4096)]
    store = TripleStore(triples_from_tuples(rows))
    # Big enough for a handful of per-brand results, far too small for
    # all 64 — the LRU must evict and the budget must hold throughout.
    with QueryService(store, cache_bytes=4096) as service:
        for index in range(64):
            service.execute(PatternQuery.from_patterns(
                [("?p", "brandIs", f"brand:{index}")], select=("?p",)))
            stats = service.stats
            assert stats["cache_bytes"] <= stats["cache_max_bytes"]
        stats = service.stats
        assert stats["cache_evictions"] > 0
        assert 0 < stats["cache_entries"] < 64
        # The hottest (most recent) entry survived: re-asking hits.
        hits_before = stats["cache_hits"]
        service.execute(PatternQuery.from_patterns(
            [("?p", "brandIs", "brand:63")], select=("?p",)))
        assert service.stats["cache_hits"] == hits_before + 1


# --------------------------------------------------------------------------- #
# cursor interaction: snapshots survive invalidation, fresh reads don't
# --------------------------------------------------------------------------- #
def test_cursor_keeps_snapshot_while_post_write_queries_miss():
    with QueryService(_make_store("columnar")) as service:
        query = PatternQuery.from_patterns([("?p", "brandIs", "?b")])
        full = service.execute(query)                 # miss → fills
        cursor_id = service.open_cursor(query)        # hit → view cursor
        assert service.stats["cache_hits"] == 1
        first_page = service.fetch_cursor(cursor_id, 2)[0].materialize()
        service.add_many([Triple("extra:new", "brandIs", "brand:0")])
        after = service.execute(query)                # post-write: a miss
        stats = service.stats
        assert stats["cache_invalidations"] == 1
        assert stats["cache_misses"] == 2
        assert len(after) == len(full) + 1
        # The cursor opened before the write keeps paging its open-time
        # snapshot — invalidation drops cache references, not the block
        # the cursor's view points into.
        rest = []
        while True:
            page, exhausted = service.fetch_cursor(cursor_id, 2)
            rest.extend(page.materialize())
            if exhausted:
                break
        assert first_page + rest == full


def test_remote_cursor_release_drains_table_with_cache_hit_cursor():
    """A cursor served FROM the cache is a first-class table entry: the
    client dropping its last reference must still drain it promptly."""
    store = _make_store("columnar")
    query = PatternQuery.from_patterns([("?p", "brandIs", "?b")])
    with KGServer(store, port=0).start() as running:
        with RemoteQueryEngine(running.url) as engine:
            engine.execute(query)                     # fill the cache
            cursor = engine.cursor(query, page_size=4)
            assert cursor.fetch()
            stats = running.service.stats
            assert stats["cache_hits"] >= 1
            assert stats["open_cursors"] == 1
            del cursor
            gc.collect()
            deadline = time.monotonic() + 10
            while (running.service.stats["open_cursors"]
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert running.service.stats["open_cursors"] == 0
            # Connection still serviceable, and still hitting.
            assert engine.execute(query)


# --------------------------------------------------------------------------- #
# wire: interleaved remote writes, concurrent writers — once per connection
# state (``json`` never said ``hello``, ``auto`` said it)
# --------------------------------------------------------------------------- #
_CONNECTION_STATES = pytest.mark.parametrize(
    "server_codec", ["json", "auto"], ids=["json-wire", "binary-wire"])


@_CONNECTION_STATES
@pytest.mark.parametrize("seed", [0, 1])
@_asks_for_rows
def test_wire_cache_on_off_bit_identical_interleaving(server_codec, seed):
    rng = random.Random(seed)
    cached_server = KGServer(_make_store("columnar"), port=0)
    plain_server = KGServer(_make_store("columnar"), port=0, cache_bytes=0)
    with cached_server.start() as cache_on, plain_server.start() as cache_off:
        with RemoteClient(cache_on.url, codec=server_codec) as hot, \
                RemoteClient(cache_off.url, codec=server_codec) as cold:
            hot_engine, cold_engine = (RemoteQueryEngine(hot),
                                       RemoteQueryEngine(cold))
            hot_store, cold_store = RemoteStore(hot), RemoteStore(cold)
            for _step in range(40):
                roll = rng.random()
                if roll < 0.2:
                    batch = rng.sample(_WRITE_POOL,
                                       rng.randint(1, 3))
                    assert hot_store.add_many(batch) \
                        == cold_store.add_many(batch)
                elif roll < 0.3:
                    batch = rng.sample(_WRITE_POOL,
                                       rng.randint(1, 3))
                    assert hot_store.remove_many(batch) \
                        == cold_store.remove_many(batch)
                else:
                    query = _QUERIES[rng.randrange(len(_QUERIES))]
                    assert hot_engine.execute(query) \
                        == cold_engine.execute(query)
        stats = cache_on.service.stats
        assert stats["cache_hits"] > 0, \
            "the interleaving never hit the cache — the test lost its teeth"


@_CONNECTION_STATES
@_asks_for_rows
def test_acked_remote_writes_never_served_stale(server_codec):
    """Epoch-bump invalidation under concurrency: while one remote
    client keeps a query red-hot (so the entry is re-filled constantly),
    every acked write from a second client must be visible to the very
    next read — a single stale hit fails the count check."""
    marker_query = PatternQuery.from_patterns([("?m", "isMarker", "yes")],
                                              select=("?m",))
    with KGServer(_make_store("columnar"), port=0).start() as running:
        stop = threading.Event()
        hammer_errors = []

        def hammer():
            try:
                with RemoteClient(running.url,
                                  codec=server_codec) as connection:
                    engine = RemoteQueryEngine(connection)
                    while not stop.is_set():
                        engine.execute(marker_query)
            except Exception as exc:  # pragma: no cover - surfaced below
                hammer_errors.append(exc)

        thread = threading.Thread(target=hammer, daemon=True)
        thread.start()
        try:
            with RemoteClient(running.url, codec=server_codec) as write, \
                    RemoteClient(running.url, codec=server_codec) as read:
                writer, reader = RemoteStore(write), RemoteQueryEngine(read)
                for index in range(30):
                    assert writer.add_many(
                        [Triple(f"marker:{index}", "isMarker", "yes")]) == 1
                    rows = reader.execute(marker_query)
                    assert len(rows) == index + 1, \
                        f"acked write {index} invisible: stale cache hit"
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not hammer_errors


# --------------------------------------------------------------------------- #
# off the dispatcher: a hit is answered at submit, on the caller's thread
# --------------------------------------------------------------------------- #
def _parked_in_add_many(monkeypatch, store):
    """Make ``store.add_many`` wait inside the dispatcher: returns the
    (parked, release) events."""
    parked, release = threading.Event(), threading.Event()
    add_many = store.add_many

    def parked_add_many(triples):
        parked.set()
        release.wait(10)
        return add_many(triples)

    monkeypatch.setattr(store, "add_many", parked_add_many)
    return parked, release


def test_a_hit_resolves_while_the_dispatcher_is_inside_a_write(monkeypatch):
    """With the dispatcher parked inside a write's apply, a cached query
    comes back from ``submit`` already answered; an uncached one waits
    for the write and is served after it."""
    store = _guide_store()
    with QueryService(store) as service:
        answer = service.execute(_GUIDE)
        parked, release = _parked_in_add_many(monkeypatch, store)
        write = service.submit_add(_VIEWED)
        try:
            assert parked.wait(10)
            hit = service.submit(_GUIDE)
            miss = service.submit(_OTHER_GUIDE)
            assert hit.done() and hit.result().materialize() == answer
            assert not miss.done()
        finally:
            release.set()
        assert write.result() == 1
        assert miss.result().materialize() == service.execute(_OTHER_GUIDE)
        stats = service.stats
        assert (stats["cache_hits"], stats["cache_misses"]) == (2, 2)
        assert stats["requests_served"] == 5


def test_a_read_sent_from_a_writes_ack_sees_that_write(monkeypatch):
    """Invalidate, then ack: resolving a write runs its done-callbacks
    on the dispatcher at once, and a query submitted there probes the
    cache before the dispatcher moves on.  The write's matching entry
    must already be gone, or the callback reads the pre-write answer."""
    store = _guide_store()
    guide = dataclass_replace(_GUIDE, limit=None)
    typed = Triple("product:005", "rdf:type", "category:0")
    with QueryService(store) as service:
        assert {"?p": "product:005"} not in service.execute(guide)
        parked, release = _parked_in_add_many(monkeypatch, store)
        write = service.submit_add([typed])
        reads = []
        assert parked.wait(10)
        write.add_done_callback(
            lambda _write: reads.append((threading.current_thread(),
                                         service.submit(guide))))
        release.set()
        assert write.result() == 1
        (thread, read), = reads
        assert thread is service._dispatcher
        assert {"?p": "product:005"} in read.result().materialize()


def test_hits_racing_store_swaps_never_answer_from_the_other_store():
    """The store and the cache swap in one critical section.  The two
    stores hold the same triples interned in opposite orders, so one
    query's key in one store is another query's key in the other: a
    probe keying against the new store that met an entry of the old one
    would answer the wrong query.  Readers hammer the hot set while
    swaps flip the stores; every answer is right, and after each swap
    the next answer is a block of the new store."""
    rows = _base_rows()
    stores = [TripleStore(triples_from_tuples(rows)),
              TripleStore(triples_from_tuples(rows[::-1]))]
    hot = ([PatternQuery.from_patterns([("?p", "brandIs", f"brand:{index}")],
                                       select=("?p",)) for index in range(4)]
           + [PatternQuery.from_patterns([("?p", "rdf:type",
                                           f"category:{index}")],
                                         select=("?p",)) for index in range(3)])
    keys = [{cache_key(store.backend, query): query for query in hot}
            for store in stores]
    assert any(keys[0][key] != query for key, query in keys[1].items()
               if key in keys[0]), "no key names two queries: no teeth"
    def answer(block):      # row order follows the ids: compare as sets
        return sorted(row["?p"] for row in block.materialize())

    with QueryService(stores[0], cache_bytes=0) as plain:
        expected = [answer(plain.submit(query).result()) for query in hot]
    stop, errors = threading.Event(), []

    def reader(offset):
        try:
            while not stop.is_set():
                for index in range(len(hot)):
                    index = (index + offset) % len(hot)
                    block = service.submit(hot[index]).result()
                    assert answer(block) == expected[index], hot[index]
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)
            stop.set()

    with QueryService(stores[0]) as service:
        readers = [threading.Thread(target=reader, args=(offset,))
                   for offset in range(3)]
        for thread in readers:
            thread.start()
        try:
            for swap in range(300):
                if stop.is_set():
                    break
                new = stores[(swap + 1) % 2]
                service.swap_store(new)
                block = service.submit(hot[swap % len(hot)]).result()
                assert block.entities is \
                    new.backend.entity_interner.symbol_table()
        finally:
            stop.set()
            for thread in readers:
                thread.join(timeout=10)
        assert not errors, errors[0]
        assert service.stats["cache_hits"] > 0


# --------------------------------------------------------------------------- #
# stats: the snapshot is consistent, not a field-by-field torn read
# --------------------------------------------------------------------------- #
def test_stats_snapshot_consistent_under_concurrent_writes():
    """``mutation_epoch`` and ``write_batches`` bump under one lock
    acquisition; a torn field-by-field read (the pre-fix behavior)
    could observe one without the other."""
    with QueryService(_make_store("columnar")) as service:
        stop = threading.Event()
        errors = []

        def writer():
            try:
                triple = Triple("stats:probe", "brandIs", "brand:0")
                while not stop.is_set():
                    service.add_many([triple])
                    service.remove_many([triple])
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=writer, daemon=True)
                   for _ in range(2)]
        for thread in threads:
            thread.start()
        try:
            deadline = time.monotonic() + 1.0
            while time.monotonic() < deadline:
                snapshot = service.stats
                assert snapshot["mutation_epoch"] == snapshot["write_batches"]
                assert (snapshot["cache_hits"] + snapshot["cache_misses"]
                        <= snapshot["requests_served"])
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
        assert not errors
