"""Result-cache work counts under Zipfian traffic.

The workload mirrors the paper's serving shape: a catalog of distinct
join queries (brand x category shopping-guide probes) hammered by a
Zipf(s~=1.1) trace — a few queries absorb most of the traffic, exactly
what the result cache exists for.

* **in-process** — the seeded trace replayed through a ``QueryService``
  in ``execute_batch`` chunks, its backend fetches counted; a
  cache-disabled twin answers a prefix for the sanity check.
* **over the wire** — a slice of the trace through a real loopback
  server.

Acceptance bars, **counted, not timed** (``bench/``'s
``guide_zipf_read`` prices the hot path end to end):

* hit rate **>= 0.9** on the Zipfian trace (>= 2k distinct queries over
  >= 50k requests — misses are bounded by the catalog size, so a
  correct cache cannot miss this bar);
* the cache does what it is responsible for: over the cached replay
  the backend's ``match_ids_many`` runs only for dispatch rounds that
  contain a miss (never more calls than misses, never more patterns
  than the misses have), and not once while an all-hit slice is
  replayed;
* over the wire the cache absorbs at least half of a 4k-request slice.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import pytest

from _zipf import zipf_trace
from repro.kg.client import RemoteQueryEngine
from repro.kg.planner import PatternQuery
from repro.kg.server import KGServer
from repro.kg.service import QueryService
from repro.kg.store import TripleStore
from repro.kg.triple import triples_from_tuples

#: >= 2k distinct queries over >= 50k requests, per the acceptance bar.
NUM_BRANDS = 16
NUM_CATEGORIES = 128
CATALOG_SIZE = NUM_BRANDS * NUM_CATEGORIES          # 2048 distinct queries
NUM_REQUESTS = 50_000
ZIPF_S = 1.1
TRACE_SEED = 20260808
#: Products per (brand, category) combo; every combo is non-empty.
COMBO_PRODUCTS = 40
NUM_PRODUCTS = CATALOG_SIZE * COMBO_PRODUCTS        # 81920
#: The trace is replayed in client-side batches (the service coalesces
#: them anyway).
CHUNK = 256
WIRE_SLICE = 4096

HIT_RATE_BAR = 0.9


@pytest.fixture(scope="module")
def catalog_store() -> TripleStore:
    """The catalog, built once: both tests only read it."""
    rows: List[Tuple[str, str, str]] = []
    for index in range(NUM_PRODUCTS):
        product = f"product:{index:06d}"
        rows.append((product, "brandIs", f"brand:{index % NUM_BRANDS}"))
        rows.append((product, "rdf:type",
                     f"category:{(index // NUM_BRANDS) % NUM_CATEGORIES}"))
    return TripleStore(triples_from_tuples(rows))


def _query_catalog() -> List[PatternQuery]:
    """One 2-pattern join per (brand, category) combo, hottest first.

    ``select`` forces the deduplicated projection, ``limit`` keeps the
    per-request page small — the shopping-guide shape: "top products of
    this brand in this category"."""
    catalog = []
    for brand in range(NUM_BRANDS):
        for category in range(NUM_CATEGORIES):
            catalog.append(PatternQuery.from_patterns(
                [("?p", "brandIs", f"brand:{brand}"),
                 ("?p", "rdf:type", f"category:{category}")],
                select=("?p",), limit=10))
    return catalog


def _replay(service: QueryService, catalog: Sequence[PatternQuery],
            trace) -> None:
    """Replay a trace through the service in CHUNK-sized client batches."""
    for offset in range(0, len(trace), CHUNK):
        chunk = trace[offset:offset + CHUNK]
        service.execute_batch([catalog[rank] for rank in chunk])


def test_zipf_traffic_hot_path_speedup_and_hit_rate(catalog_store):
    catalog = _query_catalog()
    trace = zipf_trace(NUM_REQUESTS, CATALOG_SIZE, s=ZIPF_S, seed=TRACE_SEED)
    assert len(catalog) == CATALOG_SIZE >= 2000
    assert len(trace) == NUM_REQUESTS >= 50_000

    store = catalog_store
    cached = QueryService(store)
    plain = QueryService(store, cache_bytes=0)
    try:
        # Sanity on a prefix: cached results must equal uncached ones
        # (the full bit-identity property lives in the test suite).
        for rank in trace[:32]:
            assert cached.execute(catalog[rank]) == plain.execute(catalog[rank])
        # Count the backend fetches of the cached replay: each records
        # how many misses had been charged when it ran and how many
        # patterns it asked for (the spy runs on the dispatcher thread,
        # after that round's cache check).
        fetches: List[Tuple[int, int]] = []
        backend = store.backend
        fetch = backend.match_ids_many

        def counted_fetch(patterns):
            fetches.append((cached.stats["cache_misses"], len(patterns)))
            return fetch(patterns)

        backend.match_ids_many = counted_fetch
        try:
            warm_misses = cached.stats["cache_misses"]
            _replay(cached, catalog, trace)
            stats = cached.stats
            replay_fetches = list(fetches)
            # The last chunk again: everything in it was just served.
            _replay(cached, catalog, trace[-CHUNK:])
            all_hit_stats = cached.stats
        finally:
            del backend.match_ids_many
    finally:
        cached.close()
        plain.close()

    hits, misses = stats["cache_hits"], stats["cache_misses"]
    hit_rate = hits / (hits + misses)
    table = "\n".join([
        f"hit rate {hit_rate:.4f} ({hits} hits / {misses} misses, "
        f"{stats['cache_entries']} entries, {stats['cache_bytes']:,}B, "
        f"{stats['cache_evictions']} evictions)",
        f"{len(replay_fetches)} backend fetches for "
        f"{misses - warm_misses} replay misses",
    ])
    print(f"\nZipf(s={ZIPF_S}) traffic: {NUM_REQUESTS} requests over "
          f"{CATALOG_SIZE} distinct join queries, {NUM_PRODUCTS * 2} "
          f"triples, in-process\n{table}")
    assert hit_rate >= HIT_RATE_BAR, (
        f"Zipfian hit rate bar missed: {hit_rate:.4f} < {HIT_RATE_BAR}\n"
        f"{table}")
    # Every fetch answers at least one miss charged since the previous
    # fetch, asks for no more than the misses' own patterns (two each),
    # and a slice of pure hits reaches the backend not at all.
    charged = [warm_misses] + [seen for seen, _patterns in replay_fetches]
    assert replay_fetches and all(
        before < after for before, after in zip(charged, charged[1:])), table
    assert sum(patterns for _seen, patterns in replay_fetches) \
        <= 2 * (misses - warm_misses), table
    assert stats["cache_evictions"] == 0, table
    assert all_hit_stats["cache_misses"] == misses, table
    assert all_hit_stats["cache_hits"] == hits + CHUNK, table
    assert fetches == replay_fetches, (
        f"{len(fetches) - len(replay_fetches)} backend fetches during an "
        f"all-hit slice\n{table}")


def test_zipf_traffic_over_the_wire_both_codecs(catalog_store):
    """A slice of the same trace through a real loopback server (the id
    keeps its name from when a JSON row path ran beside the binary
    one): the server's cache must absorb the bulk of the hot traffic."""
    catalog = _query_catalog()
    trace = zipf_trace(NUM_REQUESTS, CATALOG_SIZE, s=ZIPF_S,
                       seed=TRACE_SEED)[:WIRE_SLICE]
    with KGServer(catalog_store, port=0).start() as server:
        with RemoteQueryEngine(server.url) as engine:
            for offset in range(0, len(trace), CHUNK):
                engine.execute_many(
                    [catalog[rank] for rank in trace[offset:offset + CHUNK]])
        stats = server.service.stats
    hits, misses = stats["cache_hits"], stats["cache_misses"]
    hit_rate = hits / (hits + misses)
    print(f"\nZipf traffic over the wire ({WIRE_SLICE} requests, chunked "
          f"x{CHUNK}, loopback): hit rate {hit_rate:.4f}")
    assert hits + misses == WIRE_SLICE, stats
    # The floor is looser than the in-process bar because this slice is
    # only WIRE_SLICE requests — the catalog's cold tail is a much
    # larger share of a short trace (the 0.9 bar is asserted on the full
    # 50k trace by the in-process test above).
    assert hit_rate >= 0.5, (
        f"wire traffic was not absorbed: hit rate {hit_rate:.4f} < 0.5 "
        f"({hits} hits / {misses} misses)")
