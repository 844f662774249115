"""Micro-benchmark — the hot-query result cache under Zipfian traffic.

The workload mirrors the paper's serving shape: a catalog of distinct
join queries (brand x category shopping-guide probes) hammered by a
Zipf(s~=1.1) trace — a few queries absorb most of the traffic, exactly
what the dispatcher-side result cache exists for.

* **in-process** — the same seeded trace replayed through twin
  ``QueryService`` instances, cache enabled vs disabled, driven through
  ``execute_batch`` so dispatch overhead amortizes identically on both
  sides and the ratio prices execution vs cache serving, not thread
  wakeups.
* **over the wire** — a slice of the trace through real loopback
  servers, cache on vs off (advisory: loopback latency on shared
  runners is too noisy for a hard bar).

Acceptance bars (assert messages embed the timing table):

* hit rate **>= 0.9** on the Zipfian trace (>= 2k distinct queries over
  >= 50k requests — misses are bounded by the catalog size, so a
  correct cache cannot miss this bar);
* the cache does what it is responsible for, **counted, not timed**:
  over the cached replay the backend's ``match_ids_many`` runs only for
  dispatch rounds that contain a miss (never more calls than misses,
  never more patterns than the misses have), and not once while an
  all-hit slice is replayed.

The cached ÷ uncached stopwatch ratio is still printed and persisted
(``benchmarks/out/BENCH_cache.json``) but no longer asserted: it is a
ratio to the *miss* path's cost, so every PR that made a miss cheaper
(PR 17: 5x -> 3.5-3.9x; the single fetch round: 2.8-4.1x) made the
cache look worse without touching it.
"""

from __future__ import annotations

import time
from typing import List, Sequence, Tuple

from _artifacts import update_artifact
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
#: The trace is replayed in client-side batches so both runs amortize
#: dispatch overhead the same way (the service coalesces them anyway).
CHUNK = 256
#: The cache-disabled twin replays a slice this long (same trace prefix)
#: and is compared per-request — replaying all 50k uncached would just
#: burn CI minutes measuring the same mean.
COLD_SLICE = 4096
WIRE_SLICE = 4096

HIT_RATE_BAR = 0.9


def _catalog_store() -> TripleStore:
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
            trace) -> float:
    """Replay a trace through the service in CHUNK-sized client batches;
    returns elapsed seconds."""
    start = time.perf_counter()
    for offset in range(0, len(trace), CHUNK):
        chunk = trace[offset:offset + CHUNK]
        service.execute_batch([catalog[rank] for rank in chunk])
    return time.perf_counter() - start


def test_zipf_traffic_hot_path_speedup_and_hit_rate():
    catalog = _query_catalog()
    trace = zipf_trace(NUM_REQUESTS, CATALOG_SIZE, s=ZIPF_S, seed=TRACE_SEED)
    assert len(catalog) == CATALOG_SIZE >= 2000
    assert len(trace) == NUM_REQUESTS >= 50_000

    # Both services read the same store: traffic is read-only here, and
    # the replays run sequentially, so sharing skips a second multi-
    # minute bulk load without the twins observing different data.
    store = _catalog_store()
    cached = QueryService(store)
    plain = QueryService(store, cache_bytes=0)
    try:
        # Sanity on a prefix: cached results must equal uncached ones
        # (the full bit-identity property lives in the test suite).
        for rank in trace[:32]:
            assert cached.execute(catalog[rank]) == plain.execute(catalog[rank])
        cold_seconds = _replay(plain, catalog, trace[:COLD_SLICE])
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
            hot_seconds = _replay(cached, catalog, trace)
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
    cold_per_request = cold_seconds / COLD_SLICE
    hot_per_request = hot_seconds / NUM_REQUESTS
    speedup = cold_per_request / hot_per_request
    table = "\n".join([
        f"{'path':<26} {'requests':>9} {'seconds':>9} {'us/req':>8} "
        f"{'req/s':>10}",
        f"{'cache disabled':<26} {COLD_SLICE:>9} {cold_seconds:>9.3f} "
        f"{cold_per_request * 1e6:>8.1f} {COLD_SLICE / cold_seconds:>10.0f}",
        f"{'cache enabled':<26} {NUM_REQUESTS:>9} {hot_seconds:>9.3f} "
        f"{hot_per_request * 1e6:>8.1f} {NUM_REQUESTS / hot_seconds:>10.0f}",
        f"hit rate {hit_rate:.4f} ({hits} hits / {misses} misses, "
        f"{stats['cache_entries']} entries, {stats['cache_bytes']:,}B, "
        f"{stats['cache_evictions']} evictions)",
        f"speedup {speedup:.1f}x (reported, not asserted); "
        f"{len(replay_fetches)} backend fetches for "
        f"{misses - warm_misses} replay misses",
    ])
    print(f"\nZipf(s={ZIPF_S}) traffic: {NUM_REQUESTS} requests over "
          f"{CATALOG_SIZE} distinct join queries, {NUM_PRODUCTS * 2} "
          f"triples, in-process\n{table}")
    update_artifact("cache", "zipf_in_process", {
        "workload": f"Zipf(s={ZIPF_S}) trace of {NUM_REQUESTS} requests "
                    f"over {CATALOG_SIZE} distinct 2-pattern join queries "
                    f"({NUM_PRODUCTS * 2} triples, seed {TRACE_SEED})",
        "backend": "columnar",
        "timings_seconds": {"cache_disabled_slice": cold_seconds,
                            "cache_enabled_full": hot_seconds},
        "per_request_seconds": {"cache_disabled": cold_per_request,
                                "cache_enabled": hot_per_request},
        "hit_rate": hit_rate,
        "cache_stats": {key: stats[key] for key in
                        ("cache_hits", "cache_misses", "cache_entries",
                         "cache_bytes", "cache_evictions",
                         "cache_invalidations")},
        "speedups": {"hot_path": speedup},
        "backend_fetches": len(replay_fetches),
        "bar": f"hit rate >= {HIT_RATE_BAR}; backend fetches only for "
               f"misses, none during an all-hit slice",
    })
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


def test_zipf_traffic_over_the_wire_both_codecs():
    """The same trace through real loopback servers, cache on vs off
    (the id keeps its name from when a JSON row path ran beside the
    binary one).  Advisory: the numbers land in the table and the
    artifact, but loopback latency on shared CI runners is too noisy
    for a hard bar — the asserted bar lives on the in-process path."""
    catalog = _query_catalog()
    trace = zipf_trace(NUM_REQUESTS, CATALOG_SIZE, s=ZIPF_S,
                       seed=TRACE_SEED)[:WIRE_SLICE]

    def replay_remote(engine: RemoteQueryEngine) -> float:
        start = time.perf_counter()
        for offset in range(0, len(trace), CHUNK):
            chunk = trace[offset:offset + CHUNK]
            engine.execute_many([catalog[rank] for rank in chunk])
        return time.perf_counter() - start

    timings = {}
    store = _catalog_store()
    for label, kwargs in (("cache_on", {}), ("cache_off", {"cache_bytes": 0})):
        # Servers run one after another over the same read-only
        # store; each owns a fresh service (and a fresh cache).
        with KGServer(store, port=0, **kwargs).start() as server:
            with RemoteQueryEngine(server.url) as engine:
                timings[label] = replay_remote(engine)
            stats = server.service.stats
        if label == "cache_on":
            served = stats["cache_hits"] + stats["cache_misses"]
            hit_rate = stats["cache_hits"] / served if served else 0.0

    speedup = timings["cache_off"] / timings["cache_on"]
    table = "\n".join([
        f"{'cache off':>10} {'cache on':>10} {'speedup':>9} {'hit rate':>9}",
        f"{timings['cache_off']:>10.3f} {timings['cache_on']:>10.3f} "
        f"{speedup:>8.1f}x {hit_rate:>9.4f}"])
    print(f"\nZipf traffic over the wire ({WIRE_SLICE} requests, chunked "
          f"x{CHUNK}, loopback, advisory)\n{table}")
    update_artifact("cache", "zipf_over_the_wire", {
        "workload": f"first {WIRE_SLICE} requests of the Zipf(s={ZIPF_S}) "
                    f"trace in {CHUNK}-query batched calls, loopback",
        "backend": "columnar",
        "codec": "binary",
        "timings_seconds": timings,
        "hit_rates": {"binary": hit_rate},
        "speedups_advisory": {"binary": speedup},
        "bar": "advisory (wire noise); the asserted bar is in-process",
    })
    # Functional floor, not a perf bar: the cache must actually have
    # absorbed the bulk of the hot traffic.  The floor is looser than
    # the in-process bar because this slice is only WIRE_SLICE requests
    # — the catalog's cold tail is a much larger share of a short trace
    # (the 0.9 bar is asserted on the full 50k trace by the in-process
    # test above).
    assert hit_rate >= 0.5, (
        f"wire traffic was not absorbed: hit rate {hit_rate:.4f} < 0.5\n"
        f"{table}")
