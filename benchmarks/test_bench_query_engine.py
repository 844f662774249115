"""Micro-benchmark — symbol backtracking vs ID-space query execution.

Three workloads over one synthetic product graph:

* **join workload** — a mix of conjunctive multi-pattern queries (brand
  membership + origin filters, 2-hop brand→headquarters joins, category
  fan-outs) evaluated per query; the legacy symbol-level backtracking
  executor (one ``iter_match`` store round-trip per binding per
  pattern, ``Triple`` objects and strings all the way) against the
  ID-space executor (constants interned once, pattern blocks fetched
  from the CSR indexes, frontier carried as numpy id columns through
  vectorized hash joins, strings only at projection).  Run on the
  columnar and sharded backends.
* **batched execution** — the same queries through
  ``QueryEngine.execute_many``: no count probe, ONE ``match_ids_many``
  fetching every distinct pattern of the whole batch, each plan's
  blocks joined fewest rows first.
* **service throughput** — 8 client threads pushing the workload
  through a :class:`~repro.kg.service.QueryService`, which coalesces
  concurrent requests into the same batched calls; results are
  asserted identical to serial execution.

Acceptance bars (assertion messages embed the full timing table so a
CI failure report prints the numbers, not just the comparison):

* ID-space executor ≥ 5× faster than backtracking on the join workload
  (the PR acceptance bar), with bit-identical binding sets on every
  backend;
* the concurrent service returns results identical to serial execution
  (its throughput line is advisory — thread scheduling on shared CI
  runners is too noisy for a hard bar).
"""

from __future__ import annotations

import sys
import threading
import time
from pathlib import Path
from typing import Callable, List, Tuple

from _artifacts import update_artifact
from repro.kg.query import PatternQuery, QueryEngine
from repro.kg.service import QueryService
from repro.kg.sharded_backend import ShardedBackend
from repro.kg.store import TripleStore
from repro.kg.triple import triples_from_tuples

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from _oracle import backtrack  # noqa: E402

NUM_PRODUCTS = 6000
NUM_BRANDS = 16
NUM_PLACES = 23
NUM_CATEGORIES = 111
NUM_COUNTRIES = 4
REPEATS = 3
SERVICE_THREADS = 8


def _workload_rows() -> List[Tuple[str, str, str]]:
    rows: List[Tuple[str, str, str]] = []
    for index in range(NUM_PRODUCTS):
        product = f"product:{index:06d}"
        rows.append((product, "brandIs", f"brand:{index % NUM_BRANDS}"))
        rows.append((product, "placeOfOrigin", f"place:{index % NUM_PLACES}"))
        rows.append((product, "rdf:type", f"category:{index % NUM_CATEGORIES}"))
        rows.append((product, "relatedScene", f"scene:{index % 41}"))
    for brand in range(NUM_BRANDS):
        rows.append((f"brand:{brand}", "headquartersIn",
                     f"country:{brand % NUM_COUNTRIES}"))
    return rows


def _workload_queries() -> List[PatternQuery]:
    """A paper-shaped query mix: membership joins, 2-hop walks, fan-outs.

    The frontiers are realistic for the shopping-guide / QA-recommender
    workloads — hundreds of products per brand or scene — which is
    exactly where per-binding backtracking melts and vectorized joins
    do not.
    """
    queries: List[PatternQuery] = []
    for brand in range(NUM_BRANDS):
        queries.append(PatternQuery.from_patterns(
            [("?p", "brandIs", f"brand:{brand}"),
             ("?p", "placeOfOrigin", "?place"),
             ("?p", "rdf:type", "?cat")],
            select=["?p", "?place", "?cat"]))
    for country in range(NUM_COUNTRIES):
        queries.append(PatternQuery.from_patterns(
            [("?p", "brandIs", "?b"),
             ("?b", "headquartersIn", f"country:{country}"),
             ("?p", "placeOfOrigin", "place:3")],
            select=["?p", "?b"]))
    for scene in range(0, 41, 8):
        queries.append(PatternQuery.from_patterns(
            [("?p", "relatedScene", f"scene:{scene}"),
             ("?p", "rdf:type", "?cat"),
             ("?p", "brandIs", "?b"),
             ("?b", "headquartersIn", "?c")],
            select=["?p", "?cat", "?b", "?c"]))
    # Whole-graph analytics: every product joined to its brand's country.
    queries.append(PatternQuery.from_patterns(
        [("?p", "brandIs", "?b"), ("?b", "headquartersIn", "?c")],
        select=["?p", "?c"]))
    return queries


def _best_of(repeats: int, workload: Callable[[], object]) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        workload()
        best = min(best, time.perf_counter() - start)
    return best


def _canonical(results: List[List[dict]]) -> List[List[Tuple[Tuple[str, str], ...]]]:
    return [sorted(tuple(sorted(binding.items())) for binding in rows)
            for rows in results]


def test_id_space_executor_vs_backtracking():
    rows = triples_from_tuples(_workload_rows())
    queries = _workload_queries()
    table: List[str] = [
        f"{'backend':<12} {'strategy':<16} {'seconds':>9} {'rows':>7}"]
    timings = {}
    canonical = {}
    for backend_name, backend in (("columnar", "columnar"),
                                  ("sharded-4", ShardedBackend(n_shards=4))):
        store = TripleStore(rows, backend=backend)
        engine = QueryEngine(store)
        for strategy in ("backtracking", "id", "batched-id"):
            if strategy == "batched-id":
                def workload(engine=engine):
                    return engine.execute_many(queries)
            elif strategy == "id":
                def workload(engine=engine):
                    return [engine.execute(query) for query in queries]
            else:
                def workload(store=store):
                    return [backtrack(store, query) for query in queries]
            results = workload()
            elapsed = _best_of(REPEATS, workload)
            timings[(backend_name, strategy)] = elapsed
            canonical[(backend_name, strategy)] = _canonical(results)
            total_rows = sum(len(result) for result in results)
            table.append(f"{backend_name:<12} {strategy:<16} "
                         f"{elapsed:>9.4f} {total_rows:>7d}")
    report = "\n".join(table)
    print(f"\nquery-engine join workload ({len(queries)} queries, "
          f"{len(rows)} triples)\n{report}")
    reference = canonical[("columnar", "backtracking")]
    for key, result in canonical.items():
        assert result == reference, \
            f"binding sets diverge for {key}\n{report}"
    update_artifact("query", "id_space_vs_backtracking", {
        "workload": f"{len(queries)} join queries over {len(rows)} triples",
        "backend": "columnar and sharded-4",
        "codec": "in-process",
        "timings_seconds": {f"{backend}/{strategy}": elapsed
                            for (backend, strategy), elapsed
                            in timings.items()},
        "speedups": {backend: timings[(backend, "backtracking")]
                     / timings[(backend, "id")]
                     for backend in ("columnar", "sharded-4")},
        "bar": "id-space executor >= 5x backtracking",
    })
    for backend_name in ("columnar", "sharded-4"):
        legacy = timings[(backend_name, "backtracking")]
        fast = timings[(backend_name, "id")]
        speedup = legacy / fast
        assert speedup >= 5.0, (
            f"ID-space executor bar missed on {backend_name}: "
            f"{speedup:.1f}x < 5x\n{report}")


def test_query_service_concurrent_throughput():
    rows = triples_from_tuples(_workload_rows())
    store = TripleStore(rows, backend=ShardedBackend(n_shards=4))
    queries = _workload_queries()
    engine = QueryEngine(store)
    serial_results = _canonical([engine.execute(query) for query in queries])
    serial_time = _best_of(REPEATS,
                           lambda: [engine.execute(query) for query in queries])

    outputs: List[object] = [None] * SERVICE_THREADS
    with QueryService(store) as service:
        def run_clients() -> None:
            barrier = threading.Barrier(SERVICE_THREADS)

            def client(slot: int) -> None:
                barrier.wait(timeout=60)
                outputs[slot] = service.execute_batch(queries)

            threads = [threading.Thread(target=client, args=(slot,))
                       for slot in range(SERVICE_THREADS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)

        elapsed = _best_of(1, run_clients)
        total = SERVICE_THREADS * len(queries)
        report = (
            f"service: {total} queries over {SERVICE_THREADS} threads in "
            f"{elapsed:.4f}s ({total / elapsed:,.0f} q/s; serial single-client "
            f"{len(queries) / serial_time:,.0f} q/s; "
            f"{service.batches_dispatched} dispatch batches, largest "
            f"{service.largest_batch})")
        print(f"\n{report}")
        update_artifact("query", "service_concurrency", {
            "workload": f"{total} queries over {SERVICE_THREADS} threads",
            "backend": "sharded-4",
            "codec": "in-process",
            "timings_seconds": {"concurrent_batch": elapsed,
                                "serial_single_client": serial_time},
            "throughput_qps": {"concurrent": total / elapsed,
                               "serial": len(queries) / serial_time},
            "batching": {"dispatched": service.batches_dispatched,
                         "largest": service.largest_batch},
        })
        for slot in range(SERVICE_THREADS):
            assert outputs[slot] is not None, \
                f"client {slot} never finished\n{report}"
            assert _canonical(outputs[slot]) == serial_results, \
                f"concurrent client {slot} diverged from serial results\n{report}"
        assert service.requests_served == total, report
