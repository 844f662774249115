"""Query-engine work counts — per-binding backtracking vs ID-space execution.

Three workloads over one synthetic product graph:

* **join workload** — a mix of conjunctive multi-pattern queries (brand
  membership + origin filters, 2-hop brand→headquarters joins, category
  fan-outs) evaluated per query; the legacy symbol-level backtracking
  executor (one ``iter_match`` store round-trip per binding per
  pattern) against the ID-space executor (constants interned once,
  pattern blocks fetched from the CSR indexes, frontier carried as
  numpy id columns through vectorized hash joins, strings only at
  projection).  Run on the columnar and sharded backends.
* **batched execution** — the same queries through
  ``QueryEngine.execute_many``: no count probe, ONE ``match_ids_many``
  fetching every distinct pattern of the whole batch, each plan's
  blocks joined fewest rows first.
* **service concurrency** — 8 client threads pushing the workload
  through a :class:`~repro.kg.service.QueryService`, which coalesces
  concurrent requests into the same batched calls.

Acceptance bars, **counted, not timed** (``bench/``'s
``uniform_join_read`` prices the executor and the service end to end):

* every strategy returns bit-identical binding sets on every backend;
* the ID-space executor's work is one backend fetch per query — one
  ``match_ids_many`` each, and one for the whole batch through
  ``execute_many`` — where backtracking makes at least one
  ``iter_match`` per result row;
* the concurrent service returns results identical to serial execution
  and serves every request.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter
from pathlib import Path
from types import GeneratorType
from typing import Callable, List, Tuple

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


#: Backend entry points a query strategy can fetch rows through.
FETCHES = ("match_ids_many", "match_ids", "count_ids", "count_many",
           "iter_match", "match", "match_many", "count", "tails",
           "tails_many", "degree_many")


def _count_fetches(backend, workload: Callable[[], object]
                   ) -> Tuple[object, Counter]:
    """Run ``workload``; count the backend fetches it makes from outside
    (a fetch the backend makes to serve another one, or while a returned
    generator runs, is not counted)."""
    calls: Counter = Counter()
    depth = [0]

    def inside(generator):
        while True:
            depth[0] += 1
            try:
                item = next(generator)
            except StopIteration:
                return
            finally:
                depth[0] -= 1
            yield item

    def spy(name, method):
        def counted(*args, **kwargs):
            if not depth[0]:
                calls[name] += 1
            depth[0] += 1
            try:
                result = method(*args, **kwargs)
            finally:
                depth[0] -= 1
            return inside(result) if isinstance(result, GeneratorType) \
                else result
        return counted

    for name in FETCHES:
        setattr(backend, name, spy(name, getattr(backend, name)))
    try:
        return workload(), calls
    finally:
        for name in FETCHES:
            delattr(backend, name)


def _canonical(results: List[List[dict]]) -> List[List[Tuple[Tuple[str, str], ...]]]:
    return [sorted(tuple(sorted(binding.items())) for binding in rows)
            for rows in results]


def test_id_space_executor_vs_backtracking():
    rows = triples_from_tuples(_workload_rows())
    queries = _workload_queries()
    table: List[str] = [
        f"{'backend':<12} {'strategy':<14} {'fetch calls':<42} {'rows':>7}"]
    canonical = {}
    for backend_name, backend in (("columnar", "columnar"),
                                  ("sharded-4", ShardedBackend(n_shards=4))):
        store = TripleStore(rows, backend=backend)
        engine = QueryEngine(store)
        strategies = {
            "backtracking": lambda: [backtrack(store, query)
                                     for query in queries],
            "id": lambda: [engine.execute(query) for query in queries],
            "batched-id": lambda: engine.execute_many(queries),
        }
        for strategy, workload in strategies.items():
            results, calls = _count_fetches(store.backend, workload)
            canonical[(backend_name, strategy)] = _canonical(results)
            total_rows = sum(len(result) for result in results)
            table.append(f"{backend_name:<12} {strategy:<14} "
                         f"{str(dict(calls)):<42} {total_rows:>7d}")
            report = "\n".join(table)
            if strategy == "backtracking":
                # The oracle's one ordering probe per query, then one
                # ``iter_match`` per binding per pattern.
                assert calls["count_many"] == len(queries) \
                    and set(calls) == {"count_many", "iter_match"} \
                    and calls["iter_match"] >= total_rows, report
            else:
                fetches = 1 if strategy == "batched-id" else len(queries)
                assert calls == {"match_ids_many": fetches}, (
                    f"ID-space executor bar missed on {backend_name}: "
                    f"{strategy} must fetch once per call\n{report}")
    report = "\n".join(table)
    print(f"\nquery-engine join workload ({len(queries)} queries, "
          f"{len(rows)} triples)\n{report}")
    reference = canonical[("columnar", "backtracking")]
    for key, result in canonical.items():
        assert result == reference, \
            f"binding sets diverge for {key}\n{report}"


def test_query_service_concurrent_throughput():
    rows = triples_from_tuples(_workload_rows())
    store = TripleStore(rows, backend=ShardedBackend(n_shards=4))
    queries = _workload_queries()
    engine = QueryEngine(store)
    serial_results = _canonical([engine.execute(query) for query in queries])

    outputs: List[object] = [None] * SERVICE_THREADS
    with QueryService(store) as service:
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
        total = SERVICE_THREADS * len(queries)
        report = (
            f"service: {total} queries over {SERVICE_THREADS} threads; "
            f"{service.batches_dispatched} dispatch batches, largest "
            f"{service.largest_batch}")
        print(f"\n{report}")
        for slot in range(SERVICE_THREADS):
            assert outputs[slot] is not None, \
                f"client {slot} never finished\n{report}"
            assert _canonical(outputs[slot]) == serial_results, \
                f"concurrent client {slot} diverged from serial results\n{report}"
        assert service.requests_served == total, report
