"""Micro-benchmark — the network query protocol vs in-process access.

Four workloads over synthetic product graphs served by a
:class:`~repro.kg.server.KGServer` on loopback:

* **point lookups** — single `(head, relation, ?)` probes and the
  batched `match_many` form, in-process vs over the wire.  The table
  prices the protocol overhead per op (framing + JSON + loopback
  round-trip) and shows how batching amortizes it.
* **paged big-result query** — a whole-graph join streamed through a
  remote cursor page by page vs materialized in one response.
* **wire overhead on the block surfaces** — ``match_many_blocks`` and
  ``RemoteCursor.fetch_block`` on batched adjacency lookups and a
  ≥100k-row cursor stream, steady-state (symbol caches warm, interner
  deltas empty); timed, not barred — ``bench/``'s ``stream_scan``
  prices that path end to end.
* **idle connections** — the selector front-end holds hundreds of open
  sockets on one I/O thread; thread count must not scale with
  connections (the thread-per-connection design it replaced did).

Acceptance bars (the assertion messages embed the timing/memory table,
so a CI failure report carries the numbers):

* remote results — point, batched, full and paged — are identical to
  in-process execution;
* the paged client's peak heap growth stays **bounded**: far below the
  resident size of the fully materialized result (the whole point of
  cursors — a million-row result must not need a million-row client);
* server thread growth with 64 idle connections is at most one (the
  control thread): there is no worker pool.

Throughput lines are advisory: loopback latency on shared CI runners is
too noisy for a hard bar.  Every test persists its numbers into
``BENCH_server.json`` via :mod:`_artifacts`.
"""

from __future__ import annotations

import resource
import threading
import time
import tracemalloc
from typing import List, Tuple

from _artifacts import update_artifact
from repro.kg.client import RemoteClient, RemoteQueryEngine, RemoteStore
from repro.kg.protocol import DecodedBlock
from repro.kg.query import PatternQuery, QueryEngine
from repro.kg.server import KGServer
from repro.kg.sharded_backend import ShardedBackend
from repro.kg.store import TripleStore
from repro.kg.triple import triples_from_tuples

NUM_PRODUCTS = 4000
NUM_BRANDS = 16
NUM_LOOKUPS = 400
PAGE_SIZE = 256
#: The paged bench's join must dwarf the fixed 1 MiB socket read buffers
#: (client and in-process server), which tracemalloc sees in both passes.
PAGED_PRODUCTS = 16_000


def _workload_rows(products: int) -> List[Tuple[str, str, str]]:
    rows: List[Tuple[str, str, str]] = []
    for index in range(products):
        product = f"product:{index:06d}"
        rows.append((product, "brandIs", f"brand:{index % NUM_BRANDS}"))
        rows.append((product, "placeOfOrigin", f"place:{index % 23}"))
        rows.append((product, "rdf:type", f"category:{index % 111}"))
    for brand in range(NUM_BRANDS):
        rows.append((f"brand:{brand}", "headquartersIn",
                     f"country:{brand % 4}"))
    return rows


def _store(products: int = NUM_PRODUCTS) -> TripleStore:
    return TripleStore(triples_from_tuples(_workload_rows(products)),
                       backend=ShardedBackend(n_shards=2))


def test_remote_point_lookup_overhead():
    store = _store()
    patterns = [(f"product:{index % NUM_PRODUCTS:06d}", "brandIs", None)
                for index in range(NUM_LOOKUPS)]
    local = store.match_many(patterns)
    table = [f"{'path':<26} {'seconds':>9} {'ops/s':>10}"]
    seconds = {}

    def timed(label, workload):
        start = time.perf_counter()
        result = workload()
        elapsed = time.perf_counter() - start
        seconds[label] = elapsed
        table.append(f"{label:<26} {elapsed:>9.4f} "
                     f"{NUM_LOOKUPS / elapsed:>10.0f}")
        return result

    in_process_single = timed(
        "in-process match x1", lambda: [store.match(*p) for p in patterns])
    in_process_batch = timed(
        "in-process match_many", lambda: store.match_many(patterns))
    with KGServer(store, port=0).start() as server:
        with RemoteStore(server.url) as remote:
            remote_single = timed(
                "remote match x1", lambda: [remote.match(*p)
                                            for p in patterns])
            remote_batch = timed(
                "remote match_many", lambda: remote.match_many(patterns))
    report = "\n".join(table)
    print(f"\npoint lookups ({NUM_LOOKUPS} probes, {len(store)} triples, "
          f"loopback)\n{report}")
    for label, result in (("in-process single", in_process_single),
                          ("in-process batch", in_process_batch),
                          ("remote single", remote_single),
                          ("remote batch", remote_batch)):
        assert result == local, f"{label} lookup results diverge\n{report}"
    update_artifact("server", "point_lookup", {
        "workload": f"{NUM_LOOKUPS} point probes over {len(store)} triples, "
                    f"loopback",
        "backend": "sharded-2",
        "codec": "auto",
        "timings_seconds": seconds,
        "speedups": {
            "batching_amortizes_remote":
                seconds["remote match x1"] / seconds["remote match_many"],
        },
    })


def test_remote_paged_big_result_stays_memory_bounded():
    store = _store(PAGED_PRODUCTS)
    # The whole-graph join: every product with its brand's country.
    query = PatternQuery.from_patterns(
        [("?p", "brandIs", "?b"), ("?b", "headquartersIn", "?c")])
    local = QueryEngine(store).execute(query)
    assert len(local) == PAGED_PRODUCTS

    # The bar compares transient page dicts against the fully materialized
    # binding list (the full pass also fills the connection's symbol cache,
    # before the paged pass is traced).
    with KGServer(store, port=0).start() as server:
        with RemoteQueryEngine(server.url) as engine:
            # Full materialization: one response frame, whole list held.
            tracemalloc.start()
            start = time.perf_counter()
            full = engine.execute(query)
            full_seconds = time.perf_counter() - start
            full_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert full == local

            # Paged: only one page of bindings alive at a time.
            def paged_checksum() -> Tuple[int, int]:
                rows = 0
                checksum = 0
                cursor = engine.cursor(query, page_size=PAGE_SIZE)
                for row in cursor:
                    rows += 1
                    checksum ^= hash(row["?p"]) ^ hash(row["?c"])
                cursor.close()
                return rows, checksum

            tracemalloc.start()
            start = time.perf_counter()
            paged_rows, paged_checksum_value = paged_checksum()
            paged_seconds = time.perf_counter() - start
            paged_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()

    expected_checksum = 0
    for row in local:
        expected_checksum ^= hash(row["?p"]) ^ hash(row["?c"])
    report = "\n".join([
        f"{'path':<22} {'seconds':>9} {'peak heap':>12} {'rows':>7}",
        f"{'remote full':<22} {full_seconds:>9.4f} {full_peak:>12,} "
        f"{len(full):>7}",
        f"{'remote paged(' + str(PAGE_SIZE) + ')':<22} {paged_seconds:>9.4f} "
        f"{paged_peak:>12,} {paged_rows:>7}",
    ])
    print(f"\npaged big-result query ({len(local)} rows, loopback)\n{report}")
    assert paged_rows == len(local), f"paged row count diverges\n{report}"
    assert paged_checksum_value == expected_checksum, \
        f"paged rows diverge from local execution\n{report}"
    # The acceptance bar: streaming must keep client memory bounded —
    # the paged pass may not come anywhere near holding the full result.
    assert paged_peak < full_peak / 2, (
        f"paged client peak {paged_peak:,}B is not bounded vs full "
        f"materialization {full_peak:,}B\n{report}")
    update_artifact("server", "paged_big_result", {
        "workload": f"{len(local)}-row join streamed in {PAGE_SIZE}-row "
                    f"pages vs one materialized response, loopback",
        "backend": "sharded-2",
        "codec": "binary",
        "timings_seconds": {"remote_full": full_seconds,
                            "remote_paged": paged_seconds},
        "peak_heap_bytes": {"remote_full": full_peak,
                            "remote_paged": paged_peak},
        "speedups": {"paged_peak_reduction": full_peak / paged_peak},
    })


# --------------------------------------------------------------------------- #
# wire overhead on the block surfaces, steady state
# --------------------------------------------------------------------------- #
#: Scale for the wire bench: big enough that the cursor stream is
#: >= 100k rows (3 rows per product + brand rows).
WIRE_PRODUCTS = 40_000
WIRE_PAGE_SIZE = 4096
WIRE_REPEATS = 3


def _wire_store() -> TripleStore:
    rows: List[Tuple[str, str, str]] = []
    for index in range(WIRE_PRODUCTS):
        product = f"product:{index:06d}"
        rows.append((product, "brandIs", f"brand:{index % NUM_BRANDS}"))
        rows.append((product, "placeOfOrigin", f"place:{index % 23}"))
        rows.append((product, "rdf:type", f"category:{index % 111}"))
    for brand in range(NUM_BRANDS):
        rows.append((f"brand:{brand}", "headquartersIn",
                     f"country:{brand % 4}"))
    return TripleStore(triples_from_tuples(rows))


def _best_of(repeats, workload):
    best = float("inf")
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = workload()
        best = min(best, time.perf_counter() - start)
    return best, value


def test_wire_codec_overhead_batched_lookups_and_streaming():
    """The block surfaces — batched adjacency lookups via
    ``match_many_blocks`` and a >= 100k-row cursor stream via
    ``fetch_block`` — return exactly the in-process rows, and their
    steady-state cost (symbol caches warm, interner deltas empty) is
    recorded.  The dict-materialized stream (``to_bindings`` per page)
    rides along: there the Python dict building dominates, which is why
    samplers and embedding layers consume the block surface."""
    store = _wire_store()
    # One probe per brand/place/category: the sampler-shaped batched
    # adjacency workload.  Together the probes touch every triple once.
    patterns = (
        [(None, "brandIs", f"brand:{index}") for index in range(NUM_BRANDS)]
        + [(None, "placeOfOrigin", f"place:{index}") for index in range(23)]
        + [(None, "rdf:type", f"category:{index}") for index in range(111)])
    # The full-graph scan: one pattern, three variables, every triple a
    # row — a >= 100k-row stream (3 rows per product).
    stream_query = PatternQuery.from_patterns([("?p", "?r", "?t")])
    local_lookups = store.match_many(patterns)
    local_stream = QueryEngine(store).execute(stream_query)
    assert len(local_stream) >= 100_000

    with KGServer(store, port=0).start() as server:
        with RemoteStore(server.url) as remote:
            # The first pass warms the connection (populates the symbol
            # cache, so the timed passes see empty interner deltas).
            assert [block.to_triples() for block
                    in remote.match_many_blocks(patterns)] == local_lookups
            lookup_seconds, lookup_rows = _best_of(
                WIRE_REPEATS, lambda: sum(
                    len(block)
                    for block in remote.match_many_blocks(patterns)))
            assert lookup_rows == sum(len(rows) for rows in local_lookups)

        def stream(engine, consume=len):
            """Page the whole stream; ``consume`` sees every block."""
            cursor = engine.cursor(stream_query, page_size=WIRE_PAGE_SIZE)
            total = 0
            for page in iter(cursor.fetch_block, []):
                consume(page)
                total += len(page)
            cursor.close()
            return total

        with RemoteQueryEngine(server.url) as engine:
            streamed = []
            stream(engine, lambda page: streamed.extend(page.to_bindings()))
            assert streamed == local_stream
            stream_seconds, stream_total = _best_of(
                WIRE_REPEATS, lambda: stream(engine))
            assert stream_total == len(local_stream)
            materialized_seconds, _ = _best_of(
                1, lambda: stream(engine, DecodedBlock.to_bindings))

    table = "\n".join([
        f"{'workload':<40} {'seconds':>9}",
        f"{'batched adjacency lookups':<40} {lookup_seconds:>9.4f}",
        f"{'cursor stream (' + str(stream_total) + ' rows)':<40} "
        f"{stream_seconds:>9.4f}",
        f"{'  ... materialized to dicts':<40} {materialized_seconds:>9.4f}",
    ])
    print(f"\nwire overhead ({len(store)} triples, page {WIRE_PAGE_SIZE}, "
          f"best of {WIRE_REPEATS}, loopback)\n{table}")
    update_artifact("server", "wire_codec", {
        "workload": f"{len(patterns)} batched adjacency probes "
                    f"({lookup_rows} rows/call) and a "
                    f"{stream_total}-row cursor stream in "
                    f"{WIRE_PAGE_SIZE}-row pages, steady state, loopback",
        "backend": "columnar",
        "codec": "binary",
        "timings_seconds": {
            "lookups_binary": lookup_seconds,
            "stream_binary": stream_seconds,
            "stream_binary_materialized": materialized_seconds,
        },
    })


# --------------------------------------------------------------------------- #
# idle connections: one I/O thread, however many sockets are open
# --------------------------------------------------------------------------- #
IDLE_CONNECTIONS = 64


def test_idle_connections_do_not_scale_server_threads():
    """The selector front-end holds every open socket on one I/O thread,
    and requests are answered by the I/O, dispatcher and control
    threads — there is no worker pool.  Opening 64 idle connections may
    grow the process thread count by at most one (the control thread;
    the thread-per-connection front-end it replaced grew by one thread
    per socket)."""
    soft_limit = resource.getrlimit(resource.RLIMIT_NOFILE)[0]
    # Each client costs two fds (client + server end); leave headroom.
    connections = min(IDLE_CONNECTIONS, max(8, (soft_limit - 128) // 4))
    store = _store()
    with KGServer(store, port=0).start() as server:
        with RemoteClient(server.url) as probe:
            assert probe.ping()     # the server has started serving
        baseline = threading.active_count()
        clients = [RemoteClient(server.url, codec="json")   # control only
                   for _ in range(connections)]
        try:
            # A few requests through open connections: still served.
            for client in clients[:3]:
                assert client.ping()
            assert server.connection_count >= connections
            after = threading.active_count()
        finally:
            for client in clients:
                client.close()
    growth = after - baseline
    report = (f"{connections} idle connections: {baseline} threads before, "
              f"{after} after (growth {growth})")
    print(f"\n{report}")
    update_artifact("server", "idle_connections", {
        "workload": f"{connections} idle loopback connections held open "
                    f"against a running server",
        "backend": "sharded-2",
        "codec": "json",
        "threads": {"before": baseline, "after": after, "growth": growth},
        "bar": "thread growth at most 1 (the control thread), whatever "
               "the connection count",
    })
    assert growth <= 1, (
        f"server threads scale with idle connections: {report}")
