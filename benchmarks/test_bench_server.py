"""Network-path checks — what the protocol returns, holds and spawns.

Four workloads over synthetic product graphs served by a
:class:`~repro.kg.server.KGServer` on loopback:

* **point lookups** — single `(head, relation, ?)` probes and the
  batched `match_many` form, in-process and over the wire.
* **paged big-result query** — a whole-graph join streamed through a
  remote cursor page by page vs materialized in one response.
* **block surfaces** — ``match_many_blocks`` and
  ``RemoteCursor.fetch_block`` on batched adjacency lookups and a
  ≥100k-row cursor stream.
* **idle connections** — the selector front-end holds hundreds of open
  sockets on one I/O thread; thread count must not scale with
  connections (the thread-per-connection design it replaced did).

Acceptance bars (the assertion messages embed the numbers, so a CI
failure report carries them):

* remote results — point, batched, full, paged and block — are
  identical to in-process execution;
* the paged client's peak heap growth stays **bounded**: far below the
  resident size of the fully materialized result (the whole point of
  cursors — a million-row result must not need a million-row client);
* server thread growth with 64 idle connections is at most one (the
  control thread): there is no worker pool.

Nothing here is timed: ``bench/``'s ``guide_zipf_read`` prices point
lookups over the wire, and its ``stream_scan`` the paged and block
paths.
"""

from __future__ import annotations

import resource
import threading
import tracemalloc
from typing import List, Tuple

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
    results = {"in-process single": [store.match(*p) for p in patterns]}
    with KGServer(store, port=0).start() as server:
        with RemoteStore(server.url) as remote:
            results["remote single"] = [remote.match(*p) for p in patterns]
            results["remote batch"] = remote.match_many(patterns)
    for label, result in results.items():
        assert result == local, f"{label} lookup results diverge"


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
            full = engine.execute(query)
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
            paged_rows, paged_checksum_value = paged_checksum()
            paged_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()

    expected_checksum = 0
    for row in local:
        expected_checksum ^= hash(row["?p"]) ^ hash(row["?c"])
    report = "\n".join([
        f"{'path':<22} {'peak heap':>12} {'rows':>7}",
        f"{'remote full':<22} {full_peak:>12,} {len(full):>7}",
        f"{'remote paged(' + str(PAGE_SIZE) + ')':<22} {paged_peak:>12,} "
        f"{paged_rows:>7}",
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


# --------------------------------------------------------------------------- #
# the block surfaces: batched lookups and a >= 100k-row stream
# --------------------------------------------------------------------------- #
#: Scale for the block bench: big enough that the cursor stream is
#: >= 100k rows (3 rows per product + brand rows).
WIRE_PRODUCTS = 40_000
WIRE_PAGE_SIZE = 4096


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


def test_wire_codec_overhead_batched_lookups_and_streaming():
    """The block surfaces — batched adjacency lookups via
    ``match_many_blocks`` and a >= 100k-row cursor stream via
    ``fetch_block`` — return exactly the in-process rows (the id keeps
    its name from when this test timed them)."""
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
            assert [block.to_triples() for block
                    in remote.match_many_blocks(patterns)] == local_lookups
        with RemoteQueryEngine(server.url) as engine:
            cursor = engine.cursor(stream_query, page_size=WIRE_PAGE_SIZE)
            streamed = []
            for page in iter(cursor.fetch_block, []):
                assert isinstance(page, DecodedBlock)
                streamed.extend(page.to_bindings())
            cursor.close()
    assert streamed == local_stream


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
    assert growth <= 1, (
        f"server threads scale with idle connections: {report}")
