"""The four named workloads: seeded op streams, how an op runs against
the served cluster, and how the in-process oracle answers the same op.

An op is a ``(kind, arg)`` tuple built from the seed alone — the served
program only ever sees the generated queries.  Each load-generating
client draws its own sub-stream, and warm-up draws from a sub-stream
separate from the timed one.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.kg.client import RemoteClient, RemoteQueryEngine, RemoteStore
from repro.kg.planner import PatternQuery
from repro.kg.protocol import DecodedBlock
from repro.kg.query import QueryEngine
from repro.kg.store import TripleStore
from repro.kg.triple import Triple

from bench.catalog import (BRAND_IS, COLOR_IS, HEADQUARTERS_IN,
                           PLACE_OF_ORIGIN, RDF_TYPE, VIEWED_WITH, Catalog)

GUIDE_JOIN = "guide_join"
POINT_JOIN = "point_join"
MATCH = "match"
BATCH_JOIN64 = "batch_join64"
FACET_JOIN = "facet_join"
STREAM = "stream"
BLOCKS256 = "blocks256"
SCAN4 = "scan4"
ADD16 = "add16"
REMOVE16 = "remove16"
#: Injected once by the runner on ``mixed_write_read``, never drawn.
COMPACT = "compact"
#: Warm-up only: one ``execute_many`` over up to 64 cacheable read ops.
PREFILL = "prefill"

WRITE_KINDS = frozenset((ADD16, REMOVE16))

#: Workload name -> one-line reason it exists (also in BENCHMARK.json).
WORKLOADS: Dict[str, str] = {
    "guide_zipf_read":
        "Zipf(1.1) guide/point joins whose working set fits the result "
        "cache: cache, framing and dispatcher do the work, shards almost none",
    "uniform_join_read":
        "every query distinct and the cache overflows: planner, executor, "
        "scatter/gather rounds and shard fetches do the work; cache changes "
        "must not move it",
    "mixed_write_read":
        "the Zipf read mix with 10% acked 16-triple writes, one compaction "
        "and a crash-restart: WAL, replication, overlay growth and cache "
        "invalidation under reads",
    "stream_scan":
        "cursor streams and big id-block responses: protocol encode/decode, "
        "interner deltas, paging and client materialisation do the work",
}

#: Ops of the seeded warm-up stream replayed before timing (after the
#: prefill, see ``prefill_ops``) so lazy set-up finishes; ~1-2 s each
#: (an op of stream_scan costs ~40 guide_zipf ones).
WARMUP_OPS = {"guide_zipf_read": 400, "uniform_join_read": 300,
              "mixed_write_read": 400, "stream_scan": 60}

ZIPF_S = 1.1
GUIDE_LIMIT = 10
PAGE_ROWS = 512
#: A removed batch was added at least this many ops earlier.
REMOVE_AFTER_OPS = 50
_CHUNK = 4096

Op = Tuple[str, object]


def _zipf_weights(size: int) -> np.ndarray:
    weights = 1.0 / np.power(np.arange(1, size + 1, dtype=np.float64), ZIPF_S)
    return weights / weights.sum()


def _chunks(draw) -> Iterator:
    """Flatten repeated ``draw()`` arrays into one endless iterator."""
    while True:
        yield from draw().tolist()


def _pattern(rng: np.random.Generator, *shares) -> Iterator[str]:
    """Op kinds in exact proportions: every block of ten ops holds each
    kind its share of times, in a seeded order.  (Independent tosses
    would let the share of the expensive kinds drift from run to run,
    and with it every throughput number.)"""
    block = np.array([kind for kind, count in shares for _ in range(count)])
    if len(block) != 10:
        raise ValueError("shares must add up to ten")
    return _chunks(lambda: rng.permutation(block))


def _guide_mix(catalog: Catalog, rng: np.random.Generator) -> Iterator[Op]:
    """70% guide_join, 20% point_join, 10% head-bound match, Zipf ranks."""
    pair_weights = _zipf_weights(len(catalog.hot_pairs))
    product_weights = _zipf_weights(len(catalog.hot_products))
    pairs = _chunks(lambda: rng.choice(len(pair_weights), _CHUNK,
                                       p=pair_weights))
    products = _chunks(lambda: catalog.hot_products[
        rng.choice(len(product_weights), _CHUNK, p=product_weights)])
    for kind in _pattern(rng, (GUIDE_JOIN, 7), (POINT_JOIN, 2), (MATCH, 1)):
        if kind == GUIDE_JOIN:
            yield (kind, catalog.hot_pairs[next(pairs)])
        else:
            yield (kind, next(products))


def _uniform_mix(catalog: Catalog, rng: np.random.Generator, seed: int,
                 client: int, clients: int, warmup: bool) -> Iterator[Op]:
    """60% point_join, 20% match, 10% batch_join64, 10% facet_join — all
    drawn without replacement from this client's share of the catalog.
    Warm-up walks the same permutations from the far end, so the timed
    stream never repeats a warm-up query either."""
    spec = catalog.spec
    order = np.random.default_rng([seed, 0x0F0F])  # shared by the clients
    products = order.permutation(spec.products)[client::clients]
    facets = order.permutation(spec.brands * spec.colors)[client::clients]
    if warmup:
        products, facets = products[::-1], facets[::-1]
    # Cycling only matters to a catalog far smaller than the run.
    products = itertools.cycle(products.tolist())
    facets = itertools.cycle(facets.tolist())
    for kind in _pattern(rng, (POINT_JOIN, 6), (MATCH, 2), (BATCH_JOIN64, 1),
                         (FACET_JOIN, 1)):
        if kind == BATCH_JOIN64:
            yield (kind, tuple(next(products) for _ in range(64)))
        elif kind == FACET_JOIN:
            yield (kind, divmod(next(facets), spec.colors))
        else:
            yield (kind, next(products))


def _mixed(catalog: Catalog, rng: np.random.Generator,
           client: int) -> Iterator[Op]:
    """The guide mix with one write per ten ops, alternating add16 and
    remove16.  Written heads come from this client's reserved zone, so
    the final state does not depend on how clients interleave."""
    reads = _guide_mix(catalog, rng)
    zone = catalog.write_zones[client].tolist()
    names = catalog.product_names
    added: deque = deque()  # (op index, triples)
    batches = 0
    writes = 0
    tails = _chunks(lambda: rng.integers(0, catalog.spec.products, _CHUNK))
    for index, kind in enumerate(_pattern(rng, ("write", 1), ("read", 9))):
        if kind == "read":
            yield next(reads)
            continue
        writes += 1
        if writes % 2 == 0 and added \
                and index - added[0][0] >= REMOVE_AFTER_OPS:
            yield (REMOVE16, added.popleft()[1])
            continue
        triples = tuple(
            (names[zone[(16 * batches + slot) % len(zone)]], VIEWED_WITH,
             names[next(tails)]) for slot in range(16))
        batches += 1
        added.append((index, triples))
        yield (ADD16, triples)


def stream_places(catalog: Catalog) -> int:
    """Streams cover half the places: their cached blocks (~0.5 MB) then
    fit the servers' result cache, and a stream measures paging,
    encoding and materialisation, not the join behind it."""
    return max(1, catalog.spec.places // 2)


def _stream_mix(catalog: Catalog, rng: np.random.Generator) -> Iterator[Op]:
    """50% cursor stream, 30% blocks256, 20% scan4."""
    spec = catalog.spec
    for kind in _pattern(rng, (STREAM, 5), (BLOCKS256, 3), (SCAN4, 2)):
        if kind == STREAM:
            yield (kind, int(rng.integers(0, stream_places(catalog))))
        elif kind == BLOCKS256:
            yield (kind, tuple(rng.integers(0, spec.products, 256).tolist()))
        else:
            yield (kind, tuple(rng.permutation(spec.colors)[:4].tolist()))


def prefill_ops(workload: str, catalog: Catalog, client: int,
                clients: int) -> List[Op]:
    """This client's share of the ops that touch every key of the
    workload's hot set once, run before the seeded warm-up stream.  A
    Zipf stream alone would still be filling the cache's tail minutes
    in, and the timed window would sit on a rising curve."""
    if workload in ("guide_zipf_read", "mixed_write_read"):
        hot = [(GUIDE_JOIN, pair) for pair in catalog.hot_pairs] \
            + [(POINT_JOIN, product)
               for product in catalog.hot_products.tolist()]
        mine = hot[client::clients]
        return [(PREFILL, tuple(mine[start:start + 64]))
                for start in range(0, len(mine), 64)]
    if workload == "stream_scan":
        return [(STREAM, place)
                for place in range(stream_places(catalog))][client::clients]
    return []


def op_stream(workload: str, catalog: Catalog, seed: int, client: int,
              clients: int, warmup: bool = False) -> Iterator[Op]:
    """The endless op stream of one client of one workload."""
    rng = np.random.default_rng(
        [int(seed), sorted(WORKLOADS).index(workload), client, int(warmup)])
    if workload == "guide_zipf_read":
        return _guide_mix(catalog, rng)
    if workload == "uniform_join_read":
        return _uniform_mix(catalog, rng, int(seed), client, clients, warmup)
    if workload == "mixed_write_read":
        # Warm-up is reads only: it fills the caches the writes then drop.
        return _guide_mix(catalog, rng) if warmup \
            else _mixed(catalog, rng, client)
    if workload == "stream_scan":
        return _stream_mix(catalog, rng)
    raise ValueError(f"unknown workload {workload!r} "
                     f"(known: {', '.join(sorted(WORKLOADS))})")


# --------------------------------------------------------------------- #
# queries
# --------------------------------------------------------------------- #
def _guide_query(catalog: Catalog, pair) -> PatternQuery:
    brand, category = pair
    return PatternQuery.from_patterns(
        [("?p", BRAND_IS, catalog.brand_names[brand]),
         ("?p", RDF_TYPE, catalog.category_names[category])],
        select=["?p"], limit=GUIDE_LIMIT)


def _point_query(catalog: Catalog, product: int) -> PatternQuery:
    return PatternQuery.from_patterns(
        [(catalog.product_names[product], BRAND_IS, "?b"),
         ("?b", HEADQUARTERS_IN, "?c")])


def _facet_query(catalog: Catalog, facet) -> PatternQuery:
    brand, color = facet
    return PatternQuery.from_patterns(
        [("?p", BRAND_IS, catalog.brand_names[brand]),
         ("?p", COLOR_IS, catalog.color_names[color]),
         ("?p", PLACE_OF_ORIGIN, "?pl")])


def _stream_query(catalog: Catalog, place: int) -> PatternQuery:
    return PatternQuery.from_patterns(
        [("?p", PLACE_OF_ORIGIN, catalog.place_names[place]),
         ("?p", BRAND_IS, "?b")])


#: Op kind -> builder of its pattern query.
_QUERIES = {GUIDE_JOIN: _guide_query, POINT_JOIN: _point_query,
            FACET_JOIN: _facet_query, STREAM: _stream_query}


def _head_patterns(catalog: Catalog, products) -> List[tuple]:
    return [(catalog.product_names[product], None, None)
            for product in products]


def _scan_patterns(catalog: Catalog, colors) -> List[tuple]:
    return [(None, COLOR_IS, catalog.color_names[color]) for color in colors]


def _triples(rows) -> List[Triple]:
    return [Triple.unchecked(*row) for row in rows]


class Session:
    """One client connection to the coordinator, running ops the way an
    application server would: through the public remote API."""

    def __init__(self, url: str, catalog: Catalog) -> None:
        self.catalog = catalog
        self.client = RemoteClient(url)
        self.engine = RemoteQueryEngine(self.client)
        self.store = RemoteStore(self.client)

    def close(self) -> None:
        self.client.close()

    def run(self, op: Op) -> Tuple[int, object]:
        """Run one op; return ``(rows returned, the rows)``."""
        kind, arg = op
        catalog = self.catalog
        if kind in (GUIDE_JOIN, POINT_JOIN, FACET_JOIN):
            rows = self.engine.execute(_QUERIES[kind](catalog, arg))
            return len(rows), rows
        if kind == MATCH:
            rows = self.store.match(catalog.product_names[arg])
            return len(rows), rows
        if kind == BATCH_JOIN64:
            results = self.engine.execute_many(
                [_point_query(catalog, product) for product in arg])
            return sum(map(len, results)), results
        if kind == STREAM:
            rows: list = []
            with self.engine.cursor(_QUERIES[kind](catalog, arg),
                                    page_size=PAGE_ROWS) as cursor:
                while not cursor.exhausted:
                    rows.extend(cursor.fetch())
            return len(rows), rows
        if kind == BLOCKS256:
            blocks = self.store.match_many_blocks(
                _head_patterns(catalog, arg))
            return sum(map(len, blocks)), blocks
        if kind == SCAN4:
            blocks = self.store.match_many_blocks(
                _scan_patterns(catalog, arg))
            return sum(map(len, blocks)), blocks
        if kind == ADD16:
            return self.store.add_many(_triples(arg)), None
        if kind == REMOVE16:
            return self.store.remove_many(_triples(arg)), None
        if kind == PREFILL:
            results = self.engine.execute_many(
                [_QUERIES[name](catalog, key) for name, key in arg])
            return sum(map(len, results)), results
        raise ValueError(f"unknown op kind {kind!r}")


# --------------------------------------------------------------------- #
# the oracle
# --------------------------------------------------------------------- #
def _canonical_bindings(rows) -> List[tuple]:
    return sorted(tuple(sorted(row.items())) for row in rows)


def _canonical_triples(rows) -> List[tuple]:
    if isinstance(rows, DecodedBlock):
        rows = rows.to_triples()
    return sorted(tuple(row) for row in rows)  # Triple or [h, r, t]


def canonical(op: Op, payload) -> object:
    """An op's returned rows as an order-free comparable value."""
    kind = op[0]
    if kind in (GUIDE_JOIN, POINT_JOIN, FACET_JOIN, STREAM):
        return _canonical_bindings(payload)
    if kind == MATCH:
        return _canonical_triples(payload)
    if kind == BATCH_JOIN64:
        return [_canonical_bindings(rows) for rows in payload]
    if kind in (BLOCKS256, SCAN4):
        return [_canonical_triples(block) for block in payload]
    return None


class Oracle:
    """Answers ops outside the timed window.  Reads: an in-process
    ``QueryEngine`` over the same catalog — no sockets, no cache, no
    cluster — memoised, since written heads are disjoint from every
    read set and a read's answer never depends on the writes.  Writes:
    a plain set of the written triples, the model the store's
    add/remove counts must follow; feed them in each client's order."""

    def __init__(self, store: TripleStore, catalog: Catalog) -> None:
        self.store = store
        self.catalog = catalog
        self.engine = QueryEngine(store)
        self._memo: Dict[Op, Tuple[int, object]] = {}
        self._written: set = set()

    def count(self, op: Op) -> int:
        """How many rows (or written triples) the op must report."""
        kind, arg = op
        if kind == ADD16:
            new = set(arg) - self._written
            self._written |= new
            return len(new)
        if kind == REMOVE16:
            present = set(arg) & self._written
            self._written -= present
            return len(present)
        if kind in (BLOCKS256, SCAN4):  # counted, not materialised
            return sum(self.store.count_many(self._patterns(kind, arg)))
        return self._read(op)[0]

    def written(self, heads: List[str]) -> List[List[tuple]]:
        """The written triples each head must hold now, sorted."""
        by_head: Dict[str, List[tuple]] = {head: [] for head in heads}
        for triple in self._written:
            if triple[0] in by_head:
                by_head[triple[0]].append(triple)
        return [sorted(by_head[head]) for head in heads]

    def _patterns(self, kind: str, arg) -> List[tuple]:
        return _head_patterns(self.catalog, arg) if kind == BLOCKS256 \
            else _scan_patterns(self.catalog, arg)

    def _read(self, op: Op) -> Tuple[int, object]:
        """``(row count, canonical rows)`` of a read.  For a limited
        query the rows are the *unlimited* answer: any ``limit`` of them
        is correct."""
        cached = self._memo.get(op)
        if cached is not None:
            return cached
        kind, arg = op
        catalog = self.catalog
        if kind == GUIDE_JOIN:
            query = _guide_query(catalog, arg)
            rows = self.engine.execute(
                PatternQuery(query.patterns, query.select, None))
            answer = (min(len(rows), GUIDE_LIMIT), _canonical_bindings(rows))
        elif kind in (POINT_JOIN, FACET_JOIN, STREAM):
            rows = self.engine.execute(_QUERIES[kind](catalog, arg))
            answer = (len(rows), _canonical_bindings(rows))
        elif kind == MATCH:
            rows = self.store.match(catalog.product_names[arg])
            answer = (len(rows), _canonical_triples(rows))
        elif kind == BATCH_JOIN64:
            results = self.engine.execute_many(
                [_point_query(catalog, product) for product in arg])
            answer = (sum(map(len, results)),
                      [_canonical_bindings(rows) for rows in results])
        elif kind in (BLOCKS256, SCAN4):
            results = self.store.match_many(self._patterns(kind, arg))
            return (sum(map(len, results)),  # big and rarely repeated
                    [_canonical_triples(rows) for rows in results])
        else:
            raise ValueError(f"unknown op kind {kind!r}")
        self._memo[op] = answer
        return answer

    def agrees(self, op: Op, count: int, payload: Optional[object]) -> bool:
        """Does a served answer agree with the oracle's?  ``payload`` is
        the served rows for a sampled op, ``None`` to compare counts only."""
        if count != self.count(op):
            return False
        if payload is None:
            return True
        got_rows, want_rows = canonical(op, payload), self._read(op)[1]
        if op[0] == GUIDE_JOIN:  # limited: any `limit` matching rows
            return set(got_rows) <= set(want_rows)
        return got_rows == want_rows
