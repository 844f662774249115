"""Backend parity: every backend must agree with the SetBackend reference.

The columnar backend is the default store; the set backend (the test
oracle's, not a registered backend) is the reference implementation;
the ``mmap`` ids are columnar stores saved and reopened with
``ColumnarBackend.open``: the same query core over a base block mapped
from disk.  These tests drive all of
them — including delta-overlay configurations that force eager rebuilds
(threshold 0) and constant overlay churn (tiny thresholds) — through
randomized add/discard/query workloads and through the serialization
layer and assert identical observable behaviour.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _oracle import SetBackend, backend_named, mapped_backend
from repro.kg.backend import BACKENDS, ColumnarBackend, Interner, make_backend
from repro.kg.sharded_backend import ShardedBackend
from repro.kg.serialization import read_tsv, write_tsv
from repro.kg.store import TripleStore
from repro.kg.triple import Triple, triples_from_tuples

#: Non-reference backend factories, keyed by a readable parametrize id.
#: delta_threshold=0 forces a full rebuild per mutation burst (the old
#: eager behaviour); tiny thresholds exercise overlay → consolidation
#: transitions constantly; ``mmap`` runs the shared query core over an
#: empty base mapped from disk plus overlay; the sharded factories cover degenerate
#: (1), even (2) and many-shard (8) hash partitionings, and the ``-dirty``
#: ones start overlay-dirty (see :func:`_pend_overlay`) — over in-heap
#: base blocks, and over one mapped from a saved directory.
BACKEND_FACTORIES = {
    "columnar": ColumnarBackend,
    "columnar-eager": lambda: ColumnarBackend(delta_threshold=0),
    "columnar-tiny-delta": lambda: ColumnarBackend(delta_threshold=2),
    "mmap": mapped_backend,
    "sharded-1": lambda: ShardedBackend(1),
    "sharded-2": lambda: ShardedBackend(2),
    "sharded-8": lambda: ShardedBackend(8),
    "sharded-1-dirty": lambda: _dirty_sharded(1),
    "sharded-2-dirty": lambda: _dirty_sharded(2),
    "sharded-3-dirty": lambda: _dirty_sharded(3),
    "mmap-reopened-dirty": lambda: _dirty_reopened_mmap(),
}

#: Symbols hypothesis reaches first when it shrinks ``_symbol``, so the
#: random workload does hit the seeded rows.
_SEED_ROWS = [(head, relation, tail)
              for head in ("0", "1", "A", "a") for relation in ("r1", "r2", "r4")
              for tail in ("0", "00", "a")]


def _pend_overlay(backend):
    """Leave adds and discards of ``_SEED_ROWS`` base rows pending in the
    overlay — far below ``delta_threshold``, so no query may consolidate
    them."""
    for head, relation, tail in _SEED_ROWS[::2]:
        assert backend.discard(head, relation, tail)
    for head, relation, tail in _SEED_ROWS[:3]:
        backend.add(tail, "r3", head + "x")
    assert _overlay(backend) > len(_SEED_ROWS) // 2
    return backend


def _dirty_sharded(n_shards):
    """``ShardedBackend(n)`` over a consolidated in-heap base block."""
    backend = ShardedBackend(n_shards)
    backend.add_many(triples_from_tuples(_SEED_ROWS))
    for leaf in _leaves(backend):
        leaf.id_triples()            # fold the seed into the base block
    return _pend_overlay(backend)


def _dirty_reopened_mmap():
    """A reopened ``ColumnarBackend``: the base block is mapped from disk."""
    return _pend_overlay(mapped_backend(triples_from_tuples(_SEED_ROWS)))


def _starts_dirty(backend):
    """True for the :func:`_pend_overlay` inputs (a fresh backend of any
    other kind, remote ones included, starts with nothing pending)."""
    return isinstance(backend, (ColumnarBackend, ShardedBackend)) \
        and _overlay(backend) > 0


def _mirror(backend):
    """A ``SetBackend`` holding what ``backend`` starts with, and the rows."""
    reference = SetBackend()
    rows = [tuple(triple) for triple in backend.iter_triples()]
    for head, relation, tail in rows:
        reference.add(head, relation, tail)
    return reference, rows

# --------------------------------------------------------------------------- #
# strategies
# --------------------------------------------------------------------------- #
_symbol = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
    min_size=1, max_size=4,
)
_triple_tuple = st.tuples(_symbol, st.sampled_from(["r1", "r2", "r3", "r4"]), _symbol)

#: An operation: ("add" | "discard", (h, r, t)).
_operation = st.tuples(st.sampled_from(["add", "add", "add", "discard"]), _triple_tuple)


def _pattern_views(head: str, relation: str, tail: str):
    """All eight wildcard combinations of one concrete triple."""
    for use_head in (head, None):
        for use_relation in (relation, None):
            for use_tail in (tail, None):
                yield use_head, use_relation, use_tail


# --------------------------------------------------------------------------- #
# Interner
# --------------------------------------------------------------------------- #
def test_interner_assigns_dense_stable_ids():
    interner = Interner(["a", "b", "a"])
    assert len(interner) == 2
    assert interner.intern("a") == 0
    assert interner.intern("c") == 2
    assert interner.lookup("missing") is None
    assert interner.symbol_of(1) == "b"
    assert list(interner) == ["a", "b", "c"]
    assert "b" in interner


def test_make_backend_registry():
    # The dict-of-set reference is the test oracle's, not a backend, and
    # a sharded store is built in memory from the class, never by name.
    assert sorted(BACKENDS) == ["columnar"]
    with pytest.raises(ValueError, match="unknown graph backend 'set'"):
        make_backend("set")
    assert isinstance(make_backend("columnar"), ColumnarBackend)
    for refuse in (lambda: make_backend("sharded"),
                   lambda: make_backend("sharded", n_shards=8),
                   lambda: TripleStore(backend="sharded")):
        with pytest.raises(ValueError, match=r"unknown graph backend "
                                             r"'sharded' \(known: columnar\)"):
            refuse()
    assert ShardedBackend(n_shards=8).n_shards == 8
    with pytest.raises(ValueError):
        make_backend("no-such-backend")


# --------------------------------------------------------------------------- #
# randomized workload parity
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("factory", BACKEND_FACTORIES.values(),
                         ids=BACKEND_FACTORIES.keys())
@settings(max_examples=30, deadline=None)
@given(operations=st.lists(_operation, max_size=60))
def test_backend_parity_random_workload(factory, operations):
    """Property: every backend agrees with the reference after any sequence."""
    columnar = factory()
    starts_dirty = _starts_dirty(columnar)
    set_backend, seeded = _mirror(columnar)
    touched = set(seeded)
    for action, (head, relation, tail) in operations:
        if action == "add":
            assert set_backend.add(head, relation, tail) \
                == columnar.add(head, relation, tail)
        else:
            assert set_backend.discard(head, relation, tail) \
                == columnar.discard(head, relation, tail)
        touched.add((head, relation, tail))

    rebuilds = _rebuilds(columnar) if starts_dirty else None
    assert len(set_backend) == len(columnar)
    assert sorted(set_backend.iter_triples()) == sorted(columnar.iter_triples())
    assert set_backend.entities() == columnar.entities()
    assert set_backend.relations() == columnar.relations()
    assert set_backend.heads_only() == columnar.heads_only()
    assert set_backend.relation_frequencies() == columnar.relation_frequencies()

    for head, relation, tail in touched:
        assert set_backend.contains(head, relation, tail) \
            == columnar.contains(head, relation, tail)
        assert set_backend.degree(head) == columnar.degree(head)
        assert set_backend.tails(head, relation) == columnar.tails(head, relation)
        assert set_backend.heads(relation, tail) == columnar.heads(relation, tail)
        for pattern in _pattern_views(head, relation, tail):
            assert set_backend.count(*pattern) == columnar.count(*pattern)
            assert set_backend.match(*pattern, sort=True) \
                == columnar.match(*pattern, sort=True)
            assert sorted(set_backend.iter_match(*pattern)) \
                == sorted(columnar.iter_match(*pattern))
    if starts_dirty:
        # The string surface takes the id route: it merges the overlay.
        assert _rebuilds(columnar) == rebuilds


@pytest.mark.parametrize("factory", BACKEND_FACTORIES.values(),
                         ids=BACKEND_FACTORIES.keys())
@settings(max_examples=20, deadline=None)
@given(rows=st.lists(_triple_tuple, max_size=40))
def test_backend_parity_batched_queries(factory, rows):
    columnar = factory()
    starts_dirty = _starts_dirty(columnar)
    set_backend, seeded = _mirror(columnar)
    for head, relation, tail in rows:
        set_backend.add(head, relation, tail)
        columnar.add(head, relation, tail)
    rows = seeded + rows
    rebuilds = _rebuilds(columnar) if starts_dirty else None
    nodes = sorted({symbol for head, _rel, tail in rows for symbol in (head, tail)})
    pairs = sorted({(head, relation) for head, relation, _tail in rows})
    patterns = [(head, None, None) for head in nodes[:10]] \
        + [(None, relation, None) for _head, relation in pairs[:10]]
    assert set_backend.degree_many(nodes) == columnar.degree_many(nodes)
    assert set_backend.tails_many(pairs) == columnar.tails_many(pairs)
    assert set_backend.match_many(patterns, sort=True) \
        == columnar.match_many(patterns, sort=True)
    assert set_backend.count_many(patterns) == columnar.count_many(patterns)
    if starts_dirty:
        assert _rebuilds(columnar) == rebuilds


def test_columnar_match_unsorted_same_multiset():
    """Unsorted match returns the same triples, just without the sort cost."""
    store = TripleStore(triples_from_tuples([
        ("b", "r", "x"), ("a", "r", "x"), ("c", "r", "y"), ("a", "s", "z"),
    ]), backend="columnar")
    assert sorted(store.match(relation="r")) == store.match(relation="r", sort=True)
    assert store.match(relation="r", sort=True) == triples_from_tuples(
        [("a", "r", "x"), ("b", "r", "x"), ("c", "r", "y")])


def test_columnar_interleaved_mutation_and_query():
    """Indexes rebuild correctly across mutation → query → mutation cycles."""
    backend = ColumnarBackend()
    assert backend.add("a", "r", "b")
    assert backend.count(head="a") == 1
    assert backend.add("a", "r", "c")
    assert backend.tails("a", "r") == ["b", "c"]
    assert backend.discard("a", "r", "b")
    assert backend.tails("a", "r") == ["c"]
    assert backend.count() == 1
    assert not backend.discard("a", "r", "b")
    assert backend.match("a", "r", "c") == [Triple("a", "r", "c")]
    assert backend.entities() == ["a", "c"]  # "b" no longer participates


@settings(max_examples=25, deadline=None)
@given(st.lists(_operation, max_size=50))
def test_delta_overlay_parity_with_queries_between_mutations(operations):
    """Querying between every mutation keeps the overlay-merged view exact.

    A tiny threshold forces frequent overlay → consolidation transitions,
    covering base-hit, overlay-hit, deleted-base-row and resurrected-row
    paths in one workload.
    """
    reference = SetBackend()
    columnar = ColumnarBackend(delta_threshold=3)
    for action, (head, relation, tail) in operations:
        if action == "add":
            assert reference.add(head, relation, tail) \
                == columnar.add(head, relation, tail)
        else:
            assert reference.discard(head, relation, tail) \
                == columnar.discard(head, relation, tail)
        # Interleaved queries — the dedup-stage access pattern.
        assert len(reference) == len(columnar)
        assert reference.count(relation=relation) == columnar.count(relation=relation)
        assert reference.tails(head, relation) == columnar.tails(head, relation)
        assert reference.degree(tail) == columnar.degree(tail)
    assert reference.relation_frequencies() == columnar.relation_frequencies()
    assert reference.entities() == columnar.entities()


#: The in-memory columnar family, by ``delta_threshold``.
FAMILY = {
    "columnar": lambda threshold: ColumnarBackend(delta_threshold=threshold),
    "mmap": lambda threshold: mapped_backend(delta_threshold=threshold),
    "sharded-1": lambda threshold: ShardedBackend(1, delta_threshold=threshold),
    "sharded-2": lambda threshold: ShardedBackend(2, delta_threshold=threshold),
}


def test_delta_overlay_defers_rebuilds():
    """Mutation bursts below the threshold cost zero extra full rebuilds,
    on every member of the family (one leaf each)."""
    for kind in ("columnar", "mmap", "sharded-1"):
        backend = FAMILY[kind](100)
        for index in range(50):
            backend.add(f"h{index}", "r", f"t{index}")
        assert backend.count(relation="r") == 50      # builds the base index
        assert _rebuilds(backend) == 1, kind
        for index in range(60):
            backend.add(f"extra{index}", "r", "sink") # 60 adds < threshold
            assert backend.count(relation="r") == 51 + index
            assert backend.tails(f"extra{index}", "r") == ["sink"]
        assert _rebuilds(backend) == 1, kind          # all served from the overlay
        # The flat id surface consolidates: exactly one more rebuild.
        assert len(_leaves(backend)[0].id_triples()) == 110
        assert _rebuilds(backend) == 2, kind

        eager = FAMILY[kind](0)
        for index in range(10):
            eager.add(f"h{index}", "r", f"t{index}")
        eager.count(relation="r")
        before = _rebuilds(eager)
        for index in range(5):
            eager.add(f"extra{index}", "r", "sink")
            eager.count(relation="r")
        assert _rebuilds(eager) == before + 5, kind   # one rebuild per burst


@pytest.mark.parametrize("count", [30, 300], ids=["below", "above"])
@pytest.mark.parametrize("kind", FAMILY)
def test_an_empty_base_is_never_searched_nor_served_through_the_overlay(kind, count):
    """Per-triple adds onto an empty store are plain dict inserts however
    many there are (below / above ``delta_threshold``), and the first
    query consolidates them all."""
    backend = FAMILY[kind](100)
    searches = []
    for leaf in _leaves(backend):
        for name in ("_slice", "_subrange"):
            def counted(*args, _search=getattr(leaf, name)):
                searches.append(args)
                return _search(*args)
            setattr(leaf, name, counted)
    for index in range(count):
        assert backend.add(f"h{index}", "r", f"t{index % 7}")
    assert not backend.add("h0", "r", "t0")
    assert not backend.discard("h0", "r", "t1")
    assert backend.contains("h1", "r", "t1") and not backend.contains("h1", "r", "t2")
    assert len(backend) == count
    assert (searches, _rebuilds(backend)) == ([], 0)
    assert backend.count(relation="r") == count
    assert backend.tails("h1", "r") == ["t1"]
    for leaf in _leaves(backend):
        assert (leaf._overlay_size(), leaf.rebuild_count) == (0, 1)


@pytest.mark.parametrize("base", [0, 40], ids=["empty-base", "populated-base"])
@pytest.mark.parametrize("batch_size", [8, 200], ids=["overlay", "merge"])
def test_add_many_counts_like_an_add_loop(base, batch_size):
    """``add_many`` is one id-block merge, yet returns what the ``add``
    loop does: in-batch duplicates and rows already present count once."""
    rows = [(f"h{index % 37}", f"r{index % 2}", f"t{index % 5}")
            for index in range(batch_size)]
    rows += rows[:3] + [(f"b{index}", "r0", "sink") for index in range(0, base, 2)]
    looped, batched = ColumnarBackend(delta_threshold=64), ColumnarBackend(delta_threshold=64)
    for backend in (looped, batched):
        for index in range(base):
            backend.add(f"b{index}", "r0", "sink")
        backend.id_triples()
    new = sum(looped.add(*row) for row in rows)
    assert batched.add_many(triples_from_tuples(rows)) == new == len(set(rows)) - base // 2
    assert sorted(batched.iter_triples()) == sorted(looped.iter_triples())
    assert batched.entity_interner.symbols() == looped.entity_interner.symbols()
    with pytest.raises(ValueError, match="non-empty"):
        batched.add_many([Triple.unchecked("h", "", "t")])


def test_columnar_id_surface_consistent():
    backend = ColumnarBackend()
    for head, relation, tail in [("a", "r", "b"), ("a", "s", "c"), ("d", "r", "b")]:
        backend.add(head, relation, tail)
    ids = backend.id_triples()
    assert ids.shape == (3, 3)
    assert ids.dtype == np.int64
    relation_id = backend.relation_interner.lookup("r")
    rows = backend.match_ids(relation_id=relation_id)
    assert len(rows) == 2
    head_symbols = {backend.entity_interner.symbol_of(int(h)) for h in rows[:, 0]}
    assert head_symbols == {"a", "d"}
    rank = backend.entity_sort_rank()
    symbols = backend.entity_interner.symbols()
    assert [symbols[i] for i in np.argsort(rank)] == sorted(symbols)


# --------------------------------------------------------------------------- #
# small live writes: O(batch) through the overlay, reads merge it
# --------------------------------------------------------------------------- #
#: Small enough that a short script crosses it, large enough that most
#: steps stay on the overlay.
LIVE_THRESHOLD = 12
LIVE_KINDS = ["columnar", "mmap", "mmap-reopened", "sharded-1", "sharded-2"]


def _live_backend(kind, base, directory):
    """A ``kind`` backend whose *base block* holds ``base``, overlay empty."""
    if kind == "columnar":
        backend = ColumnarBackend(delta_threshold=LIVE_THRESHOLD)
    elif kind.startswith("mmap"):
        backend = mapped_backend(delta_threshold=LIVE_THRESHOLD)
    else:
        backend = ShardedBackend(int(kind[-1]), delta_threshold=LIVE_THRESHOLD)
    backend.add_many(triples_from_tuples(base))
    if kind == "mmap-reopened":
        backend = ColumnarBackend.open(backend.save(directory / "store"),
                                       delta_threshold=LIVE_THRESHOLD)
    for leaf in _leaves(backend):
        leaf.id_triples()            # fold the initial load into the base
    return backend


def _leaves(backend):
    return backend._shards if isinstance(backend, ShardedBackend) else [backend]


def _rebuilds(backend):
    return sum(leaf.rebuild_count for leaf in _leaves(backend))


def _overlay(backend):
    return sum(leaf._overlay_size() for leaf in _leaves(backend))


def _id_pattern(backend, pattern):
    """Ids of a string pattern; an unknown constant probes past every table."""
    head, relation, tail = pattern
    entity, rel = backend.entity_interner, backend.relation_interner

    def resolve(interner, symbol):
        if symbol is None:
            return None
        known = interner.lookup(symbol)
        return len(interner) + 3 if known is None else known

    return resolve(entity, head), resolve(rel, relation), resolve(entity, tail)


def _rows_of(backend, block):
    entity = backend.entity_interner.symbol_table()
    relation = backend.relation_interner.symbol_table()
    return sorted((entity[h], relation[r], entity[t]) for h, r, t in block.tolist())


def _assert_reads_agree(backend, oracle, probe):
    """Every wildcard view of ``probe`` reads the oracle's rows, on both surfaces."""
    patterns = list(_pattern_views(*probe))
    id_patterns = [_id_pattern(backend, pattern) for pattern in patterns]
    blocks = backend.match_ids_many(id_patterns)
    for pattern, id_pattern, block in zip(patterns, id_patterns, blocks):
        expected = sorted(row for row in oracle
                          if all(want is None or want == got
                                 for want, got in zip(pattern, row)))
        assert _rows_of(backend, block) == expected
        assert _rows_of(backend, backend.match_ids(*id_pattern)) == expected
        assert backend.count_ids(*id_pattern) == len(expected)
        assert backend.count(*pattern) == len(expected)
        assert [tuple(t) for t in backend.match(*pattern, sort=True)] == expected


_early = st.sampled_from(["a", "b", "c", "d", "e", "f"])
#: Symbols no base ever holds: their ids lie beyond the base's CSR offsets.
_late = st.sampled_from(["a", "b", "c", "d", "e", "f", "late1", "late2"])
_base_rows = st.lists(st.tuples(_early, st.sampled_from(["r1", "r2"]), _early),
                      min_size=8, max_size=24)
_live_step = st.tuples(
    st.sampled_from(["add", "add", "remove"]),
    st.lists(st.tuples(_late, st.sampled_from(["r1", "r2", "r-late"]), _late),
             min_size=1, max_size=5))


@pytest.mark.parametrize("kind", LIVE_KINDS)
@settings(max_examples=25, deadline=None)
@given(base=_base_rows, steps=st.lists(_live_step, max_size=20))
def test_small_writes_stay_on_the_overlay(tmp_path_factory, kind, base, steps):
    """Property: small ``add_many`` / ``discard_many`` batches and the id and
    string reads between them agree with a plain set, and the base is only
    rebuilt when the overlay outgrows ``delta_threshold``."""
    backend = _live_backend(kind, base, tmp_path_factory.mktemp("live"))
    assume(all(len(leaf.id_triples()) for leaf in _leaves(backend)))
    oracle = set(base)
    for action, batch in steps:
        before = [(leaf.rebuild_count, leaf._overlay_size())
                  for leaf in _leaves(backend)]
        held = backend.match_ids(None, None, None)
        held_rows = held.copy()
        triples = triples_from_tuples(batch)
        if action == "add":
            assert backend.add_many(triples) == len(set(batch) - oracle)
            oracle |= set(batch)
        else:
            assert backend.discard_many(triples) == len(set(batch) & oracle)
            oracle -= set(batch)
        np.testing.assert_array_equal(held, held_rows)   # no aliasing
        assert len(backend) == len(oracle)
        _assert_reads_agree(backend, oracle, batch[0])
        for leaf, (rebuilds, overlay) in zip(_leaves(backend), before):
            moved = leaf.rebuild_count - rebuilds
            assert moved in (0, 1)
            if overlay + len(batch) <= LIVE_THRESHOLD:
                assert moved == 0
            assert leaf._overlay_size() <= LIVE_THRESHOLD
            if moved:
                assert leaf._overlay_size() == 0
    assert _rows_of(backend, backend.match_ids(None, None, None)) == sorted(oracle)
    assert sorted(tuple(t) for t in backend.iter_triples()) == sorted(oracle)


@pytest.mark.parametrize("kind", LIVE_KINDS)
def test_small_write_edge_cases(tmp_path, kind):
    base = [("hub", "r", f"t{index}") for index in range(6)] \
        + [(f"h{index}", "r", "hub") for index in range(10)]
    backend = _live_backend(kind, base, tmp_path)
    assert all(len(leaf.id_triples()) for leaf in _leaves(backend))
    oracle = set(base)
    start = _rebuilds(backend)

    def added():
        return sum(len(leaf._delta_add) for leaf in _leaves(backend))

    def write(action, batch):
        count = getattr(backend, action)(triples_from_tuples(batch))
        (oracle.update if action == "add_many" else oracle.difference_update)(batch)
        _assert_reads_agree(backend, oracle, batch[0])
        return count

    # duplicate rows inside one batch count (and land in the delta) once
    twin = ("hub", "r", "twin")
    assert write("add_many", [twin, ("h0", "r", "hub"), twin]) == 1
    assert added() == 1
    # add-then-remove inside the overlay leaves nothing behind
    assert write("discard_many", [twin, twin]) == 1
    assert _overlay(backend) == 0
    # re-adding an overlay-deleted base row resurrects it: the delta does not grow
    victim = ("hub", "r", "t3")
    assert write("discard_many", [victim]) == 1
    assert (_overlay(backend), added()) == (1, 0)
    assert write("add_many", [victim]) == 1
    assert (_overlay(backend), added()) == (0, 0)
    # ids interned after the base was built lie beyond its CSR offsets
    late = ("late-head", "late-relation", "late-tail")
    assert write("add_many", [late]) == 1
    late_head = backend.entity_interner.lookup("late-head")
    for leaf in _leaves(backend):
        assert late_head >= len(leaf._head_offsets) - 1
        assert backend.relation_interner.lookup("late-relation") \
            >= len(leaf._rel_offsets) - 1
    assert _rows_of(backend, backend.match_ids(late_head)) == [late]
    # a block handed out before a write is not touched by it
    hub = backend.entity_interner.lookup("hub")
    held = backend.match_ids(hub)
    held_rows = held.copy()
    write("add_many", [("hub", "r", "after")])
    write("discard_many", [("hub", "r", "t0")])
    np.testing.assert_array_equal(held, held_rows)
    assert _rebuilds(backend) == start
    # crossing delta_threshold consolidates exactly once (all rows share one
    # head, so on sharded-2 they fill a single shard's overlay)
    overlay = _overlay(backend)
    for step in range(4):
        batch = [("hub", "r", f"new{step}-{index}") for index in range(4)]
        assert write("add_many", batch) == 4
        overlay += 4
        assert _rebuilds(backend) == start + (overlay > LIVE_THRESHOLD)
        if overlay > LIVE_THRESHOLD:
            break
    assert _rebuilds(backend) == start + 1
    assert _rows_of(backend, backend.match_ids(None, None, None)) == sorted(oracle)


# --------------------------------------------------------------------------- #
# narrowing a group is a binary search: work bound + edge-case parity
# --------------------------------------------------------------------------- #
def _counting_cols(cols):
    """``cols`` viewed as an ndarray subclass that logs how many base-column
    elements each index expression *reads*: a scalar counts 1, a gathered
    copy its size, a view (which reads nothing yet) 0."""
    reads = []

    class CountingCols(np.ndarray):
        def __getitem__(self, index):
            out = super().__getitem__(index)
            if not (isinstance(out, np.ndarray) and np.may_share_memory(out, self)):
                reads.append(np.size(out))
            return out

    return cols.view(CountingCols), reads


@pytest.mark.parametrize("kind", [*FAMILY, "mmap-reopened"])
def test_a_probe_reads_what_it_returns_not_its_relation(tmp_path, kind):
    """``(None, r, t)`` over a 50 000-row relation and ``(h, None, t)``
    through a 5 000-row tail slice read O(log n) base keys plus the rows
    they return — never the group (the gather this replaced read n)."""
    n, tails, hub = 50_000, 250, 5_000
    rows = [(f"h{index}", "r", f"t{index % tails}") for index in range(n)] \
        + [(f"h{index}", "s", "hub") for index in range(hub)]
    backend = FAMILY[kind.removesuffix("-reopened")](1024)
    backend.add_many(triples_from_tuples(rows))
    if kind == "mmap-reopened":
        backend = ColumnarBackend.open(backend.save(tmp_path / "store"))
    entity, relation = backend.entity_interner.lookup, backend.relation_interner.lookup
    by_tail = (None, relation("r"), entity("t7"))
    by_head_and_tail = (entity("h4321"), None, entity("hub"))
    bound = 4 * int(np.ceil(np.log2(n)))
    counts = []
    for leaf in _leaves(backend):
        leaf.id_triples()            # attached, consolidated, nothing pending
        leaf._cols, reads = _counting_cols(leaf._cols)
        for pattern in (by_tail, by_head_and_tail):
            counts.append(leaf.count_ids(*pattern))
            assert sum(reads) <= bound, (kind, pattern, sum(reads))
            del reads[:]
            block = leaf.match_ids(*pattern)
            assert len(block) == counts[-1]
            assert sum(reads) <= bound + 3 * len(block), (kind, pattern, sum(reads))
            del reads[:]
    assert (sum(counts[0::2]), sum(counts[1::2])) == (n // tails, 1)


def _gathered_subrange(leaf):
    """The search ``_subrange`` replaced — gather every key of the group,
    then ``searchsorted`` — kept as the reference for row order."""
    def subrange(rows, column, value):
        keys = np.asarray(leaf._cols)[rows, column]
        return rows[np.searchsorted(keys, value, side="left"):
                    np.searchsorted(keys, value, side="right")]
    return subrange


@pytest.mark.parametrize("pending", [False, True], ids=["clean", "overlay"])
@pytest.mark.parametrize("kind", ["columnar", "mmap-reopened", "sharded-2"])
def test_narrowing_a_big_group_edge_cases(tmp_path, kind, pending):
    """All eight pattern shapes over big groups agree with a brute-force
    filter of a plain reference set, and row for row with the gathering
    search, for keys absent below / between / above a group's keys, its
    first and last key, one-row groups, ids interned after the base was
    built and an id beyond every table."""
    tails = 97
    base = [("low", "other", "low2")] \
        + [(f"p{index}", "big", f"t{index % tails}") for index in range(10_000)] \
        + [("hub", f"r{index % 3}", f"t{index}") for index in range(tails)] \
        + [("hub", "big", f"t{index}") for index in range(0, tails, 2)] \
        + [("p3", "single", "t5"), ("solo-head", "big", "solo"),
           ("high", "other", "high2")]
    backend = _live_backend(kind, base, tmp_path)
    live = set(base)
    if pending:
        gone = [("hub", "big", "t0"), ("p96", "big", "t96"), ("p3", "single", "t5")]
        new = [("hub", "big", "t1"), ("fresh", "big", "t0"), ("p3", "big", "fresh"),
               ("late-head", "late-relation", "late-tail")]
        assert backend.discard_many(triples_from_tuples(gone)) == len(gone)
        assert backend.add_many(triples_from_tuples(new)) == len(new)
        live = live - set(gone) | set(new)
    backend.entity_interner.intern("after-the-base")
    backend.relation_interner.intern("after-the-base")
    state = (_rebuilds(backend), _overlay(backend))
    assert (state[1] > 0) == pending

    entity, relation = backend.entity_interner.lookup, backend.relation_interner.lookup
    keys = [entity(symbol) for symbol in ("low", "t0", "p7", "t96", "solo", "high")]
    assert keys == sorted(keys)      # below, first, between, last, one row, above
    probes = [("hub", "big", "t0"), ("hub", "big", "t96"), ("hub", "r1", "t1"),
              ("p96", "big", "t96"), ("p7", "big", "p7"), ("low", "big", "low"),
              ("high", "big", "high"), ("p3", "single", "t5"),
              ("solo-head", "big", "solo"), ("fresh", "big", "fresh"),
              ("late-head", "late-relation", "late-tail"),
              ("after-the-base", "after-the-base", "after-the-base"),
              ("nowhere", "nowhere", "nowhere")]
    patterns = [_id_pattern(backend, view)
                for probe in probes for view in _pattern_views(*probe)]
    blocks = backend.match_ids_many(patterns)
    counts = [backend.count_ids(*pattern) for pattern in patterns]
    singles = [backend.match_ids(*pattern) for pattern in patterns]

    reference = np.array(sorted((entity(h), relation(r), entity(t)) for h, r, t in live))
    for leaf in _leaves(backend):
        leaf._subrange = _gathered_subrange(leaf)
    for pattern, block, count, single, gathered in zip(
            patterns, blocks, counts, singles, backend.match_ids_many(patterns)):
        keep = np.ones(len(reference), dtype=bool)
        for column, value in enumerate(pattern):
            if value is not None:
                keep &= reference[:, column] == value
        assert sorted(block.tolist()) == reference[keep].tolist(), pattern
        assert count == keep.sum(), pattern
        np.testing.assert_array_equal(block, gathered, err_msg=str(pattern))
        np.testing.assert_array_equal(single, gathered, err_msg=str(pattern))
    assert (_rebuilds(backend), _overlay(backend)) == state    # nothing consolidated


# --------------------------------------------------------------------------- #
# store facade over both backends
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("backend_name", ["set", "columnar", "mmap", "sharded"])
def test_store_facade_roundtrip(backend_name):
    triples = triples_from_tuples([
        ("p1", "brandIs", "apple"), ("p2", "brandIs", "apple"),
        ("p1", "placeOfOrigin", "china"),
    ])
    store = TripleStore(triples, backend=backend_named(backend_name))
    # A store opened with a mapped base is a columnar store.
    name = "columnar" if backend_name == "mmap" else backend_name
    assert store.backend_name == name
    assert len(store) == 3
    assert store.count(relation="brandIs") == 2
    assert store.heads("brandIs", "apple") == ["p1", "p2"]
    clone = store.copy()
    assert clone.backend_name == name
    clone.add(Triple("p3", "brandIs", "tesla"))
    assert len(clone) == len(store) + 1
    assert store.triples() == sorted(triples)


@settings(max_examples=25, deadline=None)
@given(st.lists(_triple_tuple, min_size=1, max_size=25))
def test_vocabularies_and_id_arrays_backend_independent(rows):
    """The same graph yields identical vocab ids and id arrays on both backends."""
    from repro.kg.graph import KnowledgeGraph

    graphs = {}
    for backend_name in ("set", "columnar"):
        graph = KnowledgeGraph(backend=backend_named(backend_name))
        graph.add_many(triples_from_tuples(rows))
        graphs[backend_name] = graph
    vocab_set = graphs["set"].build_vocabularies()
    vocab_columnar = graphs["columnar"].build_vocabularies()
    assert vocab_set[0].symbols() == vocab_columnar[0].symbols()
    assert vocab_set[1].symbols() == vocab_columnar[1].symbols()
    array_set = graphs["set"].to_id_array(*vocab_set)
    array_columnar = graphs["columnar"].to_id_array(*vocab_columnar)
    np.testing.assert_array_equal(array_set, array_columnar)


@settings(max_examples=25, deadline=None)
@given(st.lists(_triple_tuple, min_size=1, max_size=30))
def test_serialization_roundtrip_through_columnar_backend(tmp_path_factory, rows):
    """TSV round-trip through a columnar-backed store preserves the graph."""
    path = tmp_path_factory.mktemp("backends") / "triples.tsv"
    store = TripleStore(triples_from_tuples(rows), backend="columnar")
    write_tsv(store.triples(), path)
    reloaded = TripleStore(read_tsv(path), backend="columnar")
    assert reloaded.triples() == store.triples()
    assert reloaded.relation_frequencies() == store.relation_frequencies()
    assert reloaded.entities() == store.entities()
