"""Sharded-backend tests: shard-count invariance, bulk loads, persistence.

The hash-partitioned :class:`~repro.kg.sharded_backend.ShardedBackend`
must be observably identical to the in-memory columnar backend for every
query shape, **bit-identical across shard counts**, and must round-trip
through its sharded on-disk layout (global binary interner tables +
per-shard columnar directories).  Corrupt shards and mixed-up directories
must surface as :class:`~repro.errors.StorageError` at open time.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.kg.backend import ColumnarBackend, make_backend
from repro.kg.mmap_backend import HEADER_FILE
from repro.kg.routing import BROADCAST, scatter_gather
from repro.kg.sharded_backend import (
    SHARDED_FORMAT_VERSION,
    ShardedBackend,
    load_sharded_header,
    shard_of_ids,
)
from repro.kg.serialization import read_store_dir, write_store_dir
from repro.kg.store import TripleStore
from repro.kg.triple import Triple, triples_from_tuples

SHARD_COUNTS = (1, 2, 8)

_symbol = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
    min_size=1, max_size=4,
)
_triple_tuple = st.tuples(_symbol, st.sampled_from(["r1", "r2", "r3"]), _symbol)


def _pattern_views(head, relation, tail):
    for use_head in (head, None):
        for use_relation in (relation, None):
            for use_tail in (tail, None):
                yield use_head, use_relation, use_tail


def _assert_query_parity(reference, other, rows):
    assert len(reference) == len(other)
    assert sorted(reference.iter_triples()) == sorted(other.iter_triples())
    assert reference.entities() == other.entities()
    assert reference.relations() == other.relations()
    assert reference.heads_only() == other.heads_only()
    assert reference.relation_frequencies() == other.relation_frequencies()
    for head, relation, tail in rows:
        assert reference.contains(head, relation, tail) \
            == other.contains(head, relation, tail)
        assert reference.degree(head) == other.degree(head)
        assert reference.degree(tail) == other.degree(tail)
        assert reference.tails(head, relation) == other.tails(head, relation)
        assert reference.heads(relation, tail) == other.heads(relation, tail)
        for pattern in _pattern_views(head, relation, tail):
            assert reference.count(*pattern) == other.count(*pattern)
            assert reference.match(*pattern, sort=True) \
                == other.match(*pattern, sort=True)


# --------------------------------------------------------------------------- #
# partitioning rule
# --------------------------------------------------------------------------- #
def test_shard_assignment_is_deterministic_and_complete():
    ids = np.arange(1000, dtype=np.int64)
    for n_shards in SHARD_COUNTS:
        assignment = shard_of_ids(ids, n_shards)
        np.testing.assert_array_equal(assignment, shard_of_ids(ids, n_shards))
        assert assignment.min() >= 0 and assignment.max() < n_shards
        if n_shards > 1:
            # The multiplicative hash spreads consecutive ids: no shard
            # hoards more than 2/3 of a contiguous id range.
            counts = np.bincount(assignment, minlength=n_shards)
            assert counts.max() < (2 * len(ids)) // 3


def test_triples_land_on_the_head_owning_shard():
    backend = ShardedBackend(4)
    for index in range(60):
        backend.add(f"h{index}", "r", f"t{index % 5}")
    per_shard = [len(shard) for shard in backend._shards]
    assert sum(per_shard) == 60
    assert sum(1 for count in per_shard if count > 0) > 1
    for index in range(60):
        head_id = backend.entity_interner.lookup(f"h{index}")
        owner = backend._shards[backend._shard_index(head_id)]
        assert owner.contains(f"h{index}", "r", f"t{index % 5}")


# --------------------------------------------------------------------------- #
# shard-count invariance
# --------------------------------------------------------------------------- #
@settings(max_examples=20, deadline=None)
@given(rows=st.lists(_triple_tuple, min_size=1, max_size=30))
def test_query_results_invariant_to_shard_count(rows):
    """Property: every query result is bit-identical for 1, 2 and 8 shards."""
    reference = ColumnarBackend()
    for head, relation, tail in rows:
        reference.add(head, relation, tail)
    for n_shards in SHARD_COUNTS:
        sharded = ShardedBackend(n_shards)
        seen = set()
        for head, relation, tail in rows:
            was_new = sharded.add(head, relation, tail)
            assert was_new == ((head, relation, tail) not in seen)
            seen.add((head, relation, tail))
        _assert_query_parity(reference, sharded, rows)
    for n_shards in (1, 2, 3):
        # Overlay-dirty: half the rows (plus one doomed row per head) in
        # the base block, the dooms discarded and the rest added through
        # the overlay.  The string surface takes the id route, which
        # merges the overlay — no shard may consolidate to answer.
        dirty = ShardedBackend(n_shards)
        doomed = [(head, "r-gone", tail) for head, _relation, tail in rows]
        dirty.add_many(triples_from_tuples(rows[::2] + doomed))
        for shard in dirty._shards:
            shard.id_triples()
        for head, relation, tail in doomed:
            dirty.discard(head, relation, tail)
        for head, relation, tail in rows:
            dirty.add(head, relation, tail)
        rebuilds = [shard.rebuild_count for shard in dirty._shards]
        _assert_query_parity(reference, dirty, rows)
        assert [shard.rebuild_count for shard in dirty._shards] == rebuilds


@settings(max_examples=15, deadline=None)
@given(rows=st.lists(_triple_tuple, min_size=1, max_size=30))
def test_bulk_add_many_matches_per_row_adds(rows):
    """add_many (vectorized, partitioned, threaded) ≡ a loop of add()."""
    looped = ShardedBackend(4)
    new_by_loop = sum(1 for head, relation, tail in rows
                      if looped.add(head, relation, tail))
    bulk = ShardedBackend(4, max_workers=4)
    new_by_bulk = bulk.add_many(triples_from_tuples(rows))
    assert new_by_bulk == new_by_loop
    assert sorted(bulk.iter_triples()) == sorted(looped.iter_triples())
    # Interning order — and therefore the global id tables — match too.
    assert bulk.entity_interner.symbols() == looped.entity_interner.symbols()
    assert bulk.relation_interner.symbols() == looped.relation_interner.symbols()
    # A second identical bulk load inserts nothing.
    assert bulk.add_many(triples_from_tuples(rows)) == 0


def test_add_many_rejects_empty_components():
    backend = ShardedBackend(2)
    bad = [Triple.unchecked("a", "", "b")]
    with pytest.raises(ValueError, match="non-empty"):
        backend.add_many(bad)


def test_small_add_many_applies_inline_and_bulk_blocks_keep_the_pool(monkeypatch):
    """Overlay applies are GIL-bound Python: no thread pool per small write."""
    from repro.kg import sharded_backend as module

    pools = []

    class SpyPool(module.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(module, "ThreadPoolExecutor", SpyPool)
    backend = ShardedBackend(4, delta_threshold=64, max_workers=4)
    backend.add_many(triples_from_tuples(
        [(f"p{index}", "brandIs", "b") for index in range(200)]))
    assert len(pools) == 1                       # the initial bulk load
    rebuilds = [shard.rebuild_count for shard in backend._shards]
    assert all(len(shard) for shard in backend._shards)
    for step in range(4):
        assert backend.add_many(triples_from_tuples(
            [(f"new{step}-{index}", "brandIs", "b") for index in range(16)])) == 16
    assert len(pools) == 1
    assert [shard.rebuild_count for shard in backend._shards] == rebuilds
    backend.add_many(triples_from_tuples(
        [(f"bulk{index}", "brandIs", "b") for index in range(400)]))
    assert len(pools) == 2                       # does not fit the overlay
    assert len(backend) == 200 + 64 + 400


def test_batched_queries_merge_across_shards():
    rows = [(f"p{index}", "brandIs", f"b{index % 3}") for index in range(30)] \
        + [(f"p{index}", "placeOf", "cn") for index in range(30)]
    single = ShardedBackend(1)
    many = ShardedBackend(8, max_workers=4)
    for head, relation, tail in rows:
        single.add(head, relation, tail)
        many.add(head, relation, tail)
    patterns = [(None, "brandIs", None), ("p3", None, None),
                (None, None, "cn"), ("missing", "brandIs", None)]
    assert single.match_many(patterns, sort=True) \
        == many.match_many(patterns, sort=True)
    pairs = [("p1", "brandIs"), ("p2", "placeOf"), ("nope", "brandIs")]
    assert single.tails_many(pairs) == many.tails_many(pairs)
    nodes = [f"p{index}" for index in range(30)] + ["cn", "b0", "missing"]
    assert single.degree_many(nodes) == many.degree_many(nodes)


_where = st.sampled_from([0, 1, 2, "*", None])   # owner / broadcast / empty


@settings(max_examples=60, deadline=None)
@given(wheres=st.lists(_where, max_size=12))
def test_scatter_gather_sends_one_call_per_shard(wheres):
    """A shard's routed group and the broadcast items travel in ONE
    ``shard_call`` — never two per shard — and every routed / broadcast
    / statically-empty mix answers exactly what the two-call split
    (a distinct ``broadcast_call``) answers."""
    items = list(enumerate(wheres))
    calls = {"shard": [], "broadcast": []}

    def answer(kind):
        def call(shard_index, group):
            calls[kind].append(shard_index)
            return [(shard_index, item) for item in group]
        return call

    def scatter(**extra):
        for seen in calls.values():
            del seen[:]
        return scatter_gather(
            items, n_shards=3, empty=lambda: "empty", merge=list,
            classify=lambda item: BROADCAST if item[1] == "*" else item[1],
            shard_call=answer("shard"), **extra)

    single = scatter()
    touched = set(range(3)) if "*" in wheres \
        else {where for where in wheres if where is not None}
    assert sorted(calls["shard"]) == sorted(touched)    # once each
    assert calls["broadcast"] == []
    for item, result in zip(items, single):
        if item[1] is None:
            assert result == "empty"
        elif item[1] == "*":
            assert result == [(index, item) for index in range(3)]
        else:
            assert result == (item[1], item)
    assert scatter(broadcast_call=answer("broadcast")) == single
    assert sorted(calls["shard"]) == sorted(
        {where for where in wheres if isinstance(where, int)})
    assert calls["broadcast"] == ([0, 1, 2] if "*" in wheres else [])


def test_a_mixed_id_batch_drives_each_shard_once(monkeypatch):
    """The id path and the counts have no distinct broadcast form: a
    batch mixing head-bound and unbound patterns is one
    ``match_ids_many`` / ``count_many`` per shard; ``match_many(sort=)``
    keeps its two callables (sorted routed, unsorted broadcast)."""
    backend = ShardedBackend(3)
    backend.add_many(triples_from_tuples(
        [(f"h{index}", f"r{index % 2}", f"t{index % 5}")
         for index in range(30)]))
    calls = []
    for name in ("match_ids_many", "count_many", "match_many"):
        original = getattr(ColumnarBackend, name)

        def spy(self, patterns, *args, _name=name, _original=original,
                **kwargs):
            calls.append(_name)
            return _original(self, patterns, *args, **kwargs)

        monkeypatch.setattr(ColumnarBackend, name, spy)
    head_ids = [backend.entity_interner.lookup(f"h{index}")
                for index in range(30)]
    id_patterns = [(head_id, None, None) for head_id in head_ids] \
        + [(None, 0, None), (None, None, None)]
    blocks = backend.match_ids_many(id_patterns)
    assert calls == ["match_ids_many"] * 3
    assert [len(block) for block in blocks] == [1] * 30 + [15, 30]
    del calls[:]
    patterns = [(f"h{index}", None, None) for index in range(30)] \
        + [(None, "r0", None), ("missing", None, None)]
    assert backend.count_many(patterns) == [1] * 30 + [15, 0]
    assert calls == ["count_many"] * 3
    del calls[:]
    backend.match_many(patterns, sort=True)
    assert calls == ["match_many"] * 6


def test_match_many_mixed_batch_on_fresh_open_is_thread_safe(tmp_path):
    """Regression: a batch mixing head-bound (routed) and unbound
    (broadcast) patterns must drive each shard from exactly one pool
    thread — two threads racing a freshly opened shard's lazy attach
    used to crash with ``TypeError: object of type NoneType has no
    len()`` (and could corrupt results mid-rebuild)."""
    directory = tmp_path / "store"
    source = ShardedBackend(4)
    rows = [(f"h{index}", f"r{index % 3}", f"t{index % 7}") for index in range(64)]
    for row in rows:
        source.add(*row)
    source.save(directory)
    patterns = [(f"h{index}", None, None) for index in range(32)] \
        + [(None, "r1", None), (None, None, "t3"), (None, None, None)]
    expected = source.match_many(patterns, sort=True)
    for _attempt in range(10):
        reopened = ShardedBackend.open(directory, max_workers=4)
        assert reopened.match_many(patterns, sort=True) == expected
    backend = ShardedBackend(5, delta_threshold=7)
    clone = backend.clone_empty()
    assert isinstance(clone, ShardedBackend)
    assert clone.n_shards == 5 and clone.delta_threshold == 7
    assert len(clone) == 0
    assert clone.entity_interner is not backend.entity_interner


def test_sharded_store_copy_stays_sharded(tmp_path):
    store = TripleStore(triples_from_tuples([("a", "r", "b"), ("c", "r", "d")]),
                        backend=ShardedBackend(3))
    clone = store.copy()
    assert clone.backend_name == "sharded"
    assert clone.backend.n_shards == 3
    clone.add(Triple("e", "r", "f"))
    assert len(store) == 2 and len(clone) == 3
    # The copy of an on-disk sharded store is detached from its files.
    opened = TripleStore.open(store.save(tmp_path / "store"))
    assert all(shard.directory is not None for shard in opened.backend._shards)
    detached = opened.copy()
    assert detached.triples() == store.triples()
    assert all(shard.directory is None for shard in detached.backend._shards)


# --------------------------------------------------------------------------- #
# persistence: save → reopen bit-identical
# --------------------------------------------------------------------------- #
@settings(max_examples=15, deadline=None)
@given(rows=st.lists(_triple_tuple, min_size=1, max_size=25))
def test_sharded_save_reopen_bit_identical(tmp_path_factory, rows):
    directory = tmp_path_factory.mktemp("sharded") / "store"
    source = ShardedBackend(3)
    for head, relation, tail in rows:
        source.add(head, relation, tail)
    source.save(directory)
    reopened = ShardedBackend.open(directory)
    assert reopened.n_shards == 3
    _assert_query_parity(source, reopened, rows)


def test_sharded_layout_on_disk(tmp_path):
    directory = tmp_path / "store"
    backend = ShardedBackend(2, max_workers=4)
    backend.add_many(triples_from_tuples(
        [(f"h{index}", "r", f"t{index}") for index in range(20)]))
    backend.save(directory)
    header = load_sharded_header(directory)
    assert header["n_shards"] == 2
    assert header["version"] == SHARDED_FORMAT_VERSION
    assert (directory / "entities.blob.utf8").is_file()
    assert (directory / "relations.offsets.i64").is_file()
    for index in range(2):
        shard_dir = directory / f"shard-{index}"
        assert (shard_dir / HEADER_FILE).is_file()
        shard_header = json.loads((shard_dir / HEADER_FILE).read_text())
        assert shard_header["interners"] == "external"
        # Shards do not duplicate the global symbol tables.
        assert not (shard_dir / "entities.blob.utf8").exists()


def test_store_facade_dispatches_sharded_directories(tmp_path):
    triples = triples_from_tuples([("a", "r", "b"), ("c", "s", "d")])
    directory = tmp_path / "store"
    TripleStore(triples, backend=ShardedBackend(2)).save(directory)
    reopened = TripleStore.open(directory)
    assert reopened.backend_name == "sharded"
    assert reopened.triples() == sorted(triples)
    assert read_store_dir(directory).triples() == sorted(triples)
    # write_store_dir through a sharded store preserves the layout.
    write_store_dir(TripleStore(triples, backend=ShardedBackend(2)),
                    tmp_path / "again")
    assert load_sharded_header(tmp_path / "again")["n_shards"] == 2


def test_sharded_mutate_after_open_then_resave(tmp_path):
    directory = tmp_path / "store"
    source = ShardedBackend(3)
    rows = [(f"h{index}", "r", f"t{index}") for index in range(15)]
    for row in rows:
        source.add(*row)
    source.save(directory)
    opened = ShardedBackend.open(directory, max_workers=4)
    assert opened.add("brand-new", "r", "x")
    assert opened.discard(*rows[0])
    opened.save(directory)  # resave over its own shard files
    reloaded = ShardedBackend.open(directory)
    assert sorted(reloaded.iter_triples()) == sorted(opened.iter_triples())
    assert reloaded.contains("brand-new", "r", "x")
    assert not reloaded.contains(*rows[0])


def test_zero_triple_sharded_store_roundtrip(tmp_path):
    """Regression: zero triples → zero-byte shard files must still open."""
    directory = tmp_path / "empty"
    TripleStore(backend=ShardedBackend(4)).save(directory)
    reopened = TripleStore.open(directory)
    assert reopened.backend_name == "sharded"
    assert len(reopened) == 0 and reopened.match() == []
    assert reopened.add(Triple("a", "r", "b"))


# --------------------------------------------------------------------------- #
# error paths
# --------------------------------------------------------------------------- #
@pytest.fixture()
def saved_sharded(tmp_path):
    directory = tmp_path / "store"
    backend = ShardedBackend(3)
    for index in range(24):
        backend.add(f"h{index}", "r", f"t{index}")
    backend.save(directory)
    return directory


def test_open_missing_sharded_directory_raises(tmp_path):
    with pytest.raises(StorageError, match="missing header.json"):
        ShardedBackend.open(tmp_path / "nowhere")


def test_open_corrupt_shard_raises(saved_sharded):
    path = saved_sharded / "shard-1" / "triples.i64"
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(StorageError, match="truncated or corrupt"):
        ShardedBackend.open(saved_sharded)


def test_open_missing_shard_directory_raises(saved_sharded):
    import shutil

    shutil.rmtree(saved_sharded / "shard-2")
    with pytest.raises(StorageError, match="shard-2"):
        ShardedBackend.open(saved_sharded)


def test_open_sharded_version_mismatch_raises(saved_sharded):
    header = json.loads((saved_sharded / HEADER_FILE).read_text())
    header["version"] = SHARDED_FORMAT_VERSION + 1
    (saved_sharded / HEADER_FILE).write_text(json.dumps(header))
    with pytest.raises(StorageError, match="version mismatch"):
        ShardedBackend.open(saved_sharded)


def test_open_single_store_as_sharded_raises(tmp_path):
    directory = tmp_path / "single"
    TripleStore(triples_from_tuples([("a", "r", "b")])).save(directory)
    with pytest.raises(StorageError, match="single-store directory"):
        ShardedBackend.open(directory)


def test_open_shard_directly_raises(saved_sharded):
    """A shard dir has no interner tables — opening it alone must fail."""
    with pytest.raises(StorageError, match="external"):
        ColumnarBackend.open(saved_sharded / "shard-0")


def test_interrupted_sharded_save_leaves_no_valid_header(saved_sharded, monkeypatch):
    opened = ShardedBackend.open(saved_sharded)
    opened.add("extra", "r", "x")

    import repro.kg.sharded_backend as module

    def crash(*args, **kwargs):
        raise RuntimeError("simulated crash mid-save")

    monkeypatch.setattr(module, "write_backend_dir", crash)
    with pytest.raises(RuntimeError, match="simulated crash"):
        opened.save(saved_sharded)
    with pytest.raises(StorageError, match="missing header.json"):
        ShardedBackend.open(saved_sharded)
