"""Sharded-backend tests: shard-count invariance, bulk loads, persistence.

The hash-partitioned :class:`~repro.kg.sharded_backend.ShardedBackend`
must be observably identical to the in-memory columnar backend for every
query shape and **bit-identical across shard counts**.  It has no
on-disk layout of its own: ``TripleStore.save`` writes it as the one
columnar directory format with its own interners, so every symbol keeps
its id.  Corrupt directories, and sharded directories an older build
wrote, surface as :class:`~repro.errors.StorageError` at open time.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.kg.backend import ColumnarBackend, make_backend
from repro.kg.mmap_backend import FORMAT_VERSION, HEADER_FILE, MAGIC, load_header
from repro.kg.routing import BROADCAST, scatter_gather
from repro.kg.sharded_backend import ShardedBackend, shard_of_ids
from repro.kg.serialization import read_store_dir, write_store_dir
from repro.kg.store import TripleStore
from repro.kg.triple import Triple, triples_from_tuples

SHARD_COUNTS = (1, 2, 8)

#: A ``shard_split`` output written by the build before the one store
#: format: every shard snapshot is a 1-shard sharded layout.
OLD_SPLIT = Path(__file__).parent / "data" / "split-written-by-pr41"

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
    thread — two threads racing a fresh shard's lazy consolidation
    used to crash with ``TypeError: object of type NoneType has no
    len()`` (and could corrupt results mid-rebuild).  Every shard of an
    ``add``-built backend consolidates on its first query."""
    rows = [(f"h{index}", f"r{index % 3}", f"t{index % 7}") for index in range(64)]

    def fresh():
        backend = ShardedBackend(4, max_workers=4)
        for row in rows:
            backend.add(*row)
        return backend

    directory = TripleStore(backend=fresh()).save(tmp_path / "store")
    patterns = [(f"h{index}", None, None) for index in range(32)] \
        + [(None, "r1", None), (None, None, "t3"), (None, None, None)]
    expected = TripleStore.open(directory).match_many(patterns, sort=True)
    for _attempt in range(10):
        assert fresh().match_many(patterns, sort=True) == expected
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
    # A saved sharded store reopens columnar, mapped from its files; its
    # copy is detached from them.
    opened = TripleStore.open(store.save(tmp_path / "store"))
    assert type(opened.backend) is ColumnarBackend
    assert opened.backend.directory == tmp_path / "store"
    detached = opened.copy()
    assert detached.triples() == store.triples()
    assert detached.backend.directory is None


# --------------------------------------------------------------------------- #
# persistence: save → reopen as the one columnar format, every id kept
# --------------------------------------------------------------------------- #
@settings(max_examples=15, deadline=None)
@given(rows=st.lists(_triple_tuple, min_size=1, max_size=25))
def test_sharded_save_reopen_bit_identical(tmp_path_factory, rows):
    directory = tmp_path_factory.mktemp("sharded") / "store"
    source = ShardedBackend(3)
    for head, relation, tail in rows:
        source.add(head, relation, tail)
    TripleStore(backend=source).save(directory)
    reopened = TripleStore.open(directory).backend
    assert type(reopened) is ColumnarBackend
    assert reopened.entity_interner.symbols() == source.entity_interner.symbols()
    _assert_query_parity(source, reopened, rows)


def test_saving_a_sharded_store_keeps_every_symbol_id_and_match_ids_row(tmp_path):
    """``TripleStore.save`` of a ``ShardedBackend(3)`` writes its own
    interners: the reopened store numbers every symbol as the source
    did (including one no triple uses any more), and every id pattern
    answers the same rows — in the same order for a head-bound one,
    which is what a shard answers."""
    source = ShardedBackend(3)
    source.add_many(triples_from_tuples(
        [(f"h{index % 11}", f"r{index % 3}", f"t{index % 7}")
         for index in range(60)] + [("gone", "r0", "t0")]))
    assert source.discard("gone", "r0", "t0")
    reopened = TripleStore.open(
        TripleStore(backend=source).save(tmp_path / "store")).backend
    assert reopened.entity_interner.symbols() == source.entity_interner.symbols()
    assert reopened.relation_interner.symbols() \
        == source.relation_interner.symbols()
    for head_id in range(len(source.entity_interner)):
        for relation_id in (None, 1):
            np.testing.assert_array_equal(
                reopened.match_ids(head_id, relation_id, None),
                source.match_ids(head_id, relation_id, None))
    for pattern in [(None, None, None), (None, 2, None), (None, None, 3)]:
        assert sorted(reopened.match_ids(*pattern).tolist()) \
            == sorted(source.match_ids(*pattern).tolist())


def test_sharded_layout_on_disk(tmp_path):
    """There is no sharded layout: a sharded store saves as one columnar
    directory with its interner tables inline and no shard directories —
    byte for byte what a columnar store of the same triples writes."""
    rows = triples_from_tuples(
        [(f"h{index}", "r", f"t{index}") for index in range(20)])
    backend = ShardedBackend(2, max_workers=4)
    backend.add_many(rows)
    directory = TripleStore(backend=backend).save(tmp_path / "store")
    header = load_header(directory)
    assert header["magic"] == MAGIC and header["version"] == FORMAT_VERSION
    assert header["num_triples"] == 20
    assert (directory / "entities.blob.utf8").is_file()
    assert (directory / "relations.offsets.i64").is_file()
    assert not any(path.is_dir() for path in directory.iterdir())
    columnar = TripleStore(rows).save(tmp_path / "columnar")
    assert {path.name: path.read_bytes() for path in directory.iterdir()} \
        == {path.name: path.read_bytes() for path in columnar.iterdir()}


def test_store_facade_dispatches_sharded_directories(tmp_path):
    triples = triples_from_tuples([("a", "r", "b"), ("c", "s", "d")])
    directory = tmp_path / "store"
    TripleStore(triples, backend=ShardedBackend(2)).save(directory)
    reopened = TripleStore.open(directory)
    assert reopened.backend_name == "columnar"
    assert reopened.triples() == sorted(triples)
    assert read_store_dir(directory).triples() == sorted(triples)
    # write_store_dir through a sharded store writes the one format too.
    write_store_dir(TripleStore(triples, backend=ShardedBackend(2)),
                    tmp_path / "again")
    assert load_header(tmp_path / "again")["num_triples"] == 2


def test_sharded_mutate_after_open_then_resave(tmp_path):
    directory = tmp_path / "store"
    source = ShardedBackend(3)
    rows = [(f"h{index}", "r", f"t{index}") for index in range(15)]
    for row in rows:
        source.add(*row)
    TripleStore(backend=source).save(directory)
    opened = TripleStore.open(directory)
    assert opened.add(Triple("brand-new", "r", "x"))
    assert opened.discard(Triple(*rows[0]))
    opened.save(directory)  # resave over its own mapped files
    reloaded = TripleStore.open(directory)
    assert reloaded.triples() == opened.triples()
    assert Triple("brand-new", "r", "x") in reloaded
    assert Triple(*rows[0]) not in reloaded


def test_zero_triple_sharded_store_roundtrip(tmp_path):
    """Regression: zero triples → zero-byte array files must still open."""
    directory = tmp_path / "empty"
    TripleStore(backend=ShardedBackend(4)).save(directory)
    reopened = TripleStore.open(directory)
    assert reopened.backend_name == "columnar"
    assert len(reopened) == 0 and reopened.match() == []
    assert reopened.add(Triple("a", "r", "b"))


# --------------------------------------------------------------------------- #
# error paths
# --------------------------------------------------------------------------- #
@pytest.fixture()
def saved_sharded(tmp_path):
    backend = ShardedBackend(3)
    for index in range(24):
        backend.add(f"h{index}", "r", f"t{index}")
    return TripleStore(backend=backend).save(tmp_path / "store")


def test_open_missing_sharded_directory_raises(tmp_path):
    with pytest.raises(StorageError, match="missing header.json"):
        TripleStore.open(tmp_path / "nowhere")


def test_open_corrupt_shard_raises(saved_sharded):
    path = saved_sharded / "triples.i64"
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(StorageError, match="truncated or corrupt"):
        TripleStore.open(saved_sharded)


def test_open_missing_shard_directory_raises(saved_sharded):
    (saved_sharded / "perm_spo.i64").unlink()
    with pytest.raises(StorageError, match="missing array file perm_spo"):
        TripleStore.open(saved_sharded)


def test_open_sharded_version_mismatch_raises(saved_sharded):
    header = json.loads((saved_sharded / HEADER_FILE).read_text())
    header["version"] = FORMAT_VERSION + 1
    (saved_sharded / HEADER_FILE).write_text(json.dumps(header))
    with pytest.raises(StorageError, match="version mismatch"):
        TripleStore.open(saved_sharded)


def test_open_single_store_as_sharded_raises(saved_sharded):
    """A directory whose header says ``repro-kg-sharded`` is refused on
    every open path, and the error names the fix."""
    header = json.loads((saved_sharded / HEADER_FILE).read_text())
    header["magic"] = "repro-kg-sharded"
    (saved_sharded / HEADER_FILE).write_text(json.dumps(header))
    for opener in (TripleStore.open, ColumnarBackend.open, read_store_dir):
        with pytest.raises(StorageError, match="re-run shard-split"):
            opener(saved_sharded)


def test_open_shard_directly_raises(tmp_path):
    """A shard directory inside an old sharded snapshot has no interner
    tables of its own — opening it alone must fail."""
    shutil.copytree(OLD_SPLIT, tmp_path / "split")
    with pytest.raises(StorageError, match="entity_blob_bytes"):
        ColumnarBackend.open(tmp_path / "split" / "shard-0" / "snap-000000"
                             / "shard-0")


def test_interrupted_sharded_save_leaves_no_valid_header(saved_sharded, monkeypatch):
    backend = ShardedBackend(3)
    backend.add("extra", "r", "x")

    import repro.kg.mmap_backend as module

    def crash(*args, **kwargs):
        raise RuntimeError("simulated crash mid-save")

    monkeypatch.setattr(module, "write_interner_pair", crash)
    with pytest.raises(RuntimeError, match="simulated crash"):
        TripleStore(backend=backend).save(saved_sharded)
    with pytest.raises(StorageError, match="missing header.json"):
        TripleStore.open(saved_sharded)
