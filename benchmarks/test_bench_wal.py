"""The WAL write path: acks, replay, compaction and small writes.

Four workloads over a live store directory:

* **acked writes** — batches acked through the full log-then-apply
  path, fsync on and off, then recovered by a reopen.  The fsync-off
  ack rate is printed (advisory; no ``bench/`` workload prices it yet);
  ``bench/``'s ``mixed_write_read`` prices fsync'd acks end to end.
* **replay** — ``TripleStore.open`` on a live directory whose WAL holds
  100k batches.  Replay coalesces maximal same-op runs into bulk
  backend loads, so this is one vectorized pass, not 100k round-trips
  (its time is printed, not asserted).
* **recovery after compaction** — the same content reopened after
  ``compact()`` folded the log into a fresh snapshot.
* **small acked write vs base size** — ``add16``, ``remove16`` and the
  first ``match_ids_many`` after each, on live columnar stores (what a
  ``shard_split`` shard serves) of 20 k and 200 k rows.  A small write goes through the delta overlay and the
  read after it merges the overlay, so none of the three may touch the
  base.

Acceptance bars, **counted, not timed**:

* recovered content is identical before and after every reopen (a bench
  that loses rows is measuring the wrong thing);
* the reopen before compaction replays all 100k batches, the reopen
  after it replays none and rebuilds no index (the reason
  ``repro compact`` exists);
* at both base sizes, every ``add16``, ``remove16`` and first read
  leaves the shard's ``rebuild_count`` and its base column arrays (the
  same objects) untouched: no write or read pays an O(store) rebuild.
"""

from __future__ import annotations

import time
from pathlib import Path

import repro.kg.store
from repro.kg.mmap_backend import BASE_FILES
from repro.kg.store import TripleStore
from repro.kg.triple import Triple

WRITE_BATCHES = 400
BATCH_SIZE = 16
REPLAY_BATCHES = 100_000
BASE_SIZES = (20_000, 200_000)
#: 25 rounds x (16 adds + 16 base deletions) = 800 overlay rows: below the
#: default ``delta_threshold``, so no round pays a consolidation.
SMALL_WRITE_ROUNDS = 25


def _batch(index: int, size: int = BATCH_SIZE):
    return [Triple(f"entity:{index}:{slot}", "observedWith",
                   f"sensor:{index % 64}") for slot in range(size)]


def _write_batches(directory: Path, *, fsync: bool) -> float:
    """Ack WRITE_BATCHES batches into a new live store; returns seconds."""
    store = TripleStore.create_live(directory, wal_fsync=fsync)
    start = time.perf_counter()
    for index in range(WRITE_BATCHES):
        store.add_many(_batch(index))
    elapsed = time.perf_counter() - start
    store.close()
    return elapsed


def test_acked_write_throughput(tmp_path):
    _write_batches(tmp_path / "fsync-on", fsync=True)
    buffered = _write_batches(tmp_path / "fsync-off", fsync=False)
    print(f"\n{WRITE_BATCHES} acked {BATCH_SIZE}-triple batches, fsync off: "
          f"{WRITE_BATCHES / buffered:,.0f} batches/s (advisory)")
    for directory in (tmp_path / "fsync-on", tmp_path / "fsync-off"):
        reopened = TripleStore.open(directory)
        assert len(reopened) == WRITE_BATCHES * BATCH_SIZE, directory
        reopened.close()


def test_replay_and_recovery_after_compaction(tmp_path, monkeypatch):
    # Count the batches every open replays: replay folds them through
    # ``coalesced_ops``.
    replayed_batches = []
    coalesce = repro.kg.store.coalesced_ops

    def counted_ops(batches):
        replayed_batches.append(len(batches))
        return coalesce(batches)

    monkeypatch.setattr(repro.kg.store, "coalesced_ops", counted_ops)

    directory = tmp_path / "live"
    store = TripleStore.create_live(directory, wal_fsync=False)
    for index in range(REPLAY_BATCHES):
        store.add(Triple(f"entity:{index % 20_000}", "observedWith",
                         f"sensor:{index % 64}"))
    expected = len(store)
    store.close()

    replay_start = time.perf_counter()
    replayed = TripleStore.open(directory, wal_fsync=False)
    replay_seconds = time.perf_counter() - replay_start
    assert len(replayed) == expected
    assert replayed.wal.next_seq == REPLAY_BATCHES + 1
    replayed.compact()
    replayed.close()

    compacted = TripleStore.open(directory)
    rows = compacted.count(relation="observedWith")
    rebuilds = compacted.backend.rebuild_count
    print(f"\nreplay of {REPLAY_BATCHES} WAL batches ({expected} triples): "
          f"{replay_seconds:.3f}s (advisory); batches replayed per open "
          f"{replayed_batches}, rebuilds after the compacted reopen "
          f"{rebuilds}")
    # create_live's own open replays an empty log; then the log, then
    # nothing: compaction folded every batch into the snapshot.
    assert replayed_batches == [0, REPLAY_BATCHES, 0], replayed_batches
    assert rebuilds == 0, (
        f"the compacted reopen rebuilt its index {rebuilds} time(s); "
        f"it must serve the mapped snapshot as written")
    assert rows == len(compacted) == expected
    assert compacted.live_generation == 1
    assert compacted.wal.next_seq == 1  # the log was folded away
    compacted.close()


def _base_arrays(shard) -> list:
    """The shard's base column arrays."""
    return [getattr(shard, attr) for attr in BASE_FILES.values()]


def _small_writes_keep_the_base(directory: Path, rows: int) -> int:
    """add16 / remove16 / the first id read after each, SMALL_WRITE_ROUNDS
    times; returns after how many of those steps the shard's base was no
    longer the one the first read attached."""
    base = [Triple(f"entity:{index // 4}", f"relation:{index % 4}",
                   f"sensor:{index % 64}") for index in range(rows)]
    store = TripleStore.create_live(directory, base, wal_fsync=False)
    backend = shard = store.backend
    heads = rows // 4
    probed = {f"entity:{head}" for head in range(0, heads, heads // 64)}
    probes = [(backend.entity_interner.lookup(head), None, None)
              for head in probed]
    backend.match_ids_many(probes)  # attach the mapped base first
    rebuilds, attached = shard.rebuild_count, _base_arrays(shard)
    changed = 0

    def step(call):
        nonlocal changed
        result = call()
        changed += shard.rebuild_count != rebuilds or any(
            now is not then
            for now, then in zip(_base_arrays(shard), attached))
        return result

    for index in range(SMALL_WRITE_ROUNDS):
        victims = base[index * BATCH_SIZE:(index + 1) * BATCH_SIZE]
        assert step(lambda: store.add_many(_batch(index))) == BATCH_SIZE
        step(lambda: backend.match_ids_many(probes))
        assert step(lambda: store.remove_many(victims)) == BATCH_SIZE
        blocks = step(lambda: backend.match_ids_many(probes))
    removed = base[:SMALL_WRITE_ROUNDS * BATCH_SIZE]
    assert sum(len(block) for block in blocks) \
        == 4 * len(probes) - sum(triple.head in probed for triple in removed)
    assert len(store) == rows
    store.close()
    return changed


def test_small_acked_write_cost_is_independent_of_base_size(tmp_path):
    changed = {rows: _small_writes_keep_the_base(tmp_path / str(rows), rows)
               for rows in BASE_SIZES}
    assert not any(changed.values()), (
        f"a 16-row write and the read after it must not rebuild the base "
        f"(steps of {4 * SMALL_WRITE_ROUNDS} after which it was rebuilt or "
        f"replaced, by base size: {changed})")
