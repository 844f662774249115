"""Micro-benchmark — the WAL write path: ack cost, replay, compaction.

Three workloads over a live store directory:

* **acked-write throughput** — batches acked through the full
  log-then-apply path, fsync on vs off.  The gap prices the durability
  guarantee itself (an ack means the bytes reached the platter, or at
  least the kernel's best story about one).
* **replay time** — ``TripleStore.open`` on a live directory whose WAL
  holds 100k batches.  Replay coalesces maximal same-op runs into bulk
  backend loads, so this is one vectorized pass, not 100k round-trips.
* **recovery after compaction** — the same content reopened after
  ``compact()`` folded the log into a fresh snapshot: open time drops
  to snapshot-mmap cost because the WAL is empty again.

* **small acked write vs base size** — ``add16``, ``remove16`` and the
  first ``match_ids_many`` after each, on live sharded-1 stores of 20 k
  and 200 k rows (fsync off: its cost does not depend on the base and
  would only pull the ratios towards 1).  A small write goes through
  the delta overlay and the read after it merges the overlay, so none
  of the three may grow with the base.

Acceptance bars:

* recovered content is identical before and after every reopen (a bench
  that loses rows is measuring the wrong thing);
* compaction makes reopen strictly cheaper than replaying the 100k-batch
  log (the reason ``repro compact`` exists);
* each small-write cost at 200 k rows is at most 3× its cost at 20 k (a
  ratio, so machine speed cancels; an O(store) add path reads ≈ 10×).

Throughput numbers are advisory — fsync cost is hardware truth, not a
CI bar.  Results persist into ``BENCH_wal.json`` via :mod:`_artifacts`.
"""

from __future__ import annotations

import time
from pathlib import Path
from statistics import median

from _artifacts import update_artifact
from repro.kg.sharded_backend import ShardedBackend
from repro.kg.store import TripleStore
from repro.kg.triple import Triple

WRITE_BATCHES = 400
BATCH_SIZE = 16
REPLAY_BATCHES = 100_000
BASE_SIZES = (20_000, 200_000)
#: 25 rounds x (16 adds + 16 base deletions) = 800 overlay rows: below the
#: default ``delta_threshold``, so no round pays a consolidation.
SMALL_WRITE_ROUNDS = 25
MAX_BASE_SIZE_RATIO = 3.0


def _batch(index: int, size: int = BATCH_SIZE):
    return [Triple(f"entity:{index}:{slot}", "observedWith",
                   f"sensor:{index % 64}") for slot in range(size)]


def _timed_writes(directory: Path, *, fsync: bool) -> dict:
    store = TripleStore.create_live(directory, wal_fsync=fsync)
    start = time.perf_counter()
    for index in range(WRITE_BATCHES):
        store.add_many(_batch(index))
    elapsed = time.perf_counter() - start
    count = len(store)
    store.close()
    return {
        "batches": WRITE_BATCHES,
        "batch_size": BATCH_SIZE,
        "seconds": round(elapsed, 4),
        "acked_batches_per_s": round(WRITE_BATCHES / elapsed, 1),
        "triples_per_s": round(count / elapsed, 1),
    }


def test_acked_write_throughput(tmp_path):
    durable = _timed_writes(tmp_path / "fsync-on", fsync=True)
    buffered = _timed_writes(tmp_path / "fsync-off", fsync=False)
    for directory, flavor in ((tmp_path / "fsync-on", durable),
                              (tmp_path / "fsync-off", buffered)):
        reopened = TripleStore.open(directory)
        assert len(reopened) == WRITE_BATCHES * BATCH_SIZE, flavor
        reopened.close()
    update_artifact("wal", "acked_write_throughput", {
        "fsync_on": durable,
        "fsync_off": buffered,
        "fsync_cost_x": round(durable["seconds"] / buffered["seconds"], 2),
    })


def test_replay_and_recovery_after_compaction(tmp_path):
    directory = tmp_path / "live"
    store = TripleStore.create_live(directory, wal_fsync=False)
    build_start = time.perf_counter()
    for index in range(REPLAY_BATCHES):
        store.add(Triple(f"entity:{index % 20_000}", "observedWith",
                         f"sensor:{index % 64}"))
    build_seconds = time.perf_counter() - build_start
    expected = len(store)
    store.close()

    replay_start = time.perf_counter()
    replayed = TripleStore.open(directory, wal_fsync=False)
    replay_seconds = time.perf_counter() - replay_start
    assert len(replayed) == expected
    assert replayed.wal.next_seq == REPLAY_BATCHES + 1

    compact_start = time.perf_counter()
    replayed.compact()
    compact_seconds = time.perf_counter() - compact_start
    replayed.close()

    reopen_start = time.perf_counter()
    compacted = TripleStore.open(directory)
    reopen_seconds = time.perf_counter() - reopen_start
    assert len(compacted) == expected
    assert compacted.live_generation == 1
    assert compacted.wal.next_seq == 1  # the log was folded away
    compacted.close()

    table = {
        "wal_batches": REPLAY_BATCHES,
        "triples": expected,
        "log_build_s": round(build_seconds, 3),
        "replay_open_s": round(replay_seconds, 3),
        "replay_batches_per_s": round(REPLAY_BATCHES / replay_seconds, 1),
        "compact_s": round(compact_seconds, 3),
        "reopen_after_compact_s": round(reopen_seconds, 3),
        "compaction_open_speedup_x": round(
            replay_seconds / max(reopen_seconds, 1e-9), 2),
    }
    update_artifact("wal", "replay_and_compaction", table)
    assert reopen_seconds < replay_seconds, (
        f"compaction must make reopen cheaper than a 100k-batch replay:\n"
        f"{table}")


def _small_write_costs(directory: Path, rows: int) -> dict:
    """Median ms of add16 / remove16 / the first id read after each."""
    base = [Triple(f"entity:{index // 4}", f"relation:{index % 4}",
                   f"sensor:{index % 64}") for index in range(rows)]
    store = TripleStore.create_live(directory, base,
                                    backend=ShardedBackend(1), wal_fsync=False)
    backend = store.backend
    heads = rows // 4
    probed = {f"entity:{head}" for head in range(0, heads, heads // 64)}
    probes = [(backend.entity_interner.lookup(head), None, None)
              for head in probed]
    backend.match_ids_many(probes)  # attach the mapped base before timing
    samples = {"add16_ms": [], "remove16_ms": [], "first_read_ms": []}

    def timed(name, call):
        start = time.perf_counter()
        result = call()
        samples[name].append((time.perf_counter() - start) * 1e3)
        return result

    for index in range(SMALL_WRITE_ROUNDS):
        victims = base[index * BATCH_SIZE:(index + 1) * BATCH_SIZE]
        assert timed("add16_ms", lambda: store.add_many(_batch(index))) \
            == BATCH_SIZE
        timed("first_read_ms", lambda: backend.match_ids_many(probes))
        assert timed("remove16_ms", lambda: store.remove_many(victims)) \
            == BATCH_SIZE
        blocks = timed("first_read_ms", lambda: backend.match_ids_many(probes))
    removed = base[:SMALL_WRITE_ROUNDS * BATCH_SIZE]
    assert sum(len(block) for block in blocks) \
        == 4 * len(probes) - sum(triple.head in probed for triple in removed)
    assert len(store) == rows
    store.close()
    return {name: round(median(values), 4) for name, values in samples.items()}


def test_small_acked_write_cost_is_independent_of_base_size(tmp_path):
    table = {f"{rows // 1000}k_rows": _small_write_costs(tmp_path / str(rows), rows)
             for rows in BASE_SIZES}
    small, large = table.values()
    table["ratio_200k_over_20k"] = {
        name: round(large[name] / small[name], 2) for name in small}
    update_artifact("wal", "small_acked_write_vs_base_size", table)
    assert max(table["ratio_200k_over_20k"].values()) <= MAX_BASE_SIZE_RATIO, (
        f"a 16-row write and the read after it must not cost O(store) "
        f"(ratio 200k / 20k rows <= {MAX_BASE_SIZE_RATIO}):\n{table}")
