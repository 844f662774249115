"""Crash/recovery fault injection for the WAL-backed live write path.

The durability claim under test: a batch whose ack was observed is
recovered bit-identically by ``TripleStore.open``, for **any** kill
point — the WAL truncated or corrupted at every interesting byte offset
(mid-length-prefix, mid-checksum, mid-payload, record boundaries), and
a simulated kill at every stage of the compaction state machine.  Every
recovery is checked against an oracle that replays the same acked-batch
prefix on a plain in-memory store.

The ``base`` fixture runs the sweeps across all three snapshot bases
(columnar, a columnar store reopened with its base mapped, and a
``ShardedBackend``-built store saved in the one columnar format); CI's
WAL fault-injection matrix keys off its ``*-base`` ids.
"""

from __future__ import annotations

import errno
import os
import shutil
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import List, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _oracle import mapped_backend
from repro.errors import StorageError
from repro.kg import Triple, TripleStore
from repro.kg.backend import ColumnarBackend
from repro.kg.service import QueryService
from repro.kg.sharded_backend import ShardedBackend
from repro.kg.protocol import decode_snapshot_chunk
from repro.kg.wal import (
    HEADER_BYTES,
    OP_ADD,
    OP_REMOVE,
    WriteAheadLog,
    encode_batch,
    is_live_store,
    scan_records,
    scan_wal,
    wal_file_name,
)

#: Small symbol pools keep add/remove collisions (the non-idempotent
#: interleavings replay must get right) likely.
ENTITIES = [f"e{i}" for i in range(6)]
RELATIONS = ["r0", "r1"]

#: Triples present before any logged batch (they live in the snapshot).
SEED_ROWS = [("e0", "r0", "e1"), ("e1", "r1", "e2")]

Script = List[Tuple[int, List[Tuple[str, str, str]]]]

_row = st.tuples(st.sampled_from(ENTITIES), st.sampled_from(RELATIONS),
                 st.sampled_from(ENTITIES))
_batch = st.tuples(st.sampled_from([OP_ADD, OP_REMOVE]),
                   st.lists(_row, min_size=1, max_size=4))
_script = st.lists(_batch, min_size=1, max_size=6)


@pytest.fixture(params=["columnar-base", "mmap-base", "sharded-base"])
def base(request):
    """Snapshot-base flavor; the id is what CI's matrix ``-k`` selects."""
    return request.param.split("-")[0]


def _make_backend(base: str):
    if base == "mmap":
        return mapped_backend()
    if base == "sharded":
        return ShardedBackend(n_shards=2, max_workers=2)
    return "columnar"


def _oracle(script_prefix: Script) -> List[Triple]:
    """Replay a batch prefix over the seed rows with plain set semantics."""
    state = {tuple(row) for row in SEED_ROWS}
    for op, rows in script_prefix:
        if op == OP_ADD:
            state.update(tuple(row) for row in rows)
        else:
            state.difference_update(tuple(row) for row in rows)
    return sorted(Triple(*row) for row in state)


def _apply_script(store: TripleStore, script: Script) -> None:
    for op, rows in script:
        triples = [Triple(*row) for row in rows]
        if op == OP_ADD:
            store.add_many(triples)
        else:
            store.remove_many(triples)


def _build_live(directory: Path, base: str, script: Script) -> Path:
    """A live store with SEED_ROWS in the snapshot and ``script`` WAL'd.
    Whatever the base was built on, the snapshot is the one columnar
    format."""
    store = TripleStore.create_live(
        directory, [Triple(*row) for row in SEED_ROWS],
        backend=_make_backend(base), wal_fsync=False)
    assert type(store.backend) is ColumnarBackend
    try:
        _apply_script(store, script)
    finally:
        store.close()
    return directory


def _interesting_offsets(wal_path: Path) -> List[Tuple[int, int]]:
    """``(kill_offset, recovered_batches)`` pairs covering every record.

    Per record: mid-length-prefix, mid-checksum, mid-payload, one byte
    short of the boundary, and the clean boundary itself.
    """
    scan = scan_wal(wal_path)
    assert not scan.damaged
    # Record k spans (start_k, end_k]; start_0 is the header end.
    boundary = [batch.end_offset for batch in scan.batches]
    first_start = _header_size(wal_path)
    record_starts = [first_start] + boundary[:-1]
    offsets: List[Tuple[int, int]] = [(first_start, 0)]
    for index, (start, end) in enumerate(zip(record_starts, boundary)):
        offsets.extend([
            (start + 1, index),             # mid length prefix
            (start + 5, index),             # mid checksum
            ((start + 8 + end) // 2, index),  # mid payload
            (end - 1, index),               # one byte short
            (end, index + 1),               # clean record boundary
        ])
    return sorted(set(offsets))


def _header_size(wal_path: Path) -> int:
    """The WAL header size, derived (not hardcoded) from an empty log."""
    with tempfile.TemporaryDirectory() as scratch:
        empty = Path(scratch) / "empty.log"
        WriteAheadLog.create(empty, generation=0, fsync=False).close()
        return scan_wal(empty).valid_bytes


def _wait_until(predicate, timeout=5.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


def _assert_recovers(directory: Path, expected: List[Triple]) -> None:
    recovered = TripleStore.open(directory)
    try:
        assert recovered.triples() == expected
        # Bit-identical query results against the oracle, not just the
        # same triple set: exercise the pattern surface replay feeds.
        oracle = TripleStore(expected)
        for relation in RELATIONS:
            assert recovered.match(None, relation, None, sort=True) \
                == oracle.match(None, relation, None, sort=True)
    finally:
        recovered.close()


# --------------------------------------------------------------------- #
# crash-recovery property: truncation at every interesting offset
# --------------------------------------------------------------------- #
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(script=_script)
def test_truncation_recovers_exact_acked_prefix(base, script):
    """Any torn-write kill point recovers exactly the acked prefix."""
    root = Path(tempfile.mkdtemp())
    try:
        directory = _build_live(root / "store", base, script)
        wal_path = directory / wal_file_name(0)
        full = wal_path.read_bytes()
        for offset, recovered_batches in _interesting_offsets(wal_path):
            wal_path.write_bytes(full[:offset])
            _assert_recovers(directory, _oracle(script[:recovered_batches]))
    finally:
        shutil.rmtree(root, ignore_errors=True)


def test_recovered_store_keeps_accepting_writes(base, tmp_path):
    """After truncation recovery the log heals: new writes append and
    survive another reopen."""
    script = [(OP_ADD, [("e3", "r0", "e4")]), (OP_ADD, [("e4", "r0", "e5")])]
    directory = _build_live(tmp_path / "store", base, script)
    wal_path = directory / wal_file_name(0)
    full = wal_path.read_bytes()
    wal_path.write_bytes(full[:-3])  # tear the last record
    healed = TripleStore.open(directory)
    try:
        assert healed.triples() == _oracle(script[:1])
        healed.add_many([Triple("e5", "r1", "e0")])
    finally:
        healed.close()
    expected = _oracle(script[:1] + [(OP_ADD, [("e5", "r1", "e0")])])
    _assert_recovers(directory, expected)


# --------------------------------------------------------------------- #
# corruption sweep: a flipped byte anywhere, exact-prefix recovery
# --------------------------------------------------------------------- #
def test_corruption_sweep_recovers_exact_prefix(base, tmp_path):
    """One flipped byte at EVERY file offset: the checksum fences the
    damaged record off and recovery stops exactly there."""
    script: Script = [
        (OP_ADD, [("e3", "r0", "e4"), ("e4", "r0", "e5")]),
        (OP_REMOVE, [("e0", "r0", "e1")]),
        (OP_ADD, [("e0", "r0", "e1")]),  # re-add: ordering must survive
    ]
    directory = _build_live(tmp_path / "store", base, script)
    wal_path = directory / wal_file_name(0)
    full = bytearray(wal_path.read_bytes())
    header = _header_size(wal_path)
    boundary = [batch.end_offset for batch in scan_wal(wal_path).batches]
    for offset in range(len(full)):
        damaged = bytearray(full)
        damaged[offset] ^= 0xFF
        wal_path.write_bytes(bytes(damaged))
        if offset < header:
            with pytest.raises(StorageError):
                TripleStore.open(directory)
            continue
        # The record containing the flipped byte is the first casualty.
        recovered_batches = sum(1 for end in boundary if end <= offset)
        _assert_recovers(directory, _oracle(script[:recovered_batches]))
    wal_path.write_bytes(bytes(full))
    _assert_recovers(directory, _oracle(script))


def test_sequence_gap_ends_replay(tmp_path):
    """A checksum-valid record with the wrong seq is not replayed — the
    log is a strict prefix, never a sparse one."""
    directory = _build_live(tmp_path / "store", "columnar",
                            [(OP_ADD, [("e3", "r0", "e4")])])
    wal_path = directory / wal_file_name(0)
    with open(wal_path, "ab") as handle:
        handle.write(encode_batch(7, OP_ADD, [("e5", "r0", "e5")]))
    _assert_recovers(directory, _oracle([(OP_ADD, [("e3", "r0", "e4")])]))


def test_wal_header_damage_is_a_storage_error(tmp_path):
    directory = _build_live(tmp_path / "store", "columnar",
                            [(OP_ADD, [("e3", "r0", "e4")])])
    wal_path = directory / wal_file_name(0)
    wal_path.write_bytes(wal_path.read_bytes()[:5])
    with pytest.raises(StorageError):
        TripleStore.open(directory)


def test_garbage_live_pointer_is_a_storage_error(tmp_path):
    directory = _build_live(tmp_path / "store", "columnar", [])
    (directory / "live.json").write_text("{not json")
    with pytest.raises(StorageError):
        TripleStore.open(directory)
    (directory / "live.json").write_text('{"magic": "wrong"}')
    with pytest.raises(StorageError):
        TripleStore.open(directory)


def test_wal_generation_mismatch_refuses_replay(tmp_path):
    """A WAL from another generation must never replay over the wrong
    snapshot (that is the double-apply hazard the layout rules out)."""
    directory = _build_live(tmp_path / "store", "columnar", [])
    wal_path = directory / wal_file_name(0)
    wal_path.unlink()
    WriteAheadLog.create(wal_path, generation=3, fsync=False).close()
    with pytest.raises(StorageError):
        TripleStore.open(directory)


# --------------------------------------------------------------------- #
# compaction state machine under simulated kills
# --------------------------------------------------------------------- #
class SimulatedCrash(RuntimeError):
    """Raised by the crash hook to kill compaction at a chosen stage."""


def _crash_at(stage: str):
    def hook(reached: str) -> None:
        if reached == stage:
            raise SimulatedCrash(stage)
    return hook


@pytest.mark.parametrize("stage", ["snapshot", "wal", "commit"])
def test_compact_killed_at_every_stage_recovers(base, tmp_path, stage):
    """A kill at any compaction stage loses nothing and re-applies
    nothing: before the pointer flip the old (snapshot, WAL) pair wins,
    after it the new pair does."""
    script: Script = [
        (OP_ADD, [("e3", "r0", "e4"), ("e5", "r1", "e0")]),
        (OP_REMOVE, [("e0", "r0", "e1")]),
    ]
    directory = _build_live(tmp_path / "store", base, script)
    store = TripleStore.open(directory, wal_fsync=False)
    try:
        with pytest.raises(SimulatedCrash):
            store.compact(crash_hook=_crash_at(stage))
    finally:
        store.close()
    expected = _oracle(script)
    _assert_recovers(directory, expected)
    # The survivor generation must also keep taking (recoverable) writes.
    survivor = TripleStore.open(directory, wal_fsync=False)
    try:
        survivor.add_many([Triple("e2", "r1", "e3")])
    finally:
        survivor.close()
    _assert_recovers(directory, _oracle(
        script + [(OP_ADD, [("e2", "r1", "e3")])]))


def test_compact_folds_log_and_truncates(base, tmp_path):
    """The happy path: one generation on disk afterwards, an empty WAL,
    identical content."""
    script: Script = [(OP_ADD, [("e3", "r0", "e4")]),
                      (OP_REMOVE, [("e0", "r0", "e1")])]
    directory = _build_live(tmp_path / "store", base, script)
    store = TripleStore.open(directory, wal_fsync=False)
    try:
        assert store.compact() == 1
        assert store.live_generation == 1
    finally:
        store.close()
    names = sorted(path.name for path in directory.iterdir())
    assert names == ["live.json", "snap-000001", "wal-000001.log"]
    assert scan_wal(directory / wal_file_name(1)).batches == []
    _assert_recovers(directory, _oracle(script))


def test_compact_requires_live_store(tmp_path):
    snapshot = tmp_path / "snapshot"
    TripleStore([Triple("e0", "r0", "e1")]).save(snapshot)
    opened = TripleStore.open(snapshot)
    assert not opened.writable
    with pytest.raises(StorageError):
        opened.compact()
    with pytest.raises(StorageError):
        TripleStore([]).compact()  # in-memory: writable but not durable


def test_save_live_refuses_to_clobber_live_store(tmp_path):
    directory = _build_live(tmp_path / "store", "columnar", [])
    assert is_live_store(directory)
    with pytest.raises(StorageError):
        TripleStore([]).save_live(directory)


# --------------------------------------------------------------------- #
# compaction racing live writes through the service
# --------------------------------------------------------------------- #
def _service_writer(service: QueryService, worker: int, batches: int,
                    failures: List[BaseException]) -> None:
    try:
        for index in range(batches):
            service.add_many([Triple(f"w{worker}b{index}t{i}", "r0", "e0")
                              for i in range(3)])
    except BaseException as exc:  # pragma: no cover - failure reporting
        failures.append(exc)


def test_compact_races_live_writes(base, tmp_path):
    """compact() interleaved with concurrent writers: every acked batch
    survives the compaction AND the reopen."""
    directory = tmp_path / "store"
    store = TripleStore.create_live(
        directory, [Triple(*row) for row in SEED_ROWS],
        backend=_make_backend(base), wal_fsync=False)
    failures: List[BaseException] = []
    with QueryService(store, max_batch=8) as service:
        writers = [threading.Thread(target=_service_writer,
                                    args=(service, worker, 10, failures))
                   for worker in range(4)]
        for thread in writers:
            thread.start()
        generations = [service.compact(), service.compact()]
        for thread in writers:
            thread.join()
        assert not failures
        assert generations == [1, 2]
        assert service.stats["mutation_epoch"] == 40
    store.close()
    expected = sorted(
        [Triple(*row) for row in SEED_ROWS]
        + [Triple(f"w{worker}b{index}t{i}", "r0", "e0")
           for worker in range(4) for index in range(10) for i in range(3)])
    _assert_recovers(directory, expected)


def test_compact_kill_between_snapshot_and_truncate_under_load(base,
                                                               tmp_path):
    """The satellite case verbatim: compaction dies between writing the
    new snapshot and truncating the WAL (= the pointer flip that
    retires it), while writers keep streaming.  No acked write may be
    lost, nothing double-applied."""
    directory = tmp_path / "store"
    store = TripleStore.create_live(directory, [],
                                    backend=_make_backend(base),
                                    wal_fsync=False)
    failures: List[BaseException] = []
    with QueryService(store, max_batch=8) as service:
        writers = [threading.Thread(target=_service_writer,
                                    args=(service, worker, 8, failures))
                   for worker in range(3)]
        for thread in writers:
            thread.start()
        with pytest.raises(SimulatedCrash):
            service.compact(crash_hook=_crash_at("wal"))
        # The service survives the failed compaction and keeps writing.
        service.add_many([Triple("after-crash", "r1", "e0")])
        for thread in writers:
            thread.join()
        assert not failures
    store.close()
    expected = sorted(
        [Triple("after-crash", "r1", "e0")]
        + [Triple(f"w{worker}b{index}t{i}", "r0", "e0")
           for worker in range(3) for index in range(8) for i in range(3)])
    _assert_recovers(directory, expected)


# --------------------------------------------------------------------- #
# service epoch/read consistency (local; the wire variant lives in
# test_kg_server.py)
# --------------------------------------------------------------------- #
def test_service_reads_never_see_half_a_batch(tmp_path):
    """Concurrent readers observe each write batch all-or-nothing."""
    store = TripleStore.create_live(tmp_path / "store", [], wal_fsync=False)
    violations: List[str] = []
    stop = threading.Event()
    batch_size = 5

    with QueryService(store, max_batch=16) as service:
        def reader() -> None:
            while not stop.is_set():
                rows = service.lookup_many([(None, "member", None)])[0]
                sizes = {}
                for triple in rows:
                    sizes[triple.tail] = sizes.get(triple.tail, 0) + 1
                for marker, count in sizes.items():
                    if count != batch_size:
                        violations.append(f"{marker}: saw {count} rows")

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        for index in range(40):
            service.add_many([Triple(f"item{index}:{i}", "member",
                                     f"batch{index}")
                              for i in range(batch_size)])
        stop.set()
        for thread in threads:
            thread.join()
    store.close()
    assert not violations


# --------------------------------------------------------------------- #
# torn WAL tails over the wire: the WAL chunks ship exactly the acked prefix
# --------------------------------------------------------------------- #
def _wal_chunk(client, offset: int, generation: int = 0) -> dict:
    """One ``snapshot_ship`` chunk of the leader's ``wal-G.log``."""
    return client.call("snapshot_ship", path=wal_file_name(generation),
                       offset=offset, generation=generation)


def _copy_wal(client, offset: int = HEADER_BYTES) -> bytes:
    """The leader's WAL bytes from ``offset`` to its durable end, copied
    chunk by chunk as a follower does."""
    copied = b""
    while True:
        chunk = _wal_chunk(client, offset + len(copied))
        copied += decode_snapshot_chunk(chunk)
        if chunk["eof"]:
            assert chunk["size"] == offset + len(copied)
            return copied


def test_wal_tail_over_torn_leader_wal_serves_exact_prefix(tmp_path):
    """Kill-and-restart a leader over a torn or truncated WAL: the
    reopened server's WAL chunks hand followers exactly the recovered
    acked prefix's bytes — contiguous seqs from 1, nothing from the
    damaged suffix — at every interesting kill offset of the byte
    sweep, and ``wal_tail`` reports that position."""
    from repro.kg.client import connect
    from repro.kg.server import KGServer

    script: Script = [
        (OP_ADD, [("e3", "r0", "e4"), ("e4", "r0", "e5")]),
        (OP_REMOVE, [("e0", "r0", "e1")]),
        (OP_ADD, [("e2", "r1", "e3")]),
    ]
    directory = _build_live(tmp_path / "store", "columnar", script)
    wal_path = directory / wal_file_name(0)
    full = wal_path.read_bytes()
    ends = [HEADER_BYTES] + [batch.end_offset
                             for batch in scan_wal(wal_path).batches]
    for offset, recovered_batches in _interesting_offsets(wal_path):
        wal_path.write_bytes(full[:offset])
        with KGServer.open(directory, port=0).start() as server, \
                connect(server.url) as client:
            assert client.call("wal_tail", after_seq=0) \
                == {"generation": 0, "next_seq": recovered_batches + 1}
            shipped = _copy_wal(client)
            assert shipped == full[HEADER_BYTES:ends[recovered_batches]]
            batches, consumed, corrupt = scan_records(shipped,
                                                      HEADER_BYTES, 1)
            assert (consumed, corrupt) == (len(shipped), False)
            assert [batch.seq for batch in batches] \
                == list(range(1, recovered_batches + 1))
            # The shipped rows ARE the acked prefix, not approximately so.
            replayed = {tuple(row) for row in SEED_ROWS}
            for batch in batches:
                if batch.op == OP_ADD:
                    replayed.update(batch.triples)
                else:
                    replayed.difference_update(batch.triples)
            assert sorted(Triple(*row) for row in replayed) \
                == _oracle(script[:recovered_batches])


def test_follower_over_torn_leader_tail_applies_exact_prefix(tmp_path):
    """End-to-end follower proof: a replica bootstrapped over the wire
    from a leader that restarted on a torn WAL converges on exactly the
    recovered prefix, then keeps following post-recovery writes."""
    from repro.kg.client import connect
    from repro.kg.server import KGServer, bootstrap_replica

    script: Script = [
        (OP_ADD, [("e3", "r0", "e4"), ("e4", "r0", "e5")]),
        (OP_REMOVE, [("e0", "r0", "e1")]),
        (OP_ADD, [("e2", "r1", "e3")]),
    ]
    directory = _build_live(tmp_path / "leader", "columnar", script)
    wal_path = directory / wal_file_name(0)
    wal_path.write_bytes(wal_path.read_bytes()[:-3])  # tear the last record
    expected = _oracle(script[:-1])
    leader = KGServer.open(directory, port=0).start()
    try:
        bootstrap_replica(tmp_path / "replica", leader.url)
        replica = KGServer.open(tmp_path / "replica", port=0,
                                follow=leader.url,
                                follow_poll_interval=0.01).start()
        try:
            with connect(replica.url) as reader:
                assert _wait_until(
                    lambda: reader.call("len") == len(expected))
                # The wire has no ``sort`` field (sorting is the
                # client's job); an undeclared field is now refused.
                rows = reader.call("match", pattern=[None, None, None])
                assert sorted(rows.to_triples()) == expected
            with connect(leader.url) as writer:
                writer.call("add_many", triples=[["e5", "r1", "e5"]])
            with connect(replica.url) as reader:
                assert _wait_until(
                    lambda: reader.call("count",
                                        pattern=["e5", "r1", "e5"]) == 1)
        finally:
            replica.close()
    finally:
        leader.close()


# --------------------------------------------------------------------- #
# a poll reads only what it ships, and only what is durable
# --------------------------------------------------------------------- #
def test_failed_append_refuses_later_appends_until_reopened(tmp_path,
                                                            monkeypatch):
    """A raising fsync leaves its record's bytes in the file: an acked
    batch appended after it would carry the same seq and lose to the
    failed one on replay, so the log refuses appends until reopened."""
    path = tmp_path / "wal.log"
    wal = WriteAheadLog.create(path, generation=0)
    assert wal.append(OP_ADD, [("a", "r", "b")]) == 1

    def failing_fsync(fd):
        raise OSError(errno.EIO, "injected EIO")

    with monkeypatch.context() as patch:
        patch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(OSError):
            wal.append(OP_ADD, [("x", "r", "y")])
    with pytest.raises(StorageError, match="injected EIO"):
        wal.append(OP_ADD, [("c", "r", "d")])
    assert (wal.next_seq, len(wal.ends)) == (2, 1)
    wal.close()
    # The failed batch's outcome is unknown (recovery may replay it);
    # no acked batch was logged under its seq.
    reopened, scan = WriteAheadLog.open(path)
    assert [(batch.seq, batch.triples) for batch in scan.batches] \
        == [(1, (("a", "r", "b"),)), (2, (("x", "r", "y"),))]
    assert reopened.append(OP_ADD, [("c", "r", "d")]) == 3
    reopened.close()
    assert scan_wal(path).batches[-1].triples == (("c", "r", "d"),)


def test_wal_tail_never_ships_a_record_before_its_fsync(tmp_path,
                                                        monkeypatch):
    """A record flushed but still inside fsync is not durable: a WAL
    chunk racing it ships only the records before it, the next poll
    after the fsync returns ships it."""
    from repro.kg.client import connect
    from repro.kg.server import KGServer

    store = TripleStore.create_live(tmp_path / "store", [])
    try:
        with KGServer(store, port=0).start() as server, \
                connect(server.url) as client:
            server.service.add_many([Triple("e0", "r0", "e1")])
            entered, release = threading.Event(), threading.Event()
            real_fsync = os.fsync

            def slow_fsync(fd):
                entered.set()
                release.wait(10)
                real_fsync(fd)

            monkeypatch.setattr(os, "fsync", slow_fsync)
            writer = threading.Thread(target=server.service.add_many,
                                      args=([Triple("e2", "r0", "e3")],))
            writer.start()
            first_end = store.wal.end
            try:
                assert entered.wait(5)
                # Record 2 is in the file, still inside its fsync.
                assert store.wal.path.stat().st_size > first_end
                shipped = _copy_wal(client)
                assert len(shipped) == first_end - HEADER_BYTES
                assert [batch.seq for batch in scan_records(
                    shipped, HEADER_BYTES, 1)[0]] == [1]
                assert client.call("wal_tail", after_seq=0)["next_seq"] == 2
            finally:
                release.set()
                writer.join(10)
            assert not writer.is_alive()
            batches, consumed, _ = scan_records(
                _copy_wal(client, first_end), first_end, 2)
            assert [(batch.seq, batch.op, batch.triples)
                    for batch in batches] \
                == [(2, OP_ADD, (("e2", "r0", "e3"),))]
            assert first_end + consumed == store.wal.end
    finally:
        store.close()


class _CountingFile:
    """A file wrapper adding every byte ``read`` returns to a tally."""

    def __init__(self, handle, tally: List[int]) -> None:
        self._handle, self._tally = handle, tally

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self._handle.close()

    def read(self, *args) -> bytes:
        data = self._handle.read(*args)
        self._tally.append(len(data))
        return data

    def __getattr__(self, name):
        return getattr(self._handle, name)


def test_wal_tail_reads_only_the_records_it_ships(tmp_path, monkeypatch):
    """Work bound, counted in bytes read: a poll reads at most the new
    bytes and at most one chunk — the last record alone when the
    follower holds the rest, one chunk of a log longer than that — and
    a caught-up poll (or one past the end) opens no file."""
    from repro.kg.client import connect
    from repro.kg.server import KGServer

    batches = 40
    script: Script = [(OP_ADD, [(f"e{index}", "r0", f"e{index + 1}")] * 3)
                      for index in range(batches)]
    directory = _build_live(tmp_path / "store", "columnar", script)
    wal_path = directory / wal_file_name(0)
    ends = [batch.end_offset for batch in scan_wal(wal_path).batches]
    log = wal_path.read_bytes()
    tally: List[int] = []
    opened: List[Path] = []
    real_open = Path.open

    def counting_open(self, *args, **kwargs):
        opened.append(self)
        handle = real_open(self, *args, **kwargs)
        return _CountingFile(handle, tally) if self == wal_path else handle

    with KGServer.open(directory, port=0,
                       max_frame_bytes=2048).start() as server, \
            connect(server.url) as client:
        chunk_bytes = server._chunk_bytes
        assert ends[-1] - ends[-2] < chunk_bytes < ends[-1] - HEADER_BYTES
        monkeypatch.setattr(Path, "open", counting_open)
        data = decode_snapshot_chunk(_wal_chunk(client, ends[-2]))
        assert data == log[ends[-2]:]
        assert tally == [ends[-1] - ends[-2]]
        tally.clear()
        chunk = _wal_chunk(client, HEADER_BYTES)
        assert len(decode_snapshot_chunk(chunk)) == chunk_bytes
        assert not chunk["eof"]
        assert tally == [chunk_bytes]
        tally.clear()
        opened.clear()
        for offset in (ends[-1], 1 << 62):
            chunk = _wal_chunk(client, offset)
            assert decode_snapshot_chunk(chunk) == b""
            assert (chunk["size"], chunk["eof"]) == (ends[-1], True)
        assert client.call("wal_tail", after_seq=1 << 62) \
            == {"generation": 0, "next_seq": batches + 1}
        assert tally == [] and opened == []
        server.service.store.close()


_term = st.builds(lambda name, pad: name + "x" * pad,
                  st.sampled_from(ENTITIES), st.integers(0, 40))
_sized_batch = st.tuples(st.sampled_from([OP_ADD, OP_REMOVE]),
                         st.lists(st.tuples(_term, st.sampled_from(RELATIONS),
                                            _term), min_size=1, max_size=9))


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(script=st.lists(_sized_batch, min_size=1, max_size=7),
       after_reopen=st.lists(_sized_batch, max_size=3),
       tear=st.integers(0, 5),
       max_frame_bytes=st.sampled_from([1024, 2048, 1 << 20]))
def test_incremental_wal_tail_equals_full_scan(script, after_reopen, tear,
                                               max_frame_bytes):
    """For every follower position (each record boundary), one chunk
    is exactly the log's next bytes up to the chunk size, and the
    chunks from there decode to a full scan's ``batches[k:]``, over
    torn tails, a reopen and records larger than a chunk; the open
    log's ``ends`` are the scan's offsets."""
    from repro.kg.client import connect
    from repro.kg.server import KGServer

    root = Path(tempfile.mkdtemp())
    try:
        directory = _build_live(root / "store", "columnar", script)
        wal_path = directory / wal_file_name(0)
        if tear:
            wal_path.write_bytes(wal_path.read_bytes()[:-tear])
        store = TripleStore.open(directory, wal_fsync=False)
        try:
            _apply_script(store, after_reopen)
            full = scan_wal(wal_path)
            assert list(store.wal.ends) \
                == [batch.end_offset for batch in full.batches]
            log = wal_path.read_bytes()
            with KGServer(store, port=0,
                          max_frame_bytes=max_frame_bytes).start() as server, \
                    connect(server.url) as client:
                chunk_bytes = server._chunk_bytes
                starts = [HEADER_BYTES] + list(store.wal.ends)
                for k, start in enumerate(starts):
                    assert decode_snapshot_chunk(_wal_chunk(client, start)) \
                        == log[start:min(start + chunk_bytes, len(log))]
                    batches, consumed, corrupt = scan_records(
                        _copy_wal(client, start), start, k + 1)
                    assert batches == full.batches[k:]
                    assert (start + consumed, corrupt) == (len(log), False)
                    assert client.call("wal_tail", after_seq=k)["next_seq"] \
                        == len(full.batches) + 1
        finally:
            store.close()
        reopened, scan = WriteAheadLog.open(wal_path, fsync=False)
        reopened.close()
        assert list(reopened.ends) \
            == [batch.end_offset for batch in scan.batches] \
            == [batch.end_offset for batch in full.batches]
    finally:
        shutil.rmtree(root, ignore_errors=True)


def test_wal_tail_pollers_racing_appends_ship_every_batch_once(tmp_path):
    """Stress: followers copying WAL chunks over the wire while the
    dispatcher appends, with a shortened switch interval, each rebuild
    the full log — every byte once, in order, bit-identical to the
    file, every batch once in seq order."""
    from repro.kg.client import connect
    from repro.kg.server import KGServer

    store = TripleStore.create_live(tmp_path / "store", [], wal_fsync=False)
    shipped: List[bytearray] = [bytearray() for _ in range(3)]
    writes = 150
    written = threading.Event()

    def follow(into: bytearray) -> None:
        with connect(server.url) as client:
            while True:
                last = written.is_set()
                chunk = _wal_chunk(client, HEADER_BYTES + len(into))
                into += decode_snapshot_chunk(chunk)
                if last and chunk["eof"]:
                    return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with KGServer(store, port=0, max_frame_bytes=4096).start() as server:
            pollers = [threading.Thread(target=follow, args=(into,))
                       for into in shipped]
            for thread in pollers:
                thread.start()
            for index in range(writes):
                server.service.add_many(
                    [Triple(f"p{index}", "r0", f"e{i}") for i in range(3)])
            written.set()
            for thread in pollers:
                thread.join(30)
            assert not any(thread.is_alive() for thread in pollers)
    finally:
        sys.setswitchinterval(interval)
        store.close()
    log = store.wal.path.read_bytes()
    assert [bytes(into) for into in shipped] == [log[HEADER_BYTES:]] * 3
    batches, consumed, corrupt = scan_records(log[HEADER_BYTES:],
                                              HEADER_BYTES, 1)
    assert [batch.seq for batch in batches] == list(range(1, writes + 1))
    assert (HEADER_BYTES + consumed, corrupt) == (len(log), False)


# --------------------------------------------------------------------- #
# small acked writes are O(batch): no consolidation on the serving path
# --------------------------------------------------------------------- #
def test_small_acked_batches_never_rebuild_the_serving_store(base, tmp_path):
    """200 acked 16-row batches through the service with id reads between
    them: no shard backend — the leader's or a follower's — consolidates
    (the overlay stays far below ``delta_threshold``), and a kill-style
    reopen and the follower both converge on the online state bit for bit."""
    from repro.kg.server import KGServer, bootstrap_replica

    def leaves(server):
        backend = server.service.store.backend
        return getattr(backend, "_shards", [backend])

    seed = [Triple(f"s{index}", "r0", ENTITIES[index % 6]) for index in range(48)]
    directory = tmp_path / "leader"
    TripleStore(seed, backend=_make_backend(base)).save_live(directory,
                                                             fsync=False)
    leader = KGServer(TripleStore.open(directory, wal_fsync=False),
                      port=0).start()
    try:
        bootstrap_replica(tmp_path / "replica", leader.url)
        replica = KGServer.open(tmp_path / "replica", port=0,
                                follow=leader.url,
                                follow_poll_interval=0.01).start()
        try:
            service = leader.service
            service.lookup_many([("s0", None, None)])   # attach the base
            rebuilds = [[leaf.rebuild_count for leaf in leaves(server)]
                        for server in (leader, replica)]
            model = set(seed)
            added: List[Triple] = []
            for index in range(200):
                if index % 2 == 0:
                    added = [Triple(f"w{index}:{i}", "r1", ENTITIES[i % 6])
                             for i in range(16)]
                    assert service.add_many(added) == 16
                    model.update(added)
                    probe = added[0]
                else:
                    # Mostly undo the previous add (the overlay shrinks);
                    # three times delete snapshot rows instead, so adds
                    # and base deletions both stay in the overlay.
                    batch = seed[2 * index - 14:2 * index + 2] \
                        if index in (7, 15, 23) else added
                    assert service.remove_many(batch) == 16
                    model.difference_update(batch)
                    probe = batch[0]
                by_head, by_tail = service.lookup_many(
                    [(probe.head, None, None), (None, "r1", "e0")])
                assert sorted(by_head) == sorted(
                    t for t in model if t.head == probe.head)
                assert sorted(by_tail) == sorted(
                    t for t in model if t.relation == "r1" and t.tail == "e0")
            online = sorted(service.store)
            assert online == sorted(model)
            assert [leaf.rebuild_count for leaf in leaves(leader)] == rebuilds[0]
            shutil.copytree(directory, tmp_path / "killed")   # kill -9 now
            _assert_recovers(tmp_path / "killed", online)
            assert _wait_until(lambda: replica._replication_snapshot()
                               ["applied_seq"] == 200)
            assert sorted(replica.service.lookup_many(
                [(None, None, None)])[0]) == online
            assert [leaf.rebuild_count for leaf in leaves(replica)] == rebuilds[1]
        finally:
            replica.close()
    finally:
        leader.close()


def _leader(directory: Path):
    """A leader server over ``directory`` capped at 1 KiB frames, so
    its WAL chunks are a few hundred bytes and records span them."""
    from repro.kg.server import KGServer

    return KGServer(TripleStore.open(directory, wal_fsync=False), port=0,
                    max_frame_bytes=1024).start()


def _follower(directory: Path, leader):
    from repro.kg.server import KGServer

    return KGServer(TripleStore.open(directory, wal_fsync=False), port=0,
                    follow=leader.url, follow_poll_interval=0.005).start()


def _close(server) -> None:
    server.close()
    server.service.store.close()


@settings(max_examples=8, deadline=None)
@given(first=st.lists(_sized_batch, max_size=4),
       second=st.lists(_sized_batch, min_size=1, max_size=4),
       third=st.lists(_sized_batch, max_size=4), cut=st.integers(1, 60))
def test_replica_wal_is_a_byte_prefix_of_its_leaders_after_every_poll(
        first, second, third, cut):
    """Checked as each poll starts (the ones before it applied): the
    replica's WAL file is a byte prefix of its leader's, through
    add/remove scripts, a replica restart mid-stream and a leader
    reopened over a torn tail (a record cut by a crash mid-append),
    and at convergence the two logs are equal."""
    from unittest import mock

    from repro.kg import server as server_module
    from repro.kg.server import bootstrap_replica

    root = Path(tempfile.mkdtemp())
    leader_log = root / "leader" / wal_file_name(0)
    replica_log = root / "replica" / wal_file_name(0)
    diverged: List[int] = []
    real_decode = server_module.decode_snapshot_chunk

    def checked_decode(chunk):
        if replica_log.exists():
            copied = replica_log.read_bytes()
            if not leader_log.read_bytes().startswith(copied):
                diverged.append(len(copied))
        return real_decode(chunk)

    def converged() -> bool:
        return _wait_until(
            lambda: follower._replication_snapshot()["applied_seq"]
            == leader.service.store.wal.next_seq - 1)

    leader = follower = None
    try:
        TripleStore.create_live(root / "leader",
                                [Triple(*row) for row in SEED_ROWS],
                                wal_fsync=False).close()
        with mock.patch.object(server_module, "decode_snapshot_chunk",
                               checked_decode):
            leader = _leader(root / "leader")
            bootstrap_replica(root / "replica", leader.url, fsync=False)
            follower = _follower(root / "replica", leader)
            _apply_script(leader.service, first)
            assert converged()
            _apply_script(leader.service, second[:1])
            _close(follower)                    # restart mid-stream
            _apply_script(leader.service, second[1:])
            follower = _follower(root / "replica", leader)
            assert converged()
            next_seq = leader.service.store.wal.next_seq
            _close(leader)
            record = encode_batch(next_seq, OP_ADD, [("torn", "r0", "tail")])
            with open(leader_log, "ab") as handle:
                handle.write(record[:min(cut, len(record) - 1)])
            _close(follower)
            leader = _leader(root / "leader")
            follower = _follower(root / "replica", leader)
            _apply_script(leader.service, third)
            assert converged()
            assert follower._replication_snapshot()["last_error"] is None
            assert replica_log.read_bytes() == leader_log.read_bytes()
            assert follower.service.store.triples() \
                == leader.service.store.triples()
        assert diverged == []
    finally:
        for server in (follower, leader):
            if server is not None:
                _close(server)
        shutil.rmtree(root, ignore_errors=True)
