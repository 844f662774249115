"""Append-only write-ahead log and the live (writable) store layout.

The durability contract of the write path: every acked mutation batch is
one **length-prefixed, CRC32-checksummed record** appended to a WAL file
and fsync'd *before* the caller's future resolves.  Recovery is replay:
:meth:`repro.kg.store.TripleStore.open` rebuilds state as *snapshot +
WAL prefix*, where the prefix is every record that survived the crash
intact — a torn or corrupted tail is truncated, never half-applied.

On-disk record format (all little-endian)::

    file   := header record*
    header := magic[8]="RKGWAL1\\n" | u32 version | u64 generation
    record := u32 payload_len | u32 crc32(payload) | payload
    payload:= u64 seq | u8 op | u32 count
              | u32 byte_len * (3*count)          string lengths
              | utf8 bytes                        concatenated strings

``seq`` starts at 1 and must increase by exactly 1 per record; the scan
stops at the first record whose length, checksum or sequence number does
not hold, so replay recovers **exactly the prefix of durably-acked
batches**.  The open log keeps the end offset of every *durable* record
(:attr:`WriteAheadLog.ends`, pushed once its fsync returns); a follower
copies the bytes up to :attr:`WriteAheadLog.end`, never a record still
in fsync, and re-logs each record :func:`scan_records` checks: the
encoding is deterministic, so its log is a byte prefix of its leader's.
If ``append``'s write, flush or fsync raises, the record's bytes may
stay in the file under the seq the next batch would reuse, so the log
refuses appends until it is reopened; the failed batch's outcome is
unknown, not lost (recovery may replay it).  Replay is *not*
idempotent (``add x`` then ``remove x`` in later batches cannot be
re-applied out of order), which is why the live layout below never
lets a WAL outlive the snapshot it was logged against.

Live store layout (one directory)::

    store/
      live.json        atomic pointer: {"magic", "version", "generation"}
      snap-000007/     store-format-v2 columnar snapshot
      wal-000007.log   the WAL logged on top of exactly that snapshot

``live.json`` is rewritten via temp-file + ``os.replace`` so exactly one
(snapshot, WAL) *generation pair* is ever current.  Compaction
(:meth:`TripleStore.compact`) writes the next pair first and flips the
pointer last — the commit point — so a crash at any stage leaves either
the old pair (nothing lost) or the new pair (nothing double-applied).
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Sequence, Tuple, Union

from repro.errors import StorageError

#: First bytes of every WAL file.
WAL_MAGIC = b"RKGWAL1\n"
#: Bumped on any incompatible record-format change.
WAL_VERSION = 1

_HEADER = struct.Struct("<8sIQ")   # magic, version, generation
_RECORD = struct.Struct("<II")     # payload length, crc32(payload)
_BATCH = struct.Struct("<QBI")     # seq, op, triple count

#: Bytes of the file header: the first record starts here.
HEADER_BYTES = _HEADER.size

#: Mutation opcodes carried in each record.
OP_ADD = 1
OP_REMOVE = 2

#: Hard cap on one record's payload — a torn length prefix must never
#: make the scanner try to allocate gigabytes.
MAX_RECORD_BYTES = 1 << 30

#: The atomic generation pointer of a live store directory.
LIVE_POINTER_FILE = "live.json"
LIVE_MAGIC = "repro-kg-live"
LIVE_VERSION = 1


def snapshot_dir_name(generation: int) -> str:
    """Snapshot directory name of a generation (``snap-000007``)."""
    return f"snap-{generation:06d}"


def wal_file_name(generation: int) -> str:
    """WAL file name of a generation (``wal-000007.log``)."""
    return f"wal-{generation:06d}.log"


def _fsync_directory(directory: "Union[str, Path]") -> None:
    """Best-effort fsync of a directory entry (rename durability)."""
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


# --------------------------------------------------------------------- #
# record codec
# --------------------------------------------------------------------- #
def encode_batch(seq: int, op: int,
                 triples: Sequence[Tuple[str, str, str]]) -> bytes:
    """Encode one mutation batch as a framed, checksummed WAL record."""
    if op not in (OP_ADD, OP_REMOVE):
        raise StorageError(f"unknown WAL opcode {op!r}")
    parts: List[bytes] = []
    lengths = bytearray()
    pack_length = struct.Struct("<I").pack
    for head, relation, tail in triples:
        for term in (head, relation, tail):
            encoded = term.encode("utf-8")
            parts.append(encoded)
            lengths += pack_length(len(encoded))
    payload = (_BATCH.pack(seq, op, len(triples)) + bytes(lengths)
               + b"".join(parts))
    if len(payload) > MAX_RECORD_BYTES:
        raise StorageError(
            f"WAL batch payload is {len(payload)} bytes, over the "
            f"{MAX_RECORD_BYTES}-byte record cap; split the batch")
    return _RECORD.pack(len(payload), zlib.crc32(payload)) + payload


def _decode_payload(payload: bytes, expected_seq: int,
                    end_offset: int) -> "WalBatch | None":
    """Decode one checksum-verified payload; ``None`` when malformed."""
    if len(payload) < _BATCH.size:
        return None
    seq, op, count = _BATCH.unpack_from(payload)
    if seq != expected_seq or op not in (OP_ADD, OP_REMOVE):
        return None
    lengths_end = _BATCH.size + 4 * 3 * count
    if lengths_end > len(payload):
        return None
    lengths = struct.unpack_from(f"<{3 * count}I", payload, _BATCH.size)
    blob = payload[lengths_end:]
    if sum(lengths) != len(blob):
        return None
    strings: List[str] = []
    position = 0
    try:
        for length in lengths:
            strings.append(blob[position:position + length].decode("utf-8"))
            position += length
    except UnicodeDecodeError:
        return None
    triples = tuple(zip(strings[0::3], strings[1::3], strings[2::3]))
    return WalBatch(seq=seq, op=op, triples=triples, end_offset=end_offset)


@dataclass(frozen=True)
class WalBatch:
    """One recovered WAL record: a durably-acked mutation batch."""

    seq: int
    op: int
    triples: Tuple[Tuple[str, str, str], ...]
    #: File offset just past this record — the fault-injection harness
    #: derives its kill points from these boundaries.
    end_offset: int


@dataclass(frozen=True)
class WalScan:
    """Result of scanning a WAL file."""

    generation: int
    batches: List[WalBatch]
    #: Offset just past the last intact record; everything beyond is a
    #: torn/corrupt tail that reopen-for-append truncates away.
    valid_bytes: int
    #: True when trailing bytes past ``valid_bytes`` were ignored.
    damaged: bool


def scan_wal(path: "Union[str, Path]") -> WalScan:
    """Scan a WAL file, recovering the longest intact record prefix.

    A truncated or corrupted *record* ends the scan (prefix recovery);
    a truncated or corrupted *file header* raises
    :class:`~repro.errors.StorageError` — a live pointer naming a WAL
    whose header never made it to disk is real corruption, not a torn
    append.
    """
    path = Path(path)
    try:
        with path.open("rb") as file:
            header = file.read(HEADER_BYTES)
            data = file.read()
    except OSError as exc:
        raise StorageError(f"cannot read WAL {path}: {exc}") from exc
    if len(header) < HEADER_BYTES:
        raise StorageError(
            f"WAL {path} is {len(header)} bytes, shorter than its "
            f"{HEADER_BYTES}-byte header")
    magic, version, generation = _HEADER.unpack(header)
    if magic != WAL_MAGIC:
        raise StorageError(f"{path} is not a WAL file (magic {magic!r})")
    if version != WAL_VERSION:
        raise StorageError(
            f"WAL {path} has format version {version}, this build reads "
            f"version {WAL_VERSION}")
    batches, consumed, _corrupt = scan_records(data, HEADER_BYTES, 1)
    return WalScan(generation=generation, batches=batches,
                   valid_bytes=HEADER_BYTES + consumed,
                   damaged=consumed < len(data))


def scan_records(data: bytes, start: int,
                 first_seq: int) -> Tuple[List[WalBatch], int, bool]:
    """Decode the intact records at the front of ``data`` (the log
    from record boundary ``start``, the first carrying ``first_seq``):
    the batches, the bytes they span, and whether the scan stopped at a
    *complete* record that failed its length, checksum or seq check
    rather than at one cut short by the end of ``data``."""
    batches: List[WalBatch] = []
    offset = 0
    while offset + _RECORD.size <= len(data):
        length, checksum = _RECORD.unpack_from(data, offset)
        end = offset + _RECORD.size + length
        if length > MAX_RECORD_BYTES:
            return batches, offset, True
        if end > len(data):
            break
        payload = data[offset + _RECORD.size:end]
        batch = _decode_payload(payload, first_seq + len(batches),
                                start + end) \
            if zlib.crc32(payload) == checksum else None
        if batch is None:
            return batches, offset, True
        batches.append(batch)
        offset = end
    return batches, offset, False


def coalesced_ops(
    batches: Sequence[WalBatch],
) -> Iterator[Tuple[int, List[Tuple[str, str, str]]]]:
    """Fold maximal runs of same-op batches into one ``(op, triples)``.

    Replay must preserve add/remove *interleaving* (it is not
    idempotent), but consecutive same-op batches commute with each
    other, so a 100k-batch insert log replays as one bulk ``add_many``
    instead of 100k round trips.
    """
    run_op: "int | None" = None
    run: List[Tuple[str, str, str]] = []
    for batch in batches:
        if batch.op != run_op:
            if run:
                yield run_op, run
            run_op, run = batch.op, []
        run.extend(batch.triples)
    if run:
        yield run_op, run


# --------------------------------------------------------------------- #
# the log itself
# --------------------------------------------------------------------- #
class WriteAheadLog:
    """An append-only, fsync-on-append mutation log.

    ``append`` returns only after the record is flushed (and, unless
    ``fsync=False`` was chosen for benchmarking, fsync'd) — the caller
    may ack the batch the moment ``append`` returns.  One writer per
    file; the service's single dispatcher thread is that writer.
    """

    def __init__(self, path: Path, file, generation: int, ends: array,
                 fsync: bool) -> None:
        self.path = path
        self._file = file
        self.generation = generation
        #: End offset of every durable record, indexed by ``seq - 1``:
        #: pushed only after the record's fsync (or flush) returned, so
        #: a reader on another thread never sees a record in flight.
        self.ends = ends
        self.fsync = fsync
        #: Why an append failed; once set, the log refuses appends.
        self._failure: "str | None" = None

    @classmethod
    def create(cls, path: "Union[str, Path]", *, generation: int,
               fsync: bool = True) -> "WriteAheadLog":
        """Create (or truncate) a WAL file with a fresh header."""
        path = Path(path)
        file = open(path, "wb")
        try:
            file.write(_HEADER.pack(WAL_MAGIC, WAL_VERSION, generation))
            file.flush()
            if fsync:
                os.fsync(file.fileno())
        except BaseException:
            file.close()
            raise
        if fsync:
            _fsync_directory(path.parent)
        return cls(path, file, generation, array("Q"), fsync)

    @classmethod
    def open(cls, path: "Union[str, Path]", *,
             fsync: bool = True) -> Tuple["WriteAheadLog", WalScan]:
        """Open for append, truncating any torn tail; returns the scan.

        The returned :class:`WalScan` carries every recovered batch —
        the caller replays them over the snapshot before taking writes.
        """
        path = Path(path)
        scan = scan_wal(path)
        file = open(path, "r+b")
        try:
            if scan.damaged:
                file.truncate(scan.valid_bytes)
                file.flush()
                if fsync:
                    os.fsync(file.fileno())
            file.seek(scan.valid_bytes)
        except BaseException:
            file.close()
            raise
        ends = array("Q", (batch.end_offset for batch in scan.batches))
        return cls(path, file, scan.generation, ends, fsync), scan

    def append(self, op: int,
               triples: Sequence[Tuple[str, str, str]]) -> int:
        """Durably append one mutation batch; returns its sequence number.

        Once a write, flush or fsync has raised, every later append
        raises a typed :class:`StorageError` until the log is reopened.
        """
        if self._file is None:
            raise StorageError(f"WAL {self.path} is closed")
        if self._failure is not None:
            raise StorageError(
                f"WAL {self.path} refuses appends after a failed append "
                f"({self._failure}); reopen it to recover")
        record = encode_batch(self.next_seq, op, triples)
        end = self.end + len(record)
        try:
            self._file.write(record)
            self._file.flush()
            if self.fsync:
                os.fsync(self._file.fileno())
        except BaseException as exc:
            self._failure = f"{type(exc).__name__}: {exc}"
            raise
        self.ends.append(end)
        return len(self.ends)

    @property
    def end(self) -> int:
        """Offset just past the last durable record: what a follower
        may copy."""
        return self.ends[-1] if self.ends else HEADER_BYTES

    @property
    def next_seq(self) -> int:
        """The sequence number the next appended batch will carry."""
        return len(self.ends) + 1

    @property
    def closed(self) -> bool:
        return self._file is None

    def close(self) -> None:
        """Flush and release the file handle (idempotent)."""
        if self._file is None:
            return
        try:
            self._file.flush()
        finally:
            self._file.close()
            self._file = None


def list_snapshot_files(
        snapshot_dir: "Union[str, Path]") -> List[Tuple[str, int]]:
    """Enumerate a snapshot directory for shipping: ``(path, size)``.

    Paths are ``/``-separated and relative to ``snapshot_dir``, sorted
    so a manifest is deterministic.  This is the unit the ``snapshot_ship`` wire op pages
    over; only regular files are shipped — a snapshot layout contains
    nothing else.
    """
    snapshot_dir = Path(snapshot_dir)
    if not snapshot_dir.is_dir():
        raise StorageError(f"{snapshot_dir} is not a snapshot directory")
    files: List[Tuple[str, int]] = []
    for path in sorted(snapshot_dir.rglob("*")):
        if path.is_file():
            relative = path.relative_to(snapshot_dir).as_posix()
            files.append((relative, path.stat().st_size))
    return files


# --------------------------------------------------------------------- #
# live-store generation pointer
# --------------------------------------------------------------------- #
def is_live_store(directory: "Union[str, Path]") -> bool:
    """True when ``directory`` carries a live-store generation pointer."""
    return (Path(directory) / LIVE_POINTER_FILE).is_file()


def read_live_pointer(directory: "Union[str, Path]") -> int:
    """Read and validate ``live.json``; returns the current generation."""
    path = Path(directory) / LIVE_POINTER_FILE
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise StorageError(f"cannot read live pointer {path}: {exc}") from exc
    if not isinstance(document, dict) or document.get("magic") != LIVE_MAGIC:
        raise StorageError(f"{path} is not a live-store pointer")
    if document.get("version") != LIVE_VERSION:
        raise StorageError(
            f"live store {path} has layout version "
            f"{document.get('version')!r}, this build reads {LIVE_VERSION}")
    generation = document.get("generation")
    if not isinstance(generation, int) or isinstance(generation, bool) \
            or generation < 0:
        raise StorageError(
            f"live pointer {path} has invalid generation {generation!r}")
    return generation


def write_live_pointer(directory: "Union[str, Path]", generation: int, *,
                       fsync: bool = True) -> None:
    """Atomically point ``directory`` at a generation (temp + rename)."""
    directory = Path(directory)
    document = {"magic": LIVE_MAGIC, "version": LIVE_VERSION,
                "generation": int(generation)}
    temp = directory / (LIVE_POINTER_FILE + ".tmp")
    with open(temp, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())
    os.replace(temp, directory / LIVE_POINTER_FILE)
    if fsync:
        _fsync_directory(directory)
