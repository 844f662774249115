"""On-disk, memory-mapped columnar graph storage.

The billion-scale business KG the paper describes cannot live in a
Python process heap, so this module persists the
:class:`~repro.kg.backend.ColumnarBackend` state — interner tables,
``int64`` triple columns, the three sort permutations and their CSR
offsets — as flat files under a directory and serves queries straight
from read-only views over memory maps of them:

* ``header.json`` — versioned header (magic, format version, dtype,
  element counts per file); written **last** so an interrupted save
  never leaves a directory that looks openable.
* ``entities.offsets.i64`` + ``entities.blob.utf8`` (and the
  ``relations.*`` pair) — interner symbols in id order as an
  mmap-friendly binary layout: ``offsets`` holds ``n + 1`` int64 byte
  offsets into ``blob``, the concatenation of all UTF-8 encoded
  symbols.  Unlike the JSON tables of format version 1 this loads
  without parsing (one ``fromfile`` + byte slicing) and the blob can be
  paged in lazily by the OS.
* ``triples.i64`` — the (n, 3) column block, row-major.
* ``perm_spo.i64`` / ``perm_pos.i64`` / ``perm_osp.i64`` — sort
  permutations.
* ``head_offsets.i64`` / ``rel_offsets.i64`` / ``tail_offsets.i64`` —
  CSR group offsets.

:meth:`ColumnarBackend.open <repro.kg.backend.ColumnarBackend.open>`
attaches the base block from these files instead of from in-heap arrays:
the header and interner tables load eagerly, the array files lazily on
first use as read-only views of their memory maps (:func:`map_base`).
Membership, mutation through the in-memory delta overlay (so an opened
store stays fully mutable) and queries are the class's code, unchanged.
When the overlay outgrows ``delta_threshold`` — or a caller touches the
flat surface (``id_triples``, ``match_id_rows``, the sort ranks,
``save``) — the live base rows and the overlay are consolidated into
in-heap arrays; ``save`` writes that consolidated state back to disk.
Build → ``save`` → ``ColumnarBackend.open`` is the bulk-load-once,
query-from-disk lifecycle.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Mapping, Tuple

import numpy as np

from repro.errors import StorageError
from repro.kg.backend import ColumnarBackend, Interner

#: Identifies the directory layout; never reuse across incompatible formats.
MAGIC = "repro-kg-columnar"

#: Bump when the file layout changes; :func:`load_header` rejects mismatches.
#: Version 2 replaced the JSON interner tables with the binary
#: offsets + blob layout.
FORMAT_VERSION = 2

HEADER_FILE = "header.json"
ENTITY_OFFSETS_FILE = "entities.offsets.i64"
ENTITY_BLOB_FILE = "entities.blob.utf8"
RELATION_OFFSETS_FILE = "relations.offsets.i64"
RELATION_BLOB_FILE = "relations.blob.utf8"

_INT64 = np.dtype(np.int64)

#: Array file -> the :class:`ColumnarBackend` base-block attribute it holds.
BASE_FILES = {
    "triples.i64": "_cols",
    "perm_spo.i64": "_perm_spo",
    "perm_pos.i64": "_perm_pos",
    "perm_osp.i64": "_perm_osp",
    "head_offsets.i64": "_head_offsets",
    "rel_offsets.i64": "_rel_offsets",
    "tail_offsets.i64": "_tail_offsets",
}


def _array_shapes(header: dict) -> Dict[str, Tuple[int, ...]]:
    """File name -> memmap shape of every array file ``header`` declares."""
    rows, entities = (header["num_triples"],), (header["num_entities"] + 1,)
    return {"triples.i64": rows + (3,), "perm_spo.i64": rows,
            "perm_pos.i64": rows, "perm_osp.i64": rows,
            "head_offsets.i64": entities, "tail_offsets.i64": entities,
            "rel_offsets.i64": (header["num_relations"] + 1,)}


#: The count fields of a split's ``cluster.json`` header: name -> minimum.
SHARD_SET_COUNTS = {"n_shards": 1, "num_entities": 0, "num_relations": 0,
                    "entity_blob_bytes": 0, "relation_blob_bytes": 0}


def check_header_counts(directory: Path, header: dict,
                        minimums: Mapping[str, int]) -> None:
    """Every listed header field must be an integer (never a boolean —
    ``true == 1`` in Python) no smaller than its minimum."""
    for key, minimum in minimums.items():
        if type(header.get(key)) is not int or header[key] < minimum:
            raise StorageError(f"{directory}: header field {key!r} is invalid")


def read_header(directory: str | Path, file_name: str, *, magic: str,
                version: int, counts: Mapping[str, int], kind: str) -> dict:
    """Read and validate one directory header — the single reader behind
    :func:`load_header` and ``load_cluster_header``.

    File → JSON object → ``magic`` → ``version`` → ``counts`` (see
    :func:`check_header_counts`), each failure a
    :class:`~repro.errors.StorageError` naming the directory and field.
    """
    directory = Path(directory)
    header_path = directory / file_name
    if not header_path.is_file():
        raise StorageError(
            f"{directory}: missing {file_name} — not a {kind} directory")
    try:
        header = json.loads(header_path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise StorageError(f"{header_path}: unreadable header: {exc}") from exc
    if not isinstance(header, dict) or header.get("magic") != magic:
        raise StorageError(f"{header_path}: bad magic — not a {kind} header")
    if header.get("version") != version:
        raise StorageError(
            f"{directory}: {kind} format version mismatch — directory has "
            f"{header.get('version')!r}, this build reads {version}")
    check_header_counts(directory, header, counts)
    return header


def write_header(directory: Path, file_name: str, header: dict) -> None:
    """Atomically (temp + rename) write a directory header.

    Call it after every data file is on disk: the directory only becomes
    openable once the header exists, so an interrupted save never leaves
    a header over torn data.
    """
    temporary = directory / (file_name + ".tmp")
    temporary.write_text(json.dumps(header, indent=1), encoding="utf-8")
    temporary.replace(directory / file_name)


def write_interner_pair(directory: Path, entity_interner: Interner,
                        relation_interner: Interner) -> Dict[str, int]:
    """Write both interner tables; returns the header fields describing
    them (symbol counts and blob byte sizes)."""
    return {
        "num_entities": len(entity_interner),
        "num_relations": len(relation_interner),
        "entity_blob_bytes": write_interner_files(
            entity_interner, directory, ENTITY_OFFSETS_FILE, ENTITY_BLOB_FILE),
        "relation_blob_bytes": write_interner_files(
            relation_interner, directory,
            RELATION_OFFSETS_FILE, RELATION_BLOB_FILE),
    }


def read_interner_pair(directory: Path,
                       header: dict) -> Tuple[Interner, Interner]:
    """Load the (entity, relation) interner tables ``header`` describes."""
    return (read_interner_files(directory, ENTITY_OFFSETS_FILE, ENTITY_BLOB_FILE,
                                header["num_entities"], header["entity_blob_bytes"]),
            read_interner_files(directory, RELATION_OFFSETS_FILE, RELATION_BLOB_FILE,
                                header["num_relations"],
                                header["relation_blob_bytes"]))


def write_interner_files(interner: Interner, directory: Path,
                         offsets_name: str, blob_name: str) -> int:
    """Write one interner as the binary offsets + blob pair.

    Returns the blob's byte length (recorded in the header so the files
    are size-validated at open time).  A zero-symbol interner writes a
    one-element offsets file and an **empty** blob file — readers must
    never ``np.memmap`` the blob (zero-byte mappings are rejected);
    :func:`read_interner_files` uses ``read_bytes`` instead.
    """
    encoded = [symbol.encode("utf-8") for symbol in interner.symbols()]
    offsets = np.zeros(len(encoded) + 1, dtype=np.int64)
    if encoded:
        np.cumsum([len(piece) for piece in encoded], out=offsets[1:])
    blob = b"".join(encoded)
    offsets.tofile(directory / offsets_name)
    (directory / blob_name).write_bytes(blob)
    return len(blob)


def read_interner_files(directory: Path, offsets_name: str, blob_name: str,
                        expected_symbols: int, expected_blob_bytes: int) -> Interner:
    """Load one interner from its binary offsets + blob pair, checked
    against the symbol count and blob size its header declares."""
    offsets_path, blob_path = directory / offsets_name, directory / blob_name
    if not (offsets_path.is_file() and blob_path.is_file()):
        raise StorageError(
            f"{directory}: missing interner table {offsets_name} / {blob_name}")
    offsets = np.fromfile(offsets_path, dtype=np.int64)
    if len(offsets) != expected_symbols + 1 or (len(offsets) and offsets[0] != 0) \
            or np.any(np.diff(offsets) < 0):
        raise StorageError(f"{offsets_path}: corrupt interner offsets")
    blob = blob_path.read_bytes()
    if len(blob) != expected_blob_bytes or len(blob) != int(offsets[-1]):
        raise StorageError(
            f"{blob_path}: the header declares {expected_blob_bytes} bytes and "
            f"the offsets table {int(offsets[-1])}, found {len(blob)} "
            f"— truncated or corrupt")
    bounds = offsets.tolist()
    try:
        symbols = [blob[bounds[index]:bounds[index + 1]].decode("utf-8")
                   for index in range(expected_symbols)]
    except UnicodeDecodeError as exc:
        raise StorageError(f"{blob_path}: corrupt interner blob: {exc}") from exc
    interner = Interner(symbols)
    if len(interner) != expected_symbols:
        raise StorageError(f"{blob_path}: interner table contains duplicate symbols")
    return interner


def write_backend_dir(backend: ColumnarBackend, directory: str | Path) -> Path:
    """Persist a :class:`ColumnarBackend` as a memory-mappable directory.

    Consolidates any pending overlay first, then writes the interner
    tables, the column block, the sort permutations and the CSR offsets.
    The header is written last so a crash mid-save leaves no directory
    that :func:`load_header` would accept.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    backend._ensure_index()
    if len(backend._head_offsets) != len(backend.entity_interner) + 1 \
            or len(backend._rel_offsets) != len(backend.relation_interner) + 1:
        # The interner grew without leaving an overlay behind (symbols
        # interned then discarded): the CSR offset arrays are sized for
        # the old symbol counts.  Queries tolerate that via bounds checks, but
        # the on-disk header sizes files by the interner — rebuild so
        # arrays and header agree.
        backend._rebuild()
    backend._detach_from(directory)
    # Invalidate any existing header BEFORE touching array files: a crash
    # mid-overwrite must not leave a stale-but-valid header pointing at a
    # mix of old and new columns.
    (directory / HEADER_FILE).unlink(missing_ok=True)
    header = {
        "magic": MAGIC,
        "version": FORMAT_VERSION,
        "dtype": _INT64.str,
        "num_triples": len(backend._cols),
        **write_interner_pair(directory, backend.entity_interner,
                              backend.relation_interner),
    }
    for name, attr in BASE_FILES.items():
        # Empty arrays (a zero-triple store) write zero-byte files; the
        # open side special-cases them instead of memory-mapping.
        np.ascontiguousarray(getattr(backend, attr),
                             dtype=np.int64).tofile(directory / name)
    write_header(directory, HEADER_FILE, header)
    return directory


def write_id_store(directory: str | Path, entity_interner: Interner,
                   relation_interner: Interner, rows: np.ndarray) -> Path:
    """Write ``rows`` — a (k, 3) block of ids into the given interner
    pair — as a columnar store directory with that pair inline.

    The one writer for a store that is not already a single
    :class:`ColumnarBackend`: ``TripleStore.save`` of any other backend
    and every ``shard_split`` shard.  Nothing is re-interned, so every
    symbol keeps its id, and with it the row order of every answer.
    """
    backend = ColumnarBackend()
    backend.entity_interner = entity_interner
    backend.relation_interner = relation_interner
    backend.bulk_load_ids(rows)
    return write_backend_dir(backend, directory)


def load_header(directory: str | Path) -> dict:
    """Read and validate a store directory's header.

    Checks magic, format version, dtype and the byte size of every array
    file against the counts the header declares, so corruption and
    truncation surface at open time as :class:`~repro.errors.StorageError`
    instead of as garbage query results later.
    """
    directory = Path(directory)
    if peek_store_magic(directory) == "repro-kg-sharded":
        # The second layout older builds wrote (``TripleStore.save`` of a
        # sharded store, every ``shard_split`` snapshot).  No reader is kept.
        raise StorageError(
            f"{directory}: a sharded store directory, a layout this build "
            f"no longer reads — re-run shard-split from the source store, "
            f"or open it with the build that wrote it and save it again")
    header = read_header(
        directory, HEADER_FILE, magic=MAGIC, version=FORMAT_VERSION,
        counts={"num_triples": 0, "num_entities": 0, "num_relations": 0},
        kind="graph store")
    if header.get("dtype") != _INT64.str:
        raise StorageError(
            f"{directory}: dtype mismatch — store has {header.get('dtype')!r}, "
            f"this platform reads {_INT64.str!r}")
    # The tables themselves are checked against these when they load
    # (read_interner_pair), like the tables of a split's header.
    check_header_counts(directory, header,
                        {"entity_blob_bytes": 0, "relation_blob_bytes": 0})
    sizes = {name: int(np.prod(shape)) * _INT64.itemsize
             for name, shape in _array_shapes(header).items()}
    for name, expected in sizes.items():
        path = directory / name
        if not path.is_file():
            raise StorageError(f"{directory}: missing array file {name}")
        actual = path.stat().st_size
        if actual != expected:
            raise StorageError(
                f"{path}: expected {expected} bytes, "
                f"found {actual} — truncated or corrupt")
    return header


def peek_store_magic(directory: str | Path) -> "str | None":
    """The ``magic`` string of a store directory's header, or ``None``
    when there is no parseable header (:func:`read_header` then says
    precisely what is wrong)."""
    header_path = Path(directory) / HEADER_FILE
    try:
        header = json.loads(header_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        return None
    return header.get("magic") if isinstance(header, dict) else None


def map_base(directory: Path, header: dict) -> Dict[str, np.ndarray]:
    """A saved directory's base block, by :class:`ColumnarBackend`
    attribute: plain read-only ``ndarray`` views over memory maps of its
    files (``.base`` keeps each mapping alive).  Zero-byte mappings are
    rejected, so an empty array lives in the heap."""
    shapes = _array_shapes(header)
    return {attr: np.zeros(shapes[name], dtype=np.int64)
            if 0 in shapes[name] else
            np.asarray(np.memmap(directory / name, dtype=np.int64, mode="r",
                                 shape=shapes[name]))
            for name, attr in BASE_FILES.items()}
