"""The wire protocol shared by :mod:`repro.kg.server` and :mod:`repro.kg.client`.

One frame = a 4-byte big-endian unsigned length prefix followed by that
many bytes of UTF-8 JSON encoding a single object.  Requests carry an
``op`` plus op-specific fields and a client-chosen ``id``; responses
echo the ``id`` and carry either ``{"ok": true, "result": ...}`` or
``{"ok": false, "error": {"type": ..., "message": ...}}``.

Design choices, in order of importance:

* **hostility is normal** — every decode path raises
  :class:`~repro.errors.ProtocolError` with a specific message instead
  of letting ``struct``/``json``/``KeyError`` noise escape; a server
  must be able to treat any of these as "this connection is garbage,
  drop it" without crashing;
* **frames are bounded** — a length prefix larger than ``max_bytes``
  fails *before* any allocation, so a hostile 4-byte header cannot make
  the peer allocate gigabytes;
* **errors travel typed** — the error ``type`` field round-trips
  through :data:`WIRE_ERRORS`, so a server-side
  :class:`~repro.errors.CursorError` re-raises as a ``CursorError`` in
  the client process, and query-boundary ``except`` clauses behave the
  same for local and remote engines.

Two planes share that framing:

* **control plane — JSON.**  Every request, error, scalar or small
  structured answer (``ping``, ``stats``, counts, write acks, ``role``,
  ``wal_tail``'s position report, cursor ids) and the base64 chunks of
  ``snapshot_ship``, which carry a snapshot's files and the leader's
  WAL bytes to a replica.  A connection that never says ``hello``
  speaks nothing else.
* **row plane — the id-block frame, the one row encoder.**  One
  ``hello`` exchange switches a connection to tagged frames: the body
  starts with :data:`TAG_JSON` (requests, errors, control results) or
  :data:`TAG_BINARY`, a packed response shipping rows as dense
  **little-endian int64 id blocks** plus an **interner delta** — only
  the id→symbol entries this connection has not been sent yet.  Every
  read answer is a block — an empty one has zero rows, a query without
  variables zero columns — so a binary frame carries blocks and
  nothing else.  The client decodes blocks zero-copy
  (``np.frombuffer``) and resolves strings from its connection-local
  symbol cache.

The refusal rule: an op that answers in blocks (:attr:`Op.rows`) is
refused with a typed ``ProtocolError`` naming it and ``hello`` when the
caller cannot frame one — no ``hello``, or a request id that is not an
int64 — *before* its fields are decoded or anything runs.

Binary response body layout (everything after the tag little-endian)::

    u8 tag='B'  u8 version  u8 shape  u8 pad  i64 request_id
    entity-delta  relation-delta        # delta := u32 count,
    u32 item_count                      #   count x i64 ids,
    item_count x item                   #   count x u32 byte lens,
                                        #   concatenated utf-8 blob
    item := u8 kind                     # 1 bindings, 2 triples
        u8 flags (bit0 = page exhausted)
        u16 ncols, [kind 1 only] ncols x (u8 space, u16 len, name)
        u64 nrows, nrows*ncols x i64 row-major id block

Any other item kind, 0 included, is refused with a typed
``ProtocolError``: a value that is not a block travels as a JSON frame.

``shape`` says how the items assemble back into the result: 0 = the
single item IS the result, 1 = the result is the list of items, 2 = a
cursor page ``{"rows": item, "exhausted": flag}``.  The ``hello``
itself (and its response) always travels as a plain JSON frame.
"""

from __future__ import annotations

import base64
import json
import socket
import struct
import zlib
from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple, Type)

import numpy as np

from repro.errors import (
    CursorError,
    ProtocolError,
    QueryError,
    ReproError,
    SerializationError,
    ShardUnavailableError,
    StorageError,
    ValidationError,
)
from repro.kg.planner import PatternQuery
from repro.kg.triple import Triple

#: Struct layout of the length prefix: 4-byte big-endian unsigned.
_LENGTH = struct.Struct(">I")

#: Default cap on one frame's payload, bytes.  Generous for result
#: pages (the server pages big results through cursors anyway) while
#: keeping a hostile length prefix from allocating gigabytes.
MAX_FRAME_BYTES = 32 * 1024 * 1024

#: Error types that re-raise as themselves on the far side of the wire.
WIRE_ERRORS: Dict[str, Type[ReproError]] = {
    "ReproError": ReproError,
    "QueryError": QueryError,
    "CursorError": CursorError,
    "ProtocolError": ProtocolError,
    "ShardUnavailableError": ShardUnavailableError,
    "SerializationError": SerializationError,
    "StorageError": StorageError,
    "ValidationError": ValidationError,
}


def _json_bytes(payload: object) -> bytes:
    try:
        return json.dumps(payload, ensure_ascii=False,
                          separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"unencodable message payload: {exc}") from exc


def _framed(body: bytes, max_bytes: int) -> bytes:
    """``body`` behind its length prefix, refused beyond the frame cap."""
    if len(body) > max_bytes:
        raise ProtocolError(
            f"frame payload of {len(body)} bytes exceeds the "
            f"{max_bytes}-byte frame cap; page large results through a "
            f"cursor instead")
    return _LENGTH.pack(len(body)) + body


def encode_frame(payload: dict, max_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """Serialize one message to its on-wire bytes (length prefix + JSON)."""
    return _framed(_json_bytes(payload), max_bytes)


# --------------------------------------------------------------------------
# Request shapes: each wire form written once, encoder beside decoder.
# A decoder is ``(value, field_name) -> decoded`` and raises ProtocolError.
# --------------------------------------------------------------------------

def _wire_scalar(kind: type, wanted: str, minimum: Optional[int] = None):
    """A decoder for a field of one JSON type — a boolean is never an
    integer here — and, for an integer, no smaller than ``minimum``."""
    def decode(value: object, field: str):
        if not isinstance(value, kind) \
                or (isinstance(value, bool) and kind is not bool) \
                or (minimum is not None and value < minimum):
            raise ProtocolError(
                f"field {field!r} must be {wanted}, got {value!r}")
        return value
    return decode


_INT = _wire_scalar(int, "an integer")
_COUNT = _wire_scalar(int, "an integer >= 0", minimum=0)
_STR = _wire_scalar(str, "a string")
_BOOL = _wire_scalar(bool, "a boolean")


def _wire_list(decode_item):
    """A decoder for an array whose every item ``decode_item`` accepts.
    The whole array decodes before the caller sees any of it, so a
    batch op never runs (or WAL-logs) half of a malformed request."""
    def decode(value: object, field: str) -> list:
        if not isinstance(value, list):
            raise ProtocolError(
                f"field {field!r} must be an array, got {value!r}")
        try:
            return [decode_item(item, field) for item in value]
        except ProtocolError:   # again, this time naming the bad item
            return [decode_item(item, f"{field}[{index}]")
                    for index, item in enumerate(value)]
    return decode


def encode_wire_patterns(patterns: Sequence[Sequence]) -> List[list]:
    """Patterns as their wire form: 3-element arrays, ``null`` wildcards."""
    return [list(pattern) for pattern in patterns]


def _wire_pattern(kind: type = str, wildcards: bool = True):
    """A decoder for a 3-item pattern array: every item a ``kind``
    (``str`` symbols, or ``int`` ids for the id-space ops; never a
    boolean) or, with ``wildcards``, ``null``."""
    def decode(value: object, field: str) -> tuple:
        if not isinstance(value, (list, tuple)) or len(value) != 3:
            raise ProtocolError(
                f"{field} must be a 3-element array, got {value!r}")
        for item in value:
            if type(item) is not kind and (item is not None or not wildcards):
                raise ProtocolError(
                    f"{field} terms must be {kind.__name__}"
                    f"{' or null' if wildcards else ''}, got {item!r}")
        return tuple(value)
    return decode


decode_wire_pattern = _wire_pattern()
_decode_terms = _wire_pattern(wildcards=False)


def encode_wire_triples(triples: Sequence[Triple]) -> List[List[str]]:
    """Triples as their wire form: ``[head, relation, tail]`` arrays.

    The body of the ``add_many`` / ``remove_many`` write ops.  Requests
    are always JSON — binary frames flow server-to-client only.
    """
    return [[triple.head, triple.relation, triple.tail]
            for triple in triples]


def _decode_wire_triple(value: object, field: str) -> Triple:
    try:    # Triple itself refuses empty terms
        return Triple(*_decode_terms(value, field))
    except ValueError as exc:
        raise ProtocolError(f"{field}: {exc}") from None


#: Decode and validate a wire triples array ``(value, field)`` into
#: :class:`Triple`\ s.  Hostile input gets a ProtocolError naming the
#: offending element — never a half-decoded batch.
decode_wire_triples = _wire_list(_decode_wire_triple)

#: ``Field.default`` of a field the object must carry.
REQUIRED = object()


class Field(NamedTuple):
    """One declared field of a wire object: its decoder and what an
    absent field decodes to."""

    decode: Callable[[object, str], object]
    default: object = REQUIRED


def decode_fields(fields: Dict[str, Field], value: object, what: str,
                  envelope: Tuple[str, ...] = ()) -> dict:
    """Decode the wire object ``value`` against its declared ``fields``:
    every field decoded or defaulted, a missing required one refused —
    and an undeclared one too, never ignored: a typo'd ``"limt"`` must
    not silently serve the default answer."""
    if not isinstance(value, dict):
        raise ProtocolError(f"{what} must be an object, got {value!r}")
    decoded = {}
    undeclared = len(value)
    for name, (decode, default) in fields.items():
        if name in value:
            undeclared -= 1
            decoded[name] = decode(value[name], name)
        elif default is REQUIRED:
            raise ProtocolError(f"{what} is missing required field {name!r}")
        else:
            decoded[name] = default
    for name in envelope:
        undeclared -= name in value
    if undeclared:
        unknown = min(value.keys() - fields.keys() - set(envelope))
        raise ProtocolError(
            f"{what} takes no field {unknown!r} (allowed: "
            f"{', '.join((*envelope, *fields))})")
    return decoded


_QUERY_FIELDS = {
    "patterns": Field(_wire_list(_decode_terms)),    # '?name' = variable
    "select": Field(_wire_list(_STR), ()),
    "limit": Field(lambda value, field:
                   None if value is None else _INT(value, field), None),
}


def encode_wire_query(query: PatternQuery) -> dict:
    """A :class:`PatternQuery` as its wire object (defaults omitted)."""
    message = {"patterns": encode_wire_patterns(query.patterns)}
    if query.select:
        message["select"] = list(query.select)
    if query.limit is not None:
        message["limit"] = query.limit
    return message


def decode_wire_query(value: object, field: str = "query") -> PatternQuery:
    """Decode a wire query object into a :class:`PatternQuery`."""
    decoded = decode_fields(_QUERY_FIELDS, value, field)
    return PatternQuery(tuple(decoded["patterns"]), tuple(decoded["select"]),
                        decoded["limit"])    # shapes checked: no re-normalizing


# --------------------------------------------------------------------------
# The op table
# --------------------------------------------------------------------------

class Op(NamedTuple):
    """One request op, declared once: server dispatch and validation,
    the replica write-gate, the client's retry policy, the documented
    op list and the malformed-request test matrix all read this table.
    Adding an op is one entry plus one ``KGServer._HANDLERS`` entry.

    ``write``: the op mutates the store; a ``--follow`` replica refuses
    it before looking at its fields.

    ``retry_safe``: a client may silently re-issue the op on a fresh
    connection after a transport failure — a pure read whose answer
    does not depend on how many times the server saw the request.
    Writes are NEVER retry-safe: a lost response does not mean a lost
    write, and double-applying is worse than surfacing the error.
    Neither is ``fetch``: the server advances the cursor per fetch, so a
    retried fetch could silently skip a page.  ``open_cursor`` /
    ``open_match_cursor`` are safe — the worst case is an orphaned
    server-side cursor, which the TTL sweep reaps.  ``promote`` is
    excluded like the writes: it bumps the store generation, and a
    retried promotion must stay an explicit decision of the routing
    layer, never a silent transport-level replay.

    ``rows``: the op answers in id blocks — refused, before its fields
    decode, from a caller that cannot frame one (no ``hello``, bad id).
    """

    fields: Dict[str, Field] = {}
    write: bool = False
    retry_safe: bool = False
    rows: bool = False

    def decode(self, message: dict) -> dict:
        """The handler's keyword arguments out of a request message."""
        return decode_fields(self.fields, message, message["op"],
                             ("id", "op"))


_PATTERN = {"pattern": Field(decode_wire_pattern)}
_PATTERNS = {"patterns": Field(_wire_list(decode_wire_pattern))}
_ID_PATTERNS = {"patterns": Field(_wire_list(_wire_pattern(int)))}
_QUERY = {"query": Field(decode_wire_query)}
_QUERIES = {"queries": Field(_wire_list(decode_wire_query))}
_CURSOR = Field(_STR)
_TRIPLES = {"triples": Field(decode_wire_triples)}

#: Every request op but ``hello``, which the server answers at the frame
#: level: it changes the connection's framing, not what the store answers.
OPS: Dict[str, Op] = {
    "ping": Op(retry_safe=True),
    "stats": Op(retry_safe=True),
    "len": Op(retry_safe=True),
    "role": Op(retry_safe=True),
    "replication_status": Op(retry_safe=True),
    # The leader's WAL position, ``{generation, next_seq}``; replicas
    # copy the log itself through ``snapshot_ship``.
    "wal_tail": Op({"after_seq": Field(_COUNT)}, retry_safe=True),
    # No ``path`` asks for the manifest; with one it is a chunk request
    # of a snapshot member or of the generation's ``wal-G.log``, and
    # ``generation`` must be the current one.
    "snapshot_ship": Op({"path": Field(_STR, None),
                         "offset": Field(_COUNT, 0),
                         "generation": Field(_INT, None)},
                        retry_safe=True),
    "promote": Op(),
    "execute": Op(_QUERY, retry_safe=True, rows=True),
    "execute_many": Op(_QUERIES, retry_safe=True, rows=True),
    "match": Op(_PATTERN, retry_safe=True, rows=True),
    "match_many": Op(_PATTERNS, retry_safe=True, rows=True),
    "match_ids_many": Op(_ID_PATTERNS, retry_safe=True, rows=True),
    "count": Op(_PATTERN, retry_safe=True),
    "count_many": Op(_PATTERNS, retry_safe=True),
    "open_cursor": Op(_QUERY, retry_safe=True, rows=True),
    "open_match_cursor": Op(_PATTERN, retry_safe=True, rows=True),
    "fetch": Op({"cursor": _CURSOR, "max_rows": Field(_INT)}, rows=True),
    "close_cursor": Op({"cursor": _CURSOR}),
    "add_many": Op(_TRIPLES, write=True),
    "remove_many": Op(_TRIPLES, write=True),
    "compact": Op(write=True),
}

#: The framing negotiation — the one exchange outside :data:`OPS`.
HELLO = Op({"codecs": Field(_wire_list(_STR), ())})


def _recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    """Read exactly ``count`` bytes; ``None`` on EOF *before* any byte.

    EOF in the middle of the requested span is a truncated frame and
    raises — the peer hung up mid-message, which the caller must not
    confuse with a clean close between frames.
    """
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if remaining == count:
                return None
            raise ProtocolError(
                f"connection closed mid-frame ({count - remaining} of "
                f"{count} bytes received)")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def check_frame_length(length: int, max_bytes: int) -> None:
    """Refuse a declared frame length before anything is allocated for it."""
    if length == 0:
        raise ProtocolError("zero-length frame")
    if length > max_bytes:
        raise ProtocolError(
            f"declared frame length {length} exceeds the {max_bytes}-byte "
            f"cap (hostile or corrupt length prefix)")


def read_frame_bytes(sock: socket.socket,
                     max_bytes: int = MAX_FRAME_BYTES) -> Optional[bytes]:
    """Read one frame's raw body bytes; ``None`` on clean EOF at a
    frame boundary.

    Raises :class:`~repro.errors.ProtocolError` for truncated prefix or
    body and oversized or empty declared length.  Codec-level decoding
    (JSON parse, binary unpack) is the caller's concern.
    """
    prefix = _recv_exact(sock, _LENGTH.size)
    if prefix is None:
        return None
    (length,) = _LENGTH.unpack(prefix)
    check_frame_length(length, max_bytes)
    body = _recv_exact(sock, length)
    if body is None:  # pragma: no cover - _recv_exact raises instead
        raise ProtocolError("connection closed before frame body")
    return body


def decode_json_body(body: bytes) -> dict:
    """Parse a JSON frame body: a single UTF-8 object."""
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame body is not valid JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame body must be a JSON object, got {type(message).__name__}")
    return message


def read_frame(sock: socket.socket,
               max_bytes: int = MAX_FRAME_BYTES) -> Optional[dict]:
    """Read one frame; ``None`` on clean EOF at a frame boundary.

    Raises :class:`~repro.errors.ProtocolError` for every malformed
    shape: truncated prefix or body, oversized or empty declared
    length, bytes that are not valid UTF-8 JSON, and JSON that is not
    an object.
    """
    body = read_frame_bytes(sock, max_bytes=max_bytes)
    if body is None:
        return None
    return decode_json_body(body)


def send_frame(sock: socket.socket, payload: dict,
               max_bytes: int = MAX_FRAME_BYTES) -> None:
    """Encode and write one frame (blocking until fully sent)."""
    sock.sendall(encode_frame(payload, max_bytes=max_bytes))


#: Most raw bytes per ``snapshot_ship`` chunk.
SNAPSHOT_CHUNK_BYTES = 8 * 1024 * 1024


def snapshot_chunk_bytes(max_frame_bytes: int) -> int:
    """Raw bytes per ``snapshot_ship`` chunk from a server whose frame
    cap is ``max_frame_bytes``: the chunk rides in a JSON frame as
    base64 (4/3 growth), and 512 bytes are left for the envelope (id,
    member path, numbers and flags)."""
    return max(3, min(SNAPSHOT_CHUNK_BYTES,
                      (max_frame_bytes - 512) // 4 * 3))


_MANIFEST = {
    "generation": Field(_COUNT),
    "base_seq": Field(_COUNT, 0),
    "chunk_bytes": Field(_COUNT, SNAPSHOT_CHUNK_BYTES),
    "files": Field(_wire_list(lambda value, field: decode_fields(
        {"path": Field(_STR), "size": Field(_COUNT)}, value, field))),
}
_CHUNK = {"data": Field(_STR), "crc32": Field(_INT), "path": Field(_STR),
          "generation": Field(_COUNT), "size": Field(_COUNT),
          "eof": Field(_BOOL)}


def decode_snapshot_manifest(manifest: object) -> dict:
    """Type-check a ``snapshot_ship`` manifest response: the leader's
    ``generation``, the ``base_seq`` its snapshot corresponds to, and
    the ``path`` + ``size`` of every member file."""
    return decode_fields(_MANIFEST, manifest, "snapshot manifest")


def encode_snapshot_chunk(data: bytes) -> dict:
    """The payload fields one ``snapshot_ship`` chunk response carries."""
    return {"data": base64.b64encode(data).decode("ascii"),
            "crc32": zlib.crc32(data)}


def decode_snapshot_chunk(chunk: object) -> bytes:
    """Decode and integrity-check one ``snapshot_ship`` chunk response.

    A snapshot transfer rebuilds a store the receiver will trust as its
    own durable state, so every chunk is checksummed end to end; any
    mismatch or malformed field raises :class:`~repro.errors.ProtocolError`
    (the fetcher restarts the transfer, it never installs damaged bytes).
    """
    chunk = decode_fields(_CHUNK, chunk, "snapshot chunk")
    try:
        data = base64.b64decode(chunk["data"].encode("ascii"), validate=True)
    except (ValueError, UnicodeEncodeError) as exc:
        raise ProtocolError(
            f"snapshot chunk carries invalid base64: {exc}") from exc
    if zlib.crc32(data) != chunk["crc32"]:
        raise ProtocolError(
            "snapshot chunk failed its CRC32 check (corrupted in transit); "
            "restart the fetch")
    return data


def error_to_wire(exc: BaseException) -> dict:
    """The ``error`` object a failure response carries."""
    name = type(exc).__name__
    return {"type": name if name in WIRE_ERRORS else "ReproError",
            "message": f"{str(exc) or name}"
                       if name in WIRE_ERRORS else f"{name}: {exc}"}


def error_from_wire(error: object) -> ReproError:
    """Rebuild the typed exception a failure response describes."""
    if not isinstance(error, dict):
        return ReproError(f"malformed server error payload: {error!r}")
    kind = WIRE_ERRORS.get(error.get("type", ""), ReproError)
    return kind(str(error.get("message", "unknown server error")))


# --------------------------------------------------------------------------
# The id-block frame
# --------------------------------------------------------------------------

#: Version byte of the binary response layout.  Bumped on any change;
#: a decoder refuses versions it does not know.
BINARY_PROTOCOL_VERSION = 1

#: Codec names as they appear in the ``hello`` negotiation.
CODEC_JSON = "json"
CODEC_BINARY = "binary"

#: First body byte on a *negotiated binary* connection.  ``J`` marks a
#: JSON payload (requests, errors, small control results), ``B`` a
#: packed response.  Neither is valid leading JSON, so a tagged frame
#: sent on a connection that never said ``hello`` fails with a typed
#: ProtocolError instead of being misread.
TAG_JSON = 0x4A    # 'J'
TAG_BINARY = 0x42  # 'B'

#: ``shape`` byte: how decoded items assemble into the result.
SHAPE_SINGLE = 0   # the one item IS the result
SHAPE_LIST = 1     # the result is the list of items
SHAPE_PAGE = 2     # cursor page {"rows": item, "exhausted": flag}

#: ``kind`` byte of one item.
ITEM_BINDINGS = 1  # id block with named, per-space typed columns
ITEM_TRIPLES = 2   # id block of (head, relation, tail) rows

#: Block ``flags`` bits.
FLAG_EXHAUSTED = 0x01

_HEADER = struct.Struct("<BBBBq")   # tag, version, shape, pad, request_id
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_ITEM_BLOCK = struct.Struct("<BBH")  # kind, flags, ncols

#: Column-space byte inside a bindings block.
_SPACE_ENTITY = 0
_SPACE_RELATION = 1

_TRIPLE_NAMES = ("head", "relation", "tail")
_TRIPLE_KINDS = ("e", "r", "e")


def encode_tagged_json(payload: dict,
                       max_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """Serialize one message for a binary connection: length prefix,
    :data:`TAG_JSON`, then the UTF-8 JSON body."""
    return _framed(bytes((TAG_JSON,)) + _json_bytes(payload), max_bytes)


class DecodedBlock:
    """A zero-copy view of one id block from a binary response.

    ``rows`` is the ``(nrows, ncols)`` little-endian int64 array mapped
    straight out of the frame body with ``np.frombuffer`` — no per-row
    Python objects exist until a caller asks for them.  Bulk consumers
    (samplers, embedding pipelines, scatter/gather engines) use
    ``rows`` directly, or :func:`rekey_blocks` for ids of their own
    interners;
    :meth:`to_bindings` / :meth:`to_triples` materialize the exact
    objects the in-process engine returns.
    """

    __slots__ = ("names", "kinds", "rows", "is_triples", "exhausted",
                 "_decoder")

    def __init__(self, names: Tuple[str, ...], kinds: Tuple[str, ...],
                 rows: "np.ndarray", *, is_triples: bool, exhausted: bool,
                 decoder: "BinaryResponseDecoder") -> None:
        self.names = names
        self.kinds = kinds
        self.rows = rows
        self.is_triples = is_triples
        self.exhausted = exhausted
        self._decoder = decoder

    def __len__(self) -> int:
        return len(self.rows)

    def _column_symbols(self, col: int) -> List[str]:
        return self._decoder.symbols_of(self.kinds[col],
                                        self.rows[:, col].tolist())

    def to_rows(self):
        """Materialize the block as the kind of rows it holds."""
        return self.to_triples() if self.is_triples else self.to_bindings()

    def to_bindings(self) -> List[Dict[str, str]]:
        """Resolve the block into the binding dicts ``execute`` returns."""
        if self.is_triples:
            raise ProtocolError("triples block cannot decode as bindings")
        count = len(self.rows)
        names = self.names
        if not names:
            return [{} for _ in range(count)]
        cols = [self._column_symbols(j) for j in range(len(names))]
        # Dict displays beat dict(zip(...)) ~3x on the hot row loop.
        if len(names) == 1:
            (n0,), (c0,) = names, cols
            return [{n0: a} for a in c0]
        if len(names) == 2:
            (n0, n1), (c0, c1) = names, cols
            return [{n0: a, n1: b} for a, b in zip(c0, c1)]
        if len(names) == 3:
            (n0, n1, n2), (c0, c1, c2) = names, cols
            return [{n0: a, n1: b, n2: c} for a, b, c in zip(c0, c1, c2)]
        return [dict(zip(names, vals)) for vals in zip(*cols)]

    def to_triples(self) -> List[Triple]:
        """Resolve the block into the :class:`Triple` list ``match``
        returns."""
        if not self.is_triples:
            raise ProtocolError("bindings block cannot decode as triples")
        heads, relations, tails = (self._column_symbols(0),
                                   self._column_symbols(1),
                                   self._column_symbols(2))
        unchecked = Triple.unchecked
        return [unchecked(h, r, t)
                for h, r, t in zip(heads, relations, tails)]


def _delta_bytes(ids: "np.ndarray", symbols: List[str]) -> bytes:
    """One interner delta: count, ids, byte lengths, utf-8 blob."""
    encoded = [s.encode("utf-8") for s in symbols]
    lengths = np.fromiter((len(b) for b in encoded), dtype="<u4",
                          count=len(encoded))
    return b"".join((_U32.pack(len(encoded)),
                     ids.astype("<i8", copy=False).tobytes(),
                     lengths.tobytes(),
                     b"".join(encoded)))


class BinaryResponseEncoder:
    """Per-connection encoder for :data:`TAG_BINARY` response frames.

    Holds the connection's "already sent" id masks for both symbol
    spaces; every :meth:`encode` call ships only the interner entries
    the peer has not seen yet.  Responses must therefore be encoded in
    the order they are written to the socket — the server serializes
    per-connection processing anyway, which is exactly the guarantee
    this state needs.
    """

    def __init__(self, entity_interner, relation_interner,
                 max_bytes: int = MAX_FRAME_BYTES) -> None:
        self._interners = {"e": entity_interner, "r": relation_interner}
        self._sent = {"e": np.zeros(0, dtype=bool),
                      "r": np.zeros(0, dtype=bool)}
        self._max_bytes = max_bytes

    def _delta_for(self, space: str, id_arrays: List["np.ndarray"]):
        """(new_ids, symbols) this response must carry for one space."""
        if not id_arrays:
            return np.zeros(0, dtype=np.int64), []
        ids = np.unique(np.concatenate(
            [a.ravel() for a in id_arrays]) if len(id_arrays) > 1
            else id_arrays[0].ravel())
        if not len(ids):
            return np.zeros(0, dtype=np.int64), []
        sent = self._sent[space]
        if int(ids[-1]) >= len(sent):
            grown = np.zeros(int(ids[-1]) + 1, dtype=bool)
            grown[:len(sent)] = sent
            self._sent[space] = sent = grown
        new_ids = ids[~sent[ids]]
        table = self._interners[space].symbol_table()
        try:
            symbols = [table[i] for i in new_ids.tolist()]
        except IndexError as exc:
            raise ProtocolError(
                f"result block references {space!r}-space id beyond the "
                f"interner table ({len(table)} symbols)") from exc
        return new_ids, symbols

    def encode(self, request_id: int, shape: int, blocks: Sequence,
               flags: int = 0, max_bytes: Optional[int] = None) -> bytes:
        """Encode one response into a complete frame (prefix included).

        Every block exposes ``names`` (unused for triples), ``kinds``,
        ``rows`` (int64 ndarray) and ``triples`` (bool), and carries
        ``flags``.  Raises ProtocolError without touching connection
        state if the frame would exceed the cap, so an oversized-result
        error never desyncs the delta masks.
        """
        cap = self._max_bytes if max_bytes is None else max_bytes
        pending = {"e": [], "r": []}
        encoded_items = []
        for block in blocks:
            rows = np.ascontiguousarray(block.rows, dtype="<i8")
            kinds = tuple(block.kinds)
            for col, kind in enumerate(kinds):
                if len(rows):
                    pending[kind].append(rows[:, col])
            if block.triples:
                head = _ITEM_BLOCK.pack(ITEM_TRIPLES, flags, len(kinds))
            else:
                names = b"".join(
                    bytes((_SPACE_ENTITY if kind == "e"
                           else _SPACE_RELATION,))
                    + _U16.pack(len(encoded_name)) + encoded_name
                    for kind, encoded_name in zip(
                        kinds, (n.encode("utf-8") for n in block.names)))
                head = _ITEM_BLOCK.pack(ITEM_BINDINGS, flags,
                                        len(kinds)) + names
            encoded_items.append(
                head + _U64.pack(len(rows)) + rows.tobytes())
        new_e, symbols_e = self._delta_for("e", pending["e"])
        new_r, symbols_r = self._delta_for("r", pending["r"])
        body = b"".join((
            _HEADER.pack(TAG_BINARY, BINARY_PROTOCOL_VERSION, shape, 0,
                         request_id),
            _delta_bytes(new_e, symbols_e),
            _delta_bytes(new_r, symbols_r),
            _U32.pack(len(encoded_items)),
            *encoded_items))
        frame = _framed(body, cap)
        # Size check passed: only now commit the delta to the masks.
        if len(new_e):
            self._sent["e"][new_e] = True
        if len(new_r):
            self._sent["r"][new_r] = True
        return frame


class BinaryResponseDecoder:
    """Per-connection decoder mirroring :class:`BinaryResponseEncoder`.

    Accumulates the interner deltas into id→symbol dict caches that
    live as long as the connection; every :class:`DecodedBlock` handed
    out references those caches.  So does the re-key state of
    :meth:`rekey`: a fresh connection starts a fresh map.
    """

    def __init__(self) -> None:
        self.entity_symbols: Dict[int, str] = {}
        self.relation_symbols: Dict[int, str] = {}
        # Re-key state per space ("e" / "r"): the highest id the sender
        # shipped a symbol for; which ids :meth:`rekey` resolved (1 byte
        # per id); the sender id -> caller id map (8 bytes per id), only
        # once some id resolved to another number.  Both arrays grow by
        # doubling: at most twice the highest id a block referenced.
        self._top = {"e": -1, "r": -1}
        self._resolved = {"e": np.zeros(0, dtype=bool),
                          "r": np.zeros(0, dtype=bool)}
        self._rekeyed: Dict[str, Optional["np.ndarray"]] = \
            {"e": None, "r": None}

    def rekey(self, rows: "np.ndarray", kinds: Sequence[str],
              entity_interner, relation_interner) -> "np.ndarray":
        """``rows`` (this connection's ids, one space per column of
        ``kinds``) as ids of the caller's interner pair.

        Only ids not resolved before look up their symbol, and a symbol
        the caller's interner lacks is interned there — so call this
        from the thread that owns that interner pair, and use one pair
        per connection.  An id the sender never shipped a symbol for
        (negative ones included) is a :class:`ProtocolError`.  While a
        space's ids all resolved to themselves its columns are only
        checked: ``rows`` itself comes back if no column was rewritten.
        """
        keyed = rows
        for col, kind in enumerate(kinds if len(rows) else ()):
            column, top = rows[:, col], self._top[kind]
            high = int(column.view(np.uint64).max())    # negatives: huge
            if high > top:
                raise ProtocolError(
                    f"binary response references {kind!r}-space id "
                    f"{column[(column < 0) | (column > top)][0]} outside "
                    f"the ids this connection has symbols for (0..{top})")
            resolved, memo = self._resolved[kind], self._rekeyed[kind]
            if high >= len(resolved):
                size = max(high + 1, 2 * len(resolved))
                resolved = np.concatenate(
                    (resolved, np.zeros(size - len(resolved), dtype=bool)))
                if memo is not None:
                    memo = np.concatenate(
                        (memo, np.arange(len(memo), size, dtype=np.int64)))
                self._resolved[kind], self._rekeyed[kind] = resolved, memo
            known = resolved[column]
            if not known.all():
                unseen = list(dict.fromkeys(column[~known].tolist()))
                intern = (entity_interner if kind == "e"
                          else relation_interner).intern
                mine = [intern(symbol)
                        for symbol in self.symbols_of(kind, unseen)]
                resolved[unseen] = True
                if memo is None and mine != unseen:
                    memo = self._rekeyed[kind] = np.arange(len(resolved))
                if memo is not None:
                    memo[unseen] = mine
            if memo is not None:
                if keyed is rows:
                    keyed = rows.astype(np.int64)
                keyed[:, col] = memo[column]
        return keyed

    def symbols_of(self, kind: str, ids: List[int]) -> List[str]:
        """Resolve this connection's ids of one space (``"e"``/``"r"``)."""
        cache = self.entity_symbols if kind == "e" else self.relation_symbols
        try:
            return [cache[i] for i in ids]
        except KeyError as exc:
            raise ProtocolError(
                f"binary response references id {exc.args[0]} with no "
                f"symbol mapping on this connection (interner-delta "
                f"desync)") from exc

    def _apply_delta(self, body: bytes, offset: int, kind: str) -> int:
        cache = self.entity_symbols if kind == "e" else self.relation_symbols
        (count,) = _U32.unpack_from(body, offset)
        offset += _U32.size
        ids = np.frombuffer(body, dtype="<i8", count=count, offset=offset)
        offset += 8 * count
        if count:
            if int(ids.min()) < 0:
                raise ProtocolError(
                    f"interner delta carries negative {kind!r}-space id "
                    f"{int(ids.min())}")
            self._top[kind] = max(self._top[kind], int(ids.max()))
        lengths = np.frombuffer(body, dtype="<u4", count=count,
                                offset=offset)
        offset += 4 * count
        try:
            for symbol_id, nbytes in zip(ids.tolist(), lengths.tolist()):
                cache[symbol_id] = body[offset:offset + nbytes].decode(
                    "utf-8")
                offset += nbytes
        except UnicodeDecodeError as exc:
            raise ProtocolError(
                f"interner delta carries invalid UTF-8: {exc}") from exc
        return offset

    def _decode_item(self, body: bytes, offset: int):
        (kind,) = struct.unpack_from("<B", body, offset)
        offset += 1
        if kind not in (ITEM_BINDINGS, ITEM_TRIPLES):
            raise ProtocolError(f"unknown binary item kind {kind}")
        flags, ncols = struct.unpack_from("<BH", body, offset)
        offset += 3
        if kind == ITEM_TRIPLES:
            if ncols != 3:
                raise ProtocolError(
                    f"triples block must have 3 columns, got {ncols}")
            names, kinds = _TRIPLE_NAMES, _TRIPLE_KINDS
        else:
            names, kinds = [], []
            for _ in range(ncols):
                space, name_len = struct.unpack_from("<BH", body, offset)
                offset += 3
                if space not in (_SPACE_ENTITY, _SPACE_RELATION):
                    raise ProtocolError(
                        f"unknown column space byte {space}")
                kinds.append("e" if space == _SPACE_ENTITY else "r")
                try:
                    names.append(body[offset:offset + name_len].decode(
                        "utf-8"))
                except UnicodeDecodeError as exc:
                    raise ProtocolError(
                        f"column name is invalid UTF-8: {exc}") from exc
                offset += name_len
            names, kinds = tuple(names), tuple(kinds)
        (nrows,) = _U64.unpack_from(body, offset)
        offset += _U64.size
        span = 8 * nrows * ncols
        if offset + span > len(body):
            raise ProtocolError(
                f"id block declares {nrows}x{ncols} rows but the frame "
                f"has only {len(body) - offset} bytes left")
        rows = np.frombuffer(body, dtype="<i8", count=nrows * ncols,
                             offset=offset).reshape(nrows, ncols)
        offset += span
        block = DecodedBlock(
            names, kinds, rows,
            is_triples=(kind == ITEM_TRIPLES),
            exhausted=bool(flags & FLAG_EXHAUSTED), decoder=self)
        return block, offset

    def decode(self, body: bytes) -> dict:
        """Decode one :data:`TAG_BINARY` body into a response dict shaped
        like a JSON one (blocks left as :class:`DecodedBlock` for the
        caller to materialize or use zero-copy)."""
        try:
            tag, version, shape, _, request_id = _HEADER.unpack_from(body, 0)
            if tag != TAG_BINARY:  # pragma: no cover - caller dispatches
                raise ProtocolError(f"not a binary frame (tag {tag:#x})")
            if version != BINARY_PROTOCOL_VERSION:
                raise ProtocolError(
                    f"unsupported binary protocol version {version} "
                    f"(this client speaks {BINARY_PROTOCOL_VERSION})")
            offset = self._apply_delta(body, _HEADER.size, "e")
            offset = self._apply_delta(body, offset, "r")
            (item_count,) = _U32.unpack_from(body, offset)
            offset += _U32.size
            items = []
            for _ in range(item_count):
                item, offset = self._decode_item(body, offset)
                items.append(item)
        except struct.error as exc:
            raise ProtocolError(
                f"truncated or corrupt binary frame: {exc}") from exc
        if shape == SHAPE_SINGLE:
            if len(items) != 1:
                raise ProtocolError(
                    f"single-shape response carries {len(items)} items")
            result = items[0]
        elif shape == SHAPE_LIST:
            result = items
        elif shape == SHAPE_PAGE:
            if len(items) != 1:
                raise ProtocolError(
                    f"page-shape response carries {len(items)} items")
            page = items[0]
            result = {"rows": page, "exhausted": page.exhausted}
        else:
            raise ProtocolError(f"unknown binary response shape {shape}")
        return {"id": request_id, "ok": True, "result": result}


def rekey_blocks(blocks: Sequence[DecodedBlock], entity_interner,
                 relation_interner) -> List["np.ndarray"]:
    """Every block's rows as ids of the caller's interner pair, in order.

    The blocks one connection sent in one column layout are re-keyed
    together — one :meth:`BinaryResponseDecoder.rekey` however many
    blocks a response carried — and come back as row slices of it, or
    as their own rows where that connection's ids all map to themselves.
    """
    groups: Dict[tuple, List[int]] = {}
    for position, block in enumerate(blocks):
        groups.setdefault((block._decoder, block.kinds), []).append(position)
    keyed: List[Optional["np.ndarray"]] = [None] * len(blocks)
    for (decoder, kinds), positions in groups.items():
        parts = [blocks[position].rows for position in positions]
        rows = parts[0] if len(parts) == 1 else np.concatenate(parts)
        ids = decoder.rekey(rows, kinds, entity_interner, relation_interner)
        if ids is rows:
            for position, part in zip(positions, parts):
                keyed[position] = part
            continue
        start = 0
        for position, part in zip(positions, parts):
            keyed[position] = ids[start:start + len(part)]
            start += len(part)
    return keyed
