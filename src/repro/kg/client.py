"""Remote clients for :class:`~repro.kg.server.KGServer`.

Mirrors the local query API over the wire so applications swap
local↔remote without code changes:

=====================  =======================================
local                  remote
=====================  =======================================
``QueryEngine(store)`` ``RemoteQueryEngine("host:port")``
``.execute(query)``    ``.execute(query)`` (same bindings)
``.cursor(query)``     ``.cursor(query)`` → :class:`RemoteCursor`
``TripleStore``        ``RemoteStore("host:port")``
``.match / .count``    same signatures, same results
=====================  =======================================

One :class:`RemoteClient` is one TCP connection.  Round-trips are
serialized under a lock, so a client object is thread-safe the way a
DB-API connection is — concurrent *throughput* comes from multiple
clients, whose in-flight requests the server coalesces into batched
backend rounds.  Every read answer arrives as an id block
(:class:`~repro.kg.protocol.DecodedBlock`), an empty or variable-free
one included.  Results stream: :class:`RemoteCursor` pages through a
server-side cursor, so iterating a huge result holds one page of
bindings in client memory, never the whole set.

Server-side errors re-raise typed (:class:`~repro.errors.QueryError`,
:class:`~repro.errors.CursorError`, ...); transport damage raises
:class:`~repro.errors.ProtocolError`.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import replace
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import CursorError, ProtocolError
from repro.kg.backend import Pattern
from repro.kg.executor import Binding
from repro.kg.planner import PatternQuery
from repro.kg.protocol import (
    CODEC_BINARY,
    CODEC_JSON,
    MAX_FRAME_BYTES,
    OPS,
    TAG_BINARY,
    TAG_JSON,
    BinaryResponseDecoder,
    decode_json_body,
    encode_frame,
    encode_tagged_json,
    encode_wire_patterns,
    encode_wire_query,
    encode_wire_triples,
    error_from_wire,
    read_frame_bytes,
)
from repro.kg.triple import Triple

#: Page size RemoteCursor / iter_match use when the caller does not say.
DEFAULT_PAGE_SIZE = 512

#: Default extra connection attempts per idempotent call (0 disables
#: reconnection entirely — the pre-reconnect behaviour).
DEFAULT_RECONNECT_ATTEMPTS = 2

#: First sleep before a reconnect attempt; doubles per retry, capped.
RECONNECT_BACKOFF_SECONDS = 0.05


def parse_address(url: str) -> Tuple[str, int]:
    """Parse ``host:port`` (optionally ``kg://`` / ``tcp://`` prefixed;
    IPv6 literals bracketed, ``[::1]:9999``)."""
    if not isinstance(url, str) or not url:
        raise ValueError(f"server address must be a 'host:port' string, "
                         f"got {url!r}")
    stripped = url
    for scheme in ("kg://", "tcp://"):
        if stripped.startswith(scheme):
            stripped = stripped[len(scheme):]
            break
    if stripped.startswith("["):
        host, bracket, port_part = stripped[1:].partition("]")
        if not bracket or not host:
            raise ValueError(
                f"IPv6 server address must look like '[host]:port', "
                f"got {url!r}")
        if not port_part.startswith(":"):
            raise ValueError(
                f"IPv6 server address {url!r} is missing the ':port' "
                f"after the bracket")
        port_text = port_part[1:]
    else:
        host, separator, port_text = stripped.rpartition(":")
        if not separator or not host:
            raise ValueError(
                f"server address must look like 'host:port', got {url!r}")
    if not port_text.isdigit():
        raise ValueError(
            f"server address port must be a number, got {url!r}")
    port = int(port_text)
    if not 0 < port < 65536:
        raise ValueError(
            f"server address port must be in 1..65535, got {port}")
    return host, port


class RemoteClient:
    """One connection to a KGServer: framed, serialized request/response.

    ``codec="auto"`` (default) says ``hello`` on every connection and
    **requires** the binary grant — anything else is a
    :class:`~repro.errors.ProtocolError` at connect, never a silent
    JSON connection.  Block results then decode zero-copy
    (``np.frombuffer``) into :class:`~repro.kg.protocol.DecodedBlock`
    views whose symbols resolve from a connection-local id→symbol
    cache fed by the server's interner deltas.  ``codec="json"`` never
    says ``hello``: a control connection (scalars, writes, replication)
    on which the server refuses every op that answers in rows.
    """

    def __init__(self, address: Union[str, Tuple[str, int]], *,
                 timeout: Optional[float] = 60.0,
                 max_frame_bytes: int = MAX_FRAME_BYTES,
                 codec: str = "auto",
                 reconnect_attempts: int = DEFAULT_RECONNECT_ATTEMPTS) -> None:
        if codec not in ("auto", CODEC_JSON):
            raise ValueError(
                f"codec must be 'auto' or 'json', got {codec!r}")
        host, port = parse_address(address) if isinstance(address, str) \
            else address
        self.max_frame_bytes = int(max_frame_bytes)
        self._address = (host, port)
        self._timeout = timeout
        self._requested_codec = codec
        self._reconnect_attempts = max(0, int(reconnect_attempts))
        self._lock = threading.Lock()
        self._next_id = 0
        self._user_closed = False
        with self._lock:
            self._connect()

    @property
    def codec(self) -> str:
        """``"binary"`` after ``hello``, ``"json"`` without."""
        return self._codec

    def _negotiate(self) -> None:
        """The hello exchange (caller holds the lock): binary is
        granted or the connection is dropped — never silently JSON."""
        response = self._roundtrip({"op": "hello", "codecs": [CODEC_BINARY]})
        granted = response.get("result") if response.get("ok") else None
        if not isinstance(granted, dict) \
                or granted.get("codec") != CODEC_BINARY:
            self._invalidate()
            raise ProtocolError(
                f"the peer did not grant the binary frame to 'hello' "
                f"(answered {response.get('error') or granted!r}); rows "
                f"travel in nothing else (codec='json': control only)")
        self._codec = CODEC_BINARY
        self._decoder = BinaryResponseDecoder()

    def _connect(self) -> None:
        """Open a fresh negotiated connection (caller holds the lock):
        the only code that opens a socket, at construction and on a
        retry.  :class:`~repro.errors.ProtocolError` when the server is
        unreachable."""
        try:
            sock = socket.create_connection(self._address,
                                            timeout=self._timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError as exc:
            raise ProtocolError(
                f"connect to {self._address[0]}:{self._address[1]} "
                f"failed: {exc}") from exc
        self._sock = sock
        self._closed = False
        # A connection starts on JSON with an empty symbol cache; hello
        # then gives it the binary frame and a fresh decoder state.
        self._codec = CODEC_JSON
        self._decoder: Optional[BinaryResponseDecoder] = None
        if self._requested_codec != CODEC_JSON:
            self._negotiate()

    def call(self, op: str, **fields):
        """One request/response round-trip; returns the ``result`` field.

        Server-reported failures re-raise as their typed exception;
        anything wrong with the byte stream itself (server gone, send
        or read failure/timeout, response id mismatch) raises
        :class:`~repro.errors.ProtocolError` **and marks the connection
        broken** — after a transport failure the stream may hold a
        stale half-response, so it is never reused.  For ops the table
        declares :attr:`~repro.kg.protocol.Op.retry_safe` the client
        then silently retries on a **fresh** connection (with backoff, at most
        ``reconnect_attempts`` extra connections per call); writes are
        never retried — a transport failure on a write surfaces
        immediately, because a lost response does not mean a lost
        write.
        """
        message = {"op": op, **fields}
        retryable = op in OPS and OPS[op].retry_safe \
            and self._reconnect_attempts > 0
        with self._lock:
            budget = self._reconnect_attempts if retryable else 0
            delay = RECONNECT_BACKOFF_SECONDS
            while True:
                try:
                    if self._closed:
                        if not retryable or self._user_closed or budget <= 0:
                            raise ProtocolError(
                                "client connection is closed")
                        budget -= 1
                        self._connect()
                    response = self._roundtrip(dict(message))
                    break
                except ProtocolError:
                    # Only transport failures (which invalidate the
                    # connection) are retried; request-encoding errors
                    # and exhausted budgets propagate.
                    if not retryable or self._user_closed or budget <= 0 \
                            or not self._closed:
                        raise
                    time.sleep(delay)
                    delay = min(delay * 2, 0.5)
        if not response.get("ok"):
            raise error_from_wire(response.get("error"))
        return response.get("result")

    def _roundtrip(self, message: dict) -> dict:
        """Send one request and read its response (caller holds the lock)."""
        if self._closed:
            raise ProtocolError("client connection is closed")
        self._next_id += 1
        message["id"] = self._next_id
        binary = self._codec == CODEC_BINARY
        # Encode before touching the socket: an unencodable or
        # oversized *request* is a caller error, not stream damage.
        frame = encode_tagged_json(message, self.max_frame_bytes) if binary \
            else encode_frame(message, self.max_frame_bytes)
        try:
            self._sock.sendall(frame)
            body = read_frame_bytes(self._sock, self.max_frame_bytes)
            response = None if body is None else self._decode_response(body)
        except ProtocolError:
            self._invalidate()
            raise
        except OSError as exc:
            self._invalidate()
            raise ProtocolError(
                f"transport failure talking to the server: {exc}"
            ) from exc
        if response is None:
            self._invalidate()
            raise ProtocolError("server closed the connection mid-request")
        if response.get("id") != message["id"]:
            self._invalidate()
            raise ProtocolError(
                f"response id {response.get('id')!r} does not match "
                f"request id {message['id']!r}")
        return response

    def _decode_response(self, body: bytes) -> dict:
        if self._codec != CODEC_BINARY:
            return decode_json_body(body)
        if not body:  # pragma: no cover - zero-length frames never arrive
            raise ProtocolError("empty frame body")
        tag = body[0]
        if tag == TAG_BINARY:
            return self._decoder.decode(body)
        if tag == TAG_JSON:
            return decode_json_body(body[1:])
        raise ProtocolError(
            f"unknown frame tag {tag:#04x} in a binary-codec response")

    def _invalidate(self) -> None:
        """Mark the stream unusable (called under the lock)."""
        self._closed = True
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - close never fails on Linux
            pass

    def ping(self) -> bool:
        """Round-trip liveness check."""
        return self.call("ping") == "pong"

    def stats(self) -> dict:
        """Server-side service/store counters (batching observability)."""
        return self.call("stats")

    def close(self) -> None:
        """Close the connection (idempotent; disables reconnection)."""
        with self._lock:
            self._user_closed = True
            if not self._closed:
                self._invalidate()

    def __enter__(self) -> "RemoteClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def connect(address: Union[str, Tuple[str, int]], *,
            timeout: Optional[float] = 60.0) -> RemoteClient:
    """Open a :class:`RemoteClient` to ``host:port``."""
    return RemoteClient(address, timeout=timeout)


class RemoteCursor:
    """A transparent iterator over a server-side cursor.

    Pages of ``page_size`` rows are fetched on demand; only the current
    page is ever held in client memory.  Iterate it, or call
    :meth:`fetch` for explicit pages.  Closing releases the server-side
    state early (exhausted cursors are released by the server TTL
    anyway); closing twice raises :class:`~repro.errors.CursorError`,
    matching the server's cursor table semantics.
    """

    def __init__(self, client: RemoteClient, cursor_id: str,
                 page_size: int = DEFAULT_PAGE_SIZE) -> None:
        if page_size < 1:
            raise CursorError(
                f"page_size must be a positive integer, got {page_size!r}")
        self._client = client
        self.cursor_id = cursor_id
        self.page_size = int(page_size)
        self._exhausted = False
        self._closed = False

    @property
    def exhausted(self) -> bool:
        """True once the server reported the final page."""
        return self._exhausted

    def fetch(self, max_rows: Optional[int] = None) -> List:
        """Fetch the next page (at most ``max_rows``, defaulting to the
        cursor's page size; an empty page means exhausted)."""
        page = self.fetch_block(max_rows)
        return page.to_rows() if len(page) else []

    def fetch_block(self, max_rows: Optional[int] = None):
        """The zero-copy form of :meth:`fetch`: the next page as a
        :class:`~repro.kg.protocol.DecodedBlock` (int64 id rows + the
        connection's symbol caches), for bulk consumers that feed
        arrays onward instead of materializing per-row objects; once
        the cursor is exhausted, an empty list without a round-trip.
        Pagination state is shared with :meth:`fetch`.
        """
        if self._closed:
            raise CursorError("cursor is closed")
        if max_rows is None:
            max_rows = self.page_size
        elif not isinstance(max_rows, int) or isinstance(max_rows, bool) \
                or max_rows < 1:
            raise CursorError(
                f"fetch page size must be a positive integer, got {max_rows!r}")
        if self._exhausted:
            return []
        result = self._client.call("fetch", cursor=self.cursor_id,
                                   max_rows=max_rows)
        self._exhausted = bool(result["exhausted"])
        return result["rows"]

    def __iter__(self) -> Iterator:
        while not self._exhausted:
            for row in self.fetch():
                yield row

    def close(self) -> None:
        """Release the server-side cursor.  A second close raises."""
        if self._closed:
            raise CursorError("cursor is already closed")
        self._closed = True
        self._client.call("close_cursor", cursor=self.cursor_id)

    def __del__(self) -> None:
        # Abandoned without close(): release the server-side entry now
        # instead of pinning it until the TTL sweep.  Strictly
        # best-effort — if the client is gone, mid-call (never block a
        # finalizer on a lock), or the server unreachable, the TTL
        # still reaps it.
        try:
            if self._closed or self._client._closed:
                return
            self._closed = True
            if not self._client._lock.acquire(blocking=False):
                return
            try:
                self._client._roundtrip({"op": "close_cursor",
                                         "cursor": self.cursor_id})
            finally:
                self._client._lock.release()
        except Exception:
            pass

    def __enter__(self) -> "RemoteCursor":
        return self

    def __exit__(self, *_exc) -> None:
        if not self._closed:
            self.close()


class _RemoteSurface:
    """A local API mirrored over one :class:`RemoteClient`: construct
    from a ``host:port`` string (owns the connection) or an existing
    client (shared; caller closes it)."""

    def __init__(self, address_or_client) -> None:
        self._owns_client = not isinstance(address_or_client, RemoteClient)
        self.client = RemoteClient(address_or_client) \
            if self._owns_client else address_or_client

    def close(self) -> None:
        if self._owns_client:
            self.client.close()

    def __enter__(self):
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class RemoteQueryEngine(_RemoteSurface):
    """The :class:`~repro.kg.query.QueryEngine` API over the wire.

    The wire is invisible here: id blocks decode to the bindings (and
    the order) the in-process engine returns.
    """

    def execute(self, query: PatternQuery,
                limit: Optional[int] = None) -> List[Binding]:
        """Remote :meth:`QueryEngine.execute`: identical bindings, same order."""
        return self.execute_many([query], limit=limit)[0]

    def execute_many(self, queries: Sequence[PatternQuery],
                     limit: Optional[int] = None) -> List[List[Binding]]:
        """Remote :meth:`QueryEngine.execute_many` (one round-trip; the
        server still coalesces the whole batch into one planned fetch
        round)."""
        encoded = [encode_wire_query(query if limit is None
                               else replace(query, limit=limit))
                   for query in queries]
        results = self.client.call("execute_many", queries=encoded)
        return [result.to_bindings() for result in results]

    def cursor(self, query: PatternQuery,
               limit: Optional[int] = None,
               page_size: int = DEFAULT_PAGE_SIZE) -> RemoteCursor:
        """Stream a query's bindings through a server-side cursor."""
        if limit is not None:
            query = replace(query, limit=limit)
        cursor_id = self.client.call(
            "open_cursor", query=encode_wire_query(query))
        return RemoteCursor(self.client, cursor_id, page_size=page_size)


class RemoteStore(_RemoteSurface):
    """The :class:`~repro.kg.store.TripleStore` query surface over the wire.

    Point lookups only (constants + ``None`` wildcards) — exactly the
    subset :class:`~repro.kg.service.QueryService` serves.  ``sort=True``
    sorts client-side, preserving the store's documented canonical
    ``(head, relation, tail)`` order.

    Writes mirror the local API too: :meth:`add_many` /
    :meth:`remove_many` ship a batch in one round-trip (requests are
    always JSON) and return the same counts the local store would, and
    :meth:`compact` folds the server's WAL into a fresh snapshot.  A
    server over a read-only snapshot store raises a typed
    :class:`~repro.errors.StorageError` here, not a generic wire error.
    """

    def match(self, head: Optional[str] = None,
              relation: Optional[str] = None, tail: Optional[str] = None,
              sort: bool = False) -> List[Triple]:
        """Remote :meth:`TripleStore.match` (one round-trip)."""
        triples = self.client.call(
            "match", pattern=[head, relation, tail]).to_triples()
        return sorted(triples) if sort else triples

    def match_many(self, patterns: Sequence[Pattern],
                   sort: bool = False) -> List[List[Triple]]:
        """Remote :meth:`TripleStore.match_many` (one round-trip)."""
        decoded = [block.to_triples()
                   for block in self.match_many_blocks(patterns)]
        return [sorted(rows) for rows in decoded] if sort else decoded

    def match_many_blocks(self, patterns: Sequence[Pattern]) -> List:
        """Batched point lookups without per-row materialization:
        each result is a :class:`~repro.kg.protocol.DecodedBlock` of
        ``(head, relation, tail)`` id rows (decoded zero-copy; symbols
        resolve from the connection cache on demand) — the handoff a
        scatter/gather engine or bulk exporter wants."""
        return self.client.call(
            "match_many", patterns=encode_wire_patterns(patterns))

    def iter_match(self, head: Optional[str] = None,
                   relation: Optional[str] = None,
                   tail: Optional[str] = None,
                   page_size: int = DEFAULT_PAGE_SIZE) -> Iterator[Triple]:
        """Remote :meth:`TripleStore.iter_match` — pages through a
        server-side cursor, holding one page of triples at a time."""
        cursor_id = self.client.call("open_match_cursor",
                                     pattern=[head, relation, tail])
        return iter(RemoteCursor(self.client, cursor_id, page_size=page_size))

    def add_many(self, triples: Sequence[Triple]) -> int:
        """Remote :meth:`TripleStore.add_many`: one durable round-trip.

        The whole batch is one server-side write (and, on a live store,
        one fsync'd WAL record): when this returns, every triple is
        applied and recoverable; on an error, none are.  Returns the
        newly-added count, exactly like the local call.
        """
        return self.client.call(
            "add_many", triples=encode_wire_triples(triples))["added"]

    def remove_many(self, triples: Sequence[Triple]) -> int:
        """Remote :meth:`TripleStore.remove_many`; returns the removed
        count.  Same atomicity as :meth:`add_many`."""
        return self.client.call(
            "remove_many", triples=encode_wire_triples(triples))["removed"]

    def compact(self) -> int:
        """Remote :meth:`TripleStore.compact`: fold the server's WAL
        into a new snapshot generation; returns the new generation."""
        return self.client.call("compact")["generation"]

    def count(self, head: Optional[str] = None,
              relation: Optional[str] = None,
              tail: Optional[str] = None) -> int:
        """Remote :meth:`TripleStore.count`."""
        return self.client.call("count", pattern=[head, relation, tail])

    def count_many(self, patterns: Sequence[Pattern]) -> List[int]:
        """Remote :meth:`TripleStore.count_many` (one round-trip)."""
        return self.client.call(
            "count_many", patterns=encode_wire_patterns(patterns))

    def __len__(self) -> int:
        return self.client.call("len")
