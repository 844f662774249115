"""A TCP query server in front of :class:`~repro.kg.service.QueryService`.

The network milestone of the ROADMAP's query layer: remote clients speak
the length-prefixed protocol of :mod:`repro.kg.protocol` to a
:class:`KGServer`, which owns one :class:`~repro.kg.service.QueryService`
over an (opened or in-memory) :class:`~repro.kg.store.TripleStore`.

Concurrency model — one I/O thread, one dispatcher, one control thread,
one hand-off per request:

* the **I/O thread** multiplexes the listener and every client socket
  (an idle connection costs a file descriptor and a buffer, not a
  thread) and decodes each complete frame through
  :meth:`KGServer.handle_message`; ``ping``, ``replication_status``,
  ``fetch`` and ``close_cursor`` are answered right there;
* read and write ops go to the :class:`QueryService`, whose single
  dispatcher coalesces N remote clients into batched backend rounds
  (``QueryService.stats`` shows it); a result-cache hit resolves in
  ``submit``, so the I/O thread answers it inline.  The thread that
  resolves a request's last future encodes the response and sends it
  with one non-blocking ``send``; only a partial send, a send error or
  a close goes back to the I/O loop.  Ops that may wait on a file, a
  peer or a compaction run on the **control thread**;
* a connection has one request in flight (frame order = response
  order; its codec state stays single-writer), and huge results page
  through a server-side cursor (``open_cursor`` / ``fetch`` /
  ``close_cursor``, TTL-evicted) instead of one frame.

:mod:`repro.kg.spans` times each answered request stage by stage; the
``stats`` op carries it.

Framing: every connection starts on plain JSON frames, the control
plane — requests, errors, scalars, replication.  One ``{"op": "hello",
"codecs": ["binary"]}`` exchange (always granted) switches it to the
tagged frames of :mod:`repro.kg.protocol`, whose binary id-block frame
is the one row encoder: every read answer the :class:`QueryService`
hands back is an :class:`~repro.kg.executor.IdBlock` (empty and
variable-free answers included), packed as it is, never materialized
to strings here, and never a JSON value inside a binary frame.  An op
that answers in blocks
(:attr:`~repro.kg.protocol.Op.rows`) is refused, typed, from a
connection that never said ``hello``.

Abuse tolerance: a malformed, truncated, oversized or garbage frame
gets a ``ProtocolError`` response when the frame boundary is still
trustworthy, and otherwise a best-effort error frame followed by a
connection close — never a server crash, and never a poisoned listener:
the next connection is served normally.  A client disconnecting
mid-request only kills its own connection state.

::

    with KGServer.open("./store", port=0) as server:
        host, port = server.address
        ... point a RemoteQueryEngine at f"{host}:{port}" ...

The CLI form is ``python -m repro.cli serve --store-dir DIR --port P``.
"""

from __future__ import annotations

import math
import os
import queue
import selectors
import shutil
import socket
import threading
import time
from collections import deque
from concurrent.futures import Future
from operator import itemgetter
from pathlib import Path
from typing import (Callable, Deque, NamedTuple, Optional, Sequence,
                    Tuple, Union)

from repro.errors import ProtocolError, ShardUnavailableError
from repro.kg.executor import IdBlock
from repro.kg.protocol import (
    BINARY_PROTOCOL_VERSION,
    CODEC_BINARY,
    CODEC_JSON,
    FLAG_EXHAUSTED,
    MAX_FRAME_BYTES,
    HELLO,
    OPS,
    SHAPE_LIST,
    SHAPE_PAGE,
    SHAPE_SINGLE,
    TAG_BINARY,
    TAG_JSON,
    BinaryResponseEncoder,
    check_frame_length,
    decode_json_body,
    decode_snapshot_chunk,
    decode_snapshot_manifest,
    encode_frame,
    encode_snapshot_chunk,
    encode_tagged_json,
    error_to_wire,
    snapshot_chunk_bytes,
)
from repro.kg.service import (DEFAULT_CACHE_BYTES, DEFAULT_CURSOR_TTL,
                              QueryService)
from repro.kg.spans import Spans
from repro.kg.store import TripleStore
from repro.kg.triple import Triple
from repro.kg.wal import (OP_ADD, WriteAheadLog, list_snapshot_files,
                          scan_records, snapshot_dir_name, wal_file_name,
                          write_live_pointer)

#: Default port of the CLI ``serve`` command (0 = ephemeral, for tests).
DEFAULT_PORT = 7468

#: How often a replica polls its leader's WAL when caught up, seconds.
DEFAULT_FOLLOW_POLL_INTERVAL = 0.05


class _Pending(NamedTuple):
    """The futures a request waits on; ``finish`` makes their results
    its answer."""
    futures: list
    finish: Callable = list


_first = itemgetter(0)


def _on_control(handler: Callable) -> Callable:
    """``handler`` on the control thread: it may wait on a file, a peer
    (a coordinator's ``len`` asks its shards) or a compaction."""
    return lambda self, **fields: _Pending(
        [self._to_control(handler, fields)], _first)


def _success(request_id, result) -> dict:
    return {"id": request_id, "ok": True, "result": result}


def _failure(request_id, exc: BaseException) -> dict:
    return {"id": request_id, "ok": False, "error": error_to_wire(exc)}


def _result_blocks(result) -> Tuple[Optional[int], Sequence[IdBlock]]:
    """Classify a result for the binary encoder: its ``shape`` and the
    blocks that carries (a block, a list of blocks, a cursor page) —
    ``(None, ())`` for a control-plane answer (plain JSON)."""
    if isinstance(result, IdBlock):
        return SHAPE_SINGLE, (result,)
    if isinstance(result, list) and result \
            and isinstance(result[0], IdBlock):
        return SHAPE_LIST, result
    if isinstance(result, dict) and isinstance(result.get("rows"), IdBlock):
        return SHAPE_PAGE, (result["rows"],)
    return None, ()


def _resolve_snapshot_member(snapshot: Path, member: str) -> Path:
    """Validate a manifest-relative member path (no traversal, ever)."""
    parts = Path(member).parts
    if (not parts or Path(member).is_absolute()
            or any(part in ("..", ".", "") for part in parts)):
        raise ProtocolError(f"invalid snapshot member path {member!r}")
    return snapshot.joinpath(*parts)


def fetch_snapshot(client, directory: Union[str, Path], *,
                   fsync: bool = True, should_abort=None) -> dict:
    """Fetch the leader's current snapshot generation into ``directory``.

    The wire half of replica (re-)bootstrap (docs/architecture.md,
    "Re-bootstrap across compaction"): ``snapshot_ship`` chunks staged
    in ``snap-G.partial/``, then an empty ``wal-G.log`` and the atomic
    ``live.json`` flip — the commit point.  Raises
    :class:`~repro.errors.ProtocolError` on any integrity or transfer
    failure, a leader compacting mid-transfer included; the caller just
    retries.  Returns the manifest (``generation``, ``base_seq``,
    ``files``).  ``should_abort()`` is polled between chunks.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = decode_snapshot_manifest(client.call("snapshot_ship"))
    generation = manifest["generation"]
    snapshot = directory / snapshot_dir_name(generation)
    partial = directory / (snapshot_dir_name(generation) + ".partial")
    if partial.exists():
        shutil.rmtree(partial)
    partial.mkdir(parents=True)
    for member, size in ((entry["path"], entry["size"])
                         for entry in manifest["files"]):
        target = _resolve_snapshot_member(partial, member)
        target.parent.mkdir(parents=True, exist_ok=True)
        with open(target, "wb") as handle:
            offset = 0
            while True:
                if should_abort is not None and should_abort():
                    raise ProtocolError(
                        "snapshot fetch aborted: this server is stopping")
                chunk = client.call("snapshot_ship", path=member,
                                    offset=offset, generation=generation)
                data = decode_snapshot_chunk(chunk)
                handle.write(data)
                offset += len(data)
                if chunk.get("eof"):
                    break
                if not data:
                    raise ProtocolError(
                        f"snapshot member {member!r} made no progress at "
                        f"offset {offset} without reaching eof")
            if offset != size:
                raise ProtocolError(
                    f"snapshot member {member!r} transferred {offset} "
                    f"bytes, manifest says {size} — restart the fetch")
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
    if snapshot.exists():
        shutil.rmtree(snapshot)
    os.replace(partial, snapshot)
    # Durability of the rename and the new WAL rides on the directory
    # fsyncs WriteAheadLog.create and write_live_pointer already do.
    WriteAheadLog.create(directory / wal_file_name(generation),
                         generation=generation, fsync=fsync).close()
    write_live_pointer(directory, generation, fsync=fsync)
    return manifest


def bootstrap_replica(directory: Union[str, Path], leader: str, *,
                      fsync: bool = True, timeout: float = 30.0) -> int:
    """Build a brand-new replica store by fetching the leader's snapshot.

    The zero-operator bootstrap path: point it at an empty (or missing)
    directory and a leader URL and it produces a live store directory
    at the leader's current generation, ready to open with
    ``KGServer.open(directory, follow=leader)`` — no hand-copied files.
    Returns the bootstrapped generation.  Called once, with no loop of
    its own, so its client keeps the default reconnect for retry-safe
    ``snapshot_ship`` chunks.
    """
    from repro.kg.client import RemoteClient

    with RemoteClient(leader, codec=CODEC_JSON, timeout=timeout) as client:
        manifest = fetch_snapshot(client, directory, fsync=fsync)
    return manifest["generation"]


class _Connection:
    """Per-connection state shared by the I/O thread and the thread that
    answers its request in flight.

    The I/O thread owns ``inbuf`` (frames not yet started) and the
    selector registration, and alone sets ``busy`` (a request is in
    flight); the ``lock`` guards ``busy``, the outgoing ``outbuf`` and
    every send on and close of ``sock``.
    """

    __slots__ = ("sock", "peer", "inbuf", "outbuf", "lock", "busy", "codec",
                 "encoder", "close_after_write", "closed", "mask")

    def __init__(self, sock: socket.socket, peer) -> None:
        self.sock = sock
        self.peer = peer
        self.inbuf = bytearray()
        self.outbuf: Deque[memoryview] = deque()
        self.lock = threading.Lock()
        self.busy = False
        self.codec = CODEC_JSON
        self.encoder: Optional[BinaryResponseEncoder] = None
        self.close_after_write = False
        self.closed = False
        self.mask = selectors.EVENT_READ


#: Selector data sentinel for the wakeup pipe.
_WAKEUP = object()


class KGServer:
    """Serves a :class:`TripleStore` to remote clients over TCP.

    Parameters
    ----------
    store:
        The store to serve.  Mutations arrive only through the
        ``add_many`` / ``remove_many`` / ``compact`` ops and serialize
        through the owned service's dispatcher; a store opened from a
        plain snapshot directory refuses them with a typed
        :class:`~repro.errors.StorageError`.
    host / port:
        Bind address (IPv4 or IPv6 literal).  ``port=0`` picks an
        ephemeral port; read the actual one from :attr:`address`.
    max_batch / cursor_ttl / cache_bytes:
        Forwarded to the owned :class:`QueryService` (``cache_bytes``
        is the hot-query result cache budget; ``0`` disables caching).
    max_frame_bytes:
        Per-frame payload cap, both directions.

    Use :meth:`start` for a background-thread server (tests, embedding
    in an application) or :meth:`serve_forever` to also block the
    calling thread (the CLI).  Always :meth:`close` (or use as a context
    manager) — it stops the I/O loop and closes the service.
    """

    def __init__(self, store: TripleStore, *, host: str = "127.0.0.1",
                 port: int = DEFAULT_PORT, max_batch: int = 256,
                 cursor_ttl: float = DEFAULT_CURSOR_TTL,
                 cache_bytes: int = DEFAULT_CACHE_BYTES,
                 max_frame_bytes: int = MAX_FRAME_BYTES,
                 shard_index: Optional[int] = None,
                 n_shards: Optional[int] = None,
                 follow: Optional[str] = None,
                 follow_poll_interval: float =
                 DEFAULT_FOLLOW_POLL_INTERVAL) -> None:
        if (shard_index is None) != (n_shards is None):
            raise ValueError(
                "shard_index and n_shards come together: a shard server "
                "must know both which shard it owns and how many exist")
        if shard_index is not None and not 0 <= shard_index < n_shards:
            raise ValueError(
                f"shard_index must be in 0..{n_shards - 1}, got "
                f"{shard_index}")
        if follow is not None and store.wal is None:
            raise ValueError(
                "a replica re-logs its leader's WAL records and adopts its "
                "snapshots — open a live store directory, not a read-only "
                "snapshot or in-memory data")
        interval = float(follow_poll_interval)
        if not math.isfinite(interval) or interval <= 0:
            raise ValueError(
                f"follow_poll_interval must be a positive number of "
                f"seconds, got {follow_poll_interval!r} (a non-positive "
                f"interval would busy-spin the follower against its "
                f"leader)")
        self.max_frame_bytes = int(max_frame_bytes)
        self._chunk_bytes = snapshot_chunk_bytes(self.max_frame_bytes)
        self.closing = False
        self.role = "replica" if follow is not None else "leader"
        self.shard_index = shard_index
        self.n_shards = n_shards
        self._follow = follow
        self._follow_poll_interval = interval
        # Guards every read and write of the _replication dict, so a
        # reader never sees a torn block (generation from one poll,
        # applied_seq from another).
        self._stats_lock = threading.Lock()
        self._replication = {
            "leader": follow,
            "applied_seq": (store.wal.next_seq - 1
                            if store.wal is not None else 0),
            "generation": None,
            "polls": 0,
            "batches_applied": 0,
            "triples_applied": 0,
            "rebootstraps": 0,
            "last_error": None,
            "running": follow is not None,
        }
        self._stop_replication = threading.Event()
        self._replication_thread: Optional[threading.Thread] = None
        # Set by a re-bootstrap: the I/O loop drops every connection.
        self._drop_connections = False
        self.service = QueryService(store, max_batch=max_batch,
                                    cursor_ttl=cursor_ttl,
                                    cache_bytes=cache_bytes)
        try:
            infos = socket.getaddrinfo(host, port, type=socket.SOCK_STREAM)
            family, _type, proto, _name, sockaddr = infos[0]
            self._listener = socket.socket(family, socket.SOCK_STREAM, proto)
            try:
                self._listener.setsockopt(socket.SOL_SOCKET,
                                          socket.SO_REUSEADDR, 1)
                self._listener.bind(sockaddr)
                self._listener.listen(256)
                self._listener.setblocking(False)
            except BaseException:
                self._listener.close()
                raise
        except BaseException:
            self.service.close()
            raise
        self._wake_recv, self._wake_send = socket.socketpair()
        self._wake_recv.setblocking(False)
        self._wake_send.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ, None)
        self._selector.register(self._wake_recv, selectors.EVENT_READ,
                                _WAKEUP)
        self._connections: set = set()
        # Connections another thread handed back to the I/O loop.
        self._flush_wanted: "queue.SimpleQueue" = queue.SimpleQueue()
        self.spans = Spans()
        self._control: "queue.SimpleQueue" = queue.SimpleQueue()
        self._control_thread = threading.Thread(
            target=self._control_loop, name="kg-server-control", daemon=True)
        self._control_thread.start()
        self._thread: Optional[threading.Thread] = None
        self._close_lock = threading.Lock()
        self._cleaned = False
        if follow is not None:
            self._replication_thread = threading.Thread(
                target=self._replicate, name="kg-server-replication",
                daemon=True)
            self._replication_thread.start()

    @classmethod
    def open(cls, directory: Union[str, Path], **kwargs) -> "KGServer":
        """Open a saved store directory and serve it.

        Live directories (``live.json`` pointer) come up writable with
        their WAL replayed; plain snapshots come up read-only for the
        write ops.  Either way the store is a columnar one with its base
        mapped — a ``shard_split`` shard included.
        """
        return cls(TripleStore.open(directory), **kwargs)

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — read this after ``port=0``."""
        host, port = self._listener.getsockname()[:2]
        return (host, port)

    @property
    def url(self) -> str:
        """The ``host:port`` string clients connect to."""
        host, port = self.address
        return f"[{host}]:{port}" if ":" in host else f"{host}:{port}"

    @property
    def connection_count(self) -> int:
        """Currently open client connections (the I/O loop's view)."""
        return len(self._connections)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "KGServer":
        """Serve from a daemon background thread; returns ``self``."""
        if self._thread is not None:
            raise RuntimeError("KGServer.start() called twice")
        self._thread = threading.Thread(target=self._run,
                                        name="kg-server-io", daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve until :meth:`close` (the CLI path): the calling thread
        waits on the I/O thread."""
        self.start()._thread.join()

    def _wake(self) -> None:
        try:
            self._wake_send.send(b"\0")
        except (BlockingIOError, OSError):
            pass  # pipe full = a wakeup is already pending, or closed

    def close(self) -> None:
        """Stop the I/O loop, drop connections, close the service."""
        with self._close_lock:
            if self.closing:
                return
            self.closing = True
        self._stop_replication.set()
        if self._replication_thread is not None:
            self._replication_thread.join(timeout=10)
        self._control.put(None)
        self._wake()
        if self._thread is not None:
            self._thread.join(timeout=10)
        self._control_thread.join(timeout=10)
        self._cleanup()
        self.service.close()

    def _cleanup(self) -> None:
        """Close every socket exactly once (loop exit or never-started)."""
        with self._close_lock:
            if self._cleaned:
                return
            self._cleaned = True
        for conn in list(self._connections):
            self._close_conn(conn)
        for sock in (self._listener, self._wake_recv, self._wake_send):
            try:
                sock.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
        self._selector.close()

    def __enter__(self) -> "KGServer":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # the I/O loop (single thread; owns the selector)
    # ------------------------------------------------------------------ #
    def _run(self) -> None:
        try:
            while not self.closing:
                events = self._selector.select(timeout=0.1)
                for key, mask in events:
                    if key.data is None:
                        self._accept_ready()
                    elif key.data is _WAKEUP:
                        self._drain_wakeups()
                    else:
                        conn = key.data
                        if conn.closed:
                            continue
                        if mask & selectors.EVENT_READ:
                            self._on_readable(conn)
                        if mask & selectors.EVENT_WRITE and not conn.closed:
                            self._flush(conn)
                self._flush_requested()
                if self._drop_connections:
                    self._drop_connections = False
                    for conn in list(self._connections):
                        self._close_conn(conn)
        finally:
            if self.closing:
                self._cleanup()

    def _accept_ready(self) -> None:
        while True:
            try:
                sock, peer = self._listener.accept()
            except OSError:     # nothing left to accept, or closed
                return
            sock.setblocking(False)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:  # pragma: no cover - not fatal
                pass
            conn = _Connection(sock, peer)
            self._connections.add(conn)
            self._selector.register(sock, selectors.EVENT_READ, conn)

    def _drain_wakeups(self) -> None:
        while True:
            try:
                if not self._wake_recv.recv(4096):
                    return
            except OSError:     # drained, or closed
                return

    def _flush_requested(self) -> None:
        while not self._flush_wanted.empty():
            conn = self._flush_wanted.get()
            if not conn.closed:
                self._flush(conn)
                self._serve_ready(conn)

    def _set_mask(self, conn: _Connection, mask: int) -> None:
        if conn.mask != mask and not conn.closed:
            conn.mask = mask
            try:
                self._selector.modify(conn.sock, mask, conn)
            except (KeyError, ValueError, OSError):  # pragma: no cover
                pass

    def _close_conn(self, conn: _Connection) -> None:
        # Under the lock: a send by the answering thread never races the
        # close (and never lands on a reused descriptor).
        with conn.lock:
            if conn.closed:
                return
            conn.closed = True
        self._connections.discard(conn)
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError, OSError):
            pass
        try:
            conn.sock.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass

    def _on_readable(self, conn: _Connection) -> None:
        try:
            chunk = conn.sock.recv(1 << 20)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._close_conn(conn)
            return
        if not chunk:
            # Clean EOF at a frame boundary, or the peer vanishing
            # mid-frame/mid-request — either way this connection is
            # done; an in-flight response is dropped on send.
            self._close_conn(conn)
            return
        conn.inbuf += chunk
        self._serve_ready(conn)

    def _serve_ready(self, conn: _Connection) -> None:
        """Answer the complete frames in ``inbuf`` in order, one in flight
        at a time: the next starts once the previous response is sent
        or queued (an inline answer frees the connection at once)."""
        buffer = conn.inbuf
        while len(buffer) >= 4:
            with conn.lock:
                if conn.busy or conn.close_after_write or conn.closed:
                    return
            length = int.from_bytes(buffer[:4], "big")
            try:
                check_frame_length(length, self.max_frame_bytes)
            except ProtocolError as violation:
                # The boundary is no longer trustworthy: report
                # best-effort, stop reading and hang up.
                self._set_mask(conn, conn.mask & ~selectors.EVENT_READ)
                self._send(conn, self._error_frame(conn, violation), True)
                return
            if len(buffer) < 4 + length:
                return
            body = bytes(buffer[4:4 + length])
            del buffer[:4 + length]
            conn.busy = True
            try:
                answer = self._serve_frame(conn, body)
            except Exception as exc:  # pragma: no cover - last resort
                answer = (self._error_frame(conn, exc), True)
            if answer is not None:
                self._send(conn, *answer)

    def _flush(self, conn: _Connection) -> None:
        with conn.lock:
            sent = self._write_out(conn)
            # Frames not yet started are moot once a close is decided;
            # only an in-flight request or unsent bytes defer it.
            done = sent and conn.close_after_write and not conn.busy
        if sent is None or done:
            self._close_conn(conn)
        else:
            self._set_mask(conn, conn.mask | selectors.EVENT_WRITE if not sent
                           else conn.mask & ~selectors.EVENT_WRITE)

    @staticmethod
    def _write_out(conn: _Connection) -> Optional[bool]:
        """Send ``outbuf`` as far as the socket takes it, under the
        caller's ``conn.lock``: True when all of it went, False when the
        socket would block, None when the peer is gone."""
        while conn.outbuf:
            view = conn.outbuf[0]
            try:
                sent = conn.sock.send(view)
            except (BlockingIOError, InterruptedError):
                return False
            except OSError:
                return None
            if sent < len(view):
                conn.outbuf[0] = view[sent:]
            else:
                conn.outbuf.popleft()
        return True

    # ------------------------------------------------------------------ #
    # answering (one request in flight per connection)
    # ------------------------------------------------------------------ #
    def _send(self, conn: _Connection, frame: Optional[bytes],
              close: bool = False) -> bool:
        """Hand ``conn`` its response, then free it for the next request:
        with nothing queued ahead and no close pending, the calling
        thread writes it itself (True: all of it went); the unsent tail,
        a send error or a close goes to the I/O loop."""
        with conn.lock:
            if conn.closed:
                return False
            through = not (conn.outbuf or conn.close_after_write or close)
            if frame:
                conn.outbuf.append(memoryview(frame))
                through = through and self._write_out(conn) is True
            conn.close_after_write |= close
            conn.busy = False
            loop = bool(conn.outbuf or conn.inbuf or conn.close_after_write)
        if loop:
            self._flush_wanted.put(conn)
            self._wake()
        return bool(frame) and through

    def _replier(self, conn: _Connection, op, started: int) -> Callable:
        """The ``reply`` of one request on ``conn``: encode on the calling
        thread, send, record its stages.  Never raises: a response that
        fails to encode becomes an error frame and a close."""
        def reply(response: dict, submitted: Optional[int] = None,
                  picked: Optional[int] = None) -> None:
            served = time.perf_counter_ns()
            try:
                frame, close = self._encode(conn, response), False
            except Exception as exc:
                close = True
                try:
                    frame = self._error_frame(conn, exc, response.get("id"))
                except Exception:
                    frame = None
            encoded = time.perf_counter_ns()
            through = self._send(conn, frame, close)
            self.spans.request(op, started, submitted, picked, served,
                               encoded, time.perf_counter_ns(), through)

        return reply

    def _serve_frame(self, conn: _Connection,
                     entry) -> Optional[Tuple[Optional[bytes], bool]]:
        """One frame in: a frame-level response (+ close-connection
        flag), or None once :meth:`handle_message` has taken it."""
        started = time.perf_counter_ns()
        binary = conn.codec == CODEC_BINARY
        payload = entry
        if binary:
            tag = entry[0]
            if tag == TAG_BINARY:
                # The framing is intact (the length prefix parsed); the
                # client is just confused — typed error, stay alive.
                return self._error_frame(conn, ProtocolError(
                    "binary frames flow server-to-client only; requests "
                    "are JSON frames tagged 'J'")), False
            if tag != TAG_JSON:
                return self._error_frame(conn, ProtocolError(
                    f"unknown frame tag {tag:#04x} on a binary-codec "
                    f"connection")), True
            payload = entry[1:]
        try:
            message = decode_json_body(payload)
        except ProtocolError as exc:
            # Not JSON: the stream may be garbage — report and hang up.
            return self._error_frame(conn, exc), True
        op = message.get("op")
        if op == "hello":
            return self._serve_hello(conn, message), False
        self.handle_message(message, raw=binary,
                            reply=self._replier(conn, op, started))
        return None

    def _serve_hello(self, conn: _Connection, message: dict) -> bytes:
        """Framing negotiation: ``binary`` is granted whenever offered,
        anything else leaves the connection as it was.  The reply uses
        the connection's *current* framing, so the client flips exactly
        after reading the ack."""
        request_id = message.get("id")
        try:
            codecs = HELLO.decode(message)["codecs"]
        except ProtocolError as exc:
            return self._error_frame(conn, exc, request_id)
        grant = CODEC_BINARY in codecs and conn.codec != CODEC_BINARY
        frame = self._encode(conn, _success(request_id, {
            "codec": CODEC_BINARY if grant else conn.codec,
            "protocol": BINARY_PROTOCOL_VERSION}))
        if grant:
            backend = self.service.store.backend
            conn.encoder = BinaryResponseEncoder(
                backend.entity_interner, backend.relation_interner,
                self.max_frame_bytes)
            conn.codec = CODEC_BINARY
        return frame

    def _error_frame(self, conn: _Connection, exc: BaseException,
                     request_id=None) -> bytes:
        """The failure response for ``exc``, in the connection's codec."""
        encode = encode_tagged_json if conn.codec == CODEC_BINARY \
            else encode_frame
        return encode(_failure(request_id, exc), self.max_frame_bytes)

    def _encode(self, conn: _Connection, response: dict) -> bytes:
        """``response`` in the connection's codec: id-block results packed
        binary, anything else as (tagged) JSON.  A response over the
        frame cap becomes its typed error — the stream is still intact,
        so the client pages through a cursor instead."""
        binary = conn.codec == CODEC_BINARY
        result = response.get("result")      # absent on a failure
        shape, blocks = _result_blocks(result) if binary else (None, ())
        try:
            if shape is None:
                return (encode_tagged_json if binary else encode_frame)(
                    response, self.max_frame_bytes)
            flags = FLAG_EXHAUSTED if shape == SHAPE_PAGE \
                and result.get("exhausted") else 0
            return conn.encoder.encode(response.get("id"), shape, blocks,
                                       flags)
        except ProtocolError as exc:
            return self._error_frame(conn, exc, response.get("id"))

    # ------------------------------------------------------------------ #
    # request dispatch (called on the I/O thread)
    # ------------------------------------------------------------------ #
    def handle_message(self, message: dict, raw: bool = False,
                       reply: Optional[Callable] = None) -> Optional[dict]:
        """Serve one decoded request: hand the response object to
        ``reply(response, submitted, picked)`` exactly once — on the
        thread that finished it — or, without ``reply``, wait and return
        it.  ``submitted`` / ``picked`` are the ``perf_counter_ns`` of
        the hand-off and the pick-up, for :mod:`repro.kg.spans`.

        Anything a hostile or buggy client can provoke — unknown op,
        missing/garbage fields, a query-layer error — comes back as a
        typed error response on the same connection; nothing propagates
        to the connection loop.  ``raw=True`` says the connection said
        ``hello``, so id blocks can be framed for it under an int64
        request id; otherwise an op that answers in rows is refused
        before its fields are decoded — no query runs, no cursor is
        parked.
        """
        if reply is None:
            answer: Future = Future()
            self.handle_message(message, raw, lambda response, *_:
                                answer.set_result(response))
            return answer.result()
        request_id = message.get("id")
        try:
            op = message.get("op")
            spec = OPS.get(op) if isinstance(op, str) else None
            if spec is None:
                raise ProtocolError(f"unknown op {op!r}")
            if spec.write and self.role == "replica":
                raise ProtocolError(
                    f"this server is a read-only replica following "
                    f"{self._follow}; send writes to the leader")
            if spec.rows and not (raw and type(request_id) is int
                                  and -(1 << 63) <= request_id < (1 << 63)):
                raise ProtocolError(
                    f"{op} answers in id blocks, framed only after a "
                    f"'hello' offering codecs ['binary'] and under an "
                    f"int64 request id: " + (
                        f"got id {request_id!r}" if raw else
                        "this connection never said 'hello'"))
            # The whole request decodes BEFORE the handler submits
            # anything: a malformed query mid-batch must not leave
            # already-submitted futures executing with nobody waiting.
            fields = spec.decode(message)
            submitted = time.perf_counter_ns()
            result = self._HANDLERS[op](self, **fields)
        except Exception as exc:
            reply(_failure(request_id, exc))
            return None
        if isinstance(result, _Pending):
            self._await(result, request_id, reply, submitted)
        else:
            reply(_success(request_id, result), submitted)
        return None

    @staticmethod
    def _await(pending: _Pending, request_id, reply, submitted) -> None:
        """Reply once every future of ``pending`` resolved, on the thread
        that resolved the last: inline when every one was a cache hit,
        resolved at submit.  ``picked`` is the earliest pick-up, None
        when no thread queued any."""
        futures, unresolved = pending.futures, iter(pending.futures)

        def step(_resolved=None) -> None:
            for future in unresolved:
                if not future.done():
                    future.add_done_callback(step)
                    return
            picked = min((future.picked for future in futures
                          if future.picked is not None), default=None)
            try:
                response = _success(request_id, pending.finish(
                    [future.result() for future in futures]))
            except Exception as exc:
                response = _failure(request_id, exc)
            # Break future -> step -> futures: free the results right now.
            futures.clear()
            reply(response, submitted, picked)

        step()

    def _to_control(self, handler: Callable, fields: dict) -> Future:
        """Queue ``handler(self, **fields)`` for the control thread."""
        future: Future = Future()   # the loop stamps ``picked``
        # Under the close lock: nothing queues behind close()'s stop
        # sentinel, where no thread would ever answer it.
        with self._close_lock:
            if self.closing:
                raise ProtocolError("this server is closing")
            self._control.put((future, handler, fields))
        return future

    def _control_loop(self) -> None:
        """The control thread: one queued handler at a time, until
        :meth:`close` queues the stop sentinel."""
        for future, handler, fields in iter(self._control.get, None):
            future.picked = time.perf_counter_ns()
            try:
                future.set_result(handler(self, **fields))
            except Exception as exc:
                future.set_exception(exc)

    def _op_stats(self) -> dict:
        server_info = {"connections": self.connection_count,
                       "role": self.role}
        if self.shard_index is not None:
            server_info["shard_index"] = self.shard_index
            server_info["n_shards"] = self.n_shards
        try:
            triples = len(self.service.store)
        except ShardUnavailableError:  # keep the "cluster" counters
            triples = None
        stats = {"service": self.service.stats,
                 "store": {"triples": triples,
                           "backend": self.service.store.backend_name},
                 "server": server_info,
                 "spans": self.spans.snapshot()}
        if self.role == "replica":
            stats["replication"] = self._replication_snapshot()
        cluster_stats = getattr(self.service.store.backend,
                                "cluster_stats", None)
        if callable(cluster_stats):
            stats["cluster"] = cluster_stats()
        return stats

    def _op_fetch(self, cursor, max_rows) -> dict:
        page, exhausted = self.service.fetch_cursor(cursor, max_rows)
        return {"rows": page, "exhausted": exhausted}

    def _op_role(self) -> dict:
        """Who this server is in a cluster.  No per-symbol work: the
        coordinator's split-brain gate asks it on every fresh
        connection after a promotion."""
        store = self.service.store
        info = {"role": self.role,
                "shard_index": self.shard_index,
                "n_shards": self.n_shards,
                "writable": store.writable,
                "generation": store.live_generation,
                "triples": len(store),
                "backend": store.backend_name}
        if self.role == "replica":
            info["replication"] = self._replication_snapshot()
        return info

    def _replication_snapshot(self) -> dict:
        """One consistent copy of the replication status block."""
        with self._stats_lock:
            return dict(self._replication)

    def _op_replication_status(self) -> dict:
        """How caught-up this server is: the promotion ballot (the
        highest ``local_generation``, then ``applied_seq``, wins).  A
        leader answers too, so a second coordinator repoints instead of
        re-promoting; its ``applied_seq`` is its durable seq in its
        current generation, read live from its WAL."""
        store = self.service.store
        info = self._replication_snapshot()
        if self.role == "leader" and store.wal is not None:
            info["applied_seq"] = len(store.wal.ends)
        info["role"] = self.role
        info["local_generation"] = store.live_generation
        info["writable"] = store.writable
        return info

    def _op_wal_tail(self, after_seq: int) -> dict:
        """The leader's WAL generation and next seq (``after_seq`` is
        unused: replicas copy the log through ``snapshot_ship``)."""
        wal = self.service.store.wal
        if wal is None:
            raise ProtocolError(
                "wal_tail requires a live store (this server was opened "
                "from a plain snapshot or in-memory data)")
        return {"generation": wal.generation, "next_seq": wal.next_seq}

    def _op_snapshot_ship(self, path: Optional[str], offset: int,
                          generation: Optional[int]) -> dict:
        """Stream the current generation to a bootstrapping or following
        peer.  Without ``path``: the **manifest** — generation, ``base_seq``
        (always 0: a compaction starts its WAL at seq 1) and each member
        file's path and size.  With ``path`` / ``offset`` /
        ``generation``: one CRC-checked base64 **chunk**, sized to fit
        this server's frame cap, of a snapshot member or of the
        generation's ``wal-G.log`` up to its last fsync'd record.  A
        chunk of a generation no longer current fails typed, so the
        fetcher restarts instead of stitching two generations together.
        """
        store = self.service.store
        directory = store.live_directory
        current = store.live_generation
        if directory is None or current is None:
            raise ProtocolError(
                "snapshot_ship requires a live store (this server was "
                "opened from a plain snapshot or in-memory data)")
        snapshot = directory / snapshot_dir_name(current)
        if path is None:
            files = [{"path": member, "size": size}
                     for member, size in list_snapshot_files(snapshot)]
            return {"generation": current, "base_seq": 0,
                    "chunk_bytes": self._chunk_bytes, "files": files}
        wal = store.wal     # compact() swaps it before the generation
        if generation != current or wal.generation != current:
            raise ProtocolError(
                f"snapshot generation changed under the transfer (chunk "
                f"asked for generation {generation}, this server now "
                f"serves {current}) — restart the fetch from a fresh "
                f"manifest")
        data = b""
        try:
            if path == wal_file_name(current):
                target, size = wal.path, wal.end
            else:
                target = _resolve_snapshot_member(snapshot, path)
                size = target.stat().st_size
            if offset < size:
                with target.open("rb") as handle:
                    handle.seek(offset)
                    data = handle.read(min(self._chunk_bytes, size - offset))
        except OSError as exc:
            raise ProtocolError(
                f"cannot read snapshot member {path!r}: {exc} (a "
                f"compaction may have swept it — restart the fetch)"
            ) from exc
        chunk = encode_snapshot_chunk(data)
        chunk.update({"generation": current, "path": path,
                      "size": size, "eof": offset + len(data) >= size})
        return chunk

    def _op_promote(self) -> dict:
        """The ``promote`` op: turn this replica into the shard's leader.

        Commit order: stop replicating (no leader batch applies after
        the cut), compact into a **new, higher generation** — the
        split-brain fence (docs/architecture.md, "Leader promotion") —
        then flip the role so writes open up.  Idempotent (``promoted:
        false`` on a leader); the control thread runs one at a time.
        """
        if self.role == "leader":
            return {"promoted": False, "role": self.role,
                    "generation": self.service.store.live_generation}
        self._stop_replication.set()
        thread = self._replication_thread
        if thread is not None:
            thread.join(timeout=10)
            if thread.is_alive():
                raise ProtocolError(
                    "replication loop did not stop within 10s; "
                    "refusing to promote while old-leader batches "
                    "may still be applying")
        generation = self.service.compact()
        with self._stats_lock:
            self._replication["running"] = False
            self._replication["last_error"] = None
        self.role = "leader"
        self._follow = None
        return {"promoted": True, "role": "leader",
                "generation": generation}

    def _write_ack(self, key: str) -> Callable:
        """A write's answer: its count under ``key``, and its epoch."""
        return lambda results: {key: results[0],
                                "epoch": self.service.mutation_epoch}

    #: One handler per ``protocol.OPS`` entry (the test suite holds the
    #: two key sets equal), called as ``handler(self, **decoded_fields)``.
    #: A handler returns its answer, or a :class:`_Pending` of the
    #: service futures it submitted.
    _HANDLERS = {
        "ping": lambda self: "pong",
        "stats": _on_control(_op_stats),
        "len": _on_control(lambda self: len(self.service.store)),
        "role": _on_control(_op_role),
        "replication_status": _op_replication_status,
        "wal_tail": _on_control(_op_wal_tail),
        "snapshot_ship": _on_control(_op_snapshot_ship),
        "promote": _on_control(_op_promote),
        "execute": lambda self, query:
            _Pending([self.service.submit(query)], _first),
        "execute_many": lambda self, queries:
            _Pending([self.service.submit(query) for query in queries]),
        "match": lambda self, pattern:
            _Pending([self.service.submit_lookup(pattern)], _first),
        "match_many": lambda self, patterns: _Pending(
            [self.service.submit_lookup(pattern) for pattern in patterns]),
        "match_ids_many": lambda self, patterns: _Pending(
            [self.service.submit_id_lookup(pattern) for pattern in patterns]),
        "count": lambda self, pattern:
            _Pending([self.service.submit_count(pattern)], _first),
        "count_many": lambda self, patterns: _Pending(
            [self.service.submit_count(pattern) for pattern in patterns]),
        "open_cursor": lambda self, query: _Pending(
            [self.service.submit(query)],
            lambda blocks: self.service.register_cursor(blocks[0])),
        "open_match_cursor": lambda self, pattern: _Pending(
            [self.service.submit_lookup(pattern)],
            lambda blocks: self.service.register_cursor(blocks[0])),
        "fetch": _op_fetch,
        "close_cursor": lambda self, cursor: self.service.close_cursor(cursor),
        "add_many": lambda self, triples: _Pending(
            [self.service.submit_add(triples)], self._write_ack("added")),
        "remove_many": lambda self, triples: _Pending(
            [self.service.submit_remove(triples)], self._write_ack("removed")),
        "compact": _on_control(lambda self: {
            "generation": self.service.compact()}),
    }

    # ------------------------------------------------------------------ #
    # replication (follower mode)
    # ------------------------------------------------------------------ #
    def _replicate(self) -> None:
        """Follower loop: copy the leader's WAL bytes and apply them.

        Each poll asks ``snapshot_ship`` for the leader's ``wal-G.log``
        from this replica's position: its own WAL's end.  A record cut
        by the chunk's end waits for the next one; each complete record
        is checked (CRC, then ``seq == applied_seq + 1``) and applied as
        ONE ``service.add_many`` / ``remove_many``, which re-logs it
        byte for byte.  The poll loop is the one retry: the leader
        connection never reconnects on its own, and a failed poll drops
        it and waits one interval.  A *generation* change (the leader
        compacted) re-bootstraps (:meth:`_rebootstrap`); the loop stops
        when the leader's WAL ends before its position (the leader lost
        acked records).  Status moves under the stats lock, per batch,
        so ``stats`` never reads a torn block.
        """
        from repro.kg.client import RemoteClient

        rep = self._replication
        client: Optional[RemoteClient] = None
        # The leader generation whose WAL this loop copies: None until
        # a manifest names it, and again after any failed poll.
        generation: Optional[int] = None
        position = 0        # this replica's WAL end, read with each manifest
        pending = b""       # leader bytes past ``position``: a cut record

        def drop_client() -> None:
            nonlocal client
            if client is not None:
                client.close()      # idempotent, never raises
                client = None

        def note(error: Optional[str]) -> None:
            with self._stats_lock:
                rep["last_error"] = error

        try:
            while not self._stop_replication.is_set():
                try:
                    if client is None:
                        client = RemoteClient(self._follow, codec=CODEC_JSON,
                                              timeout=10.0,
                                              reconnect_attempts=0)
                    if generation is None:
                        generation = decode_snapshot_manifest(
                            client.call("snapshot_ship"))["generation"]
                        if self.service.store.live_generation != generation:
                            self._rebootstrap(client)
                        position, pending = self.service.store.wal.end, b""
                    offset = position + len(pending)
                    chunk = client.call(
                        "snapshot_ship", path=wal_file_name(generation),
                        offset=offset, generation=generation)
                    data = decode_snapshot_chunk(chunk)
                except Exception as exc:
                    note(f"leader poll failed: {exc}")
                    drop_client()
                    generation = None
                    self._stop_replication.wait(self._follow_poll_interval)
                    continue
                if chunk["size"] < offset:
                    note(f"leader WAL ends at byte {chunk['size']}, before "
                         f"this replica's {offset}: the leader lost acked "
                         f"records — re-bootstrap this replica")
                    return
                with self._stats_lock:
                    rep["polls"] += 1
                    rep["generation"] = generation
                    rep["last_error"] = None
                    applied_seq = rep["applied_seq"]
                pending += data
                batches, consumed, corrupt = scan_records(
                    pending, position, applied_seq + 1)
                for batch in batches:
                    triples = [Triple.unchecked(*row) for row in batch.triples]
                    try:
                        if batch.op == OP_ADD:
                            self.service.add_many(triples)
                        else:
                            self.service.remove_many(triples)
                    except Exception as exc:
                        note(f"replay failed: {exc}")
                        return
                    # One lock acquisition per applied batch: seq,
                    # batch and triple counters move together or not at
                    # all as far as any stats reader can observe.
                    with self._stats_lock:
                        rep["applied_seq"] = batch.seq
                        rep["batches_applied"] += 1
                        rep["triples_applied"] += len(triples)
                if corrupt:
                    note(f"leader WAL record at offset {position + consumed} "
                         f"failed its CRC or seq check (expected seq "
                         f"{applied_seq + len(batches) + 1}) — re-bootstrap "
                         f"this replica")
                    return
                position, pending = position + consumed, pending[consumed:]
                if not data:
                    self._stop_replication.wait(self._follow_poll_interval)
        finally:
            with self._stats_lock:
                rep["running"] = False
            drop_client()

    def _rebootstrap(self, client) -> None:
        """Adopt the leader's current generation over the wire: fetch it
        (:func:`fetch_snapshot`), swap the opened store in through the
        dispatcher (readers never see half a state), close the old one,
        sweep stale generations and drop every client connection; the
        loop then copies the new WAL from its header on.
        """
        store = self.service.store
        directory = store.live_directory
        wal_fsync = store.wal.fsync
        manifest = fetch_snapshot(client, directory, fsync=wal_fsync,
                                  should_abort=self._stop_replication.is_set)
        new_store = TripleStore.open(directory, wal_fsync=wal_fsync)
        old_store = self.service.swap_store(new_store)
        try:
            old_store.close()
        except Exception:  # pragma: no cover - old WAL close best-effort
            pass
        new_store.sweep_stale_generations()
        with self._stats_lock:
            self._replication["generation"] = manifest["generation"]
            self._replication["applied_seq"] = manifest["base_seq"]
            self._replication["rebootstraps"] += 1
            self._replication["last_error"] = None
        # A binary connection's encoder captured the old interners at
        # hello time: drop them all; clients reconnect and renegotiate.
        self._drop_connections = True
        self._wake()

