"""A TCP query server in front of :class:`~repro.kg.service.QueryService`.

The network milestone of the ROADMAP's query layer: remote clients speak
the length-prefixed protocol of :mod:`repro.kg.protocol` to a
:class:`KGServer`, which owns one :class:`~repro.kg.service.QueryService`
over an (opened or in-memory) :class:`~repro.kg.store.TripleStore`.

Concurrency model — one I/O thread, a small worker pool, one dispatcher:

* a single **selector loop** thread multiplexes the listener and every
  client socket: it accepts, reads, slices complete frames out of
  per-connection buffers and flushes queued responses.  An idle
  connection costs one registered file descriptor and a buffer — not a
  thread — so thousands of open sockets leave the thread count flat;
* complete frames are handed to a bounded **worker pool** (blocking
  :class:`QueryService` calls happen there, never on the I/O thread).
  Each connection is served serially (frame order = response order,
  and the per-connection codec state stays single-writer), but across
  connections the workers submit concurrently, so the service's single
  dispatcher thread still coalesces N remote clients into batched
  ``execute_many`` / ``match_many`` / ``count_many`` backend rounds —
  ``QueryService.stats`` shows it;
* huge results never cross the wire in one frame: ``open_cursor`` /
  ``fetch`` / ``close_cursor`` page a server-side cursor (TTL-evicted).
  The open is a dispatched read; a page or a close is served on the
  worker thread itself, never queued behind a dispatch round.

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
import selectors
import shutil
import socket
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Deque, List, Optional, Sequence, Tuple, Union

from repro.errors import ProtocolError
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
    SNAPSHOT_CHUNK_BYTES,
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
)
from repro.kg.service import (DEFAULT_CACHE_BYTES, DEFAULT_CURSOR_TTL,
                              QueryService)
from repro.kg.store import TripleStore
from repro.kg.triple import Triple
from repro.kg.wal import (OP_ADD, WriteAheadLog, list_snapshot_files,
                          scan_wal, snapshot_dir_name, wal_file_name,
                          write_live_pointer)

#: Default port of the CLI ``serve`` command (0 = ephemeral, for tests).
DEFAULT_PORT = 7468

#: Worker threads running blocking service calls.  Small on purpose:
#: the QueryService dispatcher is the real executor; workers only
#: decode, submit and encode, and a bounded pool keeps a burst of
#: hostile connections from spawning unbounded threads.
DEFAULT_WORKERS = 8

#: How often a replica polls its leader's WAL when caught up, seconds.
DEFAULT_FOLLOW_POLL_INTERVAL = 0.05

#: Soft cap on triples shipped per ``wal_tail`` response (at least one
#: batch always goes out): the follower catches up over several polls
#: instead of one response blowing the frame cap.
_WAL_TAIL_TRIPLE_BUDGET = 50_000

#: Hard cap on batches per ``wal_tail`` response.
_WAL_TAIL_MAX_BATCHES = 4096


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

    The wire half of replica (re-)bootstrap: pages the leader's
    ``snap-G/`` over ``snapshot_ship`` chunk responses into
    ``snap-G.partial/`` (every chunk CRC-checked, every file
    size-checked), renames it into place, creates a fresh empty
    ``wal-G.log``, and atomically flips ``live.json`` to generation G —
    the commit point.  A crash at any earlier step leaves the pointer
    untouched (the old state, or no store at all, still stands) and the
    next fetch starts over.  Raises
    :class:`~repro.errors.ProtocolError` on any integrity or transfer
    failure — including the leader compacting mid-transfer, which the
    server reports as a generation change; the caller just retries.
    Returns the manifest (``generation``, ``base_seq``, ``files``).
    ``should_abort()`` is polled between chunks so a closing server can
    cut a transfer short.
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
    Returns the bootstrapped generation.
    """
    from repro.kg.client import RemoteClient

    with RemoteClient(leader, codec=CODEC_JSON, timeout=timeout) as client:
        manifest = fetch_snapshot(client, directory, fsync=fsync)
    return manifest["generation"]


class _Connection:
    """Per-connection state shared by the I/O thread and one worker.

    The I/O thread owns ``inbuf`` and the selector registration; the
    ``lock`` guards the worker handoff (``pending`` / ``busy``) and the
    outgoing ``outbuf``.  ``pending`` holds complete frame bodies in
    arrival order — or a :class:`ProtocolError` entry when framing
    broke, so the violation response still goes out *after* the
    responses of the valid frames that preceded it.
    """

    __slots__ = ("sock", "peer", "inbuf", "outbuf", "lock", "pending",
                 "busy", "codec", "encoder", "close_after_write",
                 "closed", "input_broken", "mask")

    def __init__(self, sock: socket.socket, peer) -> None:
        self.sock = sock
        self.peer = peer
        self.inbuf = bytearray()
        self.outbuf: Deque[memoryview] = deque()
        self.lock = threading.Lock()
        self.pending: Deque = deque()
        self.busy = False
        self.codec = CODEC_JSON
        self.encoder: Optional[BinaryResponseEncoder] = None
        self.close_after_write = False
        self.closed = False
        self.input_broken = False
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
    in an application) or :meth:`serve_forever` to donate the calling
    thread (the CLI).  Always :meth:`close` (or use as a context
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
        if follow is not None and not store.writable:
            raise ValueError(
                "a replica must be able to apply its leader's WAL "
                "batches — open a live store (or an in-memory one), not "
                "a read-only snapshot")
        interval = float(follow_poll_interval)
        if not math.isfinite(interval) or interval <= 0:
            raise ValueError(
                f"follow_poll_interval must be a positive number of "
                f"seconds, got {follow_poll_interval!r} (a non-positive "
                f"interval would busy-spin the follower against its "
                f"leader)")
        self.max_frame_bytes = int(max_frame_bytes)
        self.closing = False
        self.role = "replica" if follow is not None else "leader"
        self.shard_index = shard_index
        self.n_shards = n_shards
        self._follow = follow
        self._follow_poll_interval = interval
        # Guards every read and write of the _replication dict: the
        # replication thread bumps it, stats/role/replication_status
        # snapshot it, and promotion finalizes it — a reader must never
        # see a torn block (e.g. generation from one poll, applied_seq
        # from another).
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
        self._promote_lock = threading.Lock()
        # Set by a store swap (re-bootstrap): tells the I/O loop to drop
        # every client connection, because negotiated binary encoders
        # hold references into the replaced store's interners.
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
        self._flush_wanted: set = set()
        self._flush_lock = threading.Lock()
        self._pool = ThreadPoolExecutor(max_workers=DEFAULT_WORKERS,
                                        thread_name_prefix="kg-server-worker")
        self._thread: Optional[threading.Thread] = None
        self._serving = threading.Event()
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
        their WAL replayed; plain columnar/sharded snapshots come up
        read-only for the write ops.
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
        """Serve on the calling thread until :meth:`close` (the CLI path)."""
        self._run()

    def _wake(self) -> None:
        try:
            self._wake_send.send(b"\0")
        except (BlockingIOError, OSError):
            pass  # pipe full = a wakeup is already pending, or closed

    def _reset_connections(self) -> None:
        """Ask the I/O loop to drop every client connection.

        Run after a store swap: a binary-codec connection's response
        encoder captured the *old* store's interner objects at hello
        time, so its delta masks would desync against the adopted
        store.  Clients reconnect (the RemoteClient retries idempotent
        ops transparently) and renegotiate against the new store.
        """
        self._drop_connections = True
        self._wake()

    def close(self) -> None:
        """Stop the I/O loop, drop connections, close the service."""
        with self._close_lock:
            if self.closing:
                return
            self.closing = True
        self._stop_replication.set()
        if self._replication_thread is not None:
            self._replication_thread.join(timeout=10)
        self._wake()
        if self._thread is not None:
            self._thread.join(timeout=10)
        elif self._serving.is_set():
            # serve_forever() on some other thread: give its loop a
            # moment to notice the flag and clean up after itself.
            deadline = time.monotonic() + 10
            while self._serving.is_set() and time.monotonic() < deadline:
                time.sleep(0.005)
        # Workers drain fast: their service futures resolve because the
        # service closes only after the pool has been torn down.
        self._pool.shutdown(wait=True)
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
        self._serving.set()
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
            self._serving.clear()
            if self.closing:
                self._cleanup()

    def _accept_ready(self) -> None:
        while True:
            try:
                sock, peer = self._listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
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
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return

    def _flush_requested(self) -> None:
        with self._flush_lock:
            if not self._flush_wanted:
                return
            wanted = list(self._flush_wanted)
            self._flush_wanted.clear()
        for conn in wanted:
            if not conn.closed:
                self._flush(conn)

    def _set_mask(self, conn: _Connection, mask: int) -> None:
        if conn.mask != mask and not conn.closed:
            conn.mask = mask
            try:
                self._selector.modify(conn.sock, mask, conn)
            except (KeyError, ValueError, OSError):  # pragma: no cover
                pass

    def _close_conn(self, conn: _Connection) -> None:
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
            # done; any in-flight worker response is dropped on write.
            self._close_conn(conn)
            return
        if conn.input_broken:
            return  # framing already failed; ignore further bytes
        conn.inbuf += chunk
        self._parse_frames(conn)

    def _parse_frames(self, conn: _Connection) -> None:
        buffer = conn.inbuf
        appended = False
        while not conn.input_broken:
            if len(buffer) < 4:
                break
            length = int.from_bytes(buffer[:4], "big")
            try:
                check_frame_length(length, self.max_frame_bytes)
            except ProtocolError as violation:
                # Queue the violation behind the valid frames so their
                # responses still go out first, then stop reading.
                conn.input_broken = True
                with conn.lock:
                    conn.pending.append(violation)
                self._set_mask(conn, conn.mask & ~selectors.EVENT_READ)
                appended = True
                break
            if len(buffer) < 4 + length:
                break
            body = bytes(buffer[4:4 + length])
            del buffer[:4 + length]
            with conn.lock:
                conn.pending.append(body)
            appended = True
        if appended:
            self._maybe_dispatch(conn)

    def _maybe_dispatch(self, conn: _Connection) -> None:
        with conn.lock:
            if conn.busy or conn.close_after_write or not conn.pending:
                return
            conn.busy = True
            entry = conn.pending.popleft()
        try:
            self._pool.submit(self._work, conn, entry)
        except RuntimeError:  # pool already shut down: server is closing
            with conn.lock:
                conn.busy = False

    def _flush(self, conn: _Connection) -> None:
        while True:
            with conn.lock:
                if not conn.outbuf:
                    break
                view = conn.outbuf[0]
            try:
                sent = conn.sock.send(view)
            except (BlockingIOError, InterruptedError):
                self._set_mask(conn, conn.mask | selectors.EVENT_WRITE)
                return
            except OSError:
                self._close_conn(conn)
                return
            with conn.lock:
                if sent == len(view):
                    conn.outbuf.popleft()
                else:
                    conn.outbuf[0] = view[sent:]
        self._set_mask(conn, conn.mask & ~selectors.EVENT_WRITE)
        if conn.close_after_write:
            # Pending-but-undispatched frames are moot once the close
            # decision is made (_maybe_dispatch refuses them); only an
            # in-flight worker or unsent bytes defer the close.
            with conn.lock:
                drained = not conn.outbuf and not conn.busy
            if drained:
                self._close_conn(conn)

    # ------------------------------------------------------------------ #
    # workers (blocking service calls; one frame at a time per conn)
    # ------------------------------------------------------------------ #
    def _schedule_write(self, conn: _Connection, frame: Optional[bytes],
                        close: bool = False) -> None:
        with conn.lock:
            if conn.closed:
                return
            if frame:
                conn.outbuf.append(memoryview(frame))
            if close:
                conn.close_after_write = True
        with self._flush_lock:
            self._flush_wanted.add(conn)
        self._wake()

    def _work(self, conn: _Connection, entry) -> None:
        close = False
        try:
            frame, close = self._serve_frame(conn, entry)
        except BaseException as exc:  # pragma: no cover - last resort
            try:
                frame, close = self._error_frame(conn, exc), True
            except BaseException:
                frame, close = None, True
        self._schedule_write(conn, frame, close=close)
        with conn.lock:
            finished = close or conn.close_after_write or not conn.pending
            if finished:
                conn.busy = False
            else:
                entry = conn.pending.popleft()
        if finished:
            if conn.close_after_write:
                # The flush that saw busy=True may already have run;
                # request another so the close is never missed.
                with self._flush_lock:
                    self._flush_wanted.add(conn)
                self._wake()
            return
        try:
            self._pool.submit(self._work, conn, entry)
        except RuntimeError:  # closing
            with conn.lock:
                conn.busy = False

    def _serve_frame(self, conn: _Connection,
                     entry) -> Tuple[Optional[bytes], bool]:
        """One frame in, one response frame out (+ close-connection flag)."""
        if isinstance(entry, ProtocolError):
            # Framing violation queued by the I/O thread: the boundary
            # is no longer trustworthy — report best-effort and hang up.
            return self._error_frame(conn, entry), True
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
        if message.get("op") == "hello":
            return self._serve_hello(conn, message), False
        encode = self._encode_binary_response if binary \
            else self._encode_json_response
        return encode(conn, self.handle_message(message, raw=binary)), False

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
        frame = self._encode_json_response(
            conn, {"id": request_id, "ok": True,
                   "result": {"codec": CODEC_BINARY if grant else conn.codec,
                              "protocol": BINARY_PROTOCOL_VERSION}})
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
        return encode({"id": request_id, "ok": False,
                       "error": error_to_wire(exc)}, self.max_frame_bytes)

    def _encode_json_response(self, conn: _Connection,
                              response: dict) -> bytes:
        encode = encode_tagged_json if conn.codec == CODEC_BINARY \
            else encode_frame
        try:
            return encode(response, self.max_frame_bytes)
        except ProtocolError as exc:
            # The *response* did not fit the frame cap.  The stream is
            # still intact, so report and keep serving — the client
            # should page through a cursor instead.
            return self._error_frame(conn, exc, response.get("id"))

    def _encode_binary_response(self, conn: _Connection,
                                response: dict) -> bytes:
        """Pack id-block results; anything else rides as tagged JSON."""
        result = response.get("result")      # absent on a failure
        shape, blocks = _result_blocks(result)
        if shape is None:
            return self._encode_json_response(conn, response)
        flags = FLAG_EXHAUSTED if shape == SHAPE_PAGE \
            and result.get("exhausted") else 0
        try:
            return conn.encoder.encode(response.get("id"), shape, blocks,
                                       flags)
        except ProtocolError as exc:
            return self._error_frame(conn, exc, response.get("id"))

    # ------------------------------------------------------------------ #
    # request dispatch (called from worker threads)
    # ------------------------------------------------------------------ #
    def handle_message(self, message: dict, raw: bool = False) -> dict:
        """Serve one decoded request; always returns a response object.

        Anything a hostile or buggy client can provoke — unknown op,
        missing/garbage fields, a query-layer error — comes back as a
        typed error response on the same connection; nothing propagates
        to the connection loop.  ``raw=True`` says the connection said
        ``hello``, so id blocks can be framed for it under an int64
        request id; otherwise an op that answers in rows is refused
        before its fields are decoded — no query runs, no cursor is
        parked.
        """
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
            result = self._HANDLERS[op](self, **spec.decode(message))
        except Exception as exc:
            return {"id": request_id, "ok": False, "error": error_to_wire(exc)}
        return {"id": request_id, "ok": True, "result": result}

    def _op_stats(self) -> dict:
        server_info = {"connections": self.connection_count,
                       "workers": DEFAULT_WORKERS,
                       "role": self.role}
        if self.shard_index is not None:
            server_info["shard_index"] = self.shard_index
            server_info["n_shards"] = self.n_shards
        stats = {"service": self.service.stats,
                 "store": {"triples": len(self.service.store),
                           "backend": self.service.store.backend_name},
                 "server": server_info}
        if self.role == "replica":
            stats["replication"] = self._replication_snapshot()
        cluster_stats = getattr(self.service.store.backend,
                                "cluster_stats", None)
        if callable(cluster_stats):
            stats["cluster"] = cluster_stats()
        return stats

    def _op_execute_many(self, queries) -> list:
        futures = [self.service.submit(query) for query in queries]
        return [future.result() for future in futures]

    def _op_match_many(self, patterns) -> list:
        futures = [self.service.submit_lookup(pattern)
                   for pattern in patterns]
        return [future.result() for future in futures]

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
        """The ``replication_status`` op: how caught-up this server is.

        The promotion protocol's ballot: a coordinator facing a dead
        leader polls each replica's ``applied_seq`` through this and
        promotes the highest.  Served by leaders too (an
        already-promoted server reports its role so a second
        coordinator repoints instead of re-promoting).
        """
        store = self.service.store
        info = self._replication_snapshot()
        info["role"] = self.role
        info["local_generation"] = store.live_generation
        info["writable"] = store.writable
        return info

    def _op_wal_tail(self, after_seq: int, max_batches: int) -> dict:
        """Ship WAL batches past ``after_seq`` to a polling follower.

        Scans only what it may ship: ``wal.ends`` (the end offset of
        every durable record, pushed once its fsync returned) bounds the
        scan to the records past ``after_seq`` up to the batch cap, so a
        poll costs the bytes it ships, a caught-up poll opens no file
        and a record still in fsync never ships.  The response is capped
        (batches and a triple budget) so a far-behind follower catches
        up over several polls instead of one response blowing the frame
        cap.
        """
        wal = self.service.store.wal
        if wal is None:
            raise ProtocolError(
                "wal_tail requires a live store (this server was opened "
                "from a plain snapshot or in-memory data)")
        n = len(wal.ends)
        batches: List[list] = []
        if after_seq < n:
            last = min(n, after_seq + min(max_batches, _WAL_TAIL_MAX_BATCHES))
            scan = scan_wal(wal.path,
                            start=wal.ends[after_seq - 1] if after_seq else 0,
                            first_seq=after_seq + 1, stop=wal.ends[last - 1])
            budget = _WAL_TAIL_TRIPLE_BUDGET
            for batch in scan.batches:
                if batches and budget <= 0:
                    break
                batches.append([batch.seq, batch.op,
                                [list(triple) for triple in batch.triples]])
                budget -= len(batch.triples)
        return {"generation": wal.generation, "next_seq": wal.next_seq,
                "batches": batches}

    def _op_snapshot_ship(self, path: Optional[str], offset: int,
                          generation: Optional[int]) -> dict:
        """Stream the current snapshot generation to a bootstrapping peer.

        Two request shapes share the op.  Without a ``path`` field it
        returns the **manifest**: the current generation, the WAL
        position the shipped snapshot corresponds to (``base_seq`` — a
        compaction always starts its new WAL at seq 1, so a shipped
        snapshot is always seq 0 of its generation) and the relative
        path + size of every snapshot member file.  With ``path`` /
        ``offset`` / ``generation`` it returns one **chunk**: up to
        :data:`~repro.kg.protocol.SNAPSHOT_CHUNK_BYTES` of that file as
        CRC-checked base64, well under the frame cap.  A chunk request
        for a generation that is no longer current (the leader
        compacted mid-transfer) fails typed — the fetcher restarts from
        a fresh manifest instead of stitching two generations together.
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
                    "chunk_bytes": SNAPSHOT_CHUNK_BYTES, "files": files}
        if generation != current:      # a chunk request must name one
            raise ProtocolError(
                f"snapshot generation changed under the transfer (chunk "
                f"asked for generation {generation}, this server now "
                f"serves {current}) — restart the fetch from a fresh "
                f"manifest")
        target = _resolve_snapshot_member(snapshot, path)
        try:
            with open(target, "rb") as handle:
                handle.seek(offset)
                data = handle.read(SNAPSHOT_CHUNK_BYTES)
                size = os.fstat(handle.fileno()).st_size
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

        Commit order: stop the replication loop first (no leader batch
        may apply after the cut), then compact — which folds the
        replica's current state into a **new, higher generation** and
        flips its ``live.json`` — then flip the advertised role so the
        write ops open up.  The generation bump is the split-brain
        fence: the dead ex-leader's directory stays on the old
        generation, so a routing layer that recorded the promotion
        generation refuses any endpoint still serving an older one; a
        restarted ex-leader rejoins by following the new leader, which
        re-bootstraps it past the fence.  Idempotent on an
        already-promoted server (reports ``promoted: false``).
        """
        with self._promote_lock:
            if self.role == "leader":
                return {"promoted": False, "role": self.role,
                        "generation": self.service.store.live_generation}
            if self.service.store.live_generation is None:
                raise ProtocolError(
                    "promotion requires a live store directory: an "
                    "in-memory follower has no durable generation to bump "
                    "and cannot take over the shard's write path")
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

    #: One handler per ``protocol.OPS`` entry (the test suite holds the
    #: two key sets equal), called as ``handler(self, **decoded_fields)``.
    _HANDLERS = {
        "ping": lambda self: "pong",
        "stats": _op_stats,
        "len": lambda self: len(self.service.store),
        "role": _op_role,
        "replication_status": _op_replication_status,
        "wal_tail": _op_wal_tail,
        "snapshot_ship": _op_snapshot_ship,
        "promote": _op_promote,
        "execute": lambda self, query: self.service.submit(query).result(),
        "execute_many": _op_execute_many,
        "match": lambda self, pattern:
            self.service.submit_lookup(pattern).result(),
        "match_many": _op_match_many,
        "match_ids_many": lambda self, patterns:
            self.service.match_ids_many(patterns),
        "count": lambda self, pattern: self.service.count_many([pattern])[0],
        "count_many": lambda self, patterns: self.service.count_many(patterns),
        "open_cursor": lambda self, query: self.service.open_cursor(query),
        "open_match_cursor": lambda self, pattern:
            self.service.open_match_cursor(pattern),
        "fetch": _op_fetch,
        "close_cursor": lambda self, cursor: self.service.close_cursor(cursor),
        "add_many": lambda self, triples: {
            "added": self.service.add_many(triples),
            "epoch": self.service.mutation_epoch},
        "remove_many": lambda self, triples: {
            "removed": self.service.remove_many(triples),
            "epoch": self.service.mutation_epoch},
        "compact": lambda self: {"generation": self.service.compact()},
    }

    # ------------------------------------------------------------------ #
    # replication (follower mode)
    # ------------------------------------------------------------------ #
    def _replicate(self) -> None:
        """Follower loop: poll the leader's WAL tail and apply it.

        Each leader batch applies as ONE ``service.add_many`` /
        ``remove_many`` call, so when this replica runs over a live
        store bootstrapped from the leader's snapshot, its own WAL
        sequence numbers stay in lockstep with the leader's and
        ``applied_seq`` survives a replica restart for free.
        Unreachable leaders are retried forever (the replica keeps
        serving reads from its current state).  A *generation* change
        means the leader compacted underneath us: replaying the new log
        over our old snapshot would be wrong, so a live-directory
        replica re-bootstraps itself over the wire
        (:meth:`_rebootstrap`) and resumes on the new generation — only
        an in-memory follower, which has nowhere durable to adopt a
        snapshot into, still stops with the re-bootstrap demand.  Every
        status mutation happens under the stats lock, grouped per batch,
        so a concurrent ``stats`` poll never reads a torn block.
        """
        from repro.kg.client import RemoteClient

        rep = self._replication
        client: Optional[RemoteClient] = None
        # Last leader generation observed, for followers with no local
        # generation (in-memory): they cannot adopt a snapshot, but they
        # must still notice a compaction instead of misreading the new
        # log's restarted sequence numbers as a continuation.
        leader_generation: Optional[int] = None

        def drop_client() -> None:
            nonlocal client
            if client is not None:
                try:
                    client.close()
                except Exception:  # pragma: no cover - best-effort
                    pass
                client = None

        try:
            while not self._stop_replication.is_set():
                with self._stats_lock:
                    applied_seq = rep["applied_seq"]
                try:
                    if client is None:
                        client = RemoteClient(self._follow, codec=CODEC_JSON,
                                              timeout=10.0)
                    result = client.call("wal_tail", after_seq=applied_seq)
                except Exception as exc:
                    with self._stats_lock:
                        rep["last_error"] = f"leader poll failed: {exc}"
                    drop_client()
                    self._stop_replication.wait(self._follow_poll_interval)
                    continue
                generation = result.get("generation")
                # Re-read the local generation every iteration: a
                # re-bootstrap moves it, and comparing against a value
                # captured at loop start would mis-fire forever after.
                local_generation = self.service.store.live_generation
                with self._stats_lock:
                    rep["polls"] += 1
                    rep["generation"] = generation
                if local_generation is not None \
                        and generation != local_generation:
                    try:
                        self._rebootstrap(client)
                    except Exception as exc:
                        with self._stats_lock:
                            rep["last_error"] = (
                                f"re-bootstrap after leader generation "
                                f"change ({local_generation} -> "
                                f"{generation}) failed: {exc}; retrying")
                        drop_client()
                        self._stop_replication.wait(
                            self._follow_poll_interval)
                    continue
                if local_generation is None \
                        and leader_generation is not None \
                        and generation != leader_generation:
                    with self._stats_lock:
                        rep["last_error"] = (
                            f"leader moved to generation {generation}; an "
                            f"in-memory follower cannot adopt a shipped "
                            f"snapshot — restart this replica over a live "
                            f"store directory to follow across "
                            f"compactions")
                    return
                leader_generation = generation
                applied_any = False
                abort = None
                for seq, op, rows in result.get("batches") or []:
                    if seq <= applied_seq:
                        continue
                    if seq != applied_seq + 1:
                        abort = (f"gap in the leader WAL: expected seq "
                                 f"{applied_seq + 1}, got {seq} — "
                                 f"re-bootstrap this replica")
                        break
                    triples = [Triple.unchecked(h, r, t) for h, r, t in rows]
                    try:
                        if op == OP_ADD:
                            self.service.add_many(triples)
                        else:
                            self.service.remove_many(triples)
                    except Exception as exc:
                        abort = f"replay failed: {exc}"
                        break
                    applied_seq = seq
                    # One lock acquisition per applied batch: seq,
                    # batch and triple counters move together or not at
                    # all as far as any stats reader can observe.
                    with self._stats_lock:
                        rep["applied_seq"] = seq
                        rep["batches_applied"] += 1
                        rep["triples_applied"] += len(triples)
                    applied_any = True
                if abort is not None:
                    with self._stats_lock:
                        rep["last_error"] = abort
                    return
                with self._stats_lock:
                    rep["last_error"] = None
                if not applied_any:
                    self._stop_replication.wait(self._follow_poll_interval)
        finally:
            with self._stats_lock:
                rep["running"] = False
            drop_client()

    def _rebootstrap(self, client) -> None:
        """Adopt the leader's current generation over the wire.

        The follower half of snapshot shipping, run from the
        replication thread when the leader's generation moved: fetch
        the new ``snap-G/`` + WAL position into this replica's live
        directory (:func:`fetch_snapshot` — the atomic ``live.json``
        flip is the commit point), open the adopted generation as a
        fresh store, swap it in through the service dispatcher (readers
        never observe half a state), close the replaced store, sweep
        the stale generation, and drop client connections whose binary
        encoders captured the old store's interners.  On return the
        loop resumes tailing the new generation's WAL from the shipped
        ``base_seq``.  In-memory followers cannot adopt a snapshot and
        keep the old stop-with-error behavior (the caller guards).
        """
        store = self.service.store
        directory = store.live_directory
        if directory is None:
            raise ProtocolError(
                "re-bootstrap requires a live store directory")
        wal_fsync = store.wal.fsync if store.wal is not None else True
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
        self._reset_connections()

