"""Adversarial tests for the network query protocol (server + client).

Four suites, mirroring what a network boundary must survive:

* **parity** — bindings fetched through ``RemoteQueryEngine`` with
  paging (page sizes down to 1) are bit-identical to local
  ``QueryEngine.execute`` on the same store, across columnar and
  sharded backends including a save→reopen→serve cycle (randomized
  with hypothesis);
* **protocol robustness** — malformed / truncated / oversized frames,
  garbage bytes, unknown ops, missing fields, and mid-request
  disconnects produce clean typed errors or connection closes, and the
  server stays serviceable after every abuse case;
* **concurrency** — 16 threaded remote clients running mixed
  execute/match/cursor workloads return exactly the serial local
  results, and the service's dispatch counters prove the requests were
  coalesced into batched backend rounds;
* **cursor faults** — expired TTL, server restart, double close and
  limit edge cases raise typed ``CursorError``/``QueryError``, never
  silent partial results;
* **the two planes** — JSON frames carry requests, errors, scalars and
  replication; the binary id-block frame is the one row encoder.  The
  ``server_codec`` fixture is the *connection state* a case starts
  from: ``json-wire`` never said ``hello`` (a control connection),
  ``binary-wire`` said it.  Framing, validation, control and write
  cases hold on both; a case whose scenario asks for rows runs as
  written after ``hello`` and, without it, must end in the typed
  refusal at its first rows request.  Dedicated cases cover malformed
  ``hello``, the refusal rule derived from ``protocol.OPS``, and a
  byte-for-byte replay of frames the parent commit wrote.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import gc
import inspect
import json
import os
import socket
import struct
import tempfile
import threading
import time
import weakref
from concurrent.futures import Future
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _oracle import multiset
from repro.errors import CursorError, ProtocolError, QueryError, StorageError
from repro.kg.cluster import ClusterBackend
from repro.kg.client import (
    RemoteClient,
    RemoteCursor,
    RemoteQueryEngine,
    RemoteStore,
    connect,
    parse_address,
)
from repro.kg.protocol import (
    MAX_FRAME_BYTES,
    OPS,
    REQUIRED,
    TAG_BINARY,
    TAG_JSON,
    BinaryResponseDecoder,
    BinaryResponseEncoder,
    DecodedBlock,
    decode_json_body,
    decode_snapshot_chunk,
    decode_wire_query,
    encode_frame,
    encode_tagged_json,
    encode_wire_query,
    read_frame,
    read_frame_bytes,
    send_frame,
    snapshot_chunk_bytes,
)
from repro.kg.query import PatternQuery, QueryEngine
from repro.kg.server import KGServer as _KGServer, _Pending
from repro.kg.service import DEFAULT_CACHE_BYTES, QueryService
from repro.kg.sharded_backend import ShardedBackend
from repro.kg.spans import Spans
from repro.kg.store import TripleStore
from repro.kg.triple import triples_from_tuples
from repro.kg.wal import HEADER_BYTES, wal_file_name

NUM_PRODUCTS = 48
DATA_DIR = Path(__file__).parent / "data"

#: The CI ``server-cache-matrix`` job reruns this whole adversarial
#: suite with the result cache disabled (``KG_SERVER_CACHE=off``); the
#: default run keeps the server default (cache on), so every parity,
#: abuse and fault path is exercised both with and without the cache in
#: the loop — without doubling the local test count the way another
#: fixture axis would.
_CACHE_BYTES = 0 if os.environ.get("KG_SERVER_CACHE") == "off" \
    else DEFAULT_CACHE_BYTES


class KGServer(_KGServer):
    """The production server with this run's cache policy baked in."""

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("cache_bytes", _CACHE_BYTES)
        super().__init__(*args, **kwargs)


def _rows():
    rows = []
    for index in range(NUM_PRODUCTS):
        product = f"product:{index:04d}"
        rows.append((product, "brandIs", f"brand:{index % 6}"))
        rows.append((product, "placeOfOrigin", f"place:{index % 5}"))
        rows.append((product, "rdf:type", f"category:{index % 9}"))
    for brand in range(6):
        rows.append((f"brand:{brand}", "headquartersIn", f"country:{brand % 3}"))
    return rows


@pytest.fixture(scope="module")
def store():
    return TripleStore(triples_from_tuples(_rows()))


@pytest.fixture(scope="module")
def sharded_store():
    return TripleStore(triples_from_tuples(_rows()),
                       backend=ShardedBackend(n_shards=2))


@pytest.fixture(scope="module", params=["json", "auto"],
                ids=["json-wire", "binary-wire"])
def server_codec(request):
    """The connection state a case starts from, as the
    ``RemoteClient(codec=)`` value that produces it: ``json`` never
    says ``hello`` (a control connection), ``auto`` said it.  The
    server has no say — it grants every ``hello`` offering binary."""
    return request.param


@pytest.fixture(scope="module")
def server(store):
    with KGServer(store, port=0).start() as running:
        yield running


@pytest.fixture(scope="module")
def sharded_server(sharded_store):
    with KGServer(sharded_store, port=0).start() as running:
        yield running


@pytest.fixture(scope="module")
def reopened_server(tmp_path_factory, sharded_store):
    """A save→reopen→serve cycle of a sharded store (saved in the one
    columnar format)."""
    directory = sharded_store.save(tmp_path_factory.mktemp("served") / "kg")
    with KGServer.open(directory, port=0) as running:
        running.start()
        yield running


def _drain(cursor: RemoteCursor):
    rows = list(cursor)
    cursor.close()
    return rows


@contextlib.contextmanager
def _surface(surface, running, state: str):
    """``surface`` (a remote API class) over a connection in ``state``."""
    with RemoteClient(running.url, codec=state) as client:
        yield surface(client)


_engine = functools.partial(_surface, RemoteQueryEngine)
_remote_store = functools.partial(_surface, RemoteStore)


def _asks_for_rows(scenario):
    """Mark a case whose scenario asks for rows.  After ``hello`` it
    runs as written.  On a connection that never said it the scenario
    still starts, and must end at its first rows request — whichever
    client method makes it — in the typed refusal naming ``hello``:
    never JSON rows, never an untyped failure."""
    @functools.wraps(scenario)
    def run(*args, server_codec, **kwargs):
        if server_codec == "auto":
            return scenario(*args, server_codec=server_codec, **kwargs)
        with pytest.raises(ProtocolError, match="never said 'hello'"):
            scenario(*args, server_codec=server_codec, **kwargs)
    return run


# --------------------------------------------------------------------------- #
# parity: remote paging vs local execution
# --------------------------------------------------------------------------- #
HEAD_TERMS = ("?p", "?q", "product:0001", "product:0013", "brand:2", "ghost")
RELATION_TERMS = ("brandIs", "placeOfOrigin", "rdf:type", "headquartersIn",
                  "?r")
TAIL_TERMS = ("?b", "?c", "?p", "brand:3", "place:2", "country:1",
              "category:4", "ghost")

pattern_strategy = st.tuples(st.sampled_from(HEAD_TERMS),
                             st.sampled_from(RELATION_TERMS),
                             st.sampled_from(TAIL_TERMS))


@st.composite
def query_strategy(draw):
    patterns = draw(st.lists(pattern_strategy, min_size=1, max_size=2))
    variables = [term for pattern in patterns for term in pattern
                 if term.startswith("?")]
    select = ()
    if variables and draw(st.booleans()):
        select = tuple(dict.fromkeys(draw(
            st.lists(st.sampled_from(variables), min_size=1, max_size=2))))
    return PatternQuery.from_patterns(patterns, select=select)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(query=query_strategy(), page_size=st.sampled_from((1, 3, 7, 1000)))
@_asks_for_rows
def test_remote_paged_results_identical_to_local(server, sharded_server,
                                                 reopened_server, store,
                                                 sharded_store, server_codec,
                                                 query, page_size):
    """The acceptance property: random queries, several page sizes
    (including 1), three serving setups — remote paging must be
    bit-identical (values AND order) to local execution."""
    fixtures = [(server, store), (sharded_server, sharded_store),
                (reopened_server, reopened_server.service.store)]
    for running, backing in fixtures:
        local = QueryEngine(backing).execute(query)
        with _engine(running, server_codec) as engine:
            assert engine.execute(query) == local
            paged = _drain(engine.cursor(query, page_size=page_size))
            assert paged == local


@_asks_for_rows
def test_remote_three_pattern_join_parity(server, store, server_codec):
    query = PatternQuery.from_patterns(
        [("?p", "brandIs", "?b"),
         ("?b", "headquartersIn", "?c"),
         ("?p", "rdf:type", "?cat")],
        select=["?p", "?c"])
    local = QueryEngine(store).execute(query)
    with _engine(server, server_codec) as engine:
        assert engine.execute(query) == local
        assert _drain(engine.cursor(query, page_size=1)) == local


@_asks_for_rows
def test_remote_execute_many_parity(server, store, server_codec):
    queries = [PatternQuery.from_patterns([("?p", "brandIs", f"brand:{i}")])
               for i in range(6)]
    local = QueryEngine(store).execute_many(queries)
    with _engine(server, server_codec) as engine:
        assert engine.execute_many(queries) == local


@_asks_for_rows
def test_remote_store_mirrors_local_surface(server, store, server_codec):
    patterns = [(None, "brandIs", None), ("product:0001", None, None),
                ("ghost", None, None), (None, None, "country:1")]
    with _remote_store(server, server_codec) as remote:
        # Scalars first: these answer on a control connection too.
        assert len(remote) == len(store)
        for pattern in patterns:
            assert remote.count(*pattern) == store.count(*pattern)
        assert remote.count_many(patterns) == store.count_many(patterns)
        for pattern in patterns:
            assert remote.match(*pattern) == store.match(*pattern)
        assert remote.match(None, "brandIs", None, sort=True) == \
            store.match(None, "brandIs", None, sort=True)
        assert remote.match_many(patterns) == store.match_many(patterns)
        assert list(remote.iter_match(relation="brandIs", page_size=7)) == \
            store.match(relation="brandIs")


@_asks_for_rows
def test_remote_limit_caps_rows(server, store, server_codec):
    query = PatternQuery.from_patterns([("?p", "brandIs", "?b")])
    local = QueryEngine(store).execute(query)
    with _engine(server, server_codec) as engine:
        assert engine.execute(query, limit=5) == local[:5]
        assert _drain(engine.cursor(query, limit=7, page_size=3)) == local[:7]


def test_remote_typed_errors_round_trip(server, server_codec):
    """A server-side error re-raises as its own class on either plane;
    a query error is only reachable where queries are."""
    bad_select = PatternQuery.from_patterns([("?p", "brandIs", "?b")],
                                            select=["?oops"])
    with _engine(server, server_codec) as engine:
        with pytest.raises(CursorError, match="unknown cursor"):
            engine.client.call("close_cursor", cursor="cur-never-opened")
        with pytest.raises(QueryError, match="variable"):
            engine.client.call("count", pattern=["?p", "brandIs", None])
        if server_codec == "json":
            with pytest.raises(ProtocolError, match="execute_many.*hello"):
                engine.execute(bad_select)
            return
        with pytest.raises(QueryError, match=r"\?oops"):
            engine.execute(bad_select)
        with pytest.raises(QueryError, match="limit"):
            engine.execute(PatternQuery.from_patterns(
                [("?p", "brandIs", "?b")]), limit=0)


def test_parse_address_forms():
    assert parse_address("127.0.0.1:7468") == ("127.0.0.1", 7468)
    assert parse_address("kg://example:1") == ("example", 1)
    assert parse_address("tcp://example:1") == ("example", 1)
    assert parse_address("tcp://example:65535") == ("example", 65535)
    for bad in ("", "nope", "host:", ":17", "host:port", 17):
        with pytest.raises(ValueError):
            parse_address(bad)


def test_parse_address_bracketed_ipv6():
    assert parse_address("[::1]:9999") == ("::1", 9999)
    assert parse_address("tcp://[::1]:9999") == ("::1", 9999)
    assert parse_address("kg://[fe80::2]:7468") == ("fe80::2", 7468)


def test_parse_address_rejection_messages():
    """Each malformed shape names what is wrong, not just 'bad address'."""
    cases = [
        ("[::1]", "missing the ':port'"),
        ("[::1]9999", "missing the ':port'"),
        ("[]:17", r"\[host\]:port"),
        ("[::1:17", r"\[host\]:port"),
        ("host:port", "port must be a number"),
        ("tcp://host:-1", "port must be a number"),
        ("host:0", "port must be in 1..65535"),
        ("host:70000", "port must be in 1..65535"),
    ]
    for address, message in cases:
        with pytest.raises(ValueError, match=message):
            parse_address(address)


# --------------------------------------------------------------------------- #
# protocol robustness: the server must shrug off hostile bytes
# --------------------------------------------------------------------------- #
def _assert_serviceable(running: KGServer) -> None:
    """A fresh connection still gets correct answers."""
    query = PatternQuery.from_patterns([("?p", "brandIs", "brand:1")])
    local = QueryEngine(running.service.store).execute(query)
    with RemoteQueryEngine(running.url) as engine:
        assert engine.execute(query) == local


def _raw_connection(running: KGServer, state: str = "json") -> socket.socket:
    """A raw socket in ``state``: ``auto`` says ``hello`` first."""
    sock = socket.create_connection(running.address, timeout=10)
    sock.settimeout(10)
    if state == "auto":
        assert _hello(sock, ["binary"])["result"]["codec"] == "binary"
    return sock


def _send_body(sock: socket.socket, body: bytes, state: str) -> None:
    """One request frame carrying the raw ``body`` (not necessarily
    JSON), tagged after ``hello``."""
    if state == "auto":
        body = bytes([TAG_JSON]) + body
    sock.sendall(struct.pack(">I", len(body)) + body)


def _read_response(sock: socket.socket, state: str) -> dict:
    """One JSON response; after ``hello`` it arrives tagged."""
    response = read_frame(sock) if state == "json" else _read_tagged(sock)
    assert response is not None
    return response


def _send(sock: socket.socket, message: dict, state: str) -> None:
    encode = encode_frame if state == "json" else encode_tagged_json
    sock.sendall(encode(message, MAX_FRAME_BYTES))


def _exchange(sock: socket.socket, message: dict, state: str) -> dict:
    """One raw request/response on a connection in ``state``."""
    _send(sock, message, state)
    return _read_response(sock, state)


def _read_error(sock: socket.socket, state: str) -> dict:
    response = _read_response(sock, state)
    assert response["ok"] is False
    return response["error"]


def test_garbage_bytes_get_error_then_close(server, server_codec):
    with _raw_connection(server, server_codec) as sock:
        sock.sendall(b"\xde\xad\xbe\xef not a frame at all")
        error = _read_error(sock, server_codec)
        assert error["type"] == "ProtocolError"
        assert sock.recv(1024) == b""       # server hung up
    _assert_serviceable(server)


def test_oversized_declared_length_rejected_without_allocation(server,
                                                               server_codec):
    with _raw_connection(server, server_codec) as sock:
        sock.sendall(struct.pack(">I", 0xFFFFFFFF))
        error = _read_error(sock, server_codec)
        assert error["type"] == "ProtocolError"
        assert "cap" in error["message"]
        assert sock.recv(1024) == b""
    _assert_serviceable(server)


def test_zero_length_frame_rejected(server, server_codec):
    with _raw_connection(server, server_codec) as sock:
        sock.sendall(struct.pack(">I", 0))
        assert _read_error(sock, server_codec)["type"] == "ProtocolError"
    _assert_serviceable(server)


def test_truncated_frame_then_disconnect(server, server_codec):
    with _raw_connection(server, server_codec) as sock:
        sock.sendall(struct.pack(">I", 1000) + b"only a little")
    _assert_serviceable(server)


def test_frame_with_invalid_json_body(server, server_codec):
    with _raw_connection(server, server_codec) as sock:
        _send_body(sock, b"{not json!", server_codec)
        error = _read_error(sock, server_codec)
        assert error["type"] == "ProtocolError"
        assert "JSON" in error["message"]
    _assert_serviceable(server)


def test_frame_with_non_object_json_body(server, server_codec):
    with _raw_connection(server, server_codec) as sock:
        _send_body(sock, b"[]", server_codec)
        assert _read_error(sock, server_codec)["type"] == "ProtocolError"
    _assert_serviceable(server)


def test_unknown_op_keeps_connection_alive(server, server_codec):
    with _raw_connection(server, server_codec) as sock:
        error = _exchange(sock, {"op": "self-destruct", "id": 1},
                          server_codec)["error"]
        assert error["type"] == "ProtocolError"
        assert "self-destruct" in error["message"]
        # The frame stream is intact: the same connection keeps working.
        response = _exchange(sock, {"op": "ping", "id": 2}, server_codec)
        assert response == {"id": 2, "ok": True, "result": "pong"}
    _assert_serviceable(server)


#: One value of every JSON type: the wrong-type inputs of the generated
#: malformed-request matrix below.
_PALETTE = (None, True, 1, 1.5, "x", [], {})

#: One well-formed value per request field name, so a case can break
#: exactly one field of an otherwise valid request.
_WELL_FORMED = {
    "pattern": [None, "brandIs", None],
    "patterns": [],
    "query": {"patterns": [["?p", "brandIs", "?b"]]},
    "queries": [],
    "cursor": "x",
    "max_rows": 1,
    "after_seq": 0,
    "path": "x",
    "offset": 0,
    "generation": 0,
    "triples": [],
}


def _rejects(field, value) -> bool:
    try:
        field.decode(value, "probe")
    except ProtocolError:
        return True
    return False


def test_op_table_pins_the_retry_and_write_classes():
    """The classes the table replaced, pinned as literals: the 16 names
    ``client.IDEMPOTENT_OPS`` held and the replica gate's write tuple."""
    assert {name for name, op in OPS.items() if op.retry_safe} == {
        "ping", "stats", "len", "role", "wal_tail",
        "replication_status", "snapshot_ship",
        "execute", "execute_many",
        "match", "match_many", "match_ids_many",
        "count", "count_many",
        "open_cursor", "open_match_cursor"}
    assert {name for name, op in OPS.items() if op.write} \
        == {"add_many", "remove_many", "compact"}
    assert "hello" not in OPS       # frame-level, see _serve_frame


def test_every_op_has_exactly_one_handler():
    assert KGServer._HANDLERS.keys() == OPS.keys()


def test_every_declared_field_rejects_missing_and_wrong_types(server,
                                                              server_codec):
    """The malformed-request matrix, generated from ``protocol.OPS``:
    every op x every declared field, once missing (when required) and
    once per palette value its decoder refuses — each a ProtocolError
    naming the field and echoing the id, on a connection that then
    still answers ``ping``.  Without ``hello`` an op that answers in
    rows never gets as far as its fields: it is refused naming itself
    and ``hello``."""
    cases = []
    for name, op in OPS.items():
        well_formed = {field: _WELL_FORMED[field] for field in op.fields}
        for field, spec in op.fields.items():
            assert not _rejects(spec, well_formed[field]), (name, field)
            refused = [value for value in _PALETTE if _rejects(spec, value)]
            # No decoder waves a whole palette through: each is one JSON
            # type, so at most one palette value is well-formed.
            assert len(refused) >= len(_PALETTE) - 1, (name, field)
            for value in refused:
                cases.append((field, {"op": name, **well_formed,
                                      field: value}))
            if spec.default is REQUIRED:
                broken = dict(well_formed)
                del broken[field]
                cases.append((field, {"op": name, **broken}))
    assert len(cases) >= 128
    with _raw_connection(server, server_codec) as sock:
        for request_id, (field, message) in enumerate(cases):
            response = _exchange(sock, {**message, "id": request_id},
                                 server_codec)
            assert response["ok"] is False, message
            assert response["id"] == request_id
            assert response["error"]["type"] == "ProtocolError", message
            named = (message["op"], "hello") if server_codec == "json" \
                and OPS[message["op"]].rows else (field,)
            for name in named:
                assert name in response["error"]["message"], message
            pong = _exchange(sock, {"op": "ping", "id": "p"}, server_codec)
            assert pong == {"id": "p", "ok": True, "result": "pong"}
    _assert_serviceable(server)


def test_every_write_op_is_refused_on_a_replica(server, server_codec,
                                               tmp_path):
    """The replica gate reads ``Op.write`` — and runs before field
    decoding, so even a field-less write gets the redirect."""
    writes = [name for name, op in OPS.items() if op.write]
    follower = TripleStore.create_live(
        tmp_path / "replica", triples_from_tuples(_rows()[:3]),
        wal_fsync=False)
    with KGServer(follower, port=0, follow=server.url).start() as replica:
        with _raw_connection(replica, server_codec) as sock:
            for request_id, name in enumerate(writes):
                response = _exchange(sock, {"op": name, "id": request_id},
                                     server_codec)
                assert response["ok"] is False and response["id"] == request_id
                assert response["error"]["type"] == "ProtocolError"
                assert "read-only replica" in response["error"]["message"]
            assert _exchange(sock, {"op": "len", "id": 9},
                             server_codec)["result"] == 3


@settings(max_examples=50, deadline=None)
@given(query=query_strategy(),
       limit=st.one_of(st.none(), st.integers(1, 1000)))
def test_wire_query_round_trips(query, limit):
    query = dataclasses.replace(query, limit=limit)
    assert decode_wire_query(encode_wire_query(query)) == query
    assert decode_wire_query(
        json.loads(json.dumps(encode_wire_query(query)))) == query


def test_missing_and_malformed_fields_are_typed_errors(server, server_codec):
    """The hand-written cases the generated matrix cannot reach: shapes
    nested inside a field, truthy wrong types, and undeclared fields."""
    good_query = {"patterns": [["?p", "brandIs", "?b"]]}
    cases = [
        {"op": "execute", "id": 4,
         "query": {"patterns": [["a", "b"]]}},               # 2-term pattern
        {"op": "execute", "id": 5,
         "query": {"patterns": [["a", "b", "c"]], "limit": "many"}},
        {"op": "match", "id": 6, "pattern": [1, 2, 3]},      # non-string terms
        {"op": "match", "id": 7, "pattern": ["a", "b"]},     # 2-term pattern
        {"op": None, "id": 10},                              # no op at all
        {"op": ["ping"], "id": 14},                          # unhashable op
        # Undeclared fields are refused, never served with defaults: a
        # typo must not silently change the answer.
        {"op": "match", "id": 15, "pattern": [None, None, None],
         "extra": 1},
        {"op": "execute", "id": 16, "reoder": False, "query": good_query},
        {"op": "execute", "id": 17, "query": {**good_query, "limt": 5}},
        {"op": "ping", "id": 18, "payload": "x"},
        # One integer rule everywhere: a boolean is not a limit.
        {"op": "execute", "id": 19, "query": {**good_query, "limit": True}},
        {"op": "execute_many", "id": 20,
         "queries": [good_query, {**good_query, "select": "?p"}]},
        {"op": "match_ids_many", "id": 21, "patterns": [[0, "brandIs", 1]]},
        {"op": "match_ids_many", "id": 22, "patterns": [[True, None, None]]},
        # 'reorder' is no field of any op (the join order is the
        # executor's): refused as undeclared whatever it carries.
        {"op": "execute", "id": 11, "reorder": "false",
         "query": {"patterns": [["?p", "brandIs", "?b"]]}},
        {"op": "execute_many", "id": 12, "reorder": "no",
         "queries": [{"patterns": [["?p", "brandIs", "?b"]]}]},
        {"op": "open_cursor", "id": 13, "reorder": [0],
         "query": {"patterns": [["?p", "brandIs", "?b"]]}},
    ]
    with _raw_connection(server, server_codec) as sock:
        for message in cases:
            response = _exchange(sock, message, server_codec)
            assert response["ok"] is False, message
            assert response["error"]["type"] == "ProtocolError", message
            assert response["id"] == message["id"]
    _assert_serviceable(server)


def test_mid_request_disconnect_does_not_poison_server(server, server_codec):
    # Hang up after a complete request but before reading the response,
    # and again halfway through a frame: both only kill that connection.
    sock = _raw_connection(server, server_codec)
    _send(sock, {"op": "match", "id": 1, "pattern": [None, None, None]},
          server_codec)
    sock.close()
    sock = _raw_connection(server, server_codec)
    frame = encode_frame({"op": "ping", "id": 1})
    sock.sendall(frame[:len(frame) // 2])
    sock.close()
    time.sleep(0.05)
    _assert_serviceable(server)


def test_oversized_response_suggests_cursor_and_keeps_serving(tmp_path,
                                                              server_codec):
    """A result too big for the frame cap is a typed error, not a dead
    connection, on either plane — and the cursor path streams the same
    rows fine, which also proves an oversized frame never commits the
    interner delta (the later pages still decode).  WAL chunks fit the
    cap by construction."""
    directory = tmp_path / "live"
    TripleStore.create_live(directory, triples_from_tuples(_rows())).close()
    with KGServer.open(directory, port=0, max_frame_bytes=2048) as small:
        small.start()
        with _remote_store(small, server_codec) as remote:
            for batch in range(4):      # each request fits the cap
                remote.add_many(triples_from_tuples(
                    [(f"big:{batch}:{i}", "inBatch", f"batch:{batch}")
                     for i in range(20)]))
            # A control-plane answer over the cap (a refusal echoing a
            # long member path) is the same typed error.
            with pytest.raises(ProtocolError, match="cursor"):
                remote.client.call("snapshot_ship", path="x" * 1800,
                                   offset=0, generation=0)
            # The log these writes grew spans frames, yet every WAL
            # chunk is sized to fit the cap: a follower copies it whole.
            wal = small.service.store.wal
            assert wal.end - HEADER_BYTES > small.max_frame_bytes
            copied = b""
            while True:
                chunk = remote.client.call(
                    "snapshot_ship", path=wal_file_name(0),
                    offset=HEADER_BYTES + len(copied), generation=0)
                data = decode_snapshot_chunk(chunk)
                assert 0 < len(data) <= snapshot_chunk_bytes(2048)
                copied += data
                if chunk["eof"]:
                    break
            assert copied == wal.path.read_bytes()[HEADER_BYTES:]
            if server_codec == "auto":
                query = PatternQuery.from_patterns([("?p", "?r", "?t")])
                local = QueryEngine(small.service.store).execute(query)
                engine = RemoteQueryEngine(remote.client)
                with pytest.raises(ProtocolError, match="cursor"):
                    engine.execute(query)
                # Same connection, paged: streams within the cap.
                assert _drain(engine.cursor(query, page_size=8)) == local
        _assert_serviceable(small)


def test_client_rejects_mismatched_response_id(server, server_codec):
    with _raw_connection(server, server_codec) as sock:
        response = _exchange(sock, {"op": "ping", "id": 41}, server_codec)
        assert response["id"] == 41  # sanity: server echoes the id


# --------------------------------------------------------------------------- #
# concurrency: 16 remote clients, coalesced batches, serial-identical results
# --------------------------------------------------------------------------- #
@_asks_for_rows
def test_sixteen_concurrent_clients_match_serial(sharded_store, server_codec):
    queries = [PatternQuery.from_patterns(
        [("?p", "brandIs", f"brand:{brand}"),
         ("?p", "placeOfOrigin", "?place")], select=["?p", "?place"])
        for brand in range(6)]
    patterns = [(None, "brandIs", f"brand:{brand}") for brand in range(6)]
    cursor_query = PatternQuery.from_patterns([("?p", "rdf:type", "?cat")])

    engine = QueryEngine(sharded_store)
    serial_queries = engine.execute_many(queries)
    serial_matches = sharded_store.match_many(patterns)
    serial_cursor = engine.execute(cursor_query)

    num_clients = 16
    outputs = [None] * num_clients
    errors = []
    with KGServer(sharded_store, port=0).start() as running:
        barrier = threading.Barrier(num_clients)

        def client(slot: int) -> None:
            try:
                with RemoteClient(running.url,
                                  codec=server_codec) as connection:
                    remote_engine = RemoteQueryEngine(connection)
                    remote_store = RemoteStore(connection)
                    barrier.wait(timeout=30)
                    got_queries = remote_engine.execute_many(queries)
                    got_matches = [remote_store.match(*pattern)
                                   for pattern in patterns]
                    got_cursor = _drain(remote_engine.cursor(
                        cursor_query, page_size=13))
                    outputs[slot] = (got_queries, got_matches, got_cursor)
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(slot,))
                   for slot in range(num_clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        if errors:
            raise errors[0]
        for slot in range(num_clients):
            assert outputs[slot] == (serial_queries, serial_matches,
                                     serial_cursor)
        stats = running.service.stats
        assert stats["requests_served"] >= num_clients * 3
        # Batching must actually coalesce concurrent remote requests:
        # strictly fewer dispatch rounds than requests served.
        assert stats["batches_dispatched"] < stats["requests_served"], stats
        assert stats["largest_batch"] > 1, stats


# --------------------------------------------------------------------------- #
# cursor faults: typed errors, never silent partial results
# --------------------------------------------------------------------------- #
@_asks_for_rows
def test_cursor_expires_after_ttl(store, server_codec):
    query = PatternQuery.from_patterns([("?p", "brandIs", "?b")])
    with KGServer(store, port=0, cursor_ttl=0.15).start() as running:
        with _engine(running, server_codec) as engine:
            cursor = engine.cursor(query, page_size=4)
            assert cursor.fetch()  # alive while touched
            time.sleep(0.5)
            with pytest.raises(CursorError, match="expired|unknown"):
                cursor.fetch()


def test_cursor_dies_with_server_restart(tmp_path, store):
    directory = store.save(tmp_path / "kg")
    query = PatternQuery.from_patterns([("?p", "brandIs", "?b")])
    with KGServer.open(directory, port=0) as first:
        first.start()
        with RemoteQueryEngine(first.url) as engine:
            stale_id = engine.cursor(query).cursor_id
    with KGServer.open(directory, port=0) as second:
        second.start()
        with RemoteClient(second.url) as connection:
            with pytest.raises(CursorError, match="unknown"):
                connection.call("fetch", cursor=stale_id, max_rows=10)


@_asks_for_rows
def test_cursor_double_close_raises(server, server_codec):
    query = PatternQuery.from_patterns([("?p", "brandIs", "?b")])
    with _engine(server, server_codec) as engine:
        cursor = engine.cursor(query)
        cursor.close()
        with pytest.raises(CursorError):
            cursor.close()
        # Server-side too: a second close of the same id is typed.
        fresh = engine.cursor(query)
        engine.client.call("close_cursor", cursor=fresh.cursor_id)
        with pytest.raises(CursorError, match="unknown"):
            engine.client.call("close_cursor", cursor=fresh.cursor_id)


@_asks_for_rows
def test_cursor_limit_edge_cases(server, store, server_codec):
    query = PatternQuery.from_patterns([("?p", "brandIs", "?b")])
    local = QueryEngine(store).execute(query)
    with _engine(server, server_codec) as engine:
        # limit=0 is a typed error, not an empty result.
        with pytest.raises(QueryError, match="limit"):
            engine.cursor(query, limit=0).fetch()
        # limit far beyond the result size: the full result, cleanly
        # exhausted, no phantom rows.
        cursor = engine.cursor(query, limit=10 ** 6, page_size=1000)
        rows = cursor.fetch()
        assert rows == local and cursor.exhausted
        assert cursor.fetch() == []
        # non-positive page size is rejected before touching the wire...
        with pytest.raises(CursorError, match="page_size"):
            engine.cursor(query, page_size=0)
        # ...and a hostile max_rows at the protocol level is typed too.
        live = engine.cursor(query)
        with pytest.raises(CursorError, match="positive"):
            engine.client.call("fetch", cursor=live.cursor_id, max_rows=0)
        with pytest.raises(CursorError, match="positive"):
            engine.client.call("fetch", cursor=live.cursor_id, max_rows=-3)


@_asks_for_rows
def test_fetch_after_local_close_raises_without_wire_traffic(server,
                                                             server_codec):
    query = PatternQuery.from_patterns([("?p", "brandIs", "?b")])
    with _engine(server, server_codec) as engine:
        cursor = engine.cursor(query)
        cursor.close()
        with pytest.raises(CursorError, match="closed"):
            cursor.fetch()


def test_stats_op_reports_service_counters(server, server_codec):
    with RemoteClient(server.url, codec=server_codec) as connection:
        assert connection.ping()
        stats = connection.stats()
        assert stats["service"]["requests_served"] >= 0
        assert stats["store"]["triples"] == len(server.service.store)


# --------------------------------------------------------------------------- #
# review regressions: lifecycle races, broken-transport hygiene
# --------------------------------------------------------------------------- #
def test_close_immediately_after_start_is_prompt(store):
    """close() racing start() must stop the serve loop cleanly and fast
    (no 10s join timeout, no socket yanked from under serve_forever)."""
    start = time.monotonic()
    server = KGServer(store, port=0).start()
    server.close()
    assert time.monotonic() - start < 5.0
    # And a never-started server closes cleanly too.
    unstarted = KGServer(store, port=0)
    unstarted.close()


def test_client_marks_connection_broken_after_transport_failure(store):
    """A dead/desynced stream must not be reused: the first failure
    raises ProtocolError and every later call fails fast as closed,
    instead of reading stale responses with mismatched ids.
    ``reconnect_attempts=0`` opts out of the bounded reconnect-for-reads
    default — what is pinned here is that the *stream itself* is never
    reused, which holds either way (reconnection always builds a fresh
    socket)."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)

    def one_silent_accept():
        connection, _address = listener.accept()
        connection.recv(1 << 16)   # swallow the request
        connection.close()         # ...and hang up without responding

    acceptor = threading.Thread(target=one_silent_accept, daemon=True)
    acceptor.start()
    client = RemoteClient(f"127.0.0.1:{listener.getsockname()[1]}",
                          codec="json", reconnect_attempts=0)
    with pytest.raises(ProtocolError, match="closed the connection"):
        client.call("ping")
    with pytest.raises(ProtocolError, match="connection is closed"):
        client.call("ping")
    acceptor.join(timeout=10)
    listener.close()


@_asks_for_rows
def test_remote_cursor_fetch_zero_raises_locally(server, server_codec):
    query = PatternQuery.from_patterns([("?p", "brandIs", "?b")])
    with _engine(server, server_codec) as engine:
        cursor = engine.cursor(query)
        for bad in (0, -1, True, "10"):
            with pytest.raises(CursorError, match="positive"):
                cursor.fetch(bad)
        assert cursor.fetch(3)  # still usable afterwards


@_asks_for_rows
def test_execute_many_rejects_batch_before_submitting(server, store,
                                                      server_codec):
    """A malformed query anywhere in the batch fails the whole request
    up front — no half-submitted futures — and the server stays fine."""
    good = {"patterns": [["?p", "brandIs", "?b"]]}
    with RemoteClient(server.url, codec=server_codec) as connection:
        with pytest.raises(ProtocolError,
                           match="patterns|never said 'hello'"):
            connection.call("execute_many", queries=[good, {"nope": 1}])
        # Same connection still serves the valid batch.
        result = connection.call("execute_many", queries=[good])
        assert result[0].to_bindings() == QueryEngine(store).execute(
            PatternQuery.from_patterns([("?p", "brandIs", "?b")]))
    _assert_serviceable(server)


# --------------------------------------------------------------------------- #
# hello: the grant, hostile hellos, mis-tagged frames, the refusal rule
# --------------------------------------------------------------------------- #
def _hello(sock: socket.socket, codecs, request_id: int = 1) -> dict:
    send_frame(sock, {"op": "hello", "id": request_id, "codecs": codecs})
    response = read_frame(sock)
    assert response is not None
    return response


def _read_tagged(sock: socket.socket) -> dict:
    """Read one response frame from a connection that said ``hello``;
    control payloads (errors, pong, ...) arrive as tagged JSON."""
    body = read_frame_bytes(sock, MAX_FRAME_BYTES)
    assert body is not None and body[0] == TAG_JSON
    return decode_json_body(body[1:])


def test_negotiated_codec_follows_server_policy(server, server_codec):
    """The server has no policy left to follow: the framing is what the
    client asked for, and only ``auto`` and ``json`` can be asked."""
    expected = "binary" if server_codec == "auto" else "json"
    with RemoteClient(server.url, codec=server_codec) as connection:
        assert connection.codec == expected
        assert connection.ping()
    for gone in ("binary", "msgpack", None):
        with pytest.raises(ValueError, match="'auto' or 'json'"):
            RemoteClient(server.url, codec=gone)
    assert "codec_policy" not in server.handle_message(
        {"op": "stats", "id": 1})["result"]["server"]
    for knobless in (_KGServer, ClusterBackend, RemoteStore,
                     RemoteQueryEngine, RemoteCursor, connect):
        assert "codec" not in inspect.signature(knobless).parameters


@pytest.mark.parametrize("answer", [
    {"ok": False, "error": {"type": "ProtocolError",
                            "message": "unknown op 'hello'"}},
    {"ok": False, "error": {"type": "StorageError", "message": "no"}},
    {"ok": True, "result": {"codec": "json", "protocol": 1}},
    {"ok": True, "result": {"codec": "msgpack", "protocol": 1}},
    {"ok": True, "result": "binary"},
], ids=["unknown-op", "other-error", "grants-json", "grants-unknown",
        "malformed-grant"])
def test_auto_client_requires_the_binary_grant(answer):
    """``codec="auto"`` against a peer that answers ``hello`` with an
    error, or grants anything but ``binary``, fails typed at connect —
    never a silent JSON connection."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)

    def answer_one_hello():
        connection, _address = listener.accept()
        with connection:
            request = read_frame(connection)
            send_frame(connection, {"id": request["id"], **answer})
            connection.recv(1 << 16)      # until the client hangs up

    acceptor = threading.Thread(target=answer_one_hello, daemon=True)
    acceptor.start()
    try:
        with pytest.raises(ProtocolError, match="did not grant the binary"):
            RemoteClient(f"127.0.0.1:{listener.getsockname()[1]}",
                         reconnect_attempts=0)
    finally:
        acceptor.join(timeout=10)
        listener.close()
    assert not acceptor.is_alive()


def test_malformed_hello_is_typed_error_connection_survives(server,
                                                            server_codec):
    before = "binary" if server_codec == "auto" else "json"
    cases = ["binary", 7, {"codec": "binary"}, ["binary", 3], [None], None]
    with _raw_connection(server, server_codec) as sock:
        for index, codecs in enumerate(cases):
            message = {"op": "hello", "id": index}
            if codecs is not None:
                message["codecs"] = codecs
            response = _exchange(sock, message, server_codec)
            if codecs is None:
                # Omitted codecs is a *valid* hello asking for nothing:
                # the connection stays what it was.
                assert response["ok"] is True
                assert response["result"]["codec"] == before
                continue
            assert response["ok"] is False, codecs
            assert response["error"]["type"] == "ProtocolError"
            assert "codecs" in response["error"]["message"]
            assert response["id"] == index
        # The frame stream is intact: a well-formed hello still works,
        # and offering binary is always granted.
        ack = _exchange(sock, {"op": "hello", "id": 99,
                               "codecs": ["binary"]}, server_codec)
        assert ack["ok"] is True
        assert ack["result"]["codec"] == "binary"
        assert ack["result"]["protocol"] == 1
        assert _exchange(sock, {"op": "ping", "id": 100},
                         "auto")["result"] == "pong"
    _assert_serviceable(server)


def test_hello_with_unknown_codecs_stays_json(server, server_codec):
    """Offering only codecs the server does not know changes nothing:
    a fresh connection stays JSON, one that said ``hello`` stays
    tagged."""
    before = "binary" if server_codec == "auto" else "json"
    with _raw_connection(server, server_codec) as sock:
        ack = _exchange(sock, {"op": "hello", "id": 1,
                               "codecs": ["gzip", "cbor"]}, server_codec)
        assert ack["ok"] is True and ack["result"]["codec"] == before
        assert _exchange(sock, {"op": "ping", "id": 2},
                         server_codec)["result"] == "pong"
    _assert_serviceable(server)


def test_binary_tagged_frame_to_binary_connection_typed_error(store):
    """Binary frames flow server→client only.  One sent at the server is
    a typed error on a live connection — the frame boundary is intact,
    so the stream keeps working."""
    with KGServer(store, port=0).start() as running:
        with _raw_connection(running, "auto") as sock:
            body = bytes([TAG_BINARY]) + b"\x01\x00\x00\x00" * 3
            sock.sendall(struct.pack(">I", len(body)) + body)
            response = _read_tagged(sock)
            assert response["ok"] is False
            assert response["error"]["type"] == "ProtocolError"
            assert "server-to-client" in response["error"]["message"]
            # Same connection still answers tagged JSON requests.
            sock.sendall(encode_tagged_json({"op": "ping", "id": 5},
                                            MAX_FRAME_BYTES))
            assert _read_tagged(sock)["result"] == "pong"
        _assert_serviceable(running)


def test_binary_tagged_frame_to_json_connection_closes(server, server_codec):
    """Without ``hello`` the connection speaks plain JSON: a
    binary-tagged body is not JSON, so the server reports and hangs up
    — the garbage-bytes contract.  Framing is per connection: a sibling
    in this run's state changes nothing."""
    with _raw_connection(server, server_codec), \
            _raw_connection(server) as sock:
        body = bytes([TAG_BINARY]) + b"garbage"
        sock.sendall(struct.pack(">I", len(body)) + body)
        error = _read_error(sock, "json")
        assert error["type"] == "ProtocolError"
        assert sock.recv(1024) == b""
    _assert_serviceable(server)


def test_unknown_tag_on_binary_connection_closes(store):
    with KGServer(store, port=0).start() as running:
        with _raw_connection(running, "auto") as sock:
            body = b"\xff\x00\x01"
            sock.sendall(struct.pack(">I", len(body)) + body)
            response = _read_tagged(sock)
            assert response["ok"] is False
            assert response["error"]["type"] == "ProtocolError"
            assert sock.recv(1024) == b""
        _assert_serviceable(running)


def test_non_i64_request_id_is_refused_typed_on_binary(store):
    """An id block echoes the request id as an i64.  A rows op under a
    hostile id (string, boolean, beyond 2**63) is refused typed — never
    answered as JSON rows — and the next request is served."""
    with KGServer(store, port=0).start() as running:
        with _raw_connection(running, "auto") as sock:
            for request_id in ("abc", True, 2 ** 63, -(2 ** 63) - 1, 1.5,
                               None):
                response = _exchange(
                    sock, {"op": "match", "id": request_id,
                           "pattern": [None, "headquartersIn", None]},
                    "auto")
                assert response["id"] == request_id
                assert response["ok"] is False
                assert response["error"]["type"] == "ProtocolError"
                assert "match" in response["error"]["message"]
                assert "int64" in response["error"]["message"]
                # A scalar needs no block header: any id will do.
                assert _exchange(sock, {"op": "count", "id": request_id,
                                        "pattern": [None, "headquartersIn",
                                                    None]},
                                 "auto")["result"] == 6
            sock.sendall(encode_tagged_json(
                {"op": "match", "id": -(2 ** 63),
                 "pattern": [None, "headquartersIn", None]},
                MAX_FRAME_BYTES))
            body = read_frame_bytes(sock, MAX_FRAME_BYTES)
            assert body[0] == TAG_BINARY
        _assert_serviceable(running)


@contextlib.contextmanager
def _plain_server():
    rows = triples_from_tuples(_rows())
    with KGServer(TripleStore(rows), port=0).start() as running:
        yield running


@contextlib.contextmanager
def _replica_server():
    rows = triples_from_tuples(_rows())
    with tempfile.TemporaryDirectory() as directory, \
            _plain_server() as leader, KGServer(
                TripleStore.create_live(Path(directory), rows,
                                        wal_fsync=False),
                port=0, follow=leader.url).start() as running:
        yield running


@contextlib.contextmanager
def _coordinator_server():
    shard = TripleStore(triples_from_tuples(_rows()),
                        backend=ShardedBackend(n_shards=1))
    with KGServer(shard, port=0, shard_index=0, n_shards=1).start() as served, \
            contextlib.closing(ClusterBackend(
                [served.url], entity_interner=shard.backend.entity_interner,
                relation_interner=shard.backend.relation_interner)) as backend, \
            KGServer(TripleStore(backend=backend), port=0).start() as running:
        yield running


@pytest.mark.parametrize(
    "serve", [_plain_server, _replica_server, _coordinator_server],
    ids=["plain", "replica", "coordinator"])
def test_rows_ops_are_refused_without_hello_before_anything_runs(
        serve, monkeypatch):
    """The refusal rule, derived from ``protocol.OPS``: on a connection
    that never said ``hello`` every op that answers in rows is refused
    typed, naming itself and ``hello``, before its handler runs — no
    ``submit``, no parked cursor — and every other op answers exactly
    what it answers after ``hello``."""
    assert {name for name, op in OPS.items() if op.rows} == {
        "execute", "execute_many", "match", "match_many", "match_ids_many",
        "open_cursor", "open_match_cursor", "fetch"}
    submitted = []
    for name in ("submit", "submit_lookup", "submit_id_lookup"):
        monkeypatch.setattr(
            QueryService, name,
            lambda self, *args, _name=name, **kwargs: submitted.append(_name))

    def request(name, request_id):
        return {"op": name, "id": request_id,
                **{field: _WELL_FORMED[field] for field in OPS[name].fields}}

    # A fresh stats answer differs only in what the asking itself moved
    # (the stage histograms count every request).
    volatile = {"requests_served", "batches_dispatched", "largest_batch",
                "polls", "epoch", "spans"}

    def steady(result):
        if not isinstance(result, dict):
            return result
        return {key: steady(value) for key, value in result.items()
                if key not in volatile and key != "cluster"}

    with serve() as running, \
            _raw_connection(running, "json") as plain_sock, \
            _raw_connection(running, "auto") as tagged_sock:
        for request_id, (name, op) in enumerate(OPS.items()):
            if name in ("promote", "compact"):      # change the server
                continue
            answer = _exchange(plain_sock, request(name, request_id), "json")
            assert answer["id"] == request_id
            if op.rows:
                assert answer["ok"] is False, name
                assert answer["error"]["type"] == "ProtocolError"
                assert name in answer["error"]["message"]
                assert "hello" in answer["error"]["message"]
                continue
            after_hello = _exchange(tagged_sock, request(name, request_id),
                                    "auto")
            assert steady(answer) == steady(after_hello), name
        assert not submitted
        assert running.service.stats["open_cursors"] == 0
        assert _exchange(plain_sock, {"op": "ping", "id": "alive"},
                         "json")["result"] == "pong"


@pytest.mark.parametrize(
    "serve", [_plain_server, _replica_server, _coordinator_server],
    ids=["plain", "replica", "coordinator"])
def test_a_request_carrying_reorder_is_refused_before_anything_runs(
        serve, monkeypatch):
    """The join order is the executor's decision, so no op declares a
    ``reorder`` field and every op taking a ``query`` / ``queries``
    refuses a well-formed request that carries one by the
    undeclared-field rule: typed, naming the field (without ``hello``
    the rows gate comes first and names the op and ``hello``), before
    ``submit`` / ``open_cursor`` run, on a connection that keeps
    serving."""
    assert not any("reorder" in op.fields for op in OPS.values())
    carriers = [name for name, op in OPS.items()
                if {"query", "queries"} & op.fields.keys()]
    assert carriers == ["execute", "execute_many", "open_cursor"]
    submitted = []
    for name in ("submit", "open_cursor"):
        monkeypatch.setattr(
            QueryService, name,
            lambda self, *args, _name=name, **kwargs: submitted.append(_name))
    with serve() as running:
        for state in ("json", "auto"):
            with _raw_connection(running, state) as sock:
                for request_id, name in enumerate(carriers):
                    fields = {field: _WELL_FORMED[field]
                              for field in OPS[name].fields}
                    response = _exchange(
                        sock, {"op": name, "id": request_id, **fields,
                               "reorder": True}, state)
                    assert response["ok"] is False, name
                    assert response["id"] == request_id
                    assert response["error"]["type"] == "ProtocolError"
                    for word in ((name, "hello") if state == "json"
                                 else ("no field 'reorder'",)):
                        assert word in response["error"]["message"], name
                    assert _exchange(sock, {"op": "ping", "id": "alive"},
                                     state)["result"] == "pong"
        assert not submitted
        assert running.service.stats["open_cursors"] == 0


# --------------------------------------------------------------------------- #
# cursor lifecycle: abandoned cursors must not pin server state until TTL
# --------------------------------------------------------------------------- #
@_asks_for_rows
def test_abandoned_cursor_drains_server_table(store, server_codec):
    """Dropping the last reference releases the server-side cursor
    promptly (best-effort close on __del__), not at the TTL sweep."""
    query = PatternQuery.from_patterns([("?p", "?r", "?t")])
    with KGServer(store, port=0).start() as running:
        with _engine(running, server_codec) as engine:
            cursor = engine.cursor(query, page_size=4)
            assert cursor.fetch()
            assert running.service.stats["open_cursors"] == 1
            del cursor
            gc.collect()
            deadline = time.monotonic() + 10
            while (running.service.stats["open_cursors"]
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert running.service.stats["open_cursors"] == 0
            # The shared connection is still perfectly usable.
            assert engine.execute(PatternQuery.from_patterns(
                [("?p", "brandIs", "brand:1")]))


@_asks_for_rows
def test_cursor_context_manager_closes_server_side(store, server_codec):
    query = PatternQuery.from_patterns([("?p", "brandIs", "?b")])
    with KGServer(store, port=0).start() as running:
        with _engine(running, server_codec) as engine:
            with engine.cursor(query, page_size=4) as cursor:
                assert cursor.fetch()
                assert running.service.stats["open_cursors"] == 1
            assert running.service.stats["open_cursors"] == 0
            with pytest.raises(CursorError, match="closed"):
                cursor.fetch()


def test_cursor_del_after_client_close_is_silent(store):
    """Finalizing an abandoned cursor whose client is already gone must
    neither raise nor hang (the TTL sweep owns it then)."""
    with KGServer(store, port=0).start() as running:
        engine = RemoteQueryEngine(running.url)
        cursor = engine.cursor(
            PatternQuery.from_patterns([("?p", "brandIs", "?b")]))
        engine.close()
        del cursor
        gc.collect()
        _assert_serviceable(running)


# --------------------------------------------------------------------------- #
# id-block surfaces: zero-copy pages and batched lookups stay bit-identical
# --------------------------------------------------------------------------- #
@_asks_for_rows
def test_fetch_block_streams_identical_rows(server, server_codec, store):
    query = PatternQuery.from_patterns([("?p", "brandIs", "?b")])
    local = QueryEngine(store).execute(query)
    with _engine(server, server_codec) as engine:
        cursor = engine.cursor(query, page_size=7)
        rows = []
        while not cursor.exhausted:
            page = cursor.fetch_block()
            assert isinstance(page, DecodedBlock)
            rows.extend(page.to_rows())
        cursor.close()
        assert rows == local


@_asks_for_rows
def test_match_many_blocks_parity(server, server_codec, store):
    patterns = [(None, "brandIs", "brand:1"), ("product:0001", None, None),
                ("ghost", "brandIs", None), (None, None, "country:1")]
    local = store.match_many(patterns)
    with _remote_store(server, server_codec) as remote:
        blocks = remote.match_many_blocks(patterns)
        assert all(isinstance(block, DecodedBlock) for block in blocks)
        assert [block.to_triples() for block in blocks] == local
        # The unknown constant resolved to an empty block without a
        # backend round-trip.
        assert len(blocks[2]) == 0


# --------------------------------------------------------------------------- #
# one result representation, one row encoder: id blocks to the edge
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", ("columnar", "sharded"))
def test_json_binary_and_in_process_rows_are_identical(backend):
    """Rows off the binary frame == in-process ``QueryEngine`` rows,
    same order, on every read op — including the degenerate answers (a
    no-variable query, an un-interned constant) and a mixed-kind
    variable, every one of them a block on the wire."""
    rows = _rows() + [("brandIs", "rdf:type", "relation:meta")]
    store = TripleStore(triples_from_tuples(rows), backend=(
        ShardedBackend(n_shards=2) if backend == "sharded" else backend))
    queries = [
        PatternQuery.from_patterns([("?p", "brandIs", "?b"),
                                    ("?b", "headquartersIn", "?c")],
                                   select=["?p", "?c"]),
        PatternQuery.from_patterns([("?p", "?r", "brand:1")], limit=5),
        PatternQuery.from_patterns([("?p", "brandIs", "ghost")]),
        PatternQuery.from_patterns([("product:0001", "brandIs", "brand:1")]),
        # ?m binds a relation, then an entity: joined in entity space.
        PatternQuery.from_patterns([("?p", "?m", "brand:1"),
                                    ("?m", "rdf:type", "?t")]),
    ]
    patterns = [(None, "headquartersIn", None), ("product:0001", None, None),
                ("ghost", None, None)]
    engine = QueryEngine(store)
    with KGServer(store, port=0).start() as running, \
            RemoteClient(running.url) as client:
        assert client.codec == "binary"
        remote, remote_store = RemoteQueryEngine(client), RemoteStore(client)
        local = engine.execute_many(queries)
        assert local[3] == [{}] and local[4]
        assert remote.execute_many(queries) == local
        for query, expected in zip(queries, local):
            assert remote.execute(query) == expected
            assert _drain(remote.cursor(query, page_size=2)) == expected
        assert remote_store.match_many(patterns) == \
            store.match_many(patterns)
        for pattern in patterns:
            assert remote_store.match(*pattern) == store.match(*pattern)
            assert list(remote_store.iter_match(
                *pattern, page_size=2)) == store.match(*pattern)


def test_parent_written_binary_frames_replay_byte_identical():
    """The one remaining encoder is byte-stable: a request script an
    earlier commit answered on one binary connection over a fixed
    2-shard store — every rows op, paging, empty answers, a typed
    error, a scalar — gets the same response bytes from this tree (the
    two cursor-open answers carry a random id).

    One step asked for ``"reorder": false``, a field no op takes any
    more.  Sent verbatim (on a second connection) it is refused typed;
    replayed without the field it decodes to the recorded rows — in
    order under ``select``, the same multiset otherwise, where only
    the join order the recording commit was told to use differs.

    Steps 10–13 were answered in JSON then — three JSON frames (an
    empty join, an unknown constant, a query without variables) and a
    binary frame carrying the variable-free answer as a JSON item.
    Every answer is a block now: they decode to the rows the commit
    before this one read out of them (recorded beside its list-backed
    answers), and the recorded frame with the JSON item is refused,
    typed.  Every later frame is byte-identical again: what a
    connection has been sent is a set of symbols, not an order."""
    fixture = json.loads((DATA_DIR / "binary-frames-written-by-pr21.json"
                          ).read_text(encoding="utf-8"))
    recorded = json.loads((DATA_DIR / "list-backed-answers-written-by-pr24"
                           ".json").read_text(encoding="utf-8"))
    assert recorded["binary_frames"]["fixture"] == \
        "binary-frames-written-by-pr21.json"
    were_json = {int(index): rows for index, rows
                 in recorded["binary_frames"]["rows"].items()}
    assert sorted(were_json) == [10, 11, 12, 13]
    store = TripleStore(
        triples_from_tuples([tuple(row) for row in fixture["rows"]]),
        backend=ShardedBackend(n_shards=fixture["n_shards"]))
    cursor_ids = {}
    ours, parents = BinaryResponseDecoder(), BinaryResponseDecoder()
    reordered = []
    with KGServer(store, port=0).start() as running, \
            _raw_connection(running, "auto") as sock, \
            _raw_connection(running, "auto") as verbatim:
        for index, step in enumerate(fixture["script"]):
            message = {**step["request"], "id": index + 1}
            if "cursor_from" in step:
                message["cursor"] = cursor_ids[step["cursor_from"]]
            if "reorder" in message:
                refusal = _exchange(verbatim, message, "auto")
                assert refusal["ok"] is False and refusal["id"] == index + 1
                assert refusal["error"]["type"] == "ProtocolError"
                assert "no field 'reorder'" in refusal["error"]["message"]
                assert _exchange(verbatim, {"op": "ping", "id": 0},
                                 "auto")["result"] == "pong"
                del message["reorder"]
                reordered.append(index)
            sock.sendall(encode_tagged_json(message, MAX_FRAME_BYTES))
            body = read_frame_bytes(sock, MAX_FRAME_BYTES)
            if step["response"] is None:
                cursor_ids[index] = decode_json_body(body[1:])["result"]
                continue
            written = bytes.fromhex(step["response"])[4:]
            if body[0] == TAG_BINARY:       # both sides keep their symbols
                got = ours.decode(body)["result"]
            if index in were_json:
                assert body[0] == TAG_BINARY, step["request"]
                mine = [block.to_bindings() for block in got] \
                    if message["op"] == "execute_many" else got.to_bindings()
                assert mine == were_json[index], step["request"]
                if written[0] == TAG_BINARY:
                    with pytest.raises(ProtocolError, match="item kind 0"):
                        parents.decode(written)
                continue
            if written[0] == TAG_BINARY:
                wanted = parents.decode(written)["result"]
            if index not in reordered:
                assert body == written, step["request"]
                continue
            assert len(got) == len(wanted) == len(message["queries"])
            for query, mine, theirs in zip(message["queries"], got, wanted):
                mine, theirs = mine.to_bindings(), theirs.to_bindings()
                if query.get("select"):
                    assert mine == theirs, query
                else:
                    assert multiset(mine) == multiset(theirs), query
    assert reordered == [4]
    selects = [bool(query.get("select")) for query in
               fixture["script"][4]["request"]["queries"]]
    assert selects == [True, False, True]
    assert sum(step["response"] is not None
               and bytes.fromhex(step["response"])[4] == TAG_BINARY
               for step in fixture["script"]) >= 9


# --------------------------------------------------------------------------- #
# live write path over the wire: remote mutations, epochs, snapshot cursors
# --------------------------------------------------------------------------- #
@pytest.fixture
def writable_server():
    """A function-scoped writable in-memory server (the module-scoped
    ``server``/``sharded_server`` fixtures are shared and must never be
    mutated)."""
    writable = TripleStore(triples_from_tuples(_rows()))
    with KGServer(writable, port=0).start() as running:
        yield running


def test_remote_writes_mirror_local_api(writable_server, server_codec):
    rows = triples_from_tuples([("w:0", "wrote", "w:1"),
                                ("w:1", "wrote", "w:2")])
    with _remote_store(writable_server, server_codec) as remote:
        before = len(remote)
        assert remote.add_many(rows) == 2
        assert remote.add_many(rows) == 0  # idempotent re-add
        assert len(remote) == before + 2
        assert remote.count(None, "wrote", None) == 2
        assert writable_server.service.store.match(
            None, "wrote", None, sort=True) == sorted(rows)
        assert remote.remove_many(rows[:1]) == 1
        assert remote.remove_many(rows[:1]) == 0
        assert len(remote) == before + 1
        stats = remote.client.stats()
        assert stats["service"]["mutation_epoch"] == 4
        assert stats["service"]["writable"] is True


def test_remote_write_batch_is_validated_before_enqueue(writable_server,
                                                        server_codec):
    """A malformed row anywhere in the batch rejects the WHOLE batch
    before anything is enqueued or WAL-logged."""
    with _remote_store(writable_server, server_codec) as remote:
        before = len(remote)
        with pytest.raises(ProtocolError, match=r"triples\[1\]"):
            remote.client.call("add_many",
                               triples=[["a", "rel", "b"], ["a", "rel"]])
        with pytest.raises(ProtocolError, match=r"triples\[0\]"):
            remote.client.call("add_many", triples=[["a", "rel", 7]])
        with pytest.raises(ProtocolError, match="array"):
            remote.client.call("remove_many", triples="nope")
        # Nothing from the rejected batches was applied.
        assert len(remote) == before
        assert remote.count("a", "rel", "b") == 0


def test_remote_writes_durable_through_wal(tmp_path, server_codec):
    directory = tmp_path / "live"
    TripleStore.create_live(directory, triples_from_tuples(_rows())).close()
    added = triples_from_tuples([("net:0", "sentVia", "wire"),
                                 ("net:1", "sentVia", "wire")])
    with KGServer.open(directory, port=0) as running:
        running.start()
        with _remote_store(running, server_codec) as remote:
            assert remote.add_many(added) == 2
            assert remote.remove_many(
                triples_from_tuples([("net:0", "sentVia", "wire")])) == 1
    # Durability: a fresh process (= a fresh open) replays the WAL.
    reopened = TripleStore.open(directory)
    try:
        assert reopened.count(None, "sentVia", None) == 1
        assert reopened.match("net:1", None, None)
    finally:
        reopened.close()


def test_remote_compact_over_the_wire(tmp_path, server_codec):
    directory = tmp_path / "live"
    TripleStore.create_live(directory, triples_from_tuples(_rows())).close()
    with KGServer.open(directory, port=0) as running:
        running.start()
        with _remote_store(running, server_codec) as remote:
            remote.add_many(triples_from_tuples([("c:0", "folded", "c:1")]))
            epoch_before = remote.client.stats()["service"]["mutation_epoch"]
            assert remote.compact() == 1
            # compact is not a mutation: the epoch must not move.
            assert remote.client.stats()["service"]["mutation_epoch"] \
                == epoch_before
            remote.add_many(triples_from_tuples([("c:1", "folded", "c:2")]))
    reopened = TripleStore.open(directory)
    try:
        assert reopened.live_generation == 1
        assert reopened.count(None, "folded", None) == 2
    finally:
        reopened.close()


@_asks_for_rows
def test_concurrent_remote_writers_and_readers(writable_server, server_codec):
    """Interleaved remote writers and readers: every read sees whole
    batches only, and observed epochs are monotone."""
    batch_size = 4
    violations: list = []
    epochs: list = []
    stop = threading.Event()

    def writer(worker: int) -> None:
        try:
            with _remote_store(writable_server, server_codec) as remote:
                for index in range(12):
                    remote.add_many(triples_from_tuples(
                        [(f"wr{worker}:{index}:{i}", "inBatch",
                          f"batch:{worker}:{index}") for i in range(batch_size)]))
        except BaseException as exc:  # pragma: no cover
            violations.append(exc)

    def reader() -> None:
        try:
            with _remote_store(writable_server, server_codec) as remote, \
                    RemoteClient(writable_server.url,
                                 codec="json") as control:
                last_epoch = -1
                while not stop.is_set():
                    epoch = control.stats()["service"]["mutation_epoch"]
                    if epoch < last_epoch:
                        violations.append(AssertionError(
                            f"epoch went backwards: {last_epoch}->{epoch}"))
                    last_epoch = epoch
                    counts: dict = {}
                    for triple in remote.match(None, "inBatch", None):
                        counts[triple.tail] = counts.get(triple.tail, 0) + 1
                    for marker, count in counts.items():
                        if count != batch_size:
                            violations.append(AssertionError(
                                f"torn batch {marker}: {count} rows"))
                epochs.append(last_epoch)
        except BaseException as exc:  # pragma: no cover
            violations.append(exc)

    readers = [threading.Thread(target=reader) for _ in range(2)]
    writers = [threading.Thread(target=writer, args=(worker,))
               for worker in range(3)]
    for thread in readers + writers:
        thread.start()
    for thread in writers:
        thread.join()
    stop.set()
    for thread in readers:
        thread.join()
    with _remote_store(writable_server, server_codec) as remote:
        assert remote.count(None, "inBatch", None) == 3 * 12 * batch_size
    if violations:
        raise violations[0]


@_asks_for_rows
def test_open_cursor_pages_its_snapshot_across_writes(writable_server,
                                                      server_codec):
    """A cursor opened before a write keeps paging the rows it matched
    at open time — never a mixed-epoch page."""
    query = PatternQuery.from_patterns([("?p", "brandIs", "?b")])
    binding_key = lambda binding: sorted(binding.items())
    with _engine(writable_server, server_codec) as engine, \
            _remote_store(writable_server, server_codec) as remote:
        local_before = sorted(engine.execute(query), key=binding_key)
        cursor = engine.cursor(query, page_size=5)
        first_page = cursor.fetch()
        # Mutate rows the cursor's query matches, both directions.
        remote.add_many(triples_from_tuples(
            [(f"late:{i}", "brandIs", "brand:late") for i in range(8)]))
        remote.remove_many(triples_from_tuples(
            [("product:0001", "brandIs", "brand:1")]))
        rows = list(first_page) + _drain(cursor)
        assert sorted(rows, key=binding_key) == local_before
        # A fresh execute sees the new epoch: 8 rows in, 1 row out.
        assert len(engine.execute(query)) == len(local_before) + 8 - 1


def test_readonly_snapshot_server_raises_typed_storage_error(
        tmp_path, server_codec):
    """Regression (satellite): write ops against a server that opened a
    plain snapshot surface ``StorageError`` — the typed class, not a
    generic wire error — and the connection survives."""
    directory = tmp_path / "snapshot"
    TripleStore(triples_from_tuples(_rows())).save(directory)
    with KGServer.open(directory, port=0) as running:
        running.start()
        with _remote_store(running, server_codec) as remote:
            assert remote.client.stats()["service"]["writable"] is False
            rows = triples_from_tuples([("x", "y", "z")])
            with pytest.raises(StorageError, match="read-only"):
                remote.add_many(rows)
            with pytest.raises(StorageError, match="read-only"):
                remote.remove_many(rows)
            with pytest.raises(StorageError, match="live store"):
                remote.compact()
            # The connection is not poisoned and reads still work.
            assert remote.count(None, "brandIs", None) == NUM_PRODUCTS
        _assert_serviceable(running)


# --------------------------------------------------------------------------- #
# one hand-off per request: the thread that answers a request sends it
# --------------------------------------------------------------------------- #
def _read_answer(sock: socket.socket, decoder: BinaryResponseDecoder) -> dict:
    """One response on a connection that said ``hello``, binary or not."""
    body = read_frame_bytes(sock, MAX_FRAME_BYTES)
    assert body is not None
    return decoder.decode(body) if body[0] == TAG_BINARY \
        else decode_json_body(body[1:])


def test_pipelined_frames_answer_in_request_order(server):
    """Thirty frames in one ``sendall``, mixing ops answered inline on
    the I/O thread, by the dispatcher and by the control thread: the
    responses come back in request order, each with its own answer."""
    patterns = [["product:0001", None, None], [None, "brandIs", "brand:1"]]
    requests = [
        {"op": "ping"}, {"op": "len"},
        {"op": "count", "pattern": [None, "brandIs", None]},
        {"op": "count_many", "patterns": patterns},
        {"op": "match_many", "patterns": patterns}, {"op": "stats"},
    ] * 5
    local = server.service.store
    expected = {"ping": "pong", "len": len(local),
                "count": local.count(None, "brandIs", None),
                "count_many": [local.count(*pattern) for pattern in patterns]}
    decoder = BinaryResponseDecoder()
    with _raw_connection(server, "auto") as sock:
        sock.sendall(b"".join(
            encode_tagged_json({**request, "id": index}, MAX_FRAME_BYTES)
            for index, request in enumerate(requests)))
        for index, request in enumerate(requests):
            answer = _read_answer(sock, decoder)
            assert answer["id"] == index and answer["ok"] is True, answer
            op, result = request["op"], answer["result"]
            if op == "match_many":
                assert [len(block.to_triples()) for block in result] == \
                    [local.count(*pattern) for pattern in patterns]
            elif op == "stats":
                assert result["store"]["triples"] == len(local)
            else:
                assert result == expected[op], op


def test_response_larger_than_the_send_buffer_arrives_whole(store):
    """A response the socket cannot take in one ``send`` goes out in
    part on the answering thread and the rest from the I/O loop: a
    client that reads late gets it whole, then the next response."""
    rows = [(f"big:{index}", "sizeOf", f"value:{index}")
            for index in range(20_000)]
    decoder = BinaryResponseDecoder()
    with KGServer(TripleStore(triples_from_tuples(rows)),
                  port=0).start() as running, \
            _raw_connection(running, "auto") as sock:
        (conn,) = running._connections
        conn.sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        sock.sendall(encode_tagged_json(
            {"op": "match", "id": 1, "pattern": [None, "sizeOf", None]},
            MAX_FRAME_BYTES) + encode_tagged_json({"op": "ping", "id": 2},
                                                  MAX_FRAME_BYTES))
        time.sleep(0.5)             # let the server fill its buffer
        answer = _read_answer(sock, decoder)
        assert answer["id"] == 1
        assert sorted(answer["result"].to_triples()) == \
            sorted(triples_from_tuples(rows))
        assert _read_answer(sock, decoder) == \
            {"id": 2, "ok": True, "result": "pong"}
        spans = running.handle_message({"op": "stats", "id": 3})[
            "result"]["spans"]
        assert spans["loop_flushes"] >= 1
        assert spans["ops"]["match"]["send"]["count"] == 1


def test_each_op_runs_on_its_one_thread(server, monkeypatch):
    """A served ``match_many`` is touched by the I/O thread and the
    dispatcher only (parse and submit on one, serve, encode and send on
    the other), ``stats`` runs on the control thread, and the server
    has no worker pool."""
    touched = {}

    def recording(owner, name, key):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            touched.setdefault(key, set()).add(
                threading.current_thread().name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    recording(_KGServer, "handle_message", "match_many")
    recording(QueryService, "submit_lookup", "match_many")
    recording(QueryService, "_serve", "match_many")
    recording(BinaryResponseEncoder, "encode", "match_many")
    recording(_KGServer, "_send", "match_many")
    recording(Spans, "snapshot", "stats")           # what stats reads
    with RemoteClient(server.url) as client:
        assert len(client.call("match_many", patterns=[
            ["product:0001", None, None]])) == 1
        touched_by_match = touched.pop("match_many")
        client.stats()
    assert touched_by_match == {"kg-server-io", "kg-query-service"}
    assert touched["stats"] == {"kg-server-control"}
    assert not [thread for thread in threading.enumerate()
                if thread.name.startswith("kg-server-worker")]


def test_encoder_failure_in_the_completion_callback_closes(store,
                                                           monkeypatch):
    """An encoder that raises on the dispatcher, inside the completion
    callback, yields an error frame and a close — never a hung
    connection — and the server keeps serving others."""
    def broken(*_args, **_kwargs):
        raise RuntimeError("encoder exploded")

    with KGServer(store, port=0).start() as running, \
            _raw_connection(running, "auto") as sock:
        monkeypatch.setattr(BinaryResponseEncoder, "encode", broken)
        sock.sendall(encode_tagged_json(
            {"op": "match_many", "id": 1,
             "patterns": [["product:0001", None, None]]}, MAX_FRAME_BYTES))
        error = _read_error(sock, "auto")
        assert "encoder exploded" in error["message"]
        assert sock.recv(1) == b""
        monkeypatch.undo()
        _assert_serviceable(running)


def test_await_answers_in_order_and_lets_go_of_its_futures():
    """The completion of a handed-off request: one reply, results in
    request order whatever order the futures resolve in, and afterwards
    nothing keeps the futures (and their blocks) alive — a future holds
    its completion callback, so a callback that held the futures would
    leave every answer to the cycle collector."""
    futures = [Future(), Future()]
    for future in futures:
        future.picked = 5
    replies = []
    _KGServer._await(_Pending(list(futures)), 7,
                     lambda *reply: replies.append(reply), 3)
    futures[1].set_result("second")
    assert replies == []
    futures[0].set_result("first")
    assert replies == [({"id": 7, "ok": True,
                         "result": ["first", "second"]}, 3, 5)]
    alive = [weakref.ref(future) for future in futures]
    gc.disable()
    try:
        del futures, future
        assert [ref() for ref in alive] == [None, None]
    finally:
        gc.enable()
