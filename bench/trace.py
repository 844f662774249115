"""Outside-in span tracing for the per-layer numbers.

Nothing under ``src/`` knows it is traced: :func:`installed` wraps the
layers' public callables from here, for the duration of one traced
replay against the in-process topology, and restores them after.  One
request is in flight at a time, so every span recorded between a
request's start and end belongs to it.

Self time is attributed by a sweep over each request's wall interval:
every instant goes to the *deepest* span active at that instant (a
parent waiting on its child is not working; of two shard calls running
in parallel one is charged, so a layer's self times add up to wall
time, not CPU time).  Depth follows parentage: thread-local nesting
where a span has an enclosing span on its own thread, else the smallest
span of the same request on another thread whose interval contains it.
A thread root off the client's thread that no span contains is work the
topology did on its own (a follower applying an earlier batch) and is
charged to no request.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, \
    Sequence, Tuple

import repro.kg.client as client_module
import repro.kg.query as query_module
import repro.kg.server as server_module
import repro.kg.service as service_module
from repro.kg.client import RemoteClient
from repro.kg.cluster import ClusterBackend, _ShardSession
from repro.kg.protocol import (BinaryResponseDecoder, BinaryResponseEncoder,
                               DecodedBlock)
from repro.kg.server import KGServer
from repro.kg.service import QueryService
from repro.kg.sharded_backend import ShardedBackend
from repro.kg.store import TripleStore
from repro.kg.wal import WriteAheadLog

#: Ops that are the topology talking to itself (replication polls,
#: snapshot shipping, stats probes), not part of any client request.
BACKGROUND_OPS = frozenset(("wal_tail", "snapshot_ship", "replication_status",
                            "stats", "role", "ping", "hello", "promote"))

#: Threads whose work is asynchronous to every request (a follower
#: replaying its leader's WAL); their spans would otherwise be charged
#: to whichever request happens to be in flight.
_BACKGROUND_THREADS = ("kg-server-replication",)

# Span names the analysis aggregates by.
CLIENT_CALL = "client.call"
MATERIALISE = "client.materialise"
ENCODE = "protocol.encode"
DECODE = "protocol.decode"
WIRE_READ = "wire.read_frame"
HANDLE = "server.handle_message"
SERVICE = "service.request"
PLAN = "planner.plan_queries"
EXECUTE = "executor.execute_plans"
SCATTER = "cluster.scatter"
SHARD_CALL = "cluster.shard_call"
FETCH = "store.fetch"
APPLY = "store.apply"
COMPACT = "store.compact"
WAL_APPEND = "wal.append"


class Span(NamedTuple):
    id: int
    name: str
    start: int      # perf_counter_ns
    end: int
    parent: int     # same-thread enclosing span id, 0 for a thread root
    request: int    # index of the op in flight, -1 outside any op
    thread: int
    count: int      # bytes, rows or 0, by span name

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Recorder:
    """Holds the spans of one traced replay, in memory."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.request = -1
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.muted = threading.current_thread().name.startswith(
                _BACKGROUND_THREADS)
        return local

    @contextlib.contextmanager
    def op(self, index: int) -> Iterator[None]:
        """Mark the interval in which op ``index`` is the one in flight."""
        self.request = index
        try:
            yield
        finally:
            self.request = -1

    def wrap(self, func: Callable, name: str, *,
             count: Optional[Callable] = None,
             background: Optional[Callable] = None) -> Callable:
        """``func`` recorded as one span per call.  ``count(result)``
        gives the span's count; ``background(args)`` true means the call
        (and everything under it) is not request work and is skipped."""
        recorder = self

        def traced(*args, **kwargs):
            state = recorder._state()
            if state.muted:
                return func(*args, **kwargs)
            if background is not None and background(args):
                state.muted = True
                try:
                    return func(*args, **kwargs)
                finally:
                    state.muted = False
            stack = state.stack
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else 0
            request = recorder.request
            stack.append(span_id)
            counted = 0
            start = time.perf_counter_ns()
            try:
                result = func(*args, **kwargs)
                if count is not None:
                    counted = count(result)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                recorder.spans.append(Span(
                    span_id, name, start, end, parent, request,
                    threading.get_ident(), counted))

        traced.__wrapped__ = func
        return traced

    def wrap_future(self, func: Callable, name: str) -> Callable:
        """For calls that return a ``Future``: the span runs from the
        call to the moment the future resolves (queue wait included)."""
        recorder = self

        def traced(*args, **kwargs):
            state = recorder._state()
            if state.muted:
                return func(*args, **kwargs)
            span_id = next(recorder._ids)
            parent = state.stack[-1] if state.stack else 0
            request = recorder.request
            thread = threading.get_ident()
            start = time.perf_counter_ns()
            future = func(*args, **kwargs)
            future.add_done_callback(lambda _done: recorder.spans.append(
                Span(span_id, name, start, time.perf_counter_ns(), parent,
                     request, thread, 0)))
            return future

        traced.__wrapped__ = func
        return traced


def _length(result) -> int:
    return len(result) if result is not None else 0


def _block_rows(blocks) -> int:
    return sum(len(block) for block in blocks)


def _client_background(args) -> bool:
    return args[1] in BACKGROUND_OPS          # RemoteClient.call(self, op)


def _server_background(args) -> bool:
    return args[1].get("op") in BACKGROUND_OPS  # handle_message(self, msg)


def _targets(recorder: Recorder) -> List[Tuple[object, str, Callable]]:
    """``(owner, attribute, wrapper factory)`` for every traced callable.
    Module-level functions are patched at the binding the caller uses."""
    wrap, future = recorder.wrap, recorder.wrap_future

    def plain(name: str, **options) -> Callable:
        return lambda func: wrap(func, name, **options)

    targets: List[Tuple[object, str, Callable]] = [
        (RemoteClient, "call",
         plain(CLIENT_CALL, background=_client_background)),
        (KGServer, "handle_message",
         plain(HANDLE, background=_server_background)),
        (BinaryResponseEncoder, "encode", plain(ENCODE, count=_length)),
        (BinaryResponseDecoder, "decode", plain(DECODE)),
        (client_module, "read_frame_bytes",
         plain(WIRE_READ, count=_length)),
        (QueryService, "submit", lambda func: future(func, SERVICE)),
        (QueryService, "submit_lookup", lambda func: future(func, SERVICE)),
        (service_module, "plan_queries", plain(PLAN)),
        (query_module, "plan_queries", plain(PLAN)),
        (service_module, "execute_plans_cursors", plain(EXECUTE)),
        (query_module, "execute_plans_cursors", plain(EXECUTE)),
        (ShardedBackend, "match_ids_many",
         plain(FETCH, count=_block_rows)),
        (ShardedBackend, "match_many", plain(FETCH, count=_block_rows)),
        (ShardedBackend, "count_many", plain(FETCH)),
        (TripleStore, "add_many", plain(APPLY)),
        (TripleStore, "remove_many", plain(APPLY)),
        (TripleStore, "compact", plain(COMPACT)),
        (WriteAheadLog, "append", plain(WAL_APPEND)),
    ]
    for name in ("to_rows", "to_bindings", "to_triples"):
        targets.append((DecodedBlock, name, plain(MATERIALISE)))
    for module in (client_module, server_module):
        for name in ("encode_frame", "encode_tagged_json"):
            targets.append((module, name, plain(ENCODE, count=_length)))
        targets.append((module, "decode_json_body", plain(DECODE)))
    for name in ("lookup_many", "match_ids_many", "count_many", "add_many",
                 "remove_many", "compact", "open_cursor", "open_match_cursor",
                 "fetch_cursor", "close_cursor"):
        targets.append((QueryService, name, plain(SERVICE)))
    for name in ("match_ids_many", "match_many", "count_many", "add_many",
                 "discard_many"):
        targets.append((ClusterBackend, name, plain(SCATTER)))
    for name in ("read_call", "write_call"):
        targets.append((_ShardSession, name, plain(SHARD_CALL)))
    return targets


@contextlib.contextmanager
def installed(recorder: Recorder) -> Iterator[Recorder]:
    """Wrap every traced callable; restore the originals on exit."""
    originals: List[Tuple[object, str, object]] = []
    try:
        for owner, attribute, factory in _targets(recorder):
            original = owner.__dict__[attribute] if isinstance(owner, type) \
                else getattr(owner, attribute)
            originals.append((owner, attribute, original))
            setattr(owner, attribute, factory(original))
        yield recorder
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)


# --------------------------------------------------------------------- #
# analysis
# --------------------------------------------------------------------- #
def _depths(spans: Sequence[Span], client_thread: int) -> Dict[int, int]:
    """Depth of every span of ONE request in its causal tree.  Spans that
    nothing in the request caused — a thread root, off the client's
    thread, that no other span's interval contains — get no depth: they
    are work the topology did on its own while the request was in flight
    (a follower applying an earlier batch), not part of it."""
    by_id = {span.id: span for span in spans}
    parents: Dict[int, Optional[int]] = {}
    for span in spans:
        if span.parent in by_id:
            parents[span.id] = span.parent
        elif span.thread == client_thread:
            parents[span.id] = 0
        else:
            # The caller blocked on it: the smallest span on another
            # thread whose interval contains this one.
            best: Optional[Span] = None
            for other in spans:
                if other.thread != span.thread \
                        and other.start <= span.start \
                        and other.end >= span.end \
                        and (best is None or other.start > best.start):
                    best = other
            parents[span.id] = best.id if best is not None else None
    depths: Dict[int, int] = {0: 0}

    def resolve(span_id: int) -> Optional[int]:
        chain = []
        while span_id is not None and span_id not in depths:
            chain.append(span_id)
            span_id = parents[span_id]
        if span_id is None:
            return None
        for offset, link in enumerate(reversed(chain), 1):
            depths[link] = depths[span_id] + offset
        return depths[chain[0]] if chain else depths[span_id]

    for span in spans:
        resolve(span.id)
    return depths


def self_times(spans: Sequence[Span], client_thread: int) -> Dict[int, int]:
    """Nanoseconds of ONE request's wall time charged to each span: at
    every instant the deepest active span (latest start on a tie)."""
    depths = _depths(spans, client_thread)
    spans = [span for span in spans if span.id in depths]
    edges = sorted({span.start for span in spans}
                   | {span.end for span in spans})
    ordered = sorted(spans, key=lambda span: span.start)
    charged: Dict[int, int] = {span.id: 0 for span in spans}
    active: List[Span] = []
    cursor = 0
    for left, right in zip(edges, edges[1:]):
        while cursor < len(ordered) and ordered[cursor].start <= left:
            active.append(ordered[cursor])
            cursor += 1
        active = [span for span in active if span.end > left]
        if active:
            owner = max(active,
                        key=lambda span: (depths[span.id], span.start))
            charged[owner.id] += right - left
    return charged


class Summary(NamedTuple):
    """Per-op means over one traced replay."""
    self_us: Dict[str, float]      # span name -> mean self µs per op
    wall_us: Dict[str, float]      # span name -> mean wall µs per SPAN
    counts: Dict[str, float]       # span name -> mean count per op
    rounds_per_op: float           # outermost cluster scatters per op
    coverage: float                # charged time / op wall time
    spans_per_op: float


def summarise(spans: Sequence[Span], op_walls_ns: Sequence[int],
              client_thread: int) -> Summary:
    """Aggregate a replay's spans; ``op_walls_ns[i]`` is op *i*'s wall."""
    ops = max(1, len(op_walls_ns))
    by_request: Dict[int, List[Span]] = {}
    for span in spans:
        if 0 <= span.request < len(op_walls_ns):
            by_request.setdefault(span.request, []).append(span)
    self_ns: Dict[str, int] = {}
    wall_ns: Dict[str, int] = {}
    counts: Dict[str, int] = {}
    calls: Dict[str, int] = {}
    rounds = 0
    total_spans = 0
    for request_spans in by_request.values():
        total_spans += len(request_spans)
        charged = self_times(request_spans, client_thread)
        scatter_ids = {span.id for span in request_spans
                       if span.name == SCATTER}
        for span in request_spans:
            name = span.name
            # Frames and bytes are counted where the client sees them;
            # the same names inside the cluster are coordinator<->shard.
            if name in (ENCODE, WIRE_READ) and span.thread != client_thread:
                name = name + ".internal"
            # Counts take every span of the request, so that they repeat
            # exactly; whether a span gets charged time depends on timing.
            counts[name] = counts.get(name, 0) + span.count
            if span.name == SCATTER and span.parent not in scatter_ids:
                rounds += 1
            if span.id in charged:
                self_ns[name] = self_ns.get(name, 0) + charged[span.id]
                wall_ns[name] = wall_ns.get(name, 0) + span.end - span.start
                calls[name] = calls.get(name, 0) + 1
    charged_total = sum(self_ns.values())
    wall_total = sum(op_walls_ns)
    return Summary(
        self_us={name: value / 1e3 / ops for name, value in self_ns.items()},
        wall_us={name: wall_ns[name] / 1e3 / calls[name] for name in wall_ns},
        counts={name: value / ops for name, value in counts.items()},
        rounds_per_op=rounds / ops,
        coverage=charged_total / wall_total if wall_total else 0.0,
        spans_per_op=total_spans / ops)


def write_jsonl(spans: Sequence[Span], path: Path) -> None:
    """One span per line: name, layer, start, end, parent, request."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps({
                "id": span.id, "name": span.name, "layer": span.layer,
                "start_ns": span.start, "end_ns": span.end,
                "parent": span.parent, "request": span.request,
                "thread": span.thread, "count": span.count}) + "\n")
