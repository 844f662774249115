"""Always-on stage histograms of the requests a server answers.

Every request a :class:`~repro.kg.server.KGServer` answers through
:meth:`~repro.kg.server.KGServer.handle_message` is cut into five
stages, each a ``perf_counter_ns`` difference:

* ``parse`` — frame in hand → request handed on (JSON body and field
  decode, the submit itself);
* ``queue_wait`` — handed on → picked up by the dispatcher or the
  control thread; not recorded for an op answered inline, nor for a
  result-cache hit (resolved at submit, on the I/O thread);
* ``serve`` — picked up (or handed on, inline) → answer ready;
* ``encode`` — answer → response frame;
* ``send`` — frame → written to the socket, or queued for the I/O loop
  when the socket would block.

Each ``(op, stage)`` of :data:`~repro.kg.protocol.OPS` keeps a fixed
log₂-bucket histogram plus its total: bucket ``b`` counts durations in
``[2**(b-1), 2**b)`` ns (bucket 0: zero), the last one everything
longer.  :meth:`Spans.snapshot` is the ``"spans"`` key of the ``stats``
op.  It also counts how responses left: written through by the thread
that answered, or flushed by the I/O loop.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.kg.protocol import OPS

STAGES = ("parse", "queue_wait", "serve", "encode", "send")

#: Histogram buckets; the last is open-ended (2**38 ns ≈ 4.6 min and up).
BUCKETS = 40


class Spans:
    """Per-``(op, stage)`` histograms; :meth:`request` is thread-safe."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # op -> stage -> BUCKETS counts, then the total in ns.
        self._table = {op: {stage: [0] * (BUCKETS + 1) for stage in STAGES}
                       for op in OPS}
        self.write_through = 0
        self.loop_flushes = 0

    def request(self, op, started: int, submitted: Optional[int],
                picked: Optional[int], served: int, encoded: int,
                sent: int, through: bool) -> None:
        """Record one answered request from its stage boundaries.

        ``submitted`` is None when the request failed before it was
        handed on, ``picked`` when nothing queued it; ``through`` says
        the answering thread wrote the whole frame itself.  An ``op``
        outside :data:`~repro.kg.protocol.OPS` records only the send
        path.
        """
        handed = served if submitted is None else submitted
        laps = [("parse", handed - started),
                ("serve", served - (handed if picked is None else picked)),
                ("encode", encoded - served), ("send", sent - encoded)]
        if picked is not None:
            laps.append(("queue_wait", picked - handed))
        table = self._table.get(op) if isinstance(op, str) else None
        with self._lock:
            if through:
                self.write_through += 1
            else:
                self.loop_flushes += 1
            if table is None:
                return
            for stage, ns in laps:
                histogram = table[stage]
                histogram[min(max(ns, 0).bit_length(), BUCKETS - 1)] += 1
                histogram[BUCKETS] += ns

    def snapshot(self) -> dict:
        """The recorded ``(op, stage)`` pairs: ``count``, ``total_ns`` and
        ``buckets`` as ``[upper bound ns, count]`` pairs, non-empty only."""
        with self._lock:
            ops = {}
            for op, stages in self._table.items():
                for stage, histogram in stages.items():
                    counts = histogram[:BUCKETS]
                    count = sum(counts)
                    if count:
                        ops.setdefault(op, {})[stage] = {
                            "count": count, "total_ns": histogram[BUCKETS],
                            "buckets": [[1 << bucket, n] for bucket, n
                                        in enumerate(counts) if n]}
            return {"stages": list(STAGES), "ops": ops,
                    "write_through": self.write_through,
                    "loop_flushes": self.loop_flushes}
