"""ETW-style causal span tracing.

The paper's driver recorded the VM manager's PagingIO duplicates and the
cache manager's induced traffic, then had to attribute them *after the
fact* during analysis (§3.3, §9–10).  The simulator knows the causal
chain at dispatch time, and this module keeps it: every top-level request
entering the I/O manager — an application IRP or FastIO call — opens a
*root span* carrying a fresh activity ID, and every piece of induced work
(cache-miss fault-ins, read-ahead predictions, lazy-writer flushes,
VM-manager transfers, redirector wire time) opens *child spans* that
inherit the activity ID, the way ETW activity IDs tie kernel events to
the request that caused them.

Propagation is a context slot — a per-machine span stack on
:class:`SpanTracer` plus ``span_id``/``activity_id`` slots on each
:class:`~repro.nt.io.irp.Irp` — never a global, so the parallel study
engine stays deterministic: a machine produces the same span log whether
it simulates inline or in a worker process.

Each finished span lands in the collector's span log as one row of
:data:`SPAN_FIELDS` int64 fields, appended flat to a staged
``array('q')`` in :class:`SpanRecord` field order, the same order as
:data:`SPAN_STRUCT`: like a trace record, no per-span object outlives
the dispatch.  The trace store packs the log verbatim as format v3
(:mod:`repro.nt.tracing.store`), the attribution analysis reads it as
numpy rows, and :func:`chrome_trace_events` exports it as Chrome
trace-event JSON for Perfetto viewing.  :class:`SpanRecord` is the
materialised view of one row, built only when a caller asks for
``TraceCollector.span_records``.

Causes partition the recorded work six ways (the §9–10 breakdown
``repro.analysis.attribution`` reports):

* ``USER`` — the application's own request and its directly recorded
  operations.
* ``READ_AHEAD`` — traffic the read-ahead predictor induced.
* ``LAZY_WRITER`` — write-behind: portion flushes, deferred-close
  flushes, and the SetEndOfFile/close chatter the lazy writer issues.
* ``PAGING`` — other VM-manager traffic: synchronous cache-miss
  fault-ins, image-section loads, mapped-view faults, write-through.
* ``REDIRECTOR`` — demand paging that crosses the wire: a PAGING-caused
  transfer whose file lives on a remote volume.
* ``DEVICE`` — time spent inside the storage device itself (queueing
  plus media service) when a storage personality is mounted below the
  file system (:mod:`repro.nt.storage`).

A child inherits its parent's cause, so (for example) the paging IRPs
under a read-ahead annotation stay READ_AHEAD, not PAGING.  DEVICE is
the exception: like the redirector's wire annotation it marks *where*
the time went rather than *why* the work happened, so the device scope
always stamps its own cause.
"""

from __future__ import annotations

import enum
import json
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Sequence, Union

from repro.nt.tracing.records import TraceEventKind, kind_for_fastio, kind_for_irp

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.nt.io.fastio import FastIoOp
    from repro.nt.io.irp import Irp
    from repro.nt.system import Machine
    from repro.nt.tracing.collector import TraceCollector


class SpanLayer(enum.IntEnum):
    """Which component opened the span."""

    IO = 0            # I/O manager dispatch (IRP or FastIO)
    CACHE = 1         # cache-manager annotation (read-ahead scope)
    LAZY_WRITER = 2   # lazy-writer annotation (flush portions, closes)
    MM = 3            # VM-manager annotation (paging transfers)
    REDIRECTOR = 4    # redirector annotation (wire time)
    STORAGE = 5       # storage-device annotation (queue + service time)


class SpanCause(enum.IntEnum):
    """Why the work happened — the attribution partition."""

    USER = 0
    READ_AHEAD = 1
    LAZY_WRITER = 2
    PAGING = 3
    REDIRECTOR = 4
    DEVICE = 5


# Span flag bits.
SPAN_RECORDED = 0x1    # a trace record was emitted inside this span
SPAN_BACKGROUND = 0x2  # dispatched on a forked clock (overlapped I/O)
SPAN_DECLINED = 0x4    # FastIO call the driver declined (no record)

# Annotation spans (layers other than IO) have no event kind.
NO_OP = -1


@dataclass(frozen=True)
class SpanRecord:
    """One finished span, fixed-layout like a trace record.

    ``op`` is the :class:`TraceEventKind` for I/O-manager spans and
    :data:`NO_OP` for annotation spans; ``activity_id`` is the span id of
    the root the work belongs to (a root's activity is itself);
    ``nbytes`` is the recorded request length (wire payload for
    redirector annotations).
    """

    __slots__ = ("span_id", "parent_id", "activity_id", "layer", "op",
                 "cause", "t_begin", "t_end", "nbytes", "status", "flags")

    span_id: int
    parent_id: int
    activity_id: int
    layer: int
    op: int
    cause: int
    t_begin: int
    t_end: int
    nbytes: int
    status: int
    flags: int

    @property
    def is_root(self) -> bool:
        return self.parent_id == 0

    @property
    def duration(self) -> int:
        return self.t_end - self.t_begin

    @property
    def recorded(self) -> bool:
        return bool(self.flags & SPAN_RECORDED)

    @property
    def background(self) -> bool:
        return bool(self.flags & SPAN_BACKGROUND)


# One staged span row: SpanRecord's fields, in __slots__ order, as int64.
SPAN_FIELDS = len(SpanRecord.__slots__)
SPAN_STRUCT = struct.Struct(f"<{SPAN_FIELDS}q")


class _OpenSpan:
    """A span still on the stack; becomes a span-log row at ``end``."""

    __slots__ = ("span_id", "parent_id", "activity_id", "layer", "op",
                 "cause", "t_begin", "nbytes", "flags")

    def __init__(self, span_id: int, parent_id: int, activity_id: int,
                 layer: int, op: int, cause: int, t_begin: int,
                 flags: int) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.activity_id = activity_id
        self.layer = layer
        self.op = op
        self.cause = cause
        self.t_begin = t_begin
        self.nbytes = 0
        self.flags = flags


class SpanTracer:
    """Per-machine span context: the stack is the causal context slot.

    Hot paths gate every call on the :attr:`enabled` attribute, exactly
    like :class:`~repro.nt.perf.PerfRegistry` — a disabled tracer costs
    one attribute check per dispatch.
    """

    def __init__(self, machine: "Machine",
                 collector: "TraceCollector", enabled: bool = False) -> None:
        self.machine = machine
        self.collector = collector
        self.enabled = enabled
        self._log = collector.span_log
        self._stack: list[_OpenSpan] = []
        self._next_id = 1

    # ------------------------------------------------------------------ #
    # Core open/close.

    def _begin(self, layer: int, op: int, cause: int, extra_flags: int
               ) -> _OpenSpan:
        parent = self._stack[-1] if self._stack else None
        span_id = self._next_id
        self._next_id += 1
        if parent is None:
            parent_id, activity_id = 0, span_id
            if cause < 0:
                cause = SpanCause.USER
        else:
            parent_id, activity_id = parent.span_id, parent.activity_id
            if cause < 0:
                cause = parent.cause
        span = _OpenSpan(span_id, parent_id, activity_id, layer, op, cause,
                         self.machine.clock.now, extra_flags)
        self._stack.append(span)
        return span

    def end(self, span: _OpenSpan, status: int = 0) -> None:
        """Close a span (must be the innermost open one) and append its
        row to the collector's span log."""
        top = self._stack.pop()
        if top is not span:  # pragma: no cover - programming error guard
            raise RuntimeError("span stack imbalance: closing a span that "
                               "is not the innermost open one")
        self._log.extend((
            span.span_id, span.parent_id, span.activity_id, span.layer,
            span.op, span.cause, span.t_begin, self.machine.clock.now,
            span.nbytes, status, span.flags))

    # ------------------------------------------------------------------ #
    # I/O manager hooks.

    def begin_irp(self, irp: "Irp", background: bool) -> _OpenSpan:
        """Open the span for one IRP dispatch; stamps the IRP's slots."""
        cause = -1
        if self._stack:
            inherited = self._stack[-1].cause
            # Demand paging over the wire is the redirector's share.
            if inherited == SpanCause.PAGING and irp.file_object is not None \
                    and irp.file_object.volume.is_remote:
                cause = int(SpanCause.REDIRECTOR)
        span = self._begin(SpanLayer.IO, int(kind_for_irp(irp)), cause,
                           SPAN_BACKGROUND if background else 0)
        irp.span_id = span.span_id
        irp.activity_id = span.activity_id
        return span

    def begin_fastio(self, op: "FastIoOp", irp_like: "Irp") -> _OpenSpan:
        """Open the span for one FastIO attempt."""
        span = self._begin(SpanLayer.IO, int(kind_for_fastio(op)), -1, 0)
        irp_like.span_id = span.span_id
        irp_like.activity_id = span.activity_id
        return span

    def mark_declined(self, span: _OpenSpan) -> None:
        """The driver declined the FastIO call; no record will follow."""
        span.flags |= SPAN_DECLINED

    def mark_recorded(self, length: int) -> None:
        """The trace filter staged a record inside the innermost span.

        ``length`` is the staged row's own length field.  Stamping the
        span from the record (rather than recomputing kind and length) is
        what makes the attribution tables reconcile *exactly* with the
        store's per-kind counts: a recorded span and its record share one
        source of truth.
        """
        span = self._stack[-1]
        span.flags |= SPAN_RECORDED
        span.nbytes = length

    # ------------------------------------------------------------------ #
    # Induced-work annotations (kernel components).

    def begin_read_ahead(self) -> _OpenSpan:
        """Cache-manager read-ahead scope: children become READ_AHEAD."""
        return self._begin(SpanLayer.CACHE, NO_OP,
                           int(SpanCause.READ_AHEAD), 0)

    def begin_lazy_writer(self) -> _OpenSpan:
        """Lazy-writer scope (runs from timers, so these open as roots)."""
        return self._begin(SpanLayer.LAZY_WRITER, NO_OP,
                           int(SpanCause.LAZY_WRITER), 0)

    def begin_paging(self) -> _OpenSpan:
        """VM-manager transfer scope.

        User-initiated work reaching Mm becomes PAGING; induced work
        (read-ahead, lazy-writer) keeps its original cause — the paging
        IRPs under a read-ahead are read-ahead traffic, not "paging".
        """
        inherited = self._stack[-1].cause if self._stack \
            else int(SpanCause.USER)
        cause = (int(SpanCause.PAGING) if inherited == SpanCause.USER
                 else inherited)
        return self._begin(SpanLayer.MM, NO_OP, cause, 0)

    def begin_wire(self, payload_bytes: int) -> _OpenSpan:
        """Redirector wire-time scope; inherits the cause."""
        span = self._begin(SpanLayer.REDIRECTOR, NO_OP, -1, 0)
        span.nbytes = payload_bytes
        return span

    def begin_device(self, payload_bytes: int) -> _OpenSpan:
        """Storage-device service scope (queue wait + media transfer).

        Unlike the other annotations this one stamps its own cause: the
        critical-path decomposition needs device time as a distinct
        share, whoever initiated the transfer.
        """
        span = self._begin(SpanLayer.STORAGE, NO_OP,
                           int(SpanCause.DEVICE), 0)
        span.nbytes = payload_bytes
        return span


# --------------------------------------------------------------------- #
# Chrome trace-event export (Perfetto / chrome://tracing).

_TICKS_PER_MICROSECOND = 10  # 100 ns ticks


def _span_name(span: SpanRecord) -> str:
    if span.op >= 0:
        return TraceEventKind(span.op).name
    return SpanLayer(span.layer).name


def chrome_trace_events(collectors: Sequence["TraceCollector"]
                        ) -> list[dict]:
    """Span logs as Chrome trace-event dicts (``ph="X"`` complete events).

    One trace "process" per machine (pid = machine index, named by a
    metadata event); the thread id is the span's activity id, so
    Perfetto groups every induced operation under the request that
    caused it.  Events are ordered by begin timestamp per machine, which
    the validator (and Perfetto's importer) relies on.
    """
    events: list[dict] = []
    for pid, collector in enumerate(collectors):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "args": {"name": collector.machine_name}})
        for span in sorted(collector.span_records, key=lambda s: s.t_begin):
            events.append({
                "name": _span_name(span),
                "cat": SpanLayer(span.layer).name.lower(),
                "ph": "X",
                "ts": span.t_begin / _TICKS_PER_MICROSECOND,
                "dur": span.duration / _TICKS_PER_MICROSECOND,
                "pid": pid,
                "tid": span.activity_id,
                "args": {
                    "span": span.span_id,
                    "parent": span.parent_id,
                    "activity": span.activity_id,
                    "cause": SpanCause(span.cause).name.lower(),
                    "nbytes": span.nbytes,
                    "status": span.status,
                    "recorded": span.recorded,
                    "background": span.background,
                },
            })
    return events


def write_chrome_trace(collectors: Sequence["TraceCollector"],
                       path: Union[str, Path]) -> int:
    """Write the study's span logs as a Chrome trace JSON file."""
    doc = {"traceEvents": chrome_trace_events(collectors),
           "displayTimeUnit": "ms"}
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    data = json.dumps(doc, sort_keys=True) + "\n"
    path.write_text(data)
    return len(data)


def validate_chrome_trace(doc: dict) -> list[str]:
    """Well-formedness problems of an exported trace (empty list = valid).

    Checks the CI spans-smoke contract: a ``traceEvents`` list, complete
    events carrying the required keys with non-negative durations,
    begin timestamps monotonic per machine, and every event's activity
    id resolving to a root span of the same machine.
    """
    problems: list[str] = []
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is missing or not a list"]
    roots: dict[tuple[int, int], bool] = {}
    spans: list[dict] = []
    for i, event in enumerate(events):
        ph = event.get("ph")
        if ph == "M":
            continue
        if ph != "X":
            problems.append(f"event {i}: unexpected phase {ph!r}")
            continue
        missing = [k for k in ("name", "ts", "dur", "pid", "tid", "args")
                   if k not in event]
        if missing:
            problems.append(f"event {i}: missing keys {missing}")
            continue
        if event["dur"] < 0:
            problems.append(f"event {i}: negative duration {event['dur']}")
        args = event["args"]
        if args.get("parent") == 0:
            roots[(event["pid"], args["span"])] = True
        spans.append(event)
    last_ts: dict[int, float] = {}
    for event in spans:
        pid = event["pid"]
        if event["ts"] < last_ts.get(pid, float("-inf")):
            problems.append(
                f"machine {pid}: ts {event['ts']} not monotonic")
        last_ts[pid] = event["ts"]
        if (pid, event["tid"]) not in roots:
            problems.append(
                f"machine {pid}: span {event['args']['span']} activity "
                f"{event['tid']} does not resolve to a root span")
    return problems
