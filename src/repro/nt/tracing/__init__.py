"""Trace instrumentation: filter driver, buffers, collector, snapshots."""

from repro.nt.tracing.records import (
    TraceEventKind,
    TraceRecord,
    NameRecord,
    kind_for_irp,
    kind_for_fastio,
    irp_for_kind,
    fastio_op_for_kind,
    N_EVENT_KINDS,
)
from repro.nt.tracing.collector import TraceCollector
from repro.nt.tracing.driver import TraceFilterDriver
from repro.nt.tracing.fastbuf import BUFFER_CAPACITY, FastRecordBuffer
from repro.nt.tracing.snapshot import SnapshotRecord, take_snapshot
from repro.nt.tracing.spans import (
    SPAN_BACKGROUND,
    SPAN_DECLINED,
    SPAN_RECORDED,
    SpanCause,
    SpanLayer,
    SpanRecord,
    SpanTracer,
    chrome_trace_events,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.nt.tracing.store import (
    STORE_FORMAT_VERSION,
    SUPPORTED_FORMAT_VERSIONS,
    StoreStream,
    iter_trace_records,
    load_collector,
    load_study,
    read_store_header,
    save_collector,
    save_study,
    study_paths,
)

__all__ = [
    "TraceEventKind",
    "TraceRecord",
    "NameRecord",
    "kind_for_irp",
    "kind_for_fastio",
    "irp_for_kind",
    "fastio_op_for_kind",
    "N_EVENT_KINDS",
    "FastRecordBuffer",
    "BUFFER_CAPACITY",
    "TraceCollector",
    "TraceFilterDriver",
    "SnapshotRecord",
    "take_snapshot",
    "SPAN_BACKGROUND",
    "SPAN_DECLINED",
    "SPAN_RECORDED",
    "SpanCause",
    "SpanLayer",
    "SpanRecord",
    "SpanTracer",
    "chrome_trace_events",
    "validate_chrome_trace",
    "write_chrome_trace",
    "STORE_FORMAT_VERSION",
    "SUPPORTED_FORMAT_VERSIONS",
    "StoreStream",
    "iter_trace_records",
    "load_collector",
    "load_study",
    "read_store_header",
    "save_collector",
    "save_study",
    "study_paths",
]
