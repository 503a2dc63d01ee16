"""The trace collection server.

The paper ran three dedicated collection servers storing incoming event
streams in compressed form; here a collector is an in-process sink that
accumulates trace records (as the trace filter's staged columnar blocks),
name records, per-process names, file-system snapshots and the causal
span log (staged int64 rows) for one machine, ready for the store
encoder and the analysis warehouse.  The staged blocks are the only form
in which a collector holds its records: every consumer reads them in
place, and :attr:`TraceCollector.records` builds dataclasses from them
as a fresh copy on each access.
"""

from __future__ import annotations

from array import array
from itertools import chain

import numpy as np

from repro.nt.tracing.fastbuf import RECORD_FIELDS, records_from_block
from repro.nt.tracing.records import NameRecord, TraceRecord
from repro.nt.tracing.snapshot import SnapshotRecord
from repro.nt.tracing.spans import SPAN_FIELDS, SpanRecord


class TraceCollector:
    """Accumulates one machine's tracing output.

    Trace records arrive as columnar ``array('q')`` blocks
    (:mod:`repro.nt.tracing.fastbuf`) — flushed by the trace filter, or
    decoded whole by the store — and stay staged in :attr:`blocks`: the
    store encoder packs them directly, the warehouse, the sketch fold and
    the replay engine read them in place, and :attr:`records` builds
    dataclasses from them on request.  The span log is staged the same way:
    :attr:`span_log` holds :data:`~repro.nt.tracing.spans.SPAN_FIELDS`
    int64 fields per finished span, :meth:`span_rows` reads it as numpy
    rows, and :attr:`span_records` materialises a copy on request.
    """

    def __init__(self, machine_name: str) -> None:
        self.machine_name = machine_name
        self._blocks: list[array] = []
        self._n_records = 0
        self.name_records: list[NameRecord] = []
        # Causal span log (repro.nt.tracing.spans): one row of
        # SPAN_FIELDS int64 fields per finished span, in SpanRecord field
        # order; empty unless the machine ran with spans enabled.  The
        # span tracer appends to this array in place, so it is never
        # rebound.
        self.span_log = array("q")
        # pid -> process image name (the paper attributed requests to the
        # requesting process).
        self.process_names: dict[int, str] = {}
        # pid -> True when the process takes direct user input (for the
        # §7 "92% of accesses come from non-interactive processes" cut).
        self.process_interactive: dict[int, bool] = {}
        # (label, day) -> snapshot record list.
        self.snapshots: list[tuple[str, int, list[SnapshotRecord]]] = []

    @property
    def blocks(self) -> tuple[array, ...]:
        """The staged record blocks, in record order, to read in place;
        only :meth:`receive_block` adds to them."""
        return tuple(self._blocks)

    @property
    def records(self) -> list[TraceRecord]:
        """The trace records as dataclasses: a fresh list built from the
        staged blocks on every access, so editing it leaves the collector
        untouched."""
        return list(chain.from_iterable(map(records_from_block,
                                            self._blocks)))

    def receive_block(self, block: array) -> None:
        """Accept one columnar block of records."""
        self._n_records += len(block) // RECORD_FIELDS
        self._blocks.append(block)

    def receive_name(self, record: NameRecord) -> None:
        """Accept a file-object name record."""
        self.name_records.append(record)

    @property
    def n_spans(self) -> int:
        """Spans in the log."""
        return len(self.span_log) // SPAN_FIELDS

    def span_rows(self) -> np.ndarray:
        """The span log viewed in place as a read-only (n, SPAN_FIELDS)
        int64 array, columns in ``SpanRecord.__slots__`` order.

        While a view is alive the log cannot grow, so read it once the
        machine has finished simulating.
        """
        rows = np.frombuffer(self.span_log, dtype=np.int64)
        rows.flags.writeable = False
        return rows.reshape(-1, SPAN_FIELDS)

    @property
    def span_records(self) -> list[SpanRecord]:
        """The span log as dataclasses: a fresh list on every access, so
        editing it leaves the log untouched."""
        fields = iter(self.span_log)
        return [SpanRecord(*row) for row in zip(*[fields] * SPAN_FIELDS)]

    def register_process(self, pid: int, name: str, interactive: bool) -> None:
        """Record the identity of a traced process."""
        self.process_names[pid] = name
        self.process_interactive[pid] = interactive

    def receive_snapshot(self, volume_label: str, when: int,
                         records: list[SnapshotRecord]) -> None:
        """Accept one volume snapshot."""
        self.snapshots.append((volume_label, when, records))

    def __len__(self) -> int:
        return self._n_records

    def __reduce__(self):
        # A collector crosses a process boundary as its packed .nttrace
        # payload, the bytes the archive round-trip tests guard.
        from repro.nt.tracing.store import pack_collector, unpack_collector
        return unpack_collector, (pack_collector(self),)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<TraceCollector {self.machine_name}: {len(self)} "
                f"records, {len(self.name_records)} names, "
                f"{len(self.snapshots)} snapshots>")
