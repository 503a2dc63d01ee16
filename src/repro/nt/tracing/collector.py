"""The trace collection server.

The paper ran three dedicated collection servers storing incoming event
streams in compressed form; here a collector is an in-process sink that
accumulates trace records (as the trace filter's staged columnar blocks),
name records, per-process names and file-system snapshots for one
machine, ready for the store encoder and the analysis warehouse.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.nt.tracing.fastbuf import RECORD_FIELDS, records_from_block
from repro.nt.tracing.records import NameRecord, TraceRecord
from repro.nt.tracing.snapshot import SnapshotRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from array import array

    from repro.nt.tracing.spans import SpanRecord


class TraceCollector:
    """Accumulates one machine's tracing output.

    Trace records arrive as columnar ``array('q')`` blocks
    (:mod:`repro.nt.tracing.fastbuf`) — flushed by the trace filter, or
    decoded whole by the store — and stay staged: the store encoder packs
    them directly, and :attr:`records` materialises them into dataclasses
    only when analysis asks.
    """

    def __init__(self, machine_name: str) -> None:
        self.machine_name = machine_name
        self._records: list[TraceRecord] = []
        self._blocks: list["array"] = []
        self._n_staged = 0
        self.name_records: list[NameRecord] = []
        # Causal span log (repro.nt.tracing.spans); empty unless the
        # machine ran with spans enabled.
        self.span_records: list["SpanRecord"] = []
        # pid -> process image name (the paper attributed requests to the
        # requesting process).
        self.process_names: dict[int, str] = {}
        # pid -> True when the process takes direct user input (for the
        # §7 "92% of accesses come from non-interactive processes" cut).
        self.process_interactive: dict[int, bool] = {}
        # (label, day) -> snapshot record list.
        self.snapshots: list[tuple[str, int, list[SnapshotRecord]]] = []

    @property
    def records(self) -> list[TraceRecord]:
        """All trace records as dataclasses, materialising staged blocks."""
        if self._blocks:
            self._materialise()
        return self._records

    def _materialise(self) -> None:
        for block in self._blocks:
            self._records.extend(records_from_block(block))
        self._blocks.clear()
        self._n_staged = 0

    def record_chunks(self) -> tuple[list[TraceRecord], list["array"]]:
        """(materialised records, staged blocks), in record order.

        The store encoder packs staged blocks directly, and the warehouse
        and the sketch fold read them in place — none forces
        materialisation — so archiving, loading or folding a run
        allocates no per-record dataclasses.
        """
        return self._records, self._blocks

    def receive_block(self, block: "array") -> None:
        """Accept one columnar block of records."""
        self._n_staged += len(block) // RECORD_FIELDS
        self._blocks.append(block)

    def receive_name(self, record: NameRecord) -> None:
        """Accept a file-object name record."""
        self.name_records.append(record)

    def receive_span(self, record: "SpanRecord") -> None:
        """Accept one finished causal span."""
        self.span_records.append(record)

    def register_process(self, pid: int, name: str, interactive: bool) -> None:
        """Record the identity of a traced process."""
        self.process_names[pid] = name
        self.process_interactive[pid] = interactive

    def receive_snapshot(self, volume_label: str, when: int,
                         records: list[SnapshotRecord]) -> None:
        """Accept one volume snapshot."""
        self.snapshots.append((volume_label, when, records))

    def __len__(self) -> int:
        return len(self._records) + self._n_staged

    def __reduce__(self):
        # A collector crosses a process boundary as its packed .nttrace
        # payload, the bytes the archive round-trip tests guard.
        from repro.nt.tracing.store import pack_collector, unpack_collector
        return unpack_collector, (pack_collector(self),)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<TraceCollector {self.machine_name}: {len(self)} "
                f"records, {len(self.name_records)} names, "
                f"{len(self.snapshots)} snapshots>")
