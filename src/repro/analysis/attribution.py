"""Induced-I/O attribution from the causal span log.

The paper had to *infer* which trace records were induced — tagging the
VM manager's PagingIO duplicates (§3.3) and estimating the cache
manager's read-ahead and lazy-write shares from event patterns (§9).
With causal spans (:mod:`repro.nt.tracing.spans`) the simulator records
the provenance directly, so this module can state the §9–10 breakdown
exactly rather than estimate it:

* :func:`attribution_table` — the share of operations and bytes each
  cause (user, read-ahead, lazy writer, paging, redirector) contributed.
* :func:`reconcile_attribution` — the accounting check: per event kind,
  the recorded-span counts and byte totals must equal the trace store's
  record counts and byte totals *exactly*.  A non-empty result means the
  span instrumentation lost or duplicated work.
* :func:`critical_path_table` — latency decomposition of the read/write
  data path: how much of a request's completion time was spent in
  synchronous induced work (cache-miss fault-ins, wire time) versus the
  request itself, and how much induced work was overlapped (background,
  forked-clock) and therefore off the critical path.  The FastIO rows
  land in the 1–100 µs band and the IRP rows above it, matching the
  figure 13/14 latency split.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.analysis.warehouse import record_rows
from repro.nt.tracing.records import RECORD_COLUMNS, TraceEventKind
from repro.nt.tracing.spans import (
    SPAN_BACKGROUND,
    SpanCause,
    SpanRecord,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.nt.tracing.collector import TraceCollector

# 100 ns simulator ticks.
_TICKS_PER_MICROSECOND = 10

_KIND = RECORD_COLUMNS.index("kind")
_LENGTH = RECORD_COLUMNS.index("length")

# The data-path kinds the critical-path decomposition reports on.
DATA_PATH_KINDS: tuple[TraceEventKind, ...] = (
    TraceEventKind.IRP_READ,
    TraceEventKind.IRP_WRITE,
    TraceEventKind.FASTIO_READ,
    TraceEventKind.FASTIO_WRITE,
)


# --------------------------------------------------------------------- #
# Cause attribution (§9–10 induced-traffic breakdown).


@dataclass
class CauseRow:
    """One cause's share of the recorded operation stream."""

    cause: SpanCause
    ops: int = 0
    nbytes: int = 0

    def share_of(self, total_ops: int, total_bytes: int) -> tuple[float, float]:
        return (self.ops / total_ops if total_ops else 0.0,
                self.nbytes / total_bytes if total_bytes else 0.0)


@dataclass
class AttributionTable:
    """The exact induced-I/O breakdown over every recorded span."""

    rows: dict[SpanCause, CauseRow] = field(default_factory=dict)
    n_machines: int = 0

    @property
    def total_ops(self) -> int:
        return sum(row.ops for row in self.rows.values())

    @property
    def total_bytes(self) -> int:
        return sum(row.nbytes for row in self.rows.values())

    @property
    def induced_op_share(self) -> float:
        """Fraction of recorded operations some kernel component induced."""
        total = self.total_ops
        if not total:
            return 0.0
        return 1.0 - self.rows[SpanCause.USER].ops / total

    def to_dict(self) -> dict:
        total_ops, total_bytes = self.total_ops, self.total_bytes
        causes = {}
        for cause in SpanCause:
            row = self.rows[cause]
            op_share, byte_share = row.share_of(total_ops, total_bytes)
            causes[cause.name.lower()] = {
                "ops": row.ops, "bytes": row.nbytes,
                "op_share": op_share, "byte_share": byte_share,
            }
        return {
            "format": "nt-span-attribution-1",
            "n_machines": self.n_machines,
            "total_ops": total_ops,
            "total_bytes": total_bytes,
            "induced_op_share": self.induced_op_share,
            "causes": causes,
        }

    def format(self) -> str:
        """Render as an operator-facing text table."""
        title = "Induced-I/O attribution (causal spans)"
        lines = [title, "=" * len(title)]
        total_ops, total_bytes = self.total_ops, self.total_bytes
        lines.append(f"  machines: {self.n_machines}   "
                     f"recorded ops: {total_ops:,}   "
                     f"bytes: {total_bytes:,}")
        lines.append(f"  {'cause':<12} {'ops':>12} {'op share':>9} "
                     f"{'bytes':>16} {'byte share':>11}")
        for cause in SpanCause:
            row = self.rows[cause]
            op_share, byte_share = row.share_of(total_ops, total_bytes)
            lines.append(f"  {cause.name.lower():<12} {row.ops:>12,} "
                         f"{op_share:>8.1%} {row.nbytes:>16,} "
                         f"{byte_share:>10.1%}")
        lines.append(f"  induced share of operations: "
                     f"{self.induced_op_share:.1%}")
        return "\n".join(lines)


def attribution_table(collectors: Sequence["TraceCollector"]
                      ) -> AttributionTable:
    """Attribute every recorded operation to its cause.

    Counts only spans that carry :data:`~repro.nt.tracing.spans.\
SPAN_RECORDED` — each such span corresponds to exactly one trace record
    (stamped by ``mark_recorded`` with the record's own length), which is
    what lets :func:`reconcile_attribution` hold exactly.
    """
    table = AttributionTable(
        rows={cause: CauseRow(cause) for cause in SpanCause},
        n_machines=len(collectors))
    for collector in collectors:
        for span in collector.span_records:
            if not span.recorded:
                continue
            row = table.rows[SpanCause(span.cause)]
            row.ops += 1
            row.nbytes += span.nbytes
    return table


# --------------------------------------------------------------------- #
# Exact reconciliation against the trace store.


def reconcile_attribution(collector: "TraceCollector") -> dict[str, dict]:
    """Per-kind mismatches between recorded spans and trace records.

    For every event kind, the number of recorded spans with that ``op``
    and their byte total must equal the number of trace records of that
    kind and their byte total.  Returns ``{}`` when the accounting is
    exact; otherwise a ``{kind_name: {"records": (n, bytes),
    "spans": (n, bytes)}}`` mapping naming each discrepancy.  The record
    side is read from the collector's rows in place.
    """
    rows = record_rows(collector)
    kinds = rows[:, _KIND]
    record_counts: dict[int, int] = {}
    record_bytes: dict[int, int] = {}
    for kind in np.unique(kinds).tolist():
        lengths = rows[kinds == kind, _LENGTH]
        record_counts[kind] = len(lengths)
        record_bytes[kind] = int(lengths.sum())
    span_counts: Counter = Counter()
    span_bytes: Counter = Counter()
    for span in collector.span_records:
        if span.recorded:
            span_counts[span.op] += 1
            span_bytes[span.op] += span.nbytes
    problems: dict[str, dict] = {}
    for kind in sorted(set(record_counts) | set(span_counts)):
        recs = (record_counts.get(kind, 0), record_bytes.get(kind, 0))
        spans = (span_counts.get(kind, 0), span_bytes.get(kind, 0))
        if recs != spans:
            problems[TraceEventKind(kind).name] = {
                "records": recs, "spans": spans}
    return problems


# --------------------------------------------------------------------- #
# Critical-path latency decomposition (figures 13–14 cross-check).


@dataclass
class PathRow:
    """Aggregated latency decomposition for one data-path kind."""

    kind: TraceEventKind
    n: int = 0
    total_ticks: int = 0        # root begin-to-end time
    sync_ticks: int = 0         # direct synchronous children (on-path)
    overlapped_ticks: int = 0   # background children (off-path)
    # Storage-device service time anywhere under the root (activity-id
    # attribution).  These are "of which" columns — device time inside a
    # synchronous fault-in is already part of sync_ticks; the split here
    # shows how much of the path latency the device itself accounts for,
    # which is what moves when a whatif sweep swaps personalities.
    device_ticks: int = 0            # under synchronous ancestors
    device_overlapped_ticks: int = 0  # under a background ancestor

    @property
    def self_ticks(self) -> int:
        """Time in the request itself, induced work subtracted."""
        return self.total_ticks - self.sync_ticks

    def _mean_micros(self, ticks: int) -> float:
        if not self.n:
            return 0.0
        return ticks / self.n / _TICKS_PER_MICROSECOND

    @property
    def mean_total_micros(self) -> float:
        return self._mean_micros(self.total_ticks)

    @property
    def mean_sync_micros(self) -> float:
        return self._mean_micros(self.sync_ticks)

    @property
    def mean_self_micros(self) -> float:
        return self._mean_micros(self.self_ticks)

    @property
    def mean_overlapped_micros(self) -> float:
        return self._mean_micros(self.overlapped_ticks)

    @property
    def mean_device_micros(self) -> float:
        return self._mean_micros(self.device_ticks)

    @property
    def mean_device_overlapped_micros(self) -> float:
        return self._mean_micros(self.device_overlapped_ticks)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.name,
            "n": self.n,
            "mean_total_micros": self.mean_total_micros,
            "mean_sync_child_micros": self.mean_sync_micros,
            "mean_self_micros": self.mean_self_micros,
            "mean_overlapped_micros": self.mean_overlapped_micros,
            "mean_device_micros": self.mean_device_micros,
            "mean_device_overlapped_micros":
                self.mean_device_overlapped_micros,
        }


@dataclass
class CriticalPathTable:
    """Latency decomposition of the root read/write requests."""

    rows: dict[TraceEventKind, PathRow] = field(default_factory=dict)
    n_machines: int = 0

    def to_dict(self) -> dict:
        return {
            "format": "nt-span-critical-path-1",
            "n_machines": self.n_machines,
            "kinds": [self.rows[kind].to_dict()
                      for kind in DATA_PATH_KINDS],
        }

    def format(self) -> str:
        title = "Critical-path decomposition (root read/write requests)"
        lines = [title, "=" * len(title)]
        lines.append(f"  {'kind':<14} {'n':>10} {'total µs':>10} "
                     f"{'induced µs':>11} {'self µs':>9} {'overlap µs':>11} "
                     f"{'device µs':>10}")
        for kind in DATA_PATH_KINDS:
            row = self.rows[kind]
            lines.append(f"  {kind.name:<14} {row.n:>10,} "
                         f"{row.mean_total_micros:>10.1f} "
                         f"{row.mean_sync_micros:>11.1f} "
                         f"{row.mean_self_micros:>9.1f} "
                         f"{row.mean_overlapped_micros:>11.1f} "
                         f"{row.mean_device_micros:>10.1f}")
        return "\n".join(lines)


def _decompose_machine(spans: Iterable[SpanRecord],
                       rows: dict[TraceEventKind, PathRow]) -> None:
    spans = list(spans)
    wanted = {int(kind) for kind in DATA_PATH_KINDS}
    by_id = {span.span_id: span for span in spans}
    roots: dict[int, PathRow] = {}
    for span in spans:
        if span.is_root and span.op in wanted and span.recorded:
            roots[span.span_id] = rows[TraceEventKind(span.op)]
    for span in spans:
        if span.is_root:
            row = roots.get(span.span_id)
            if row is not None:
                row.n += 1
                row.total_ticks += span.duration
            continue
        # Direct children of an interesting root: background work ran on
        # a forked clock (overlapped, off the critical path); everything
        # else advanced the root's own clock (on-path induced time).
        row = roots.get(span.parent_id)
        if row is None:
            continue
        if span.flags & SPAN_BACKGROUND:
            row.overlapped_ticks += span.duration
        else:
            row.sync_ticks += span.duration
    # Storage-device spans sit at arbitrary depth (directly under a NIB
    # root, or under MM annotations and paging IRPs); attribute them to
    # their activity root, splitting on whether any ancestor ran on a
    # forked clock.
    for span in spans:
        if span.cause != int(SpanCause.DEVICE):
            continue
        row = roots.get(span.activity_id)
        if row is None:
            continue
        background = False
        cursor = span
        while cursor.parent_id != 0:
            parent = by_id.get(cursor.parent_id)
            if parent is None:
                break
            if parent.flags & SPAN_BACKGROUND:
                background = True
                break
            cursor = parent
        if background:
            row.device_overlapped_ticks += span.duration
        else:
            row.device_ticks += span.duration


def critical_path_table(collectors: Sequence["TraceCollector"]
                        ) -> CriticalPathTable:
    """Decompose root read/write latency into self, induced and
    overlapped time across a study's span logs."""
    table = CriticalPathTable(
        rows={kind: PathRow(kind) for kind in DATA_PATH_KINDS},
        n_machines=len(collectors))
    for collector in collectors:
        _decompose_machine(collector.span_records, table.rows)
    return table
