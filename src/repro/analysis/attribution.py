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

All three read the collector's staged span log as int64 rows
(``TraceCollector.span_rows``) and never build a
:class:`~repro.nt.tracing.spans.SpanRecord`.  Sums are exact int64
reductions, returned as Python ints.  Span ids are unique and each
``parent_id`` is 0 or an earlier span's id: the tracer's invariants,
which the store decoder checks on every archive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.analysis.warehouse import record_rows
from repro.nt.tracing.records import RECORD_COLUMNS, TraceEventKind
from repro.nt.tracing.spans import (
    SPAN_BACKGROUND,
    SPAN_RECORDED,
    SpanCause,
    SpanRecord,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.nt.tracing.collector import TraceCollector

# 100 ns simulator ticks.
_TICKS_PER_MICROSECOND = 10

_KIND = RECORD_COLUMNS.index("kind")
_LENGTH = RECORD_COLUMNS.index("length")
# Span-row columns, in SpanRecord field order.
(_SPAN_ID, _PARENT_ID, _ACTIVITY_ID, _OP, _CAUSE, _T_BEGIN, _T_END,
 _NBYTES, _FLAGS) = (SpanRecord.__slots__.index(name) for name in (
    "span_id", "parent_id", "activity_id", "op", "cause", "t_begin",
    "t_end", "nbytes", "flags"))

# The data-path kinds the critical-path decomposition reports on.
DATA_PATH_KINDS: tuple[TraceEventKind, ...] = (
    TraceEventKind.IRP_READ,
    TraceEventKind.IRP_WRITE,
    TraceEventKind.FASTIO_READ,
    TraceEventKind.FASTIO_WRITE,
)
_DATA_PATH_OPS = np.array(DATA_PATH_KINDS, dtype=np.int64)
_DEVICE = int(SpanCause.DEVICE)


def _group_sums(keys: np.ndarray, values: np.ndarray
                ) -> dict[int, tuple[int, int]]:
    """``{key: (count, sum of values)}`` in ascending key order, as
    Python ints.  The sums are int64 reductions, exact while each fits in
    int64 (a run's byte and tick totals are orders of magnitude below)."""
    if not len(keys):
        return {}
    order = np.argsort(keys, kind="stable")
    keys, values = keys[order], values[order]
    uniq, starts, counts = np.unique(keys, return_index=True,
                                     return_counts=True)
    sums = np.add.reduceat(values, starts)
    return {key: (n, total) for key, n, total in
            zip(uniq.tolist(), counts.tolist(), sums.tolist())}


def _recorded(rows: np.ndarray) -> np.ndarray:
    """The span rows that carry :data:`SPAN_RECORDED`."""
    return rows[(rows[:, _FLAGS] & SPAN_RECORDED) != 0]


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
        recorded = _recorded(collector.span_rows())
        sums = _group_sums(recorded[:, _CAUSE], recorded[:, _NBYTES])
        for cause, (ops, nbytes) in sums.items():
            row = table.rows[cause]  # SpanCause is an IntEnum
            row.ops += ops
            row.nbytes += nbytes
    return table


# --------------------------------------------------------------------- #
# Exact reconciliation against the trace store.


def reconcile_attribution(collector: "TraceCollector") -> dict[str, dict]:
    """Per-kind mismatches between recorded spans and trace records.

    For every event kind, the number of recorded spans with that ``op``
    and their byte total must equal the number of trace records of that
    kind and their byte total.  Returns ``{}`` when the accounting is
    exact; otherwise a ``{kind_name: {"records": (n, bytes),
    "spans": (n, bytes)}}`` mapping naming each discrepancy.  Both sides
    are read from the collector's rows in place.
    """
    records = record_rows(collector)
    record_sides = _group_sums(records[:, _KIND], records[:, _LENGTH])
    recorded = _recorded(collector.span_rows())
    span_sides = _group_sums(recorded[:, _OP], recorded[:, _NBYTES])
    problems: dict[str, dict] = {}
    for kind in sorted(record_sides.keys() | span_sides.keys()):
        recs = record_sides.get(kind, (0, 0))
        spans = span_sides.get(kind, (0, 0))
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


def _find(sorted_ids: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """The index of each key in ``sorted_ids``; -1 where it is absent."""
    pos = np.searchsorted(sorted_ids, keys)
    found = pos < len(sorted_ids)
    found[found] = sorted_ids[pos[found]] == keys[found]
    return np.where(found, pos, -1)


def _under_background(parent_pos: np.ndarray, background: np.ndarray,
                      spans: np.ndarray) -> np.ndarray:
    """Whether any ancestor of each of ``spans`` (row indices) ran on a
    forked clock.

    Walks every chain up ``parent_pos`` (each row's parent row, -1 for a
    root or a missing parent) in lockstep.  The walk is bounded: a chain
    longer than the log is a parent cycle, which raises ``ValueError``.
    """
    under = np.zeros(len(spans), dtype=bool)
    walking = np.arange(len(spans))
    cursor = parent_pos[spans]
    for _ in range(len(parent_pos) + 1):
        live = cursor >= 0
        walking, cursor = walking[live], cursor[live]
        if not len(walking):
            return under
        hit = background[cursor]
        under[walking[hit]] = True
        walking, cursor = walking[~hit], parent_pos[cursor[~hit]]
    raise ValueError("span log has a parent cycle")


def _decompose_machine(rows: np.ndarray,
                       table_rows: dict[TraceEventKind, PathRow]) -> None:
    """Add one machine's span rows to the per-kind decomposition."""
    ids, parents = rows[:, _SPAN_ID], rows[:, _PARENT_ID]
    flags = rows[:, _FLAGS]
    durations = rows[:, _T_END] - rows[:, _T_BEGIN]
    background = (flags & SPAN_BACKGROUND) != 0
    # The recorded data-path roots, sorted by id for lookups.
    wanted = ((parents == 0) & ((flags & SPAN_RECORDED) != 0)
              & np.isin(rows[:, _OP], _DATA_PATH_OPS))
    order = np.argsort(ids[wanted], kind="stable")
    root_ids = ids[wanted][order]
    root_ops = rows[wanted, _OP][order]

    # table_rows is keyed by TraceEventKind, an IntEnum: plain int ops
    # hash and compare equal to its members.
    def add(ops: np.ndarray, ticks: np.ndarray, attr: str) -> None:
        for op, (_n, total) in _group_sums(ops, ticks).items():
            row = table_rows[op]
            setattr(row, attr, getattr(row, attr) + total)

    for op, (n, total) in _group_sums(rows[wanted, _OP],
                                      durations[wanted]).items():
        row = table_rows[op]
        row.n += n
        row.total_ticks += total
    # Direct children of an interesting root: background work ran on a
    # forked clock (overlapped, off the critical path); everything else
    # advanced the root's own clock (on-path induced time).
    children = np.flatnonzero(parents != 0)
    root = _find(root_ids, parents[children])
    children, root = children[root >= 0], root[root >= 0]
    bg = background[children]
    add(root_ops[root[bg]], durations[children[bg]], "overlapped_ticks")
    add(root_ops[root[~bg]], durations[children[~bg]], "sync_ticks")
    # Storage-device spans sit at arbitrary depth (directly under a NIB
    # root, or under MM annotations and paging IRPs); attribute them to
    # their activity root, splitting on whether any ancestor ran on a
    # forked clock.
    device = np.flatnonzero(rows[:, _CAUSE] == _DEVICE)
    root = _find(root_ids, rows[device, _ACTIVITY_ID])
    device, root = device[root >= 0], root[root >= 0]
    if not len(device):
        return
    by_id = np.argsort(ids, kind="stable")
    parent_pos = _find(ids[by_id], parents)
    parent_pos = np.where((parents != 0) & (parent_pos >= 0),
                          by_id[parent_pos], -1)
    bg = _under_background(parent_pos, background, device)
    add(root_ops[root[bg]], durations[device[bg]],
        "device_overlapped_ticks")
    add(root_ops[root[~bg]], durations[device[~bg]], "device_ticks")


def critical_path_table(collectors: Sequence["TraceCollector"]
                        ) -> CriticalPathTable:
    """Decompose root read/write latency into self, induced and
    overlapped time across a study's span logs."""
    table = CriticalPathTable(
        rows={kind: PathRow(kind) for kind in DATA_PATH_KINDS},
        n_machines=len(collectors))
    for collector in collectors:
        _decompose_machine(collector.span_rows(), table.rows)
    return table
