"""Replay fidelity: how faithfully a replayed trace matches its source.

The replay engine's contract (:mod:`repro.replay.engine`) is that a
closed-loop replay reproduces the source's operation stream record for
record.  This module measures that contract from the traces themselves:
whole-column operations over each generation's (n, 15) record array —
a collector's staged blocks read in place — build a :class:`TraceStats`
summary (per-kind counts, read/write size samples, sequentiality, open
durations, paging share, FastIO share), and a :class:`MachineFidelity`
diffs the two generations per machine:

* **Exact checks** — per-kind record counts for the core data path
  (:data:`CORE_KINDS`) must match exactly in closed-loop mode; the
  report's :attr:`~FidelityReport.all_core_match` gates CI on it.
* **Distributional checks** — read/write size and open-duration
  distributions are compared with the two-sample KS statistic
  (:func:`repro.analysis.compare.ks_distance`), the same metric the
  serial-vs-parallel differential tests use.
* **Accounting** — the replay's own :class:`~repro.nt.io.initiator.\
ReplayOutcome` (skips with reasons, divergences, pre-created nodes) is
  folded into the report so unreplayable records are surfaced, never
  silently dropped.
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping, Optional, Union

import numpy as np

from repro.analysis.compare import ks_distance
from repro.analysis.warehouse import record_rows
from repro.nt.tracing.collector import TraceCollector
from repro.nt.tracing.records import (
    KIND_NAMES,
    N_EVENT_KINDS,
    RECORD_COLUMNS,
    TraceEventKind,
)

# The core data path whose per-kind counts closed-loop replay must
# reproduce exactly: open, read and write on both dispatch paths, and the
# two-phase close.
CORE_KINDS: tuple[str, ...] = (
    "IRP_CREATE",
    "IRP_READ",
    "IRP_WRITE",
    "FASTIO_READ",
    "FASTIO_WRITE",
    "IRP_CLEANUP",
    "IRP_CLOSE",
)

# Columns of a record row.
_KIND, _FO_ID, _T_START, _T_END, _IRP_FLAGS, _OFFSET, _LENGTH = (
    RECORD_COLUMNS.index(name) for name in
    ("kind", "fo_id", "t_start", "t_end", "irp_flags", "offset", "length"))
_CREATE = int(TraceEventKind.IRP_CREATE)
_CLOSE = int(TraceEventKind.IRP_CLOSE)
_READ_KINDS = (int(TraceEventKind.IRP_READ), int(TraceEventKind.FASTIO_READ))
_WRITE_KINDS = (int(TraceEventKind.IRP_WRITE),
                int(TraceEventKind.FASTIO_WRITE))
# IrpFlags.PAGING_IO | IrpFlags.SYNCHRONOUS_PAGING_IO (TraceRecord.is_paging).
_PAGING_FLAGS = 0x42


class TraceStats:
    """One generation's workload summary; every field is a plain Python
    int, list or Counter, so it prints and serialises as it reads."""

    def __init__(self) -> None:
        self.n_records = 0
        self.kind_counts: Counter = Counter()
        self.read_sizes: list[int] = []
        self.write_sizes: list[int] = []
        self.open_durations: list[int] = []
        self.sequential_transfers = 0
        self.total_transfers = 0
        self.paging_reads = 0
        self.fastio_reads = 0
        self.irp_reads = 0

    @classmethod
    def from_rows(cls, rows: np.ndarray) -> "TraceStats":
        """Summarise an (n, 15) int64 record array in record order.

        Per file object, an IRP_CREATE starts an open and resets the
        sequential cursor to 0; an IRP_CLOSE ends the latest open that
        no CLOSE ended yet; a read or write is sequential when it starts
        where the previous transfer on the file object ended (at 0 after
        a CREATE).  One stable sort by ``fo_id`` puts each file object's
        events side by side in record order, so both rules compare each
        event with its predecessor.  An unknown kind raises
        ``ValueError``.
        """
        stats = cls()
        kinds = rows[:, _KIND]
        stats.n_records = len(rows)
        values, counts = np.unique(kinds, return_counts=True)
        for value, n in zip(values.tolist(), counts.tolist()):
            if not 0 <= value < N_EVENT_KINDS:
                raise ValueError(f"{value} is not a valid TraceEventKind")
            stats.kind_counts[KIND_NAMES[value]] = n
        stats.irp_reads = stats.kind_counts["IRP_READ"]
        stats.fastio_reads = stats.kind_counts["FASTIO_READ"]
        is_read = np.isin(kinds, _READ_KINDS)
        is_write = np.isin(kinds, _WRITE_KINDS)
        is_transfer = is_read | is_write
        stats.read_sizes = rows[is_read, _LENGTH].tolist()
        stats.write_sizes = rows[is_write, _LENGTH].tolist()
        stats.total_transfers = len(stats.read_sizes) + len(stats.write_sizes)
        stats.paging_reads = int(np.count_nonzero(
            rows[is_read, _IRP_FLAGS] & _PAGING_FLAGS))

        is_create = kinds == _CREATE
        is_close = kinds == _CLOSE
        events = np.flatnonzero(is_create | is_close | is_transfer)
        order = events[np.argsort(rows[events, _FO_ID], kind="stable")]
        fo_ids = rows[:, _FO_ID]
        # Opens: a CLOSE whose predecessor among its file object's
        # CREATEs and CLOSEs is a CREATE, reported in CLOSE order.
        opens = order[is_create[order] | is_close[order]]
        before, after = opens[:-1], opens[1:]
        closed = ((fo_ids[before] == fo_ids[after])
                  & is_create[before] & is_close[after])
        ends, starts = after[closed], before[closed]
        by_close = np.argsort(ends)
        stats.open_durations = (rows[ends, _T_END]
                                - rows[starts, _T_START])[by_close].tolist()
        # Runs: a transfer is sequential when it starts at the cursor its
        # predecessor among the file object's CREATEs and transfers left.
        moves = order[~is_close[order]]
        before, after = moves[:-1], moves[1:]
        cursor = np.where(is_create[before], 0,
                          rows[before, _OFFSET] + rows[before, _LENGTH])
        sequential = ((fo_ids[before] == fo_ids[after]) & is_transfer[after]
                      & (cursor == rows[after, _OFFSET]))
        stats.sequential_transfers = int(np.count_nonzero(sequential))
        return stats

    # ------------------------------------------------------------------ #

    @property
    def sequential_fraction(self) -> float:
        if not self.total_transfers:
            return float("nan")
        return self.sequential_transfers / self.total_transfers

    @property
    def paging_read_fraction(self) -> float:
        n_reads = len(self.read_sizes)
        if not n_reads:
            return float("nan")
        return self.paging_reads / n_reads

    @property
    def fastio_read_share(self) -> float:
        n_reads = self.fastio_reads + self.irp_reads
        if not n_reads:
            return float("nan")
        return self.fastio_reads / n_reads

    def to_dict(self) -> dict:
        return {
            "n_records": self.n_records,
            "kind_counts": dict(sorted(self.kind_counts.items())),
            "sequential_fraction": self.sequential_fraction,
            "paging_read_fraction": self.paging_read_fraction,
            "fastio_read_share": self.fastio_read_share,
            "n_reads": len(self.read_sizes),
            "n_writes": len(self.write_sizes),
            "n_opens": len(self.open_durations),
        }


def _nan_to_none(value: float) -> Optional[float]:
    return None if value != value else value


class MachineFidelity:
    """The first- vs second-generation diff for one machine."""

    def __init__(self, name: str, source: TraceStats, replayed: TraceStats,
                 outcome: Optional[Mapping] = None) -> None:
        self.name = name
        self.source = source
        self.replayed = replayed
        # The replay engine's own accounting (ReplayOutcome.to_dict()).
        self.outcome = dict(outcome) if outcome is not None else None

    # ------------------------------------------------------------------ #
    # Exact checks.

    def count_delta(self, kind_name: str) -> int:
        return (self.replayed.kind_counts.get(kind_name, 0)
                - self.source.kind_counts.get(kind_name, 0))

    @property
    def core_mismatches(self) -> dict[str, int]:
        """Core-path kinds whose replayed count differs, with the delta."""
        return {kind: delta for kind in CORE_KINDS
                if (delta := self.count_delta(kind))}

    @property
    def core_match(self) -> bool:
        return not self.core_mismatches

    @property
    def kind_deltas(self) -> dict[str, int]:
        """Every kind whose count differs between generations."""
        kinds = set(self.source.kind_counts) | set(self.replayed.kind_counts)
        return {kind: delta for kind in sorted(kinds)
                if (delta := self.count_delta(kind))}

    # ------------------------------------------------------------------ #
    # Distributional checks.

    @property
    def read_size_ks(self) -> float:
        return ks_distance(self.source.read_sizes, self.replayed.read_sizes)

    @property
    def write_size_ks(self) -> float:
        return ks_distance(self.source.write_sizes,
                           self.replayed.write_sizes)

    @property
    def open_duration_ks(self) -> float:
        return ks_distance(self.source.open_durations,
                           self.replayed.open_durations)

    # ------------------------------------------------------------------ #

    @property
    def unreplayable(self) -> dict[str, dict[str, int]]:
        """kind -> {reason -> count} the replay reported as skipped."""
        if not self.outcome:
            return {}
        return self.outcome.get("skipped", {})

    def to_dict(self) -> dict:
        return {
            "machine": self.name,
            "core_match": self.core_match,
            "core_mismatches": self.core_mismatches,
            "kind_deltas": self.kind_deltas,
            "read_size_ks": _nan_to_none(self.read_size_ks),
            "write_size_ks": _nan_to_none(self.write_size_ks),
            "open_duration_ks": _nan_to_none(self.open_duration_ks),
            "sequential_fraction": {
                "source": _nan_to_none(self.source.sequential_fraction),
                "replayed": _nan_to_none(self.replayed.sequential_fraction),
            },
            "paging_read_fraction": {
                "source": _nan_to_none(self.source.paging_read_fraction),
                "replayed": _nan_to_none(self.replayed.paging_read_fraction),
            },
            "fastio_read_share": {
                "source": _nan_to_none(self.source.fastio_read_share),
                "replayed": _nan_to_none(self.replayed.fastio_read_share),
            },
            "source": self.source.to_dict(),
            "replayed": self.replayed.to_dict(),
            "outcome": self.outcome,
        }


# One generation of a machine's trace: its collector, read in place, or
# the summary an earlier report already built from it.
Generation = Union[TraceCollector, TraceStats]


def _summary(generation: Generation) -> TraceStats:
    if isinstance(generation, TraceStats):
        return generation
    return TraceStats.from_rows(record_rows(generation))


def machine_fidelity(name: str, source: Generation, replayed: Generation,
                     outcome: Optional[Mapping] = None) -> MachineFidelity:
    """Diff two generations of one machine's trace."""
    return MachineFidelity(name, _summary(source), _summary(replayed),
                           outcome)


class FidelityReport:
    """A whole study's replay fidelity, one section per machine."""

    def __init__(self, machines: list[MachineFidelity], mode: str) -> None:
        self.machines = machines
        self.mode = mode

    @property
    def all_core_match(self) -> bool:
        return all(m.core_match for m in self.machines)

    @property
    def total_skipped(self) -> int:
        return sum(sum(reasons.values())
                   for m in self.machines
                   for reasons in m.unreplayable.values())

    def to_dict(self) -> dict:
        return {
            "format": "nt-replay-fidelity-1",
            "mode": self.mode,
            "all_core_match": self.all_core_match,
            "core_kinds": list(CORE_KINDS),
            "n_machines": len(self.machines),
            "total_skipped": self.total_skipped,
            "machines": [m.to_dict() for m in self.machines],
        }

    def format(self) -> str:
        """Render the report as an operator-facing text table."""
        title = f"Replay fidelity ({self.mode}-loop)"
        lines = [title, "=" * len(title)]
        verdict = ("all core per-kind counts match"
                   if self.all_core_match else "CORE-PATH COUNT MISMATCH")
        lines.append(f"  machines: {len(self.machines)}   verdict: {verdict}")
        for m in self.machines:
            lines.append("")
            lines.append(f"  {m.name}")
            lines.append(f"    records: source {m.source.n_records:,} -> "
                         f"replayed {m.replayed.n_records:,}")
            if m.core_mismatches:
                for kind, delta in m.core_mismatches.items():
                    lines.append(f"    CORE MISMATCH {kind}: {delta:+d}")
            else:
                lines.append("    core path: exact match "
                             f"({', '.join(CORE_KINDS)})")
            extras = {kind: delta for kind, delta in m.kind_deltas.items()
                      if kind not in CORE_KINDS}
            for kind, delta in extras.items():
                lines.append(f"    delta {kind}: {delta:+d}")
            for metric, value in (("read-size KS", m.read_size_ks),
                                  ("write-size KS", m.write_size_ks),
                                  ("open-duration KS", m.open_duration_ks)):
                if value == value:
                    lines.append(f"    {metric}: {value:.4f}")
            if m.unreplayable:
                for kind, reasons in sorted(m.unreplayable.items()):
                    for reason, count in sorted(reasons.items()):
                        lines.append(
                            f"    unreplayable {kind}: {count} ({reason})")
            if m.outcome:
                lines.append(
                    f"    precreated nodes: "
                    f"{m.outcome.get('nodes_precreated', 0)}   "
                    f"forced bindings: "
                    f"{m.outcome.get('forced_bindings', 0)}   "
                    f"divergences: status "
                    f"{sum(m.outcome.get('status_divergences', {}).values())}"
                    f" / returned "
                    f"{sum(m.outcome.get('returned_divergences', {}).values())}")
        return "\n".join(lines)


def fidelity_report(pairs, mode: str) -> FidelityReport:
    """Build a report from (name, source, replayed, outcome dict or None)
    tuples, each generation a collector or its :class:`TraceStats`.

    A report's ``machines[i].source`` can stand in for the same source in
    a later report, so a sweep summarises each source once.
    """
    return FidelityReport(
        [machine_fidelity(name, src, rep, outcome)
         for name, src, rep, outcome in pairs], mode)
