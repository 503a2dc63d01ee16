"""The trace warehouse: columnar fact tables plus dimensions (§4).

The paper loaded ~190 million records into a de-normalised star schema
with *two* fact tables — one for raw trace records, one for file-object
instances — because the instance table collapses per-session summaries
that would otherwise be recomputed on every query.  This module is the
same design in numpy: the trace table is a set of parallel arrays; the
instance table is built once by :mod:`repro.analysis.sessions` and cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, TYPE_CHECKING

import numpy as np

from repro.nt.tracing.collector import TraceCollector
from repro.nt.tracing.records import (
    RECORD_COLUMNS,
    TraceEventKind,
    extension_of,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.sessions import Instance
    from repro.workload.study import StudyResult

# Global-id packing: per-machine ids are offset into disjoint ranges.
_MACHINE_STRIDE = 10 ** 9


def pack_id(machine_idx: int, local_id: int) -> int:
    """Machine-unique id -> study-unique id."""
    return machine_idx * _MACHINE_STRIDE + local_id


_N_FIELDS = len(RECORD_COLUMNS)


def block_rows(block) -> np.ndarray:
    """A staged record block viewed in place as an (n, 15) int64 array."""
    return np.frombuffer(block, dtype=np.int64).reshape(-1, _N_FIELDS)


def record_rows(collector: TraceCollector) -> np.ndarray:
    """A collector's trace records as an (n, 15) int64 array.

    The staged blocks are read in place, so loading a warehouse or
    folding a sketch allocates no per-record objects.
    """
    blocks = collector.blocks
    if not blocks:
        return np.zeros((0, _N_FIELDS), dtype=np.int64)
    return np.concatenate([block_rows(block) for block in blocks])


@dataclass(frozen=True)
class FileDimension:
    """Dimension row for one file object (from its name record)."""

    fo_id: int
    path: str
    extension: str
    volume_label: str
    is_remote: bool
    opener_pid: int
    machine_idx: int


@dataclass(frozen=True)
class ProcessDimension:
    """Dimension row for one traced process."""

    pid: int
    name: str
    interactive: bool
    machine_idx: int


class TraceWarehouse:
    """Columnar trace fact table with dimension lookups."""

    COLUMNS = ("machine_idx",) + RECORD_COLUMNS

    def __init__(self, collectors: Sequence[TraceCollector],
                 machine_categories: Optional[dict[str, str]] = None) -> None:
        self.machine_names = [c.machine_name for c in collectors]
        self.machine_categories = machine_categories or {}
        self._collectors = list(collectors)
        tables = [record_rows(c) for c in collectors]
        rows = (np.concatenate(tables) if tables
                else np.zeros((0, _N_FIELDS), dtype=np.int64))
        self.machine_idx = np.repeat(np.arange(len(tables), dtype=np.int64),
                                     [len(t) for t in tables])
        for j, name in enumerate(RECORD_COLUMNS):
            setattr(self, name, rows[:, j].copy())
        self.fo_id = pack_id(self.machine_idx, self.fo_id)
        self.pid = pack_id(self.machine_idx, self.pid)
        self.files: dict[int, FileDimension] = {}
        self.processes: dict[int, ProcessDimension] = {}
        for midx, collector in enumerate(collectors):
            for nr in collector.name_records:
                gid = pack_id(midx, nr.fo_id)
                self.files[gid] = FileDimension(
                    fo_id=gid, path=nr.path,
                    extension=extension_of(nr.path),
                    volume_label=nr.volume_label,
                    is_remote=nr.volume_is_remote,
                    opener_pid=pack_id(midx, nr.pid),
                    machine_idx=midx)
            for pid, pname in collector.process_names.items():
                gid = pack_id(midx, pid)
                self.processes[gid] = ProcessDimension(
                    pid=gid, name=pname,
                    interactive=collector.process_interactive.get(pid, False),
                    machine_idx=midx)
        self.n_records = len(rows)
        self._instances: Optional[list["Instance"]] = None

    # ------------------------------------------------------------------ #
    # Constructors.

    @classmethod
    def from_study(cls, result: "StudyResult") -> "TraceWarehouse":
        """Build from a :class:`~repro.workload.study.StudyResult`."""
        categories = result.machine_categories
        return cls(result.collectors, machine_categories=categories)

    # ------------------------------------------------------------------ #
    # Derived masks and views.

    @property
    def kinds(self) -> np.ndarray:
        return self.kind

    def mask_kind(self, *kinds: TraceEventKind) -> np.ndarray:
        """Boolean mask selecting records of the given kinds."""
        mask = np.zeros(self.n_records, dtype=bool)
        for k in kinds:
            mask |= self.kind == int(k)
        return mask

    @property
    def mask_paging(self) -> np.ndarray:
        """Records originated by the VM manager (§3.3)."""
        return (self.irp_flags & 0x42) != 0

    @property
    def mask_fastio(self) -> np.ndarray:
        return self.kind >= int(TraceEventKind.FASTIO_CHECK_IF_POSSIBLE)

    @property
    def mask_reads(self) -> np.ndarray:
        """All read operations, both paths."""
        return self.mask_kind(TraceEventKind.IRP_READ, TraceEventKind.FASTIO_READ)

    @property
    def mask_writes(self) -> np.ndarray:
        """All write operations, both paths."""
        return self.mask_kind(TraceEventKind.IRP_WRITE, TraceEventKind.FASTIO_WRITE)

    @property
    def mask_success(self) -> np.ndarray:
        return self.status < 0xC0000000

    def durations_micros(self, mask: np.ndarray) -> np.ndarray:
        """Completion latencies in microseconds for masked records."""
        return (self.t_end[mask] - self.t_start[mask]) / 10.0

    # ------------------------------------------------------------------ #
    # Instance fact table (built on demand, cached).

    @property
    def instances(self) -> list["Instance"]:
        """The per-open-close instance table (§4's second fact table)."""
        if self._instances is None:
            from repro.analysis.sessions import build_instances
            self._instances = build_instances(self)
        return self._instances

    # ------------------------------------------------------------------ #
    # Dimension helpers.

    def file_for(self, fo_gid: int) -> Optional[FileDimension]:
        return self.files.get(int(fo_gid))

    def process_for(self, pid_gid: int) -> Optional[ProcessDimension]:
        return self.processes.get(int(pid_gid))

    def process_name(self, pid_gid: int) -> str:
        proc = self.processes.get(int(pid_gid))
        return proc.name if proc is not None else "system"

    @property
    def collectors(self) -> list[TraceCollector]:
        return self._collectors

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<TraceWarehouse {self.n_records} records, "
                f"{len(self.files)} files, {len(self.machine_names)} machines>")
