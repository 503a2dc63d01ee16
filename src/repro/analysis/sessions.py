"""Instance (open-close session) reconstruction — §4's second fact table.

One instance per file object: the open parameters, every data operation
(after §3.3's paging-duplicate filtering), the control-operation count,
cleanup/close times, and derived access-pattern classifications.

Paging-duplicate rule (paper §3.3): paging I/O on a file object that also
has direct (non-paging) data operations duplicates cache-manager activity
and is excluded from data-op accounting (but counted, for cache analysis);
paging I/O on a file object with *no* direct data operations is the real
access — executable/DLL image loading or mapped-file faulting — and is
kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING

import numpy as np

from repro.common.flags import CreateOptions, FileAttributes
from repro.common.sequential import fuzzy_sequential
from repro.nt.tracing.records import (
    CreateResult,
    SetInformationClass,
    TraceEventKind,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.warehouse import TraceWarehouse

# Event kinds that are application-visible control operations; kernel
# synchronisation callbacks (acquire/release pairs) are excluded.
_CONTROL_KINDS = frozenset(int(k) for k in (
    TraceEventKind.IRP_QUERY_INFORMATION,
    TraceEventKind.IRP_SET_INFORMATION,
    TraceEventKind.IRP_QUERY_EA,
    TraceEventKind.IRP_SET_EA,
    TraceEventKind.IRP_QUERY_VOLUME_INFORMATION,
    TraceEventKind.IRP_SET_VOLUME_INFORMATION,
    TraceEventKind.IRP_QUERY_DIRECTORY,
    TraceEventKind.IRP_NOTIFY_CHANGE_DIRECTORY,
    TraceEventKind.IRP_FSCTL_USER_REQUEST,
    TraceEventKind.IRP_FSCTL_VERIFY_VOLUME,
    TraceEventKind.IRP_LOCK_CONTROL,
    TraceEventKind.IRP_QUERY_SECURITY,
    TraceEventKind.IRP_SET_SECURITY,
    TraceEventKind.FASTIO_QUERY_BASIC_INFO,
    TraceEventKind.FASTIO_QUERY_STANDARD_INFO,
    TraceEventKind.FASTIO_QUERY_NETWORK_OPEN_INFO,
    TraceEventKind.FASTIO_QUERY_OPEN,
    TraceEventKind.FASTIO_LOCK,
    TraceEventKind.FASTIO_UNLOCK_SINGLE,
    TraceEventKind.FASTIO_UNLOCK_ALL,
    TraceEventKind.FASTIO_UNLOCK_ALL_BY_KEY,
))

# build_instance's per-event dispatch values, as plain ints.
_CREATE = int(TraceEventKind.IRP_CREATE)
_CLEANUP = int(TraceEventKind.IRP_CLEANUP)
_CLOSE = int(TraceEventKind.IRP_CLOSE)
_FLUSH_BUFFERS = int(TraceEventKind.IRP_FLUSH_BUFFERS)
_SET_INFORMATION = int(TraceEventKind.IRP_SET_INFORMATION)
_READ_KINDS = frozenset((int(TraceEventKind.IRP_READ),
                         int(TraceEventKind.FASTIO_READ)))
_FASTIO_DATA_KINDS = frozenset((int(TraceEventKind.FASTIO_READ),
                                int(TraceEventKind.FASTIO_WRITE)))
_DATA_KINDS = _READ_KINDS | frozenset((int(TraceEventKind.IRP_WRITE),
                                       int(TraceEventKind.FASTIO_WRITE)))
_SET_DISPOSITION = int(SetInformationClass.DISPOSITION)
_SET_END_OF_FILE = int(SetInformationClass.END_OF_FILE)
_DIRECTORY_FILE = int(CreateOptions.DIRECTORY_FILE)

# The fields of one build_instance event tuple, in order (trace record
# field names).
EVENT_FIELDS = ("kind", "t_start", "t_end", "status", "irp_flags", "offset",
                "length", "returned", "file_size", "disposition", "options",
                "attributes", "info", "pid")


@dataclass
class DataOp:
    """One data operation within an instance."""

    __slots__ = ("t", "is_read", "offset", "returned", "is_fastio",
                 "duration", "is_paging")

    t: int
    is_read: bool
    offset: int
    returned: int
    is_fastio: bool
    duration: int
    is_paging: bool


@dataclass
class Instance:
    """One open-close session of a file object."""

    fo_id: int
    machine_idx: int
    pid: int
    process_name: str
    interactive: bool
    path: str
    extension: str
    volume_label: str
    is_remote: bool
    open_t: int
    open_status: int
    open_duration: int
    create_disposition: int
    create_result: int          # CreateResult value, or -1 on failure
    options: int
    attributes: int
    cleanup_t: int = -1
    close_t: int = -1
    ops: list = field(default_factory=list)        # filtered DataOps
    n_reads: int = 0
    n_writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    n_paging_read_irps: int = 0    # cache-duplicate prefetches (excluded)
    n_paging_write_irps: int = 0
    n_control_ops: int = 0
    n_flushes: int = 0
    n_fastio_reads: int = 0
    n_fastio_writes: int = 0
    explicit_delete_t: int = -1
    truncated_to: int = -1        # SetEndOfFile target (kernel or app)
    file_size_max: int = 0
    file_size_open: int = 0
    is_directory_like: bool = False
    image_access: bool = False    # data ops are kept paging I/O

    # ------------------------------------------------------------------ #
    # Derived properties.

    @property
    def open_failed(self) -> bool:
        return self.open_status >= 0xC0000000

    @property
    def has_data(self) -> bool:
        return self.n_reads + self.n_writes > 0

    @property
    def purpose(self) -> str:
        """'data' or 'control' (§8.3's 74% split)."""
        return "data" if self.has_data else "control"

    @property
    def usage(self) -> str:
        """'read-only', 'write-only', 'read-write', or 'none'."""
        if self.n_reads and self.n_writes:
            return "read-write"
        if self.n_reads:
            return "read-only"
        if self.n_writes:
            return "write-only"
        return "none"

    @property
    def session_end_t(self) -> int:
        """When the application-visible session ended (cleanup time)."""
        if self.cleanup_t >= 0:
            return self.cleanup_t
        if self.close_t >= 0:
            return self.close_t
        if self.ops:
            return self.ops[-1].t
        return self.open_t

    @property
    def session_duration(self) -> int:
        """Open-to-cleanup time in ticks (the paper's file open time)."""
        return max(0, self.session_end_t - self.open_t)

    @property
    def close_gap(self) -> int:
        """Cleanup-to-close gap (the two-stage close of §8.1), or -1."""
        if self.cleanup_t < 0 or self.close_t < 0:
            return -1
        return max(0, self.close_t - self.cleanup_t)

    @property
    def bytes_transferred(self) -> int:
        return self.bytes_read + self.bytes_written

    @property
    def was_created(self) -> bool:
        return self.create_result == int(CreateResult.CREATED)

    @property
    def was_overwrite(self) -> bool:
        return self.create_result in (int(CreateResult.OVERWRITTEN),
                                      int(CreateResult.SUPERSEDED))

    @property
    def temporary(self) -> bool:
        return bool(self.attributes & FileAttributes.TEMPORARY) or \
            bool(self.options & CreateOptions.DELETE_ON_CLOSE)

    # -- access-pattern classification (§6.2) --------------------------- #

    def access_pattern(self) -> str:
        """'whole' / 'sequential' / 'random' over the merged op stream."""
        if not self.ops:
            return "none"
        sequential = True
        prev_end: Optional[int] = None
        for op in self.ops:
            if prev_end is not None and not fuzzy_sequential(prev_end,
                                                             op.offset):
                sequential = False
                break
            prev_end = op.offset + op.returned
        if not sequential:
            return "random"
        starts_at_zero = self.ops[0].offset <= 128
        size = max(self.file_size_max, 1)
        covered = max(self.bytes_read, self.bytes_written)
        if starts_at_zero and covered >= size:
            return "whole"
        return "sequential"

    def sequential_runs(self, reads: bool) -> list[int]:
        """Byte lengths of maximal sequential runs of one op direction."""
        runs: list[int] = []
        current = 0
        prev_end: Optional[int] = None
        for op in self.ops:
            if op.is_read != reads:
                continue
            if prev_end is not None and fuzzy_sequential(prev_end, op.offset):
                current += op.returned
            else:
                if current > 0:
                    runs.append(current)
                current = op.returned
            prev_end = op.offset + op.returned
        if current > 0:
            runs.append(current)
        return runs


def build_instances(wh: "TraceWarehouse") -> list[Instance]:
    """Group trace records by file object into instances."""
    order = np.lexsort((wh.t_start, wh.fo_id))
    instances: list[Instance] = []
    i = 0
    n = wh.n_records
    fo_ids = wh.fo_id
    while i < n:
        j = i
        gid = fo_ids[order[i]]
        while j < n and fo_ids[order[j]] == gid:
            j += 1
        rows = order[i:j]
        i = j
        inst = _build_one(wh, int(gid), rows)
        if inst is not None:
            instances.append(inst)
    instances.sort(key=lambda s: (s.machine_idx, s.open_t))
    return instances


def _build_one(wh: "TraceWarehouse", gid: int,
               rows: np.ndarray) -> Optional[Instance]:
    events = list(zip(*(getattr(wh, name)[rows].tolist()
                        for name in EVENT_FIELDS)))
    fdim = wh.file_for(gid)
    file_info = ((fdim.path, fdim.extension, fdim.volume_label,
                  fdim.is_remote) if fdim is not None else None)

    def process_lookup(pid: int):
        proc = wh.process_for(pid)
        return (proc.name, proc.interactive) if proc is not None else None

    return build_instance(int(wh.machine_idx[rows[0]]), gid, events,
                          file_info, process_lookup)


def build_instance(machine_idx: int, fo_id: int, events,
                   file_info, process_lookup) -> Optional[Instance]:
    """Build one instance from time-ordered plain event tuples.

    This is the single source of truth for instance semantics: the
    columnar path (:func:`build_instances`, over warehouse rows) and the
    streaming fold (:mod:`repro.analysis.streaming`, over store-file
    records) both call it — which is what makes the streaming sketch
    reconcile *exactly* against the materialized warehouse.

    ``events`` are :data:`EVENT_FIELDS` sequences (tuples or lists),
    sorted by ``t_start`` with a *stable* sort (ties keep collector append
    order).  ``file_info`` is ``(path, extension, volume_label,
    is_remote)`` or None; ``process_lookup(pid)`` returns ``(name,
    interactive)`` or None.
    """
    create = None
    for ev in events:
        if ev[0] == _CREATE:
            create = ev
            break
    if create is None:
        # Volume handles and kernel-only file objects have no create.
        return None
    pid = create[13]
    proc = process_lookup(pid)
    inst = Instance(
        fo_id=fo_id,
        machine_idx=machine_idx,
        pid=pid,
        process_name=proc[0] if proc is not None else "system",
        interactive=proc[1] if proc is not None else False,
        path=file_info[0] if file_info is not None else "",
        extension=file_info[1] if file_info is not None else "",
        volume_label=file_info[2] if file_info is not None else "",
        is_remote=file_info[3] if file_info is not None else False,
        open_t=create[1],
        open_status=create[3],
        open_duration=create[2] - create[1],
        create_disposition=create[9],
        create_result=(create[7] if create[3] < 0xC0000000 else -1),
        options=create[10],
        attributes=create[11],
        file_size_open=create[8],
    )
    inst.is_directory_like = bool(inst.options & _DIRECTORY_FILE)

    raw_ops: list[DataOp] = []
    has_direct_data = False
    file_size_max = inst.file_size_max
    for (k, t, t_end, status, irp_flags, offset, length, returned,
         file_size, _disposition, _options, _attributes, info,
         _pid) in events:
        if k == _CREATE:
            continue
        if file_size > file_size_max:
            file_size_max = file_size
        if k in _DATA_KINDS:
            is_paging = bool(irp_flags & 0x42)
            if not is_paging:
                has_direct_data = True
            raw_ops.append(DataOp(t, k in _READ_KINDS, offset, returned,
                                  k in _FASTIO_DATA_KINDS, t_end - t,
                                  is_paging))
        elif k == _CLEANUP:
            inst.cleanup_t = t
        elif k == _CLOSE:
            inst.close_t = t
        elif k == _FLUSH_BUFFERS:
            inst.n_flushes += 1
        elif k == _SET_INFORMATION:
            inst.n_control_ops += 1
            if info == _SET_DISPOSITION \
                    and length == 1 and status < 0xC0000000:
                inst.explicit_delete_t = t
            elif info == _SET_END_OF_FILE:
                inst.truncated_to = length
        elif k in _CONTROL_KINDS:
            inst.n_control_ops += 1
    inst.file_size_max = file_size_max

    # §3.3 filtering: keep paging ops only when they are the real access.
    for op in raw_ops:
        if op.is_paging and has_direct_data:
            if op.is_read:
                inst.n_paging_read_irps += 1
            else:
                inst.n_paging_write_irps += 1
            continue
        if op.is_paging:
            inst.image_access = True
        inst.ops.append(op)
        if op.is_read:
            inst.n_reads += 1
            inst.bytes_read += op.returned
            if op.is_fastio:
                inst.n_fastio_reads += 1
        else:
            inst.n_writes += 1
            inst.bytes_written += op.returned
            if op.is_fastio:
                inst.n_fastio_writes += 1
    return inst
