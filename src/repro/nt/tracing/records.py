"""Trace record formats.

The paper's driver "records 54 IRP and FastIO events, which represent all
major I/O request operations" in fixed-size records carrying at least the
file object, flags, requesting process, byte offset, file size, result
status, and two 100 ns timestamps (§3.2).  This module defines exactly
those 54 event kinds and the record layout, plus the separate name record
that maps a file-object id to a file name.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.nt.io.fastio import FastIoOp
from repro.nt.io.irp import Irp, IrpMajor, IrpMinor

# Decode vocabulary: the enums and helpers an archive consumer needs to
# interpret record fields (CreateResult for IoStatus.Information on
# creates, SetInformationClass for set-information records, extension_of
# for the short-form names of §3.1).  Re-exported here because this
# module is the read-side API surface — analysis code may import from
# the tracing package but never from the live kernel (rule L501).
from repro.nt.fs.driver import CreateResult as CreateResult
from repro.nt.fs.path import extension_of as extension_of
from repro.nt.io.irp import SetInformationClass as SetInformationClass


class TraceEventKind(enum.IntEnum):
    """The 54 event kinds: 27 IRP-path and 27 FastIO-path operations."""

    # IRP path.
    IRP_CREATE = 0
    IRP_CREATE_NAMED_PIPE = 1
    IRP_CLOSE = 2
    IRP_READ = 3
    IRP_WRITE = 4
    IRP_QUERY_INFORMATION = 5
    IRP_SET_INFORMATION = 6
    IRP_QUERY_EA = 7
    IRP_SET_EA = 8
    IRP_FLUSH_BUFFERS = 9
    IRP_QUERY_VOLUME_INFORMATION = 10
    IRP_SET_VOLUME_INFORMATION = 11
    IRP_QUERY_DIRECTORY = 12
    IRP_NOTIFY_CHANGE_DIRECTORY = 13
    IRP_FSCTL_USER_REQUEST = 14
    IRP_FSCTL_MOUNT_VOLUME = 15
    IRP_FSCTL_VERIFY_VOLUME = 16
    IRP_DEVICE_CONTROL = 17
    IRP_INTERNAL_DEVICE_CONTROL = 18
    IRP_SHUTDOWN = 19
    IRP_LOCK_CONTROL = 20
    IRP_CLEANUP = 21
    IRP_CREATE_MAILSLOT = 22
    IRP_QUERY_SECURITY = 23
    IRP_SET_SECURITY = 24
    IRP_QUERY_QUOTA = 25
    IRP_SET_QUOTA = 26

    # FastIO path.
    FASTIO_CHECK_IF_POSSIBLE = 27
    FASTIO_READ = 28
    FASTIO_WRITE = 29
    FASTIO_QUERY_BASIC_INFO = 30
    FASTIO_QUERY_STANDARD_INFO = 31
    FASTIO_LOCK = 32
    FASTIO_UNLOCK_SINGLE = 33
    FASTIO_UNLOCK_ALL = 34
    FASTIO_UNLOCK_ALL_BY_KEY = 35
    FASTIO_DEVICE_CONTROL = 36
    FASTIO_ACQUIRE_FILE_FOR_NT_CREATE_SECTION = 37
    FASTIO_RELEASE_FILE_FOR_NT_CREATE_SECTION = 38
    FASTIO_DETACH_DEVICE = 39
    FASTIO_QUERY_NETWORK_OPEN_INFO = 40
    FASTIO_ACQUIRE_FOR_MOD_WRITE = 41
    FASTIO_MDL_READ = 42
    FASTIO_MDL_READ_COMPLETE = 43
    FASTIO_PREPARE_MDL_WRITE = 44
    FASTIO_MDL_WRITE_COMPLETE = 45
    FASTIO_READ_COMPRESSED = 46
    FASTIO_WRITE_COMPRESSED = 47
    FASTIO_MDL_READ_COMPLETE_COMPRESSED = 48
    FASTIO_MDL_WRITE_COMPLETE_COMPRESSED = 49
    FASTIO_QUERY_OPEN = 50
    FASTIO_RELEASE_FOR_MOD_WRITE = 51
    FASTIO_ACQUIRE_FOR_CC_FLUSH = 52
    FASTIO_RELEASE_FOR_CC_FLUSH = 53

    @property
    def is_fastio(self) -> bool:
        return self >= TraceEventKind.FASTIO_CHECK_IF_POSSIBLE


N_EVENT_KINDS = len(TraceEventKind)
# Event-kind names indexed by kind value (the values run 0..53).
KIND_NAMES = tuple(kind.name for kind in TraceEventKind)

_IRP_KIND_BY_MAJOR = {
    IrpMajor.CREATE: TraceEventKind.IRP_CREATE,
    IrpMajor.CREATE_NAMED_PIPE: TraceEventKind.IRP_CREATE_NAMED_PIPE,
    IrpMajor.CLOSE: TraceEventKind.IRP_CLOSE,
    IrpMajor.READ: TraceEventKind.IRP_READ,
    IrpMajor.WRITE: TraceEventKind.IRP_WRITE,
    IrpMajor.QUERY_INFORMATION: TraceEventKind.IRP_QUERY_INFORMATION,
    IrpMajor.SET_INFORMATION: TraceEventKind.IRP_SET_INFORMATION,
    IrpMajor.QUERY_EA: TraceEventKind.IRP_QUERY_EA,
    IrpMajor.SET_EA: TraceEventKind.IRP_SET_EA,
    IrpMajor.FLUSH_BUFFERS: TraceEventKind.IRP_FLUSH_BUFFERS,
    IrpMajor.QUERY_VOLUME_INFORMATION: TraceEventKind.IRP_QUERY_VOLUME_INFORMATION,
    IrpMajor.SET_VOLUME_INFORMATION: TraceEventKind.IRP_SET_VOLUME_INFORMATION,
    IrpMajor.DEVICE_CONTROL: TraceEventKind.IRP_DEVICE_CONTROL,
    IrpMajor.INTERNAL_DEVICE_CONTROL: TraceEventKind.IRP_INTERNAL_DEVICE_CONTROL,
    IrpMajor.SHUTDOWN: TraceEventKind.IRP_SHUTDOWN,
    IrpMajor.LOCK_CONTROL: TraceEventKind.IRP_LOCK_CONTROL,
    IrpMajor.CLEANUP: TraceEventKind.IRP_CLEANUP,
    IrpMajor.CREATE_MAILSLOT: TraceEventKind.IRP_CREATE_MAILSLOT,
    IrpMajor.QUERY_SECURITY: TraceEventKind.IRP_QUERY_SECURITY,
    IrpMajor.SET_SECURITY: TraceEventKind.IRP_SET_SECURITY,
    IrpMajor.QUERY_QUOTA: TraceEventKind.IRP_QUERY_QUOTA,
    IrpMajor.SET_QUOTA: TraceEventKind.IRP_SET_QUOTA,
}


def kind_for_irp(irp: Irp) -> TraceEventKind:
    """Event kind of an IRP (majors with minors map to distinct kinds)."""
    if irp.major == IrpMajor.DIRECTORY_CONTROL:
        if irp.minor == IrpMinor.NOTIFY_CHANGE_DIRECTORY:
            return TraceEventKind.IRP_NOTIFY_CHANGE_DIRECTORY
        return TraceEventKind.IRP_QUERY_DIRECTORY
    if irp.major == IrpMajor.FILE_SYSTEM_CONTROL:
        if irp.minor == IrpMinor.MOUNT_VOLUME:
            return TraceEventKind.IRP_FSCTL_MOUNT_VOLUME
        if irp.minor == IrpMinor.VERIFY_VOLUME:
            return TraceEventKind.IRP_FSCTL_VERIFY_VOLUME
        return TraceEventKind.IRP_FSCTL_USER_REQUEST
    return _IRP_KIND_BY_MAJOR[irp.major]


_FASTIO_KIND_BY_OP = {
    op: TraceEventKind(TraceEventKind.FASTIO_CHECK_IF_POSSIBLE + int(op))
    for op in FastIoOp
}


def kind_for_fastio(op: FastIoOp) -> TraceEventKind:
    """Event kind of a FastIO call (one kind per vector entry)."""
    return _FASTIO_KIND_BY_OP[op]


# --------------------------------------------------------------------- #
# Inverse maps: record kind back to the dispatch that produced it.  The
# replay engine uses these to re-issue archived records through the same
# IRP/FastIO paths that recorded them.

_MAJOR_MINOR_BY_KIND: dict[TraceEventKind, tuple[IrpMajor, IrpMinor]] = {
    kind: (major, IrpMinor.NONE) for major, kind in _IRP_KIND_BY_MAJOR.items()
}
_MAJOR_MINOR_BY_KIND.update({
    TraceEventKind.IRP_QUERY_DIRECTORY:
        (IrpMajor.DIRECTORY_CONTROL, IrpMinor.QUERY_DIRECTORY),
    TraceEventKind.IRP_NOTIFY_CHANGE_DIRECTORY:
        (IrpMajor.DIRECTORY_CONTROL, IrpMinor.NOTIFY_CHANGE_DIRECTORY),
    TraceEventKind.IRP_FSCTL_USER_REQUEST:
        (IrpMajor.FILE_SYSTEM_CONTROL, IrpMinor.USER_FS_REQUEST),
    TraceEventKind.IRP_FSCTL_MOUNT_VOLUME:
        (IrpMajor.FILE_SYSTEM_CONTROL, IrpMinor.MOUNT_VOLUME),
    TraceEventKind.IRP_FSCTL_VERIFY_VOLUME:
        (IrpMajor.FILE_SYSTEM_CONTROL, IrpMinor.VERIFY_VOLUME),
})


def irp_for_kind(kind: TraceEventKind) -> tuple[IrpMajor, IrpMinor]:
    """(major, minor) that reproduces an IRP-path record kind."""
    if kind.is_fastio:
        raise ValueError(f"{kind.name} is a FastIO kind, not an IRP kind")
    return _MAJOR_MINOR_BY_KIND[kind]


def fastio_op_for_kind(kind: TraceEventKind) -> FastIoOp:
    """FastIO vector entry that reproduces a FastIO-path record kind."""
    if not kind.is_fastio:
        raise ValueError(f"{kind.name} is an IRP kind, not a FastIO kind")
    return FastIoOp(int(kind) - int(TraceEventKind.FASTIO_CHECK_IF_POSSIBLE))


@dataclass(frozen=True)
class TraceRecord:
    """One fixed-layout trace record (§3.2's per-operation record).

    ``info`` multiplexes the operation-specific extra: the information
    class for (QUERY/SET)_INFORMATION, the FSCTL code for file-system
    control, and the create-result information for CREATE.
    """

    __slots__ = ("kind", "fo_id", "pid", "t_start", "t_end", "status",
                 "irp_flags", "offset", "length", "returned", "file_size",
                 "disposition", "options", "attributes", "info")

    kind: int
    fo_id: int
    pid: int
    t_start: int
    t_end: int
    status: int
    irp_flags: int
    offset: int
    length: int
    returned: int
    file_size: int
    disposition: int
    options: int
    attributes: int
    info: int

    @property
    def duration(self) -> int:
        """Completion latency in ticks."""
        return self.t_end - self.t_start

    @property
    def is_paging(self) -> bool:
        """True when the VM manager originated the request (PagingIO bit)."""
        # IrpFlags.PAGING_IO | IrpFlags.SYNCHRONOUS_PAGING_IO
        return bool(self.irp_flags & 0x42)

    @property
    def is_fastio(self) -> bool:
        return self.kind >= TraceEventKind.FASTIO_CHECK_IF_POSSIBLE


# A record row's fields in TraceRecord order, which is also the order of
# one row of a staged block (repro.nt.tracing.fastbuf).
RECORD_COLUMNS = TraceRecord.__slots__


@dataclass(frozen=True)
class NameRecord:
    """Maps a file-object id to its name — written once per file object."""

    __slots__ = ("fo_id", "path", "volume_label", "volume_is_remote",
                 "pid", "t")

    fo_id: int
    path: str
    volume_label: str
    volume_is_remote: bool
    pid: int
    t: int
