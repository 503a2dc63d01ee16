"""I/O request packets.

An :class:`Irp` is the packet the I/O manager sends down a device stack
(§3.2's "generic packet based request mechanism").  The trace filter driver
records its major/minor function, header flags, offsets/lengths, and start
and completion timestamps — the same fields the paper's driver logged.
"""

from __future__ import annotations

import enum
from typing import Optional, TYPE_CHECKING

from repro.common.flags import (
    CreateDisposition,
    CreateOptions,
    FileAccess,
    FileAttributes,
    IrpFlags,
    ShareMode,
)
from repro.common.status import NtStatus

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.nt.io.fileobject import FileObject


class IrpMajor(enum.IntEnum):
    """Major function codes (the file-system-relevant subset of NT's set)."""

    CREATE = 0x00
    CREATE_NAMED_PIPE = 0x01
    CLOSE = 0x02
    READ = 0x03
    WRITE = 0x04
    QUERY_INFORMATION = 0x05
    SET_INFORMATION = 0x06
    QUERY_EA = 0x07
    SET_EA = 0x08
    FLUSH_BUFFERS = 0x09
    QUERY_VOLUME_INFORMATION = 0x0A
    SET_VOLUME_INFORMATION = 0x0B
    DIRECTORY_CONTROL = 0x0C
    FILE_SYSTEM_CONTROL = 0x0D
    DEVICE_CONTROL = 0x0E
    INTERNAL_DEVICE_CONTROL = 0x0F
    SHUTDOWN = 0x10
    LOCK_CONTROL = 0x11
    CLEANUP = 0x12
    CREATE_MAILSLOT = 0x13
    QUERY_SECURITY = 0x14
    SET_SECURITY = 0x15
    QUERY_QUOTA = 0x19
    SET_QUOTA = 0x1A


class IrpMinor(enum.IntEnum):
    """Minor function codes for DIRECTORY_CONTROL and FILE_SYSTEM_CONTROL."""

    NONE = 0x00
    QUERY_DIRECTORY = 0x01
    NOTIFY_CHANGE_DIRECTORY = 0x02
    USER_FS_REQUEST = 0x10
    MOUNT_VOLUME = 0x11
    VERIFY_VOLUME = 0x12


class SetInformationClass(enum.IntEnum):
    """FileInformationClass values for IRP_MJ_SET_INFORMATION."""

    BASIC = 4
    RENAME = 10
    DISPOSITION = 13      # the DeleteFile control operation (§6.3 case 2)
    END_OF_FILE = 20      # SetEndOfFile (§8.3)
    ALLOCATION = 19


class QueryInformationClass(enum.IntEnum):
    """FileInformationClass values for IRP_MJ_QUERY_INFORMATION."""

    BASIC = 4
    STANDARD = 5
    NETWORK_OPEN = 34
    ALL = 18


class FsControlCode(enum.IntEnum):
    """FSCTL codes for IRP_MJ_FILE_SYSTEM_CONTROL(USER_FS_REQUEST).

    IS_VOLUME_MOUNTED is the "issued up to 40 times a second" check §8.3
    calls out.
    """

    IS_VOLUME_MOUNTED = 0x90028
    IS_PATHNAME_VALID = 0x9002C
    GET_VOLUME_BITMAP = 0x9006F
    SET_COMPRESSION = 0x9C040


# PagingIO test mask, folded to a plain int once, when the module loads.
_PAGING_MASK = int(IrpFlags.PAGING_IO | IrpFlags.SYNCHRONOUS_PAGING_IO)


class Irp:
    """One I/O request packet travelling down a device stack."""

    __slots__ = (
        "major",
        "minor",
        "file_object",
        "flags",
        "offset",
        "length",
        "returned",
        "status",
        "process_id",
        "t_start",
        "t_complete",
        # Causal span context (repro.nt.tracing.spans): the span this
        # dispatch opened and the root activity it belongs to.
        "span_id",
        "activity_id",
        # IRP_MJ_CREATE parameters.
        "create_path",
        "create_disposition",
        "create_options",
        "create_attributes",
        "desired_access",
        "share_mode",
        # SET/QUERY_INFORMATION / FSCTL parameters.
        "information_class",
        "control_code",
        "set_size",
        "rename_target",
        "set_times",
        "lock_offset",
        "lock_length",
        # Driver-Verifier bookkeeping (repro.nt.io.verifier): how many
        # times complete() ran and how many times the I/O manager
        # dispatched this packet.  Maintained unconditionally — two int
        # increments — so enabling the verifier cannot change behaviour.
        "n_completions",
        "n_dispatches",
    )

    def __init__(self, major: IrpMajor, file_object: Optional["FileObject"],
                 process_id: int,
                 minor: IrpMinor = IrpMinor.NONE,
                 flags: IrpFlags = IrpFlags.NONE,
                 offset: int = 0, length: int = 0) -> None:
        self.major = major
        self.minor = minor
        self.file_object = file_object
        # Stored as a plain int: flag tests then go through int.__and__
        # instead of IntFlag.__and__, which re-resolves members on every
        # call — a measurable cost on the per-request hot path.
        self.flags = int(flags)
        self.offset = offset
        self.length = length
        self.returned = 0
        self.status = NtStatus.PENDING
        self.process_id = process_id
        self.t_start = 0
        self.t_complete = 0
        self.span_id = 0
        self.activity_id = 0
        self.create_path: str = ""
        self.create_disposition = CreateDisposition.OPEN
        self.create_options = CreateOptions.NONE
        self.create_attributes = FileAttributes.NORMAL
        self.desired_access = FileAccess.NONE
        self.share_mode = ShareMode.ALL
        self.information_class: int = 0
        self.control_code: int = 0
        self.set_size: int = 0
        self.rename_target: str = ""
        # SET_INFORMATION(BASIC): (creation, last_write, last_access),
        # each None to leave unchanged.  Applications control these, which
        # is why the paper found the recorded file times unreliable (§5).
        self.set_times: Optional[tuple] = None
        self.lock_offset: int = 0
        self.lock_length: int = 0
        self.n_completions = 0
        self.n_dispatches = 0

    @property
    def is_paging_io(self) -> bool:
        """True when the VM manager originated this packet (§3.3)."""
        return bool(self.flags & _PAGING_MASK)

    def complete(self, status: NtStatus, returned: int = 0) -> NtStatus:
        """Mark the packet completed (the FS driver's job)."""
        self.n_completions += 1
        self.status = status
        self.returned = returned
        return status

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fo = self.file_object.fo_id if self.file_object is not None else None
        return (f"<Irp {self.major.name}/{self.minor.name} fo={fo} "
                f"off={self.offset} len={self.length} status={self.status.name}>")
