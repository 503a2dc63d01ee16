r"""The Win32-level file API (§8's view of the system).

Applications in the workload call these entry points; each expands into the
IRP/FastIO traffic NT 4.0 generates, including the runtime-library chatter
the paper highlights: "is volume mounted" FSCTLs during name verification
(§8.3), opens performed purely to query attributes, and the
open/set-disposition/close sequence behind DeleteFile.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.common.flags import (
    CreateDisposition,
    CreateOptions,
    FileAccess,
    FileAttributes,
    ShareMode,
)
from repro.common.status import NtStatus
from repro.nt.fs.volume import Volume
from repro.nt.io.fastio import FastIoOp
from repro.nt.io.fileobject import FileObject
from repro.nt.io.irp import (
    FsControlCode,
    Irp,
    IrpMajor,
    IrpMinor,
    QueryInformationClass,
    SetInformationClass,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.nt.system import Machine, Process

# Probability that a name-verification "is volume mounted" FSCTL precedes
# an operation (§8.3: up to 40/second on an active system).
_MOUNT_CHECK_P_OPEN = 0.25
_MOUNT_CHECK_P_DIRECTORY = 0.55

# Directory queries return entries in batches (the FindFirstFile buffer).
_DIRECTORY_BATCH = 64


class Win32Api:
    """Win32 file services for one machine."""

    def __init__(self, machine: "Machine") -> None:
        self.machine = machine
        perf = machine.perf
        self._perf_opens = perf.counter("win32.opens")
        self._perf_open_failures = perf.counter("win32.open_failures")
        self._perf_mounted = perf.counter("win32.volume_mounted_checks")

    # ------------------------------------------------------------------ #
    # Path resolution.

    def resolve_path(self, path: str) -> tuple[Volume, str]:
        r"""Split ``C:\x\y`` or ``\\server\share\x`` into (volume, rel path)."""
        machine = self.machine
        if len(path) >= 2 and path[1] == ":":
            volume = machine.drives.get(path[0].upper())
            if volume is None:
                raise ValueError(f"no volume mounted at {path[:2]}")
            return volume, path[2:] or "\\"
        if path.startswith("\\\\"):
            lowered = path.lower()
            for prefix, volume in machine.remote_shares.items():
                if lowered.startswith(prefix):
                    return volume, path[len(prefix):] or "\\"
            raise ValueError(f"no share mounted for {path}")
        raise ValueError(f"path is not absolute: {path}")

    # ------------------------------------------------------------------ #
    # Open / close.

    def create_file(self, process: "Process", path: str,
                    access: FileAccess = FileAccess.GENERIC_READ,
                    disposition: CreateDisposition = CreateDisposition.OPEN,
                    options: CreateOptions = CreateOptions.NONE,
                    attributes: FileAttributes = FileAttributes.NORMAL,
                    share: ShareMode = ShareMode.ALL,
                    ) -> tuple[NtStatus, Optional[int]]:
        """CreateFile: returns (status, handle or None)."""
        machine = self.machine
        volume, rel = self.resolve_path(path)
        if machine.rng.random() < _MOUNT_CHECK_P_OPEN:
            self.volume_mounted_check(process, volume)
        fo = machine.io.allocate_file_object(rel, volume, process.pid)
        irp = Irp(IrpMajor.CREATE, fo, process.pid)
        irp.create_path = rel
        irp.create_disposition = disposition
        irp.create_options = options
        irp.create_attributes = attributes
        irp.desired_access = access
        irp.share_mode = share
        status = machine.io.send_irp(irp)
        if status.is_error:
            self._perf_open_failures.add(1)
            return status, None
        self._perf_opens.add(1)
        return status, process.allocate_handle(fo)

    def close_handle(self, process: "Process", handle: int) -> NtStatus:
        """CloseHandle: cleanup now; the close IRP follows the references."""
        fo = process.handles.pop(handle, None)
        if fo is None:
            return NtStatus.INVALID_PARAMETER
        return self.machine.io.cleanup(fo, process.pid)

    def file_object(self, process: "Process", handle: int) -> FileObject:
        """The file object behind a handle (for tests and the VM layer)."""
        return process.handles[handle]

    # ------------------------------------------------------------------ #
    # Data path.

    def read_file(self, process: "Process", handle: int, length: int,
                  offset: Optional[int] = None) -> tuple[NtStatus, int]:
        """ReadFile at the given or current offset; advances the offset."""
        fo = process.handles.get(handle)
        if fo is None:
            return NtStatus.INVALID_PARAMETER, 0
        if offset is None:
            offset = fo.current_byte_offset
        status, returned = self.machine.io.read(fo, offset, length,
                                                process.pid)
        fo.current_byte_offset = offset + returned
        return status, returned

    def write_file(self, process: "Process", handle: int, length: int,
                   offset: Optional[int] = None) -> tuple[NtStatus, int]:
        """WriteFile at the given or current offset; advances the offset."""
        fo = process.handles.get(handle)
        if fo is None:
            return NtStatus.INVALID_PARAMETER, 0
        if offset is None:
            offset = fo.current_byte_offset
        status, returned = self.machine.io.write(fo, offset, length,
                                                 process.pid)
        fo.current_byte_offset = offset + returned
        return status, returned

    def set_file_pointer(self, process: "Process", handle: int,
                         offset: int) -> NtStatus:
        """SetFilePointer (absolute)."""
        fo = process.handles.get(handle)
        if fo is None:
            return NtStatus.INVALID_PARAMETER
        fo.current_byte_offset = offset
        return NtStatus.SUCCESS

    def flush_file_buffers(self, process: "Process", handle: int) -> NtStatus:
        """FlushFileBuffers: force dirty cached data to disk."""
        fo = process.handles.get(handle)
        if fo is None:
            return NtStatus.INVALID_PARAMETER
        irp = Irp(IrpMajor.FLUSH_BUFFERS, fo, process.pid)
        return self.machine.io.send_irp(irp)

    # ------------------------------------------------------------------ #
    # Metadata operations.

    def get_file_attributes(self, process: "Process", path: str) -> NtStatus:
        """GetFileAttributes: an open purely for a control operation."""
        status, handle = self.create_file(
            process, path, access=FileAccess.READ_ATTRIBUTES,
            disposition=CreateDisposition.OPEN)
        if status.is_error:
            return status
        fo = process.handles[handle]
        irp = Irp(IrpMajor.QUERY_INFORMATION, fo, process.pid)
        irp.information_class = QueryInformationClass.BASIC
        self.machine.io.send_irp(irp)
        self.close_handle(process, handle)
        return NtStatus.SUCCESS

    def query_standard_information(self, process: "Process",
                                   handle: int) -> NtStatus:
        """Query size information on an open handle."""
        fo = process.handles.get(handle)
        if fo is None:
            return NtStatus.INVALID_PARAMETER
        irp = Irp(IrpMajor.QUERY_INFORMATION, fo, process.pid)
        irp.information_class = QueryInformationClass.STANDARD
        return self.machine.io.send_irp(irp)

    def set_end_of_file(self, process: "Process", handle: int,
                        size: int) -> NtStatus:
        """SetEndOfFile on an open handle."""
        fo = process.handles.get(handle)
        if fo is None:
            return NtStatus.INVALID_PARAMETER
        irp = Irp(IrpMajor.SET_INFORMATION, fo, process.pid)
        irp.information_class = SetInformationClass.END_OF_FILE
        irp.set_size = size
        return self.machine.io.send_irp(irp)

    def mdl_read(self, process: "Process", handle: int, length: int,
                 offset: int = 0) -> tuple[NtStatus, int]:
        """Direct-memory (MDL) read — the kernel-service interface (§10)."""
        fo = process.handles.get(handle)
        if fo is None:
            return NtStatus.INVALID_PARAMETER, 0
        irp_like = Irp(IrpMajor.READ, fo, process.pid, offset=offset,
                       length=length)
        result = self.machine.io.try_fastio(FastIoOp.MDL_READ, irp_like)
        if not result.handled:
            # Fall back to a plain read.
            return self.machine.io.read(fo, offset, length, process.pid)
        complete = Irp(IrpMajor.READ, fo, process.pid, offset=offset,
                       length=result.returned)
        self.machine.io.try_fastio(FastIoOp.MDL_READ_COMPLETE, complete)
        return result.status, result.returned

    def copy_file(self, process: "Process", src: str, dst: str,
                  chunk: int = 65536) -> NtStatus:
        """CopyFile: read the source and write the destination in chunks."""
        status, src_handle = self.create_file(process, src)
        if status.is_error or src_handle is None:
            return status
        status, dst_handle = self.create_file(
            process, dst, access=FileAccess.GENERIC_WRITE,
            disposition=CreateDisposition.OVERWRITE_IF)
        if status.is_error or dst_handle is None:
            self.close_handle(process, src_handle)
            return status
        while True:
            status, got = self.read_file(process, src_handle, chunk)
            if status.is_error or got == 0:
                break
            self.write_file(process, dst_handle, got)
        self.close_handle(process, src_handle)
        self.close_handle(process, dst_handle)
        return NtStatus.SUCCESS

    def set_file_times(self, process: "Process", handle: int,
                       creation: Optional[int] = None,
                       last_write: Optional[int] = None,
                       last_access: Optional[int] = None) -> NtStatus:
        """SetFileTime: applications control all three timestamps (§5)."""
        fo = process.handles.get(handle)
        if fo is None:
            return NtStatus.INVALID_PARAMETER
        irp = Irp(IrpMajor.SET_INFORMATION, fo, process.pid)
        irp.information_class = SetInformationClass.BASIC
        irp.set_times = (creation, last_write, last_access)
        return self.machine.io.send_irp(irp)

    def lock_file(self, process: "Process", handle: int, offset: int,
                  length: int) -> NtStatus:
        """LockFile: byte-range lock, FastIO first then the IRP path."""
        return self._lock_op(process, handle, offset, length,
                             FastIoOp.LOCK)

    def unlock_file(self, process: "Process", handle: int, offset: int,
                    length: int) -> NtStatus:
        """UnlockFile: release a byte-range lock."""
        return self._lock_op(process, handle, offset, length,
                             FastIoOp.UNLOCK_SINGLE)

    def _lock_op(self, process: "Process", handle: int, offset: int,
                 length: int, op: "FastIoOp") -> NtStatus:
        fo = process.handles.get(handle)
        if fo is None:
            return NtStatus.INVALID_PARAMETER
        irp_like = Irp(IrpMajor.LOCK_CONTROL, fo, process.pid)
        irp_like.lock_offset = offset
        irp_like.lock_length = length
        result = self.machine.io.try_fastio(op, irp_like)
        if result.handled:
            return result.status
        irp = Irp(IrpMajor.LOCK_CONTROL, fo, process.pid)
        irp.lock_offset = offset
        irp.lock_length = length
        return self.machine.io.send_irp(irp)

    def delete_file(self, process: "Process", path: str) -> NtStatus:
        """DeleteFile: open-for-delete, set disposition, close (§6.3)."""
        status, handle = self.create_file(
            process, path, access=FileAccess.DELETE,
            disposition=CreateDisposition.OPEN,
            options=CreateOptions.NON_DIRECTORY_FILE)
        if status.is_error:
            return status
        fo = process.handles[handle]
        irp = Irp(IrpMajor.SET_INFORMATION, fo, process.pid)
        irp.information_class = SetInformationClass.DISPOSITION
        irp.set_size = 1
        status = self.machine.io.send_irp(irp)
        self.close_handle(process, handle)
        return status

    def move_file(self, process: "Process", src: str, dst: str) -> NtStatus:
        """MoveFile within one volume: open, rename, close."""
        src_volume, _src_rel = self.resolve_path(src)
        dst_volume, dst_rel = self.resolve_path(dst)
        if src_volume is not dst_volume:
            return NtStatus.NOT_SAME_DEVICE
        status, handle = self.create_file(
            process, src, access=FileAccess.DELETE,
            disposition=CreateDisposition.OPEN)
        if status.is_error:
            return status
        fo = process.handles[handle]
        irp = Irp(IrpMajor.SET_INFORMATION, fo, process.pid)
        irp.information_class = SetInformationClass.RENAME
        irp.rename_target = dst_rel
        status = self.machine.io.send_irp(irp)
        self.close_handle(process, handle)
        return status

    # ------------------------------------------------------------------ #
    # Directories.

    def create_directory(self, process: "Process", path: str) -> NtStatus:
        """CreateDirectory."""
        status, handle = self.create_file(
            process, path, access=FileAccess.GENERIC_WRITE,
            disposition=CreateDisposition.CREATE,
            options=CreateOptions.DIRECTORY_FILE,
            attributes=FileAttributes.DIRECTORY)
        if status.is_error:
            return status
        self.close_handle(process, handle)
        return NtStatus.SUCCESS

    def remove_directory(self, process: "Process", path: str) -> NtStatus:
        """RemoveDirectory: open-for-delete, set disposition, close."""
        status, handle = self.create_file(
            process, path, access=FileAccess.DELETE,
            disposition=CreateDisposition.OPEN,
            options=CreateOptions.DIRECTORY_FILE)
        if status.is_error:
            return status
        fo = process.handles[handle]
        irp = Irp(IrpMajor.SET_INFORMATION, fo, process.pid)
        irp.information_class = SetInformationClass.DISPOSITION
        irp.set_size = 1
        status = self.machine.io.send_irp(irp)
        self.close_handle(process, handle)
        return status

    def find_files(self, process: "Process", directory: str,
                   max_entries: int = 10 ** 9) -> tuple[NtStatus, int]:
        """FindFirstFile/FindNextFile/FindClose over a directory.

        Returns (status, number of entries enumerated).
        """
        machine = self.machine
        volume, _rel = self.resolve_path(directory)
        if machine.rng.random() < _MOUNT_CHECK_P_DIRECTORY:
            self.volume_mounted_check(process, volume)
        status, handle = self.create_file(
            process, directory, access=FileAccess.READ_ATTRIBUTES,
            disposition=CreateDisposition.OPEN,
            options=CreateOptions.DIRECTORY_FILE)
        if status.is_error:
            return status, 0
        fo = process.handles[handle]
        total = 0
        while total < max_entries:
            irp = Irp(IrpMajor.DIRECTORY_CONTROL, fo, process.pid,
                      minor=IrpMinor.QUERY_DIRECTORY,
                      length=min(_DIRECTORY_BATCH, max_entries - total))
            status = machine.io.send_irp(irp)
            if status != NtStatus.SUCCESS:
                break
            total += irp.returned
        self.close_handle(process, handle)
        final = NtStatus.SUCCESS if status in (NtStatus.SUCCESS,
                                               NtStatus.NO_MORE_FILES) else status
        return final, total

    # ------------------------------------------------------------------ #
    # Volume operations.

    def watch_directory(self, process: "Process", handle: int) -> NtStatus:
        """FindFirstChangeNotification-style directory watch."""
        fo = process.handles.get(handle)
        if fo is None:
            return NtStatus.INVALID_PARAMETER
        irp = Irp(IrpMajor.DIRECTORY_CONTROL, fo, process.pid,
                  minor=IrpMinor.NOTIFY_CHANGE_DIRECTORY)
        return self.machine.io.send_irp(irp)

    def get_disk_free_space(self, process: "Process",
                            drive_letter: str) -> NtStatus:
        """GetDiskFreeSpace via a volume information query."""
        volume = self.machine.drives.get(drive_letter.upper())
        if volume is None:
            return NtStatus.OBJECT_NAME_NOT_FOUND
        fo = self.machine.volume_handle(volume)
        irp = Irp(IrpMajor.QUERY_VOLUME_INFORMATION, fo, process.pid)
        return self.machine.io.send_irp(irp)

    def volume_mounted_check(self, process: "Process",
                             volume: Volume) -> NtStatus:
        """The runtime library's name-verification FSCTL (§8.3)."""
        fo = self.machine.volume_handle(volume)
        irp = Irp(IrpMajor.FILE_SYSTEM_CONTROL, fo, process.pid,
                  minor=IrpMinor.USER_FS_REQUEST)
        irp.control_code = FsControlCode.IS_VOLUME_MOUNTED
        self._perf_mounted.add(1)
        return self.machine.io.send_irp(irp)

    # ------------------------------------------------------------------ #
    # Image loading and mapped views (the VM-driven paths of §3.3).

    def load_image(self, process: "Process", path: str) -> NtStatus:
        """Load an executable or DLL through an image section."""
        status, handle = self.create_file(
            process, path, access=FileAccess.GENERIC_READ,
            disposition=CreateDisposition.OPEN,
            options=CreateOptions.NON_DIRECTORY_FILE)
        if status.is_error:
            return status
        fo = process.handles[handle]
        status = self.machine.mm.map_image(fo, process.pid)
        self.close_handle(process, handle)
        return status

    def fault_view(self, process: "Process", handle: int, offset: int,
                   length: int) -> NtStatus:
        """Touch a mapped view of a data file, demand-faulting it in."""
        fo = process.handles.get(handle)
        if fo is None:
            return NtStatus.INVALID_PARAMETER
        return self.machine.mm.fault_view(fo, offset, length)
