"""The file-system driver: the leaf of every local volume's device stack.

Implements the IRP majors and the FastIO vector for FAT and NTFS volumes
(the personality differences live in :class:`~repro.nt.fs.volume.Volume`).
Caching is initialised lazily on the first read or write (§10: "a file
system delays this until the first read or write request arrives"), which
is what produces the paper's signature pattern of one IRP-path transfer
followed by a run of FastIO calls.
"""

from __future__ import annotations

import enum

from repro.common.flags import (
    CreateDisposition,
    CreateOptions,
    FileAttributes,
    FileObjectFlags,
    IrpFlags,
)
from repro.common.status import NtStatus
from repro.nt.fs.nodes import DirectoryNode, FileNode, Node
from repro.nt.fs.sharing import sharing_permits
from repro.nt.io.driver import DeviceObject, Driver
from repro.nt.io.fastio import FastIoOp, FastIoResult
from repro.nt.io.irp import (
    FsControlCode,
    Irp,
    IrpMajor,
    IrpMinor,
    SetInformationClass)


class CreateResult(enum.IntEnum):
    """IoStatus.Information values returned by IRP_MJ_CREATE."""

    SUPERSEDED = 0
    OPENED = 1
    CREATED = 2
    OVERWRITTEN = 3


# CPU service costs (microseconds) for a 200 MHz P6-class machine.
_CREATE_BASE = 90.0
_CREATE_PER_COMPONENT = 20.0
_METADATA_MISS_PROBABILITY = 0.3
_QUERY_INFO = 7.0
_SET_INFO = 14.0
_RENAME = 55.0
_DIR_QUERY_BASE = 18.0
_DIR_QUERY_PER_ENTRY = 1.6
_FSCTL = 4.0
_CLEANUP = 12.0
_CLOSE = 7.0
_LOCK = 5.0
_VOLUME_INFO = 8.0
_FASTIO_INFO = 4.0
_FASTIO_SYNC = 1.5
_READ_DISPATCH = 9.0
_WRITE_DISPATCH = 10.0

# Flag-test masks folded to plain ints once at import: an IntFlag operand
# on either side of & routes through the enum's member re-resolution,
# which is measurable on the create/read hot paths.
_OPT_DIRECTORY_FILE = int(CreateOptions.DIRECTORY_FILE)
_OPT_NON_DIRECTORY_FILE = int(CreateOptions.NON_DIRECTORY_FILE)
_OPT_WRITE_THROUGH = int(CreateOptions.WRITE_THROUGH)
_OPT_SEQUENTIAL_ONLY = int(CreateOptions.SEQUENTIAL_ONLY)
_OPT_NO_INTERMEDIATE_BUFFERING = int(CreateOptions.NO_INTERMEDIATE_BUFFERING)
_OPT_RANDOM_ACCESS = int(CreateOptions.RANDOM_ACCESS)
_OPT_DELETE_ON_CLOSE = int(CreateOptions.DELETE_ON_CLOSE)
_ATTR_TEMPORARY = int(FileAttributes.TEMPORARY)
_ATTR_COMPRESSED = int(FileAttributes.COMPRESSED)
_IRP_WRITE_THROUGH = int(IrpFlags.WRITE_THROUGH)

# A small fraction of FastIO data calls is declined (byte-range locks,
# compressed ranges, ...), exercising the IRP retry the paper describes.
# The rate comes from MachineConfig.fastio_decline_probability (default
# 0.01); replay machines set 0.0 because declined FastIO calls are never
# recorded and would silently drop injected records.


class FileSystemDriver(Driver):
    """FAT/NTFS driver; one instance can serve many volume devices."""

    name = "fsd"

    def __init__(self, io) -> None:
        super().__init__(io)
        perf = io.machine.perf
        self._perf_created = perf.counter("fs.files_created")
        self._perf_overwritten = perf.counter("fs.files_overwritten")
        self._perf_renamed = perf.counter("fs.files_renamed")
        self._perf_deleted = perf.counter("fs.files_deleted")
        self._perf_flushes = perf.counter("fs.explicit_flushes")
        self._perf_sharing_violations = perf.counter("fs.sharing_violations")
        # Only the random decline lottery; io.fastio.declined also counts
        # structural declines (no private cache map, compressed file).
        self._perf_fastio_declined = perf.counter("fastio.declined")
        self._perf_mdl_reads = perf.counter("fastio.mdl_reads")

    # ------------------------------------------------------------------ #
    # IRP path.

    def dispatch(self, irp: Irp, device: DeviceObject) -> NtStatus:
        handler = self._IRP_HANDLERS.get(irp.major)
        if handler is None:
            return irp.complete(NtStatus.INVALID_DEVICE_REQUEST)
        return handler(self, irp, device)

    # -- create -------------------------------------------------------- #

    def _create(self, irp: Irp, device: DeviceObject) -> NtStatus:
        machine = self.io.machine
        volume = device.volume
        fo = irp.file_object
        path = irp.create_path
        components = max(1, path.count("\\"))
        self._charge(_CREATE_BASE + _CREATE_PER_COMPONENT * components)
        if machine.rng.random() < _METADATA_MISS_PROBABILITY:
            # Cold directory metadata: a partially-cached MFT/FAT lookup.
            self._charge(float(machine.rng.uniform(800.0, 4000.0)))
        parent, leaf = volume.resolve_parent(path)
        if parent is None:
            return irp.complete(NtStatus.OBJECT_PATH_NOT_FOUND)
        node = parent.lookup(leaf) if leaf else volume.root
        disposition = irp.create_disposition
        options = irp.create_options
        opts = int(options)
        wants_dir = bool(opts & _OPT_DIRECTORY_FILE)
        wants_file = bool(opts & _OPT_NON_DIRECTORY_FILE)

        if node is not None:
            if node.delete_pending:
                return irp.complete(NtStatus.DELETE_PENDING)
            if node.is_directory and wants_file:
                return irp.complete(NtStatus.FILE_IS_A_DIRECTORY)
            if not node.is_directory and wants_dir:
                return irp.complete(NtStatus.NOT_A_DIRECTORY)
            if disposition == CreateDisposition.CREATE:
                return irp.complete(NtStatus.OBJECT_NAME_COLLISION)
            if isinstance(node, FileNode) and not sharing_permits(
                    node.share_grants, int(irp.desired_access),
                    int(irp.share_mode)):
                self._perf_sharing_violations.add(1)
                return irp.complete(NtStatus.SHARING_VIOLATION)
            result = CreateResult.OPENED
            if disposition in (CreateDisposition.OVERWRITE,
                               CreateDisposition.OVERWRITE_IF,
                               CreateDisposition.SUPERSEDE):
                if node.is_directory:
                    return irp.complete(NtStatus.FILE_IS_A_DIRECTORY)
                self._truncate_for_overwrite(node, volume,
                                             irp.create_attributes)
                result = (CreateResult.SUPERSEDED
                          if disposition == CreateDisposition.SUPERSEDE
                          else CreateResult.OVERWRITTEN)
        else:
            if disposition in (CreateDisposition.OPEN,
                               CreateDisposition.OVERWRITE):
                return irp.complete(NtStatus.OBJECT_NAME_NOT_FOUND)
            now = machine.clock.now
            if wants_dir:
                node = volume.create_directory(parent, leaf,
                                               irp.create_attributes, now)
            else:
                node = volume.create_file(parent, leaf,
                                          irp.create_attributes, now)
            result = CreateResult.CREATED
            self._perf_created.add(1)
            machine.notify_directory_change(parent)

        self._bind_file_object(fo, node, options, irp.create_attributes)
        node.open_count += 1
        if isinstance(node, FileNode):
            grant = (int(irp.desired_access), int(irp.share_mode))
            node.share_grants.append(grant)
            fo.granted_access = irp.desired_access
            fo.share_mode = irp.share_mode
        return irp.complete(NtStatus.SUCCESS, int(result))

    def _truncate_for_overwrite(self, node: FileNode, volume,
                                attributes: FileAttributes) -> None:
        machine = self.io.machine
        machine.cc.purge(node, 0)
        volume.set_file_size(node, 0, machine.clock.now)
        node.valid_data_length = 0
        if int(attributes) & _ATTR_TEMPORARY:
            node.attributes = int(node.attributes) | _ATTR_TEMPORARY
        machine.mm.evict_image(volume.label, node.full_path())
        self._perf_overwritten.add(1)

    @staticmethod
    def _bind_file_object(fo, node: Node, options: CreateOptions,
                          attributes: FileAttributes) -> None:
        fo.node = node
        fo.is_directory_open = node.is_directory
        opts = int(options)
        if opts & _OPT_WRITE_THROUGH:
            fo.set_flag(FileObjectFlags.WRITE_THROUGH)
        if opts & _OPT_SEQUENTIAL_ONLY:
            fo.set_flag(FileObjectFlags.SEQUENTIAL_ONLY)
        if opts & _OPT_NO_INTERMEDIATE_BUFFERING:
            fo.set_flag(FileObjectFlags.NO_INTERMEDIATE_BUFFERING)
        if opts & _OPT_RANDOM_ACCESS:
            fo.set_flag(FileObjectFlags.RANDOM_ACCESS)
        if opts & _OPT_DELETE_ON_CLOSE:
            fo.set_flag(FileObjectFlags.DELETE_ON_CLOSE)
        if int(attributes) & _ATTR_TEMPORARY:
            fo.set_flag(FileObjectFlags.TEMPORARY_FILE)

    # -- read / write -------------------------------------------------- #

    def _read(self, irp: Irp, device: DeviceObject) -> NtStatus:
        machine = self.io.machine
        volume = device.volume
        fo = irp.file_object
        node = fo.node
        if node is None or node.is_directory:
            return irp.complete(NtStatus.INVALID_PARAMETER)
        self._charge(_READ_DISPATCH)
        if irp.is_paging_io:
            return self._media_read(irp, device, volume, node)
        if fo.has_flag(FileObjectFlags.NO_INTERMEDIATE_BUFFERING):
            status = self._media_read(irp, device, volume, node)
            self._touch_read(volume, node)
            return status
        if fo.private_cache_map is None:
            machine.cc.initialize_cache_map(fo)
        status, returned, _hit = machine.cc.copy_read(fo, irp.offset,
                                                      irp.length)
        self._touch_read(volume, node)
        return irp.complete(status, returned)

    def _media_read(self, irp: Irp, device: DeviceObject, volume,
                    node: FileNode) -> NtStatus:
        machine = self.io.machine
        if irp.offset >= max(node.size, node.allocation_size):
            return irp.complete(NtStatus.END_OF_FILE)
        if device.lower is not None:
            # A storage device is mounted below: it prices and completes
            # the transfer; the FSD keeps the post-transfer CPU work.
            status = self.forward_irp(irp, device)
            if int(node.attributes) & _ATTR_COMPRESSED:
                self._charge(irp.returned / 15e6 * 1e6)
            return status
        available = max(node.size, node.allocation_size) - irp.offset
        returned = min(irp.length, available)
        machine.clock.advance(
            volume.media_service_ticks(node, irp.offset, returned,
                                       machine.rng))
        if int(node.attributes) & _ATTR_COMPRESSED:
            # Decompression CPU on a 200 MHz P6: ~15 MB/s.
            self._charge(returned / 15e6 * 1e6)
        return irp.complete(NtStatus.SUCCESS, returned)

    def _write(self, irp: Irp, device: DeviceObject) -> NtStatus:
        machine = self.io.machine
        volume = device.volume
        fo = irp.file_object
        node = fo.node
        if node is None or node.is_directory:
            return irp.complete(NtStatus.INVALID_PARAMETER)
        self._charge(_WRITE_DISPATCH)
        if irp.is_paging_io:
            # Data already sized by the cached write; just move it to media.
            if irp.length <= 0:
                return irp.complete(NtStatus.SUCCESS)
            if device.lower is not None:
                return self.forward_irp(irp, device)
            machine.clock.advance(
                volume.media_service_ticks(node, irp.offset, irp.length,
                                           machine.rng))
            return irp.complete(NtStatus.SUCCESS, irp.length)
        end = irp.offset + irp.length
        if end > node.size:
            status = volume.set_file_size(node, end, machine.clock.now)
            if status.is_error:
                return irp.complete(status)
        if fo.has_flag(FileObjectFlags.NO_INTERMEDIATE_BUFFERING):
            if device.lower is not None:
                status = self.forward_irp(irp, device)
                node.valid_data_length = max(node.valid_data_length, end)
                self._touch_written(volume, node)
                return status
            machine.clock.advance(
                volume.media_service_ticks(node, irp.offset, irp.length,
                                           machine.rng))
            node.valid_data_length = max(node.valid_data_length, end)
            self._touch_written(volume, node)
            return irp.complete(NtStatus.SUCCESS, irp.length)
        if fo.private_cache_map is None:
            machine.cc.initialize_cache_map(fo)
        status, returned = machine.cc.copy_write(fo, irp.offset, irp.length)
        self._touch_written(volume, node)
        if status.is_success and (fo.has_flag(FileObjectFlags.WRITE_THROUGH)
                                  or irp.flags & _IRP_WRITE_THROUGH):
            machine.cc.flush_range(node, irp.offset, irp.length)
        return irp.complete(status, returned)

    # -- information --------------------------------------------------- #

    def _query_information(self, irp: Irp, device: DeviceObject) -> NtStatus:
        self._charge(_QUERY_INFO)
        node = irp.file_object.node
        if node is None:
            return irp.complete(NtStatus.INVALID_PARAMETER)
        size = node.size if isinstance(node, FileNode) else 0
        return irp.complete(NtStatus.SUCCESS, size)

    def _set_information(self, irp: Irp, device: DeviceObject) -> NtStatus:
        machine = self.io.machine
        volume = device.volume
        fo = irp.file_object
        node = fo.node
        if node is None:
            return irp.complete(NtStatus.INVALID_PARAMETER)
        info_class = irp.information_class
        if info_class == SetInformationClass.DISPOSITION:
            self._charge(_SET_INFO)
            if irp.set_size:  # delete requested
                if node.is_directory and len(node) > 0:
                    return irp.complete(NtStatus.DIRECTORY_NOT_EMPTY)
                node.delete_pending = True
            else:
                node.delete_pending = False
            return irp.complete(NtStatus.SUCCESS)
        if info_class == SetInformationClass.END_OF_FILE:
            self._charge(_SET_INFO)
            if not isinstance(node, FileNode):
                return irp.complete(NtStatus.FILE_IS_A_DIRECTORY)
            if irp.set_size < node.size:
                machine.cc.purge(node, irp.set_size)
            status = volume.set_file_size(node, irp.set_size,
                                          machine.clock.now)
            return irp.complete(status)
        if info_class == SetInformationClass.ALLOCATION:
            self._charge(_SET_INFO)
            return irp.complete(NtStatus.SUCCESS)
        if info_class == SetInformationClass.RENAME:
            self._charge(_RENAME)
            return irp.complete(self._rename(node, volume, irp.rename_target))
        if info_class == SetInformationClass.BASIC:
            self._charge(_SET_INFO)
            # Applications may set any of the three file times to any
            # value — installers stamp creation times from the install
            # medium, producing the inconsistencies §5 reports.
            if irp.set_times is not None:
                creation, last_write, last_access = irp.set_times
                if creation is not None and volume.maintains_creation_time:
                    node.creation_time = creation
                if last_write is not None:
                    node.last_write_time = last_write
                if last_access is not None and volume.maintains_access_time:
                    node.last_access_time = last_access
            return irp.complete(NtStatus.SUCCESS)
        return irp.complete(NtStatus.INVALID_PARAMETER)

    def _rename(self, node: Node, volume, target_path: str) -> NtStatus:
        machine = self.io.machine
        parent, leaf = volume.resolve_parent(target_path)
        if parent is None:
            return NtStatus.OBJECT_PATH_NOT_FOUND
        if parent.lookup(leaf) is not None:
            return NtStatus.OBJECT_NAME_COLLISION
        if node.parent is None:
            return NtStatus.INVALID_PARAMETER
        node.parent.detach(node)
        node.name = leaf
        parent.attach(node)
        node.last_write_time = machine.clock.now
        self._perf_renamed.add(1)
        return NtStatus.SUCCESS

    # -- directory / volume control ------------------------------------ #

    def _directory_control(self, irp: Irp, device: DeviceObject) -> NtStatus:
        fo = irp.file_object
        node = fo.node
        if irp.minor == IrpMinor.NOTIFY_CHANGE_DIRECTORY:
            self._charge(_DIR_QUERY_BASE)
            # control_code 1 marks the delivery of a completed
            # notification (issued by _notify_watchers); anything else is
            # an application arming a watch, which pends.
            if irp.control_code == 1:
                return irp.complete(NtStatus.SUCCESS, 1)
            if isinstance(node, DirectoryNode):
                self.io.machine.register_directory_watch(node, fo,
                                                         irp.process_id)
            return irp.complete(NtStatus.PENDING)
        if not isinstance(node, DirectoryNode):
            return irp.complete(NtStatus.NOT_A_DIRECTORY)
        entries = list(node.children())
        cursor = fo.current_byte_offset
        batch = entries[cursor:cursor + max(1, irp.length)]
        self._charge(_DIR_QUERY_BASE + _DIR_QUERY_PER_ENTRY * len(batch))
        fo.current_byte_offset = cursor + len(batch)
        if not batch:
            return irp.complete(NtStatus.NO_MORE_FILES)
        return irp.complete(NtStatus.SUCCESS, len(batch))

    def _file_system_control(self, irp: Irp, device: DeviceObject) -> NtStatus:
        self._charge(_FSCTL)
        if irp.minor == IrpMinor.VERIFY_VOLUME:
            return irp.complete(NtStatus.SUCCESS)
        if irp.control_code in (FsControlCode.IS_VOLUME_MOUNTED,
                                FsControlCode.IS_PATHNAME_VALID):
            return irp.complete(NtStatus.SUCCESS)
        return irp.complete(NtStatus.INVALID_DEVICE_REQUEST)

    def _query_volume_information(self, irp: Irp,
                                  device: DeviceObject) -> NtStatus:
        self._charge(_VOLUME_INFO)
        return irp.complete(NtStatus.SUCCESS,
                            device.volume.capacity_bytes
                            - device.volume.bytes_used)

    def _set_volume_information(self, irp: Irp,
                                device: DeviceObject) -> NtStatus:
        self._charge(_VOLUME_INFO)
        return irp.complete(NtStatus.SUCCESS)

    # -- flush / cleanup / close ---------------------------------------- #

    def _flush_buffers(self, irp: Irp, device: DeviceObject) -> NtStatus:
        machine = self.io.machine
        node = irp.file_object.node
        self._charge(_QUERY_INFO)
        if isinstance(node, FileNode):
            machine.cc.flush_file(node, background=False)
            self._perf_flushes.add(1)
        return irp.complete(NtStatus.SUCCESS)

    def _cleanup(self, irp: Irp, device: DeviceObject) -> NtStatus:
        machine = self.io.machine
        volume = device.volume
        fo = irp.file_object
        node = fo.node
        self._charge(_CLEANUP)
        if node is None:
            return irp.complete(NtStatus.SUCCESS)
        if fo.has_flag(FileObjectFlags.DELETE_ON_CLOSE):
            node.delete_pending = True
        node.open_count = max(0, node.open_count - 1)
        if isinstance(node, FileNode):
            grant = (int(fo.granted_access), int(fo.share_mode))
            if grant in node.share_grants:
                node.share_grants.remove(grant)
            machine.cc.cleanup_file_object(fo, irp.process_id)
        if node.delete_pending and node.open_count == 0:
            self._delete_node(node, volume)
        return irp.complete(NtStatus.SUCCESS)

    def _delete_node(self, node: Node, volume) -> None:
        machine = self.io.machine
        parent = node.parent
        if isinstance(node, FileNode):
            machine.cc.discard(node)
            machine.mm.evict_image(volume.label, node.full_path())
        status = volume.remove_node(node, machine.clock.now)
        if status.is_success:
            self._perf_deleted.add(1)
            if parent is not None:
                machine.notify_directory_change(parent)

    def _close(self, irp: Irp, device: DeviceObject) -> NtStatus:
        self._charge(_CLOSE)
        return irp.complete(NtStatus.SUCCESS)

    # -- trivially-succeeding majors ------------------------------------ #

    def _trivial_success(self, irp: Irp, device: DeviceObject) -> NtStatus:
        self._charge(_LOCK)
        return irp.complete(NtStatus.SUCCESS)

    def _unsupported(self, irp: Irp, device: DeviceObject) -> NtStatus:
        self._charge(_FSCTL)
        return irp.complete(NtStatus.INVALID_DEVICE_REQUEST)

    # ------------------------------------------------------------------ #
    # FastIO path.

    def fastio(self, op: FastIoOp, irp_like: Irp,
               device: DeviceObject) -> FastIoResult:
        handler = self._FASTIO_HANDLERS.get(op)
        if handler is None:
            return FastIoResult.declined()
        return handler(self, irp_like, device)

    def _fastio_check_if_possible(self, irp_like: Irp,
                                  device: DeviceObject) -> FastIoResult:
        self._charge(_FASTIO_SYNC)
        fo = irp_like.file_object
        if fo.private_cache_map is None:
            return FastIoResult.declined()
        return FastIoResult.ok()

    def _fastio_read(self, irp_like: Irp,
                     device: DeviceObject) -> FastIoResult:
        machine = self.io.machine
        fo = irp_like.file_object
        node = fo.node
        if (fo.private_cache_map is None or not isinstance(node, FileNode)
                or fo.has_flag(FileObjectFlags.NO_INTERMEDIATE_BUFFERING)):
            return FastIoResult.declined()
        if int(node.attributes) & _ATTR_COMPRESSED:
            # Compressed ranges take the IRP path (the paper's follow-up
            # traces examined reads from compressed large files).
            return FastIoResult.declined()
        if machine.rng.random() < machine.config.fastio_decline_probability:
            self._perf_fastio_declined.add(1)
            return FastIoResult.declined()
        status, returned, _hit = machine.cc.copy_read(fo, irp_like.offset,
                                                      irp_like.length)
        self._touch_read(device.volume, node)
        if status.is_error:
            return FastIoResult.failed(status)
        return FastIoResult.ok(returned)

    def _fastio_write(self, irp_like: Irp,
                      device: DeviceObject) -> FastIoResult:
        machine = self.io.machine
        volume = device.volume
        fo = irp_like.file_object
        node = fo.node
        if (fo.private_cache_map is None or not isinstance(node, FileNode)
                or fo.has_flag(FileObjectFlags.NO_INTERMEDIATE_BUFFERING)):
            return FastIoResult.declined()
        if machine.rng.random() < machine.config.fastio_decline_probability:
            self._perf_fastio_declined.add(1)
            return FastIoResult.declined()
        end = irp_like.offset + irp_like.length
        if end > node.size:
            status = volume.set_file_size(node, end, machine.clock.now)
            if status.is_error:
                return FastIoResult.failed(status)
        status, returned = machine.cc.copy_write(fo, irp_like.offset,
                                                 irp_like.length)
        self._touch_written(volume, node)
        if status.is_success and fo.has_flag(FileObjectFlags.WRITE_THROUGH):
            machine.cc.flush_range(node, irp_like.offset, irp_like.length)
        if status.is_error:
            return FastIoResult.failed(status)
        return FastIoResult.ok(returned)

    def _fastio_query(self, irp_like: Irp,
                      device: DeviceObject) -> FastIoResult:
        self._charge(_FASTIO_INFO)
        node = irp_like.file_object.node
        if node is None:
            return FastIoResult.declined()
        size = node.size if isinstance(node, FileNode) else 0
        return FastIoResult.ok(size)

    def _fastio_sync(self, irp_like: Irp,
                     device: DeviceObject) -> FastIoResult:
        self._charge(_FASTIO_SYNC)
        return FastIoResult.ok()

    def _fastio_mdl_read(self, irp_like: Irp,
                         device: DeviceObject) -> FastIoResult:
        """The direct-memory read interface: no buffer copy (§10).

        Only kernel-based services call this; it lands in the same cache
        manager data but skips the copy, so it is slightly cheaper than
        FastIoRead.
        """
        machine = self.io.machine
        fo = irp_like.file_object
        node = fo.node
        if (fo.private_cache_map is None or not isinstance(node, FileNode)
                or int(node.attributes) & _ATTR_COMPRESSED):
            return FastIoResult.declined()
        status, returned, _hit = machine.cc.copy_read(fo, irp_like.offset,
                                                      irp_like.length)
        self._perf_mdl_reads.add(1)
        if status.is_error:
            return FastIoResult.failed(status)
        return FastIoResult.ok(returned)

    def _fastio_declined(self, irp_like: Irp,
                         device: DeviceObject) -> FastIoResult:
        return FastIoResult.declined()

    # ------------------------------------------------------------------ #
    # Helpers.

    def _charge(self, micros: float) -> None:
        self.io.machine.charge_cpu(micros)

    def _touch_read(self, volume, node: Node) -> None:
        if volume.maintains_access_time:
            node.last_access_time = self.io.machine.clock.now

    def _touch_written(self, volume, node: Node) -> None:
        # Writing a file is also an access: both stamps move, so write
        # and access times stay consistent unless an application rewrites
        # them (the §5 unreliability source).
        now = self.io.machine.clock.now
        node.last_write_time = now
        if volume.maintains_access_time:
            node.last_access_time = now

    _IRP_HANDLERS = {
        IrpMajor.CREATE: _create,
        IrpMajor.CLOSE: _close,
        IrpMajor.READ: _read,
        IrpMajor.WRITE: _write,
        IrpMajor.QUERY_INFORMATION: _query_information,
        IrpMajor.SET_INFORMATION: _set_information,
        IrpMajor.QUERY_EA: _trivial_success,
        IrpMajor.SET_EA: _trivial_success,
        IrpMajor.FLUSH_BUFFERS: _flush_buffers,
        IrpMajor.QUERY_VOLUME_INFORMATION: _query_volume_information,
        IrpMajor.SET_VOLUME_INFORMATION: _set_volume_information,
        IrpMajor.DIRECTORY_CONTROL: _directory_control,
        IrpMajor.FILE_SYSTEM_CONTROL: _file_system_control,
        IrpMajor.DEVICE_CONTROL: _unsupported,
        IrpMajor.INTERNAL_DEVICE_CONTROL: _unsupported,
        IrpMajor.SHUTDOWN: _trivial_success,
        IrpMajor.LOCK_CONTROL: _trivial_success,
        IrpMajor.CLEANUP: _cleanup,
        IrpMajor.CREATE_NAMED_PIPE: _unsupported,
        IrpMajor.CREATE_MAILSLOT: _unsupported,
        IrpMajor.QUERY_SECURITY: _trivial_success,
        IrpMajor.SET_SECURITY: _trivial_success,
        IrpMajor.QUERY_QUOTA: _unsupported,
        IrpMajor.SET_QUOTA: _unsupported,
    }

    _FASTIO_HANDLERS = {
        FastIoOp.CHECK_IF_POSSIBLE: _fastio_check_if_possible,
        FastIoOp.READ: _fastio_read,
        FastIoOp.WRITE: _fastio_write,
        FastIoOp.QUERY_BASIC_INFO: _fastio_query,
        FastIoOp.QUERY_STANDARD_INFO: _fastio_query,
        FastIoOp.QUERY_NETWORK_OPEN_INFO: _fastio_query,
        FastIoOp.QUERY_OPEN: _fastio_query,
        FastIoOp.LOCK: _fastio_sync,
        FastIoOp.UNLOCK_SINGLE: _fastio_sync,
        FastIoOp.UNLOCK_ALL: _fastio_sync,
        FastIoOp.UNLOCK_ALL_BY_KEY: _fastio_sync,
        FastIoOp.ACQUIRE_FILE_FOR_NT_CREATE_SECTION: _fastio_sync,
        FastIoOp.RELEASE_FILE_FOR_NT_CREATE_SECTION: _fastio_sync,
        FastIoOp.ACQUIRE_FOR_MOD_WRITE: _fastio_sync,
        FastIoOp.RELEASE_FOR_MOD_WRITE: _fastio_sync,
        FastIoOp.ACQUIRE_FOR_CC_FLUSH: _fastio_sync,
        FastIoOp.RELEASE_FOR_CC_FLUSH: _fastio_sync,
        FastIoOp.DEVICE_CONTROL: _fastio_declined,
        FastIoOp.DETACH_DEVICE: _fastio_declined,
        FastIoOp.MDL_READ: _fastio_mdl_read,
        FastIoOp.MDL_READ_COMPLETE: _fastio_sync,
        FastIoOp.PREPARE_MDL_WRITE: _fastio_declined,
        FastIoOp.MDL_WRITE_COMPLETE: _fastio_declined,
        FastIoOp.READ_COMPRESSED: _fastio_declined,
        FastIoOp.WRITE_COMPRESSED: _fastio_declined,
        FastIoOp.MDL_READ_COMPLETE_COMPRESSED: _fastio_declined,
        FastIoOp.MDL_WRITE_COMPLETE_COMPRESSED: _fastio_declined,
    }
