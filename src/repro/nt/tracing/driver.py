"""The trace filter driver (§3.2).

Attached on top of each local file-system volume device and the network
redirector, it records every IRP and FastIO call that passes through —
including the VM manager's PagingIO duplicates, which the paper chose to
record and filter during analysis (§3.3).  It implements full FastIO
pass-through: a filter that failed to do so would sever the I/O manager's
route to the cache manager (§10).

The filter sits on every request's path, so it keeps its own cost low:

* each record is staged as a columnar row in a
  :class:`~repro.nt.tracing.fastbuf.FastRecordBuffer`; no per-event
  ``TraceRecord`` object exists until analysis asks for one;
* the leaf driver's per-major handler table is resolved once per device
  stack at attach time (:meth:`TraceFilterDriver.bind_fast_path`), so a
  request skips the generic forward/dispatch frames.  Stacks whose leaf
  driver overrides the table-driven dispatch (the network redirector)
  keep the generic forwarding path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.status import NtStatus
from repro.nt.io.driver import DeviceObject, Driver
from repro.nt.io.fastio import FastIoOp, FastIoResult
from repro.nt.io.irp import Irp, IrpMajor, IrpMinor
from repro.nt.tracing.collector import TraceCollector
from repro.nt.tracing.fastbuf import FastRecordBuffer
from repro.nt.tracing.records import NameRecord, kind_for_fastio, kind_for_irp

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.nt.io.iomanager import IoManager

_SET_INFORMATION = IrpMajor.SET_INFORMATION


class TraceFilterDriver(Driver):
    """Records all requests, then forwards them down the stack."""

    name = "tracefilter"

    def __init__(self, io: "IoManager", collector: TraceCollector) -> None:
        super().__init__(io)
        self.collector = collector
        self.buffer = FastRecordBuffer(self._flush_block)
        self._named_fo_ids: set[int] = set()
        self.enabled = True
        perf = io.machine.perf
        self._perf_records = perf.counter("trace.records")
        self._perf_flushes = perf.counter("trace.buffer_flushes")
        # Requests that passed through while tracing was disabled.
        self._perf_dropped = perf.counter("trace.dropped")
        # Precomputed lower-stack dispatch tables: major / FastIO op ->
        # handler bound to the leaf driver, resolved once per device stack
        # by bind_fast_path instead of once per request.
        self._fs_device: DeviceObject | None = None
        self._fs_irp_handlers: dict | None = None
        self._fs_fastio_handlers: dict | None = None

    def bind_fast_path(self, fs_device: DeviceObject) -> None:
        """Resolve the leaf driver's handler tables once for this stack.

        Only safe when the leaf's ``dispatch``/``fastio`` are exactly the
        table-driven base implementations: a subclass that overrides them
        (the network redirector wraps every call in wire latency) must
        keep the generic forwarding path, even though it inherits the
        handler tables.
        """
        from repro.nt.fs.driver import FileSystemDriver
        driver = fs_device.driver
        cls = type(driver)
        if (cls.dispatch is not FileSystemDriver.dispatch
                or cls.fastio is not FileSystemDriver.fastio):
            return
        irp_table = getattr(driver, "_IRP_HANDLERS", None)
        fastio_table = getattr(driver, "_FASTIO_HANDLERS", None)
        if irp_table is None or fastio_table is None:
            return
        self._fs_device = fs_device
        self._fs_irp_handlers = {
            major: func.__get__(driver) for major, func in irp_table.items()}
        self._fs_fastio_handlers = {
            op: func.__get__(driver) for op, func in fastio_table.items()}

    def _flush_block(self, block) -> None:
        self._perf_flushes.add(1)
        self.collector.receive_block(block)

    # ------------------------------------------------------------------ #

    def dispatch(self, irp: Irp, device: DeviceObject) -> NtStatus:
        if not self.enabled:
            self._perf_dropped.add(1)
            return self.forward_irp(irp, device)
        if irp.major == IrpMajor.CREATE or irp.minor == IrpMinor.MOUNT_VOLUME:
            self._ensure_name_record(irp)
        handlers = self._fs_irp_handlers
        if handlers is None:
            status = self.forward_irp(irp, device)
        else:
            handler = handlers.get(irp.major)
            if handler is None:
                status = irp.complete(NtStatus.INVALID_DEVICE_REQUEST)
            else:
                status = handler(irp, self._fs_device)
        self._stage_record(int(kind_for_irp(irp)), irp)
        self._perf_records.add(1)
        return status

    def fastio(self, op: FastIoOp, irp_like: Irp,
               device: DeviceObject) -> FastIoResult:
        handlers = self._fs_fastio_handlers
        if handlers is None:
            result = self.forward_fastio(op, irp_like, device)
        else:
            handler = handlers.get(op)
            if handler is None:
                result = FastIoResult.declined()
            else:
                result = handler(irp_like, self._fs_device)
        if self.enabled and result.handled:
            # Completed FastIO calls carry their outcome in the result
            # structure, not the parameter block; copy it so the record
            # logs the bytes actually transferred.
            irp_like.status = result.status
            irp_like.returned = result.returned
            self._stage_record(int(kind_for_fastio(op)), irp_like)
            self._perf_records.add(1)
        elif not self.enabled and result.handled:
            self._perf_dropped.add(1)
        return result

    # ------------------------------------------------------------------ #

    def flush(self) -> None:
        """Drain buffered records to the collector (end of run)."""
        self.buffer.drain()

    def _ensure_name_record(self, irp: Irp) -> None:
        fo = irp.file_object
        if fo is None or fo.fo_id in self._named_fo_ids:
            return
        self._named_fo_ids.add(fo.fo_id)
        self.collector.receive_name(NameRecord(
            fo_id=fo.fo_id,
            path=fo.path,
            volume_label=fo.volume.label,
            volume_is_remote=fo.volume.is_remote,
            pid=fo.process_id,
            t=self.io.machine.clock.now,
        ))

    def _stage_record(self, kind: int, irp: Irp) -> None:
        """Stage one record as a columnar row (no dataclass allocation)."""
        machine = self.io.machine
        # The filter sees the request complete before the I/O manager
        # stamps it, so stamp the completion time here.
        now = machine.clock.now
        irp.t_complete = now
        # SET_INFORMATION carries its argument (new size, or the delete
        # disposition flag) where data operations carry a length.
        length = (irp.set_size if irp.major == _SET_INFORMATION
                  else irp.length)
        fo = irp.file_object
        if fo is not None:
            fo_id = fo.fo_id
            node = fo.node
            file_size = getattr(node, "size", 0) if node is not None else 0
        else:
            fo_id = 0
            file_size = 0
        # Field order is records.TraceRecord's.
        self.buffer.append_row((
            kind, fo_id, irp.process_id, irp.t_start, now,
            int(irp.status), int(irp.flags), irp.offset, length,
            irp.returned, file_size, int(irp.create_disposition),
            int(irp.create_options), int(irp.create_attributes),
            int(irp.information_class) or int(irp.control_code)))
        spans = machine.spans
        if spans.enabled:
            spans.mark_recorded(length)
