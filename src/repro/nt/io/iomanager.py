"""The I/O manager.

All file-system requests — from user processes *and* from kernel components
like the VM manager — flow through here (§3.2).  The manager:

* validates and stamps requests (dual 100 ns timestamps, like the paper's
  trace records),
* presents IRPs to the top of the device stack for the target volume,
* tries the FastIO procedural path first whenever a file object has caching
  initialised, falling back to the IRP path when a driver declines (§10),
* supports *background* dispatch for VM-manager activity (read-ahead,
  lazy-writer flushes): the operation is timed on a forked clock so it
  overlaps foreground work the way a real asynchronous disk queue does.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.clock import ticks_from_micros
from repro.common.flags import FileObjectFlags, IrpFlags
from repro.common.status import NtStatus
from repro.nt.flight.profiler import BIN_FASTIO, BIN_IRP_DISPATCH
from repro.nt.fs.volume import Volume
from repro.nt.io.driver import DeviceObject
from repro.nt.io.fastio import FastIoOp, FastIoResult
from repro.nt.io.fileobject import FileObject
from repro.nt.io.irp import Irp, IrpMajor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.nt.system import Machine

# Per-request CPU overheads (calibrated to put FastIO completions in the
# 1–100 us band and IRP completions in the 100 us+ band of figure 13).
_IRP_DISPATCH_MICROS = 18.0
_FASTIO_DISPATCH_MICROS = 2.5


class IoManager:
    """Routes requests to device stacks and owns file-object identity."""

    def __init__(self, machine: "Machine") -> None:
        self.machine = machine
        config = machine.config
        # A declined FastIO call's parameter block is re-used as the
        # fallback IRP (every record-relevant field is rewritten, so
        # archives are identical).  The runtime verifier counts dispatches
        # per packet, so reuse stays off under it.
        self._reuse_declined_irp = not config.verifier_enabled
        # Dispatch CPU charges in ticks, pre-scaled to this machine's
        # clock rate (the same int(round(...)) Machine.charge_cpu does).
        self._irp_dispatch_ticks = ticks_from_micros(
            _IRP_DISPATCH_MICROS * machine.cpu_scale)
        self._fastio_dispatch_ticks = ticks_from_micros(
            _FASTIO_DISPATCH_MICROS * machine.cpu_scale)
        self._next_fo_id = 1
        # Volume label -> top of its device stack (the trace filter).
        self._stacks: dict[str, DeviceObject] = {}
        # Perf instrumentation: per-major dispatch counters and latency
        # histograms, created lazily so only exercised majors appear.
        self._perf = machine.perf
        self._irp_counters: dict[IrpMajor, object] = {}
        self._irp_latency: dict[IrpMajor, object] = {}
        self._fastio_counters: dict[FastIoOp, object] = {}
        self._fastio_latency: dict[FastIoOp, object] = {}
        self._fastio_declined = self._perf.counter("io.fastio.declined")

    def _count_irp(self, irp: Irp) -> None:
        major = irp.major
        counter = self._irp_counters.get(major)
        if counter is None:
            name = major.name.lower()
            counter = self._irp_counters[major] = \
                self._perf.counter(f"io.irp.dispatched.{name}")
            self._irp_latency[major] = \
                self._perf.histogram(f"io.irp.latency.{name}")
        counter.add(1)
        self._irp_latency[major].observe(irp.t_complete - irp.t_start)

    def _count_fastio(self, op: FastIoOp, irp_like: Irp) -> None:
        counter = self._fastio_counters.get(op)
        if counter is None:
            name = op.name.lower()
            counter = self._fastio_counters[op] = \
                self._perf.counter(f"io.fastio.handled.{name}")
            self._fastio_latency[op] = \
                self._perf.histogram(f"io.fastio.latency.{name}")
        counter.add(1)
        self._fastio_latency[op].observe(irp_like.t_complete - irp_like.t_start)

    # ------------------------------------------------------------------ #
    # Stack registry.

    def register_stack(self, volume: Volume, top: DeviceObject) -> None:
        """Record the top device for a mounted volume."""
        self._stacks[volume.label] = top

    def stack_for(self, volume: Volume) -> DeviceObject:
        """Top device of the stack handling ``volume``."""
        try:
            return self._stacks[volume.label]
        except KeyError:
            raise KeyError(f"no device stack registered for volume "
                           f"{volume.label!r}") from None

    @property
    def volumes(self) -> list[Volume]:
        """All mounted volumes, in registration order."""
        return [dev.volume for dev in self._stacks.values() if dev.volume is not None]

    # ------------------------------------------------------------------ #
    # File objects.

    def allocate_file_object(self, path: str, volume: Volume,
                             process_id: int) -> FileObject:
        """Make the file object that will accompany an IRP_MJ_CREATE."""
        fo = FileObject(self._next_fo_id, path, volume, process_id,
                        opened_at=self.machine.clock.now)
        self._next_fo_id += 1
        return fo

    # ------------------------------------------------------------------ #
    # IRP dispatch.

    def send_irp(self, irp: Irp, background: bool = False) -> NtStatus:
        """Dispatch an IRP to the stack of its file object's volume.

        ``background=True`` times the request on a forked clock: its trace
        timestamps are consistent and its device time is charged, but the
        foreground (process) clock does not wait — this models the VM
        manager's asynchronous read-ahead and lazy-write traffic.
        """
        if irp.file_object is None:
            raise ValueError("IRP has no file object")
        top = self.stack_for(irp.file_object.volume)
        if background:
            return self._dispatch_background(irp, top)
        return self._dispatch(irp, top)

    def _dispatch_background(self, irp: Irp, top: DeviceObject) -> NtStatus:
        """Dispatch on a forked clock (overlapped read-ahead/lazy-write).

        The span the dispatch opens carries the BACKGROUND flag, so the
        attribution analysis can separate overlapped device time from the
        foreground critical path.
        """
        with self.machine.forked_clock():
            return self._dispatch(irp, top, background=True)

    def _dispatch(self, irp: Irp, top: DeviceObject,
                  background: bool = False) -> NtStatus:
        machine = self.machine
        profiler = machine.profiler
        prof_on = profiler.enabled
        if prof_on:
            profiler.enter(BIN_IRP_DISPATCH)
        try:
            clock = machine.clock
            spans = machine.spans
            verifier = machine.verifier
            span = spans.begin_irp(irp, background) if spans.enabled else None
            if verifier.enabled:
                verifier.before_dispatch(irp)
            irp.t_start = clock.now
            clock.advance(self._irp_dispatch_ticks)
            status = top.driver.dispatch(irp, top)
            irp.t_complete = clock.now
            if verifier.enabled:
                verifier.after_dispatch(irp, status)
            if span is not None:
                spans.end(span, status)
            self._count_irp(irp)
            return status
        finally:
            if prof_on:
                profiler.exit()

    # ------------------------------------------------------------------ #
    # FastIO dispatch.

    def try_fastio(self, op: FastIoOp, irp_like: Irp) -> FastIoResult:
        """Attempt a FastIO call on the stack; callers fall back on decline."""
        if irp_like.file_object is None:
            raise ValueError("FastIO call has no file object")
        top = self.stack_for(irp_like.file_object.volume)
        machine = self.machine
        profiler = machine.profiler
        prof_on = profiler.enabled
        if prof_on:
            profiler.enter(BIN_FASTIO)
        try:
            clock = machine.clock
            spans = machine.spans
            span = spans.begin_fastio(op, irp_like) if spans.enabled else None
            irp_like.t_start = clock.now
            clock.advance(self._fastio_dispatch_ticks)
            result = top.driver.fastio(op, irp_like, top)
            irp_like.t_complete = clock.now
            if machine.verifier.enabled:
                machine.verifier.after_fastio(op, irp_like, result)
            if result.handled:
                irp_like.status = result.status
                irp_like.returned = result.returned
                self._count_fastio(op, irp_like)
            else:
                if span is not None:
                    spans.mark_declined(span)
                self._fastio_declined.add(1)
            if span is not None:
                spans.end(span, result.status)
            return result
        finally:
            if prof_on:
                profiler.exit()

    # ------------------------------------------------------------------ #
    # Data-path services (NtReadFile / NtWriteFile policy).

    def read(self, fo: FileObject, offset: int, length: int,
             process_id: int) -> tuple[NtStatus, int]:
        """NtReadFile: FastIO when caching is initialised, else the IRP path."""
        irp = None
        if self._fastio_eligible(fo):
            irp = Irp(IrpMajor.READ, fo, process_id,
                      offset=offset, length=length)
            result = self.try_fastio(FastIoOp.READ, irp)
            if result.handled:
                return result.status, result.returned
            if not self._reuse_declined_irp:
                irp = None
        if irp is None:
            irp = Irp(IrpMajor.READ, fo, process_id,
                      offset=offset, length=length)
        status = self.send_irp(irp)
        return status, irp.returned

    def write(self, fo: FileObject, offset: int, length: int,
              process_id: int) -> tuple[NtStatus, int]:
        """NtWriteFile: FastIO when caching is initialised, else the IRP path."""
        irp = None
        if self._fastio_eligible(fo):
            irp = Irp(IrpMajor.WRITE, fo, process_id,
                      offset=offset, length=length)
            result = self.try_fastio(FastIoOp.WRITE, irp)
            if result.handled:
                return result.status, result.returned
            if not self._reuse_declined_irp:
                irp = None
        write_through = fo.has_flag(FileObjectFlags.WRITE_THROUGH)
        if irp is None:
            flags = IrpFlags.WRITE_THROUGH if write_through else IrpFlags.NONE
            irp = Irp(IrpMajor.WRITE, fo, process_id, flags=flags,
                      offset=offset, length=length)
        elif write_through:
            irp.flags = int(IrpFlags.WRITE_THROUGH)
        status = self.send_irp(irp)
        return status, irp.returned

    @staticmethod
    def _fastio_eligible(fo: FileObject) -> bool:
        # The I/O manager keys on the private cache map: until the file
        # system initialises caching (on the first IRP-path read or write),
        # there is nothing for FastIO to land in.
        return (fo.caching_initialized
                and not fo.has_flag(FileObjectFlags.NO_INTERMEDIATE_BUFFERING))

    # ------------------------------------------------------------------ #
    # Cleanup / close (the two-stage teardown of §8.1).

    def cleanup(self, fo: FileObject, process_id: int) -> NtStatus:
        """Send IRP_MJ_CLEANUP (handle closed; drivers release resources)."""
        irp = Irp(IrpMajor.CLEANUP, fo, process_id)
        status = self.send_irp(irp)
        fo.cleanup_done = True
        self.dereference_and_maybe_close(fo, process_id)
        return status

    def dereference_and_maybe_close(self, fo: FileObject,
                                    process_id: int) -> None:
        """Drop one reference; at zero, send the final IRP_MJ_CLOSE."""
        if fo.dereference() == 0 and not fo.closed:
            irp = Irp(IrpMajor.CLOSE, fo, process_id)
            self.send_irp(irp)
            fo.closed = True
