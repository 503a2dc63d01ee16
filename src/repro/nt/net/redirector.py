"""The network redirector driver.

The paper's trace driver attached both to local volume stacks and to the
driver implementing the network redirector, which serves remote file
systems over CIFS (§3.2).  The redirector here reuses the full file-system
driver logic against the server-side volume, adding wire time for the
requests that actually cross the network.  Cached data does not pay wire
costs — NT caches remote file data through the same cache manager, which
is why the paper found no significant open-time difference between local
and remote files (§6.2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.clock import ticks_from_micros
from repro.common.flags import FileObjectFlags
from repro.common.status import NtStatus
from repro.nt.flight.profiler import BIN_REDIRECTOR
from repro.nt.fs.driver import FileSystemDriver
from repro.nt.io.driver import DeviceObject
from repro.nt.io.fastio import FastIoOp, FastIoResult
from repro.nt.io.irp import Irp, IrpMajor


@dataclass(frozen=True)
class NetworkModel:
    """Wire costs for one client-server link."""

    name: str
    rtt_micros: float
    bytes_per_second: float

    def wire_ticks(self, payload_bytes: int) -> int:
        micros = self.rtt_micros + payload_bytes / self.bytes_per_second * 1e6
        return max(1, ticks_from_micros(micros))


# 100 Mbit/s switched Ethernet (§2), with CIFS request turnaround.
SWITCHED_100MBIT = NetworkModel(
    name="switched-100mbit",
    rtt_micros=350.0,
    bytes_per_second=11e6,
)


# Majors that always require a server round trip.
_WIRE_MAJORS = frozenset({
    IrpMajor.CREATE,
    IrpMajor.CLEANUP,
    IrpMajor.CLOSE,
    IrpMajor.QUERY_INFORMATION,
    IrpMajor.SET_INFORMATION,
    IrpMajor.QUERY_EA,
    IrpMajor.SET_EA,
    IrpMajor.FLUSH_BUFFERS,
    IrpMajor.QUERY_VOLUME_INFORMATION,
    IrpMajor.SET_VOLUME_INFORMATION,
    IrpMajor.DIRECTORY_CONTROL,
    IrpMajor.FILE_SYSTEM_CONTROL,
    IrpMajor.LOCK_CONTROL,
    IrpMajor.QUERY_SECURITY,
    IrpMajor.SET_SECURITY,
})


class RedirectorDriver(FileSystemDriver):
    """File-system semantics over a wire-latency model."""

    name = "rdr"

    def __init__(self, io, network: NetworkModel = SWITCHED_100MBIT) -> None:
        super().__init__(io)
        self.network = network
        perf = io.machine.perf
        self._perf_wire_requests = perf.counter("rdr.wire.requests")
        self._perf_wire_transfers = perf.counter("rdr.wire.transfers")
        self._perf_wire_bytes = perf.counter("rdr.wire.bytes")
        # Remote reads/writes the client cache absorbed without a round
        # trip — the §6.2 reason remote opens cost no more than local ones.
        self._perf_cache_absorbed = perf.counter("rdr.cache_absorbed")

    def dispatch(self, irp: Irp, device: DeviceObject) -> NtStatus:
        machine = self.io.machine
        profiler = self._profiler
        prof_on = profiler.enabled
        if prof_on:
            profiler.enter(BIN_REDIRECTOR)
        try:
            if irp.major in _WIRE_MAJORS:
                self._wire_advance(machine, 0)
                self._perf_wire_requests.add(1)
            elif irp.major in (IrpMajor.READ, IrpMajor.WRITE):
                fo = irp.file_object
                moves_data = irp.is_paging_io or (
                    fo is not None
                    and fo.has_flag(
                        FileObjectFlags.NO_INTERMEDIATE_BUFFERING))
                if moves_data:
                    self._wire_advance(machine, irp.length)
                    self._perf_wire_transfers.add(1)
                    self._perf_wire_bytes.add(irp.length)
                else:
                    self._perf_cache_absorbed.add(1)
            return super().dispatch(irp, device)
        finally:
            if prof_on:
                profiler.exit()

    def _wire_advance(self, machine, payload_bytes: int) -> None:
        """Charge one server round trip, spanned so the wire time of a
        request shows up as its own child in the causal trace."""
        spans = machine.spans
        span = spans.begin_wire(payload_bytes) if spans.enabled else None
        machine.clock.advance(self.network.wire_ticks(payload_bytes))
        if span is not None:
            spans.end(span)

    def fastio(self, op: FastIoOp, irp_like: Irp,
               device: DeviceObject) -> FastIoResult:
        result = super().fastio(op, irp_like, device)
        if result.handled and op in (FastIoOp.READ, FastIoOp.WRITE):
            self._perf_cache_absorbed.add(1)
        return result
