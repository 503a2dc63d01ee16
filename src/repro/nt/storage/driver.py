"""The storage driver at the bottom of a local volume's device stack.

The file-system driver forwards media READ/WRITE IRPs down the stack
instead of pricing them inline; this driver is the device at the bottom.
Requests arrive through the ordinary IRP dispatch path, so the
completion protocol (P-rules, runtime verifier) and span tracing apply
to device time exactly as they do to every other layer.

One :class:`StorageDriver` instance serves every local volume of a
machine (like the file-system driver); per-device mutable state — the
request queue, the head-position memory the HDD's locality pricing
reads, the SSD's erase-block bookkeeping — hangs off the device object's
name.  Service times come from the frozen personality
(:mod:`repro.nt.storage.devices`) and are exact functions of the request
stream, so a replay is deterministic tick-for-tick.

Per-device instrumentation in :mod:`repro.nt.perf`:

* ``storage.<dev>.requests`` — transfers serviced;
* ``storage.<dev>.busy_ticks`` — device-active time (utilisation);
* ``storage.<dev>.wait_ticks`` — time requests sat queued;
* ``storage.<dev>.queue_depth_max`` — deepest queue observed (gauge);
* ``storage.<dev>.latency`` — per-request wait+service histogram.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.common.status import NtStatus
from repro.nt.io.driver import DeviceObject, Driver
from repro.nt.io.irp import Irp, IrpMajor
from repro.nt.storage.devices import (
    SsdPersonality,
    StorageKind,
    StoragePersonality,
)
from repro.nt.storage.queue import DeviceQueue

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.nt.io.iomanager import IoManager


class _DeviceState:
    """Mutable per-device bookkeeping (personalities are frozen)."""

    __slots__ = ("queue", "last_node_id", "last_end", "clean_blocks",
                 "touched_blocks", "perf_requests", "perf_busy",
                 "perf_wait", "perf_depth", "perf_latency")

    def __init__(self, device_name: str, personality: StoragePersonality,
                 queue_policy: str, perf) -> None:
        self.queue = DeviceQueue(queue_policy)
        self.last_node_id = -1
        self.last_end = -1
        self.clean_blocks = (personality.clean_block_budget
                             if isinstance(personality, SsdPersonality)
                             else 0)
        self.touched_blocks: set = set()
        name = device_name.lower()
        self.perf_requests = perf.counter(f"storage.{name}.requests")
        self.perf_busy = perf.counter(f"storage.{name}.busy_ticks")
        self.perf_wait = perf.counter(f"storage.{name}.wait_ticks")
        self.perf_depth = perf.gauge(f"storage.{name}.queue_depth_max")
        self.perf_latency = perf.histogram(f"storage.{name}.latency")

    def note_access(self, node_id: int, end: int) -> None:
        self.last_node_id = node_id
        self.last_end = end


def _service_hdd(personality: StoragePersonality, state: _DeviceState,
                 is_write: bool, node_id: int, offset: int, nbytes: int,
                 scale: float) -> int:
    """Mechanical pricing: positioning depends on the previous position."""
    sequential = (state.last_node_id == node_id
                  and offset == state.last_end)
    near = (not sequential and state.last_node_id == node_id
            and abs(offset - state.last_end) <= personality.track_span_bytes)
    ticks = personality.service_ticks(nbytes, is_write=is_write,
                                      sequential=sequential, near=near,
                                      scale=scale)
    state.note_access(node_id, offset + nbytes)
    return ticks


def _service_ssd(personality: StoragePersonality, state: _DeviceState,
                 is_write: bool, node_id: int, offset: int, nbytes: int,
                 scale: float) -> int:
    """Flash pricing: position-free, but first writes into a new erase
    block consume the clean-block budget and then pay the erase cliff."""
    erase_blocks = 0
    if is_write:
        new_blocks = 0
        for block in personality.blocks_spanned(offset, nbytes):
            key = (node_id, block)
            if key not in state.touched_blocks:
                state.touched_blocks.add(key)
                new_blocks += 1
        if new_blocks:
            consumed = min(state.clean_blocks, new_blocks)
            state.clean_blocks -= consumed
            erase_blocks = new_blocks - consumed
    ticks = personality.service_ticks(nbytes, is_write=is_write,
                                      erase_blocks=erase_blocks)
    state.note_access(node_id, offset + nbytes)
    return ticks


# Pricing handler per device technology.  The T-rules check this table
# covers every StorageKind member (stale table fails verification).
_SERVICE_HANDLERS = {
    StorageKind.HDD: _service_hdd,
    StorageKind.SSD: _service_ssd,
}


class StorageDriver(Driver):
    """Services media READ/WRITE IRPs with device time on the sim clock."""

    name = "storage"

    def __init__(self, io: "IoManager", personality: StoragePersonality,
                 queue_policy: str = "fifo") -> None:
        super().__init__(io)
        self.personality = personality
        self.queue_policy = queue_policy
        self._states: Dict[str, _DeviceState] = {}

    def state_for(self, device: DeviceObject) -> _DeviceState:
        state = self._states.get(device.name)
        if state is None:
            state = _DeviceState(device.name, self.personality,
                                 self.queue_policy, self.io.machine.perf)
            self._states[device.name] = state
        return state

    # ------------------------------------------------------------------ #
    # IRP path.

    def dispatch(self, irp: Irp, device: DeviceObject) -> NtStatus:
        if irp.major is IrpMajor.READ:
            return self._transfer(irp, device, is_write=False)
        if irp.major is IrpMajor.WRITE:
            return self._transfer(irp, device, is_write=True)
        # Only media transfers are sent below the file system.
        return irp.complete(NtStatus.INVALID_DEVICE_REQUEST)

    def _transfer(self, irp: Irp, device: DeviceObject,
                  is_write: bool) -> NtStatus:
        machine = self.io.machine
        node = irp.file_object.node
        if is_write:
            nbytes = irp.length
        else:
            # The file system already rejected reads beyond EOF; the
            # device transfers what the media holds at this offset.
            available = max(node.size, node.allocation_size) - irp.offset
            nbytes = min(irp.length, max(0, available))
        state = self.state_for(device)
        now = machine.clock.now
        depth, wait = state.queue.admit(now)
        handler = _SERVICE_HANDLERS[self.personality.kind]
        service = handler(self.personality, state, is_write, node.node_id,
                          irp.offset, nbytes,
                          state.queue.positioning_scale(depth))
        state.queue.commit(now, wait, service)
        state.perf_requests.add(1)
        state.perf_busy.add(service)
        state.perf_wait.add(wait)
        state.perf_depth.set(state.queue.depth_max)
        state.perf_latency.observe(wait + service)
        spans = machine.spans
        span = spans.begin_device(nbytes) if spans.enabled else None
        machine.clock.advance(wait + service)
        if span is not None:
            spans.end(span, int(NtStatus.SUCCESS))
        return irp.complete(NtStatus.SUCCESS, nbytes)
