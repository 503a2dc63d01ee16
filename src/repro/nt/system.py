"""Machine assembly: one traced Windows NT 4.0 system.

A :class:`Machine` wires together the clock, I/O manager, cache manager,
VM manager, lazy writer, local and remote volumes (each with a trace
filter on top of its driver stack), and a process table — the complete
environment the paper instrumented on each of its 45 systems.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from repro.common.clock import SimClock, ticks_from_micros, ticks_from_seconds
from repro.nt.cache.cachemanager import CacheManager
from repro.nt.flight.recorder import FlightRecorder
from repro.nt.cache.lazywriter import LazyWriter
from repro.nt.fs.disk import DiskModel, IDE_DISK
from repro.nt.fs.driver import FileSystemDriver
from repro.nt.fs.services import FsServices
from repro.nt.fs.volume import Volume
from repro.nt.io.driver import DeviceObject
from repro.nt.io.iomanager import IoManager
from repro.nt.io.irp import Irp, IrpMajor, IrpMinor
from repro.nt.io.verifier import DriverVerifier
from repro.nt.mm.vmmanager import VmManager
from repro.nt.net.redirector import NetworkModel, RedirectorDriver, SWITCHED_100MBIT
from repro.nt.perf import PerfRegistry
from repro.nt.storage.devices import PERSONALITIES
from repro.nt.storage.driver import StorageDriver
from repro.nt.tracing.collector import TraceCollector
from repro.nt.tracing.driver import TraceFilterDriver
from repro.nt.tracing.snapshot import take_snapshot
from repro.nt.tracing.spans import SpanTracer
from repro.nt.win32 import Win32Api

_MB = 1024 * 1024


@dataclass
class MachineConfig:
    """Hardware and identity of one traced system (§2)."""

    name: str
    category: str = "personal"
    cpu_mhz: int = 200
    memory_mb: int = 64
    disk: DiskModel = IDE_DISK
    disk_capacity_gb: float = 4.0
    fs_type: str = Volume.NTFS
    network: NetworkModel = SWITCHED_100MBIT
    seed: int = 0
    # Fraction of memory given to the file cache and to image sections.
    # NT 4.0's cache is dynamically sized; on the 64–128 MB machines of the
    # study the file cache competed with working sets, so the effective
    # fraction is modest.
    cache_memory_fraction: float = 0.10
    image_memory_fraction: float = 0.30
    # Probability that the FS driver declines a FastIO read/write (byte
    # range locks, compressed ranges, ...), exercising the IRP retry of
    # §10.  The replay engine sets 0.0: a declined FastIO call is never
    # recorded, so a random decline would silently drop injected records.
    fastio_decline_probability: float = 0.01
    # Whether the lazy writer's periodic scan runs.  Replay machines
    # quiesce it — write-behind traffic is injected from the source trace
    # instead of regenerated.
    lazy_writer_enabled: bool = True
    # Causal span tracing (repro.nt.tracing.spans).  Off by default: a
    # disabled tracer costs one attribute check per dispatch, and the
    # trace store stays byte-identical to pre-span archives.
    spans_enabled: bool = False
    # Runtime Driver-Verifier mode (repro.nt.io.verifier): assert
    # single-completion, no re-dispatch, and paging-IO invariants on
    # every packet.  Off by default — one attribute check per dispatch —
    # and a verified run's archive is byte-identical to a default run.
    verifier_enabled: bool = False
    # Flight recorder (repro.nt.flight): sample every perf series into
    # fixed simulated-time interval buckets for the .ntmetrics sidecar.
    # 0.0 disables it; the recorder only reads counters from the timer
    # wheel, so archives stay byte-identical with it on or off.
    metrics_interval_seconds: float = 0.0
    # Storage-device layer (repro.nt.storage): name of a personality from
    # PERSONALITIES to mount below every local volume's file-system
    # device.  None (the default) keeps the legacy inline
    # Volume.media_service_ticks pricing, so archives stay byte-identical
    # to pre-storage seeds.
    storage: Optional[str] = None
    # Queue policy for the storage devices ("fifo" or "elevator").
    storage_queue: str = "fifo"
    # Cache-manager capacity override in bytes.  None sizes the cache
    # from memory_mb * cache_memory_fraction as before; the whatif sweep
    # sets an explicit size per grid cell.
    cache_bytes: Optional[int] = None


class Process:
    """A traced process: identity plus its handle table."""

    __slots__ = ("pid", "name", "interactive", "handles", "_next_handle",
                 "started_at", "alive")

    def __init__(self, pid: int, name: str, interactive: bool,
                 started_at: int) -> None:
        self.pid = pid
        self.name = name
        self.interactive = interactive
        self.handles: dict[int, object] = {}
        self._next_handle = 4
        self.started_at = started_at
        self.alive = True

    def allocate_handle(self, fo) -> int:
        handle = self._next_handle
        self._next_handle += 4
        self.handles[handle] = fo
        return handle

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.pid} {self.name}>"


class Machine:
    """One simulated NT 4.0 system with tracing installed."""

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        self.name = config.name
        self.clock = SimClock()
        # CPU charges are calibrated for a 200 MHz P6; faster machines
        # (the pool and scientific boxes of §2) scale them down.
        self.cpu_scale = 200.0 / max(1, config.cpu_mhz)
        self.rng = np.random.default_rng(config.seed)
        self.perf = PerfRegistry(config.name)
        self._perf_change_notifications = self.perf.counter(
            "fs.change_notifications")
        self.collector = TraceCollector(config.name)
        # The span tracer must exist before the I/O manager: the mount
        # IRPs issued during construction already dispatch through it.
        self.spans = SpanTracer(self, self.collector,
                                enabled=config.spans_enabled)
        # Like the span tracer, the verifier must exist before the I/O
        # manager: mount IRPs dispatch during construction.
        self.verifier = DriverVerifier(enabled=config.verifier_enabled)
        self.io = IoManager(self)
        cache_bytes = config.cache_bytes
        if cache_bytes is None:
            cache_bytes = int(config.memory_mb * _MB
                              * config.cache_memory_fraction)
        self.cc = CacheManager(self, cache_bytes)
        self.mm = VmManager(
            self, int(config.memory_mb * _MB * config.image_memory_fraction))
        self.fs_services = FsServices(self)
        self.lazy_writer = LazyWriter(self)
        self._fsd = FileSystemDriver(self.io)
        self._rdr = RedirectorDriver(self.io, config.network)
        # One storage driver serves every local volume (like the FSD);
        # per-device state hangs off the device objects it is handed.
        self._storage: Optional[StorageDriver] = None
        if config.storage is not None:
            personality = PERSONALITIES.get(config.storage)
            if personality is None:
                raise ValueError(
                    f"unknown storage personality {config.storage!r}; "
                    f"expected one of {sorted(PERSONALITIES)}")
            self._storage = StorageDriver(self.io, personality,
                                          config.storage_queue)
        self.drives: dict[str, Volume] = {}
        self.remote_shares: dict[str, Volume] = {}
        # Long-lived per-volume root file objects used for FSCTL chatter.
        self._volume_handles: dict[str, object] = {}
        self._dir_watchers: dict[int, list] = {}
        self._timers: list[tuple[int, int, Callable[[], None]]] = []
        self._timer_seq = 0
        self.processes: dict[int, Process] = {}
        self._next_pid = 8
        # When False, armed directory watches never deliver autonomously —
        # the replay engine injects the recorded deliveries itself, and a
        # machine-driven delivery on top would double-count them.
        self.deliver_change_notifications = True
        self.win32 = Win32Api(self)
        if config.lazy_writer_enabled:
            self.lazy_writer.start()
        # Flight recorder last: its sampling timer rides the timer wheel
        # and only reads counters, so archives are identical on or off.
        self.flight: FlightRecorder | None = None
        if config.metrics_interval_seconds > 0:
            self.flight = FlightRecorder(
                self, ticks_from_seconds(config.metrics_interval_seconds))
            self.flight.install()

    # ------------------------------------------------------------------ #
    # Volume mounting.

    def mount(self, drive_letter: str, volume: Volume) -> None:
        """Mount a local volume under a drive letter, traced."""
        top = self._build_stack(volume, self._fsd)
        self.drives[drive_letter.upper()] = volume
        self._record_mount(volume)

    def mount_remote(self, unc_prefix: str, volume: Volume) -> None:
        r"""Mount a server share (``\\server\share``) via the redirector."""
        volume.is_remote = True
        self._build_stack(volume, self._rdr)
        self.remote_shares[unc_prefix.lower()] = volume
        self._record_mount(volume)

    def _build_stack(self, volume: Volume, driver) -> DeviceObject:
        fs_device = DeviceObject(driver, volume, f"{volume.label}-fsd")
        if self._storage is not None and driver is self._fsd:
            # Local volumes get a storage device at the bottom; the FSD
            # forwards media transfers to it instead of pricing them
            # inline.  Remote stacks keep the redirector as the leaf.
            storage_device = DeviceObject(self._storage, volume,
                                          f"{volume.label}-storage")
            fs_device.attach_on_top_of(storage_device)
        filter_driver = TraceFilterDriver(self.io, self.collector)
        filter_device = DeviceObject(filter_driver, volume,
                                     f"{volume.label}-filter")
        filter_device.attach_on_top_of(fs_device)
        filter_driver.bind_fast_path(fs_device)
        self.io.register_stack(volume, filter_device)
        return filter_device

    def _record_mount(self, volume: Volume) -> None:
        fo = self.io.allocate_file_object("\\", volume, process_id=0)
        irp = Irp(IrpMajor.FILE_SYSTEM_CONTROL, fo, 0,
                  minor=IrpMinor.MOUNT_VOLUME)
        irp.create_path = "\\"
        # Bind the root so later FSCTLs have a node.
        fo.node = volume.root
        self.io.send_irp(irp)
        self._volume_handles[volume.label] = fo

    def volume_handle(self, volume: Volume):
        """The long-lived root file object used for volume control chatter."""
        return self._volume_handles[volume.label]

    @property
    def trace_filters(self) -> list[TraceFilterDriver]:
        """All installed trace filters (one per volume stack)."""
        filters = []
        for volume in self.io.volumes:
            top = self.io.stack_for(volume)
            if isinstance(top.driver, TraceFilterDriver):
                filters.append(top.driver)
        return filters

    # ------------------------------------------------------------------ #
    # Directory change notifications (IRP_MN_NOTIFY_CHANGE_DIRECTORY).

    def register_directory_watch(self, directory, fo, process_id: int
                                 ) -> None:
        """Arm a change notification on a directory (explorer's watches)."""
        self._dir_watchers.setdefault(id(directory), []).append(
            (fo, process_id))

    def notify_directory_change(self, directory) -> None:
        """Complete pending change notifications for a directory.

        Each armed watch delivers one completion (the application must
        re-arm), modelled as a NOTIFY_CHANGE_DIRECTORY request with
        control_code 1 so the trace filter records the delivery.
        """
        if not self.deliver_change_notifications:
            return
        watchers = self._dir_watchers.pop(id(directory), None)
        if not watchers:
            return
        for fo, process_id in watchers:
            if fo.closed or fo.cleanup_done:
                continue
            irp = Irp(IrpMajor.DIRECTORY_CONTROL, fo, process_id,
                      minor=IrpMinor.NOTIFY_CHANGE_DIRECTORY)
            irp.control_code = 1
            self.io.send_irp(irp)
            self._perf_change_notifications.add(1)

    # ------------------------------------------------------------------ #
    # Processes.

    def create_process(self, name: str, interactive: bool = False) -> Process:
        """Start a traced process."""
        pid = self._next_pid
        self._next_pid += 4
        process = Process(pid, name, interactive, self.clock.now)
        self.processes[pid] = process
        self.collector.register_process(pid, name, interactive)
        return process

    # ------------------------------------------------------------------ #
    # Time and scheduling.

    def schedule(self, when: int, callback: Callable[[], None]) -> None:
        """Run ``callback`` once the clock reaches ``when``."""
        self._timer_seq += 1
        heapq.heappush(self._timers, (when, self._timer_seq, callback))

    def run_until(self, horizon: int) -> None:
        """Dispatch scheduled events until ``horizon`` ticks."""
        while self._timers and self._timers[0][0] <= horizon:
            when, _seq, callback = heapq.heappop(self._timers)
            self.clock.advance_to(when)
            callback()
        self.clock.advance_to(horizon)

    def charge_cpu(self, micros: float) -> None:
        """Advance the clock by CPU work, scaled to this machine's speed."""
        self.clock.advance(ticks_from_micros(micros * self.cpu_scale))

    @contextmanager
    def forked_clock(self) -> Iterator[SimClock]:
        """Run a block on a forked clock (overlapped/asynchronous work).

        Durations charged inside the block produce consistent timestamps
        without delaying the foreground timeline — the way a disk services
        lazy-write and read-ahead traffic concurrently with the CPU.
        """
        saved = self.clock
        self.clock = SimClock(saved.now)
        try:
            yield self.clock
        finally:
            self.clock = saved

    # ------------------------------------------------------------------ #
    # Tracing control.

    def take_snapshots(self) -> None:
        """Snapshot every mounted local volume into the collector (§3.1)."""
        for volume in self.io.volumes:
            if volume.is_remote:
                continue
            self.collector.receive_snapshot(volume.label, self.clock.now,
                                            take_snapshot(volume))

    def finish_tracing(self, drain_ticks: int = 0) -> TraceCollector:
        """Run out pending timers, flush trace buffers, return the collector."""
        if drain_ticks:
            self.run_until(self.clock.now + drain_ticks)
        for filt in self.trace_filters:
            filt.flush()
        if self.flight is not None:
            self.flight.finish()
        return self.collector
