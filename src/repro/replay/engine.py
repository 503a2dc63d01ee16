"""The replay engine: re-drive an archived machine through a fresh one.

One :func:`replay_collector` call is the unit of work: it rebuilds the
machine the archive describes — volumes reconstructed from the archive's
snapshot records, remote shares re-mounted from the name records, the
process table re-registered — and feeds every archived trace record back
through the IRP/FastIO dispatch paths via the
:class:`~repro.nt.io.initiator.ReplayInitiator`.  Records are read as
rows of the source's staged blocks, never materialised, so the source
collector is left untouched and one decoded archive can drive any number
of replays.  The replay machine runs with its trace filter attached, so
the run produces a *second-generation* trace the fidelity analysis
(:mod:`repro.analysis.fidelity`) diffs against the source.

Two modes:

* **closed-loop** (default): records are injected in their archived
  buffer order — which respects per-file-object dependency order, since
  the source filter appended each record at completion — as fast as the
  simulator services them.  The simulated clock advances only by the
  replayed operations' own service times.
* **open-loop**: before each record the engine advances the simulated
  clock to the archived ``t_start``, firing any timers due in between, so
  the replay preserves the source run's pacing and idle gaps.

The replay machine is quiesced so injected records are its *only* record
sources: the lazy writer never starts, directory-change notifications are
not delivered autonomously (the archived deliveries are injected), the
FastIO decline lottery is disabled, and the cache manager runs in
``assume_resident`` mode so no fault-in/read-ahead/flush paging IRPs are
regenerated (the archived paging records are injected verbatim instead).
Under those rules every archived record maps onto exactly one
second-generation record, which is what lets closed-loop replay match the
source's per-kind operation counts exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.common.clock import ticks_from_seconds
from repro.nt.flight.log import MetricsSection
from repro.nt.fs.nodes import DirectoryNode
from repro.nt.fs.path import split_path
from repro.nt.fs.volume import Volume
from repro.nt.io.initiator import ReplayInitiator, ReplayOutcome
from repro.nt.system import Machine, MachineConfig
from repro.nt.tracing.collector import TraceCollector
from repro.nt.tracing.fastbuf import RECORD_FIELDS
from repro.nt.tracing.records import RECORD_COLUMNS

# Replay volumes get ample capacity: the source volume's exact fullness is
# unknowable from the archive (snapshots record sizes, not allocation), and
# a spurious DISK_FULL would diverge every subsequent write.
_REPLAY_VOLUME_CAPACITY = 64 * 1024**3

_MODES = ("open", "closed")

_T_START = RECORD_COLUMNS.index("t_start")


@dataclass(frozen=True)
class ReplayConfig:
    """Parameters of one replay run (picklable; crosses worker processes)."""

    mode: str = "closed"
    seed: int = 0
    # Post-injection drain so the scheduled cache-manager releases land
    # before the trace buffers flush.
    drain_seconds: float = 2.0
    # Parallel fan-out: None replays machines serially in-process; an int
    # fans out over that many worker processes (0 = one per CPU core).
    workers: Optional[int] = None
    # Flight-recorder sampling interval (0 = off).  Closed-loop replay
    # advances the clock only by service time, so samples bunch up at the
    # drain; open-loop replay preserves pacing and yields a real series.
    metrics_interval_seconds: float = 0.0
    # Storage personality name (repro.nt.storage.devices.PERSONALITIES)
    # mounted below every rebuilt local volume.  None keeps the legacy
    # inline media pricing, byte-identical to pre-storage replays.
    storage: Optional[str] = None
    # Queue policy for the replay storage devices.
    storage_queue: str = "fifo"
    # Cache size override in MB for the rebuilt machines.  Replay runs
    # assume_resident (regenerated paging I/O would break the exact
    # core-count match), so the size is observed through the what-if
    # shadow cache (cc.whatif.* counters), not through real evictions.
    cache_mb: Optional[float] = None
    # Causal spans in the replay machines — the whatif critical-path
    # decomposition needs them.  Off by default: span tracing adds span
    # records to the second-generation collector.
    spans_enabled: bool = False

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(
                f"replay mode must be one of {_MODES}, got {self.mode!r}")
        if self.cache_mb is not None and self.cache_mb <= 0:
            raise ValueError("cache_mb must be positive")


@dataclass
class ReplayedMachine:
    """One machine's replay output: the second-generation trace + accounts."""

    index: int
    name: str
    category: str
    collector: TraceCollector
    outcome: ReplayOutcome
    perf: dict = field(default_factory=dict)
    metrics: Optional[MetricsSection] = None


def _category_of(machine_name: str) -> str:
    """Invert workload.study.machine_name_for ('m03-personal')."""
    _head, sep, tail = machine_name.partition("-")
    return tail if sep else "unknown"


def _volume_labels(source: TraceCollector) -> tuple[list[str], list[str]]:
    """(local labels, remote labels) of the source machine, in first-seen
    order — snapshots name the local volumes, name records fill in the
    remote shares (which the snapshot walker never visits)."""
    local: list[str] = []
    for label, _when, _records in source.snapshots:
        if label not in local:
            local.append(label)
    remote: list[str] = []
    for name in source.name_records:
        if name.volume_is_remote:
            if name.volume_label not in remote:
                remote.append(name.volume_label)
        elif name.volume_label not in local:
            local.append(name.volume_label)
    return local, remote


def _first_snapshots(source: TraceCollector) -> dict[str, list]:
    """Each volume's *first* snapshot — the tree as tracing began."""
    first: dict[str, list] = {}
    for label, _when, records in source.snapshots:
        first.setdefault(label, records)
    return first


def _rebuild_tree(volume: Volume, records) -> None:
    """Materialise a snapshot walk back into a live namespace.

    Snapshot order guarantees directories precede their contents, so the
    parent chain always exists; the defensive lookup covers archives with
    hand-edited or truncated snapshot sections.
    """
    for snap in records:
        parts = split_path(snap.path)
        if not parts:
            continue
        parent = volume.root
        for component in parts[:-1]:
            child = parent.lookup(component)
            if child is None:
                child = volume.create_directory(parent, component, 0, 0)
            if not isinstance(child, DirectoryNode):
                break
            parent = child
        else:
            leaf = parts[-1]
            if parent.lookup(leaf) is not None:
                continue
            if snap.is_directory:
                node = volume.create_directory(parent, leaf, 0, 0)
            else:
                node = volume.create_file(parent, leaf, 0, 0)
                if snap.size > 0:
                    volume.set_file_size(node, snap.size, 0)
                    node.valid_data_length = snap.size
            node.creation_time = snap.creation_time
            node.last_write_time = snap.last_write_time
            node.last_access_time = snap.last_access_time


def build_replay_machine(source: TraceCollector, index: int,
                         config: ReplayConfig) -> Machine:
    """A quiesced machine with the source's volumes and processes rebuilt."""
    cache_bytes = (int(config.cache_mb * 1024 * 1024)
                   if config.cache_mb is not None else None)
    machine_config = MachineConfig(
        name=source.machine_name,
        category=_category_of(source.machine_name),
        seed=config.seed * 10_007 + index,
        fastio_decline_probability=0.0,
        lazy_writer_enabled=False,
        metrics_interval_seconds=config.metrics_interval_seconds,
        storage=config.storage,
        storage_queue=config.storage_queue,
        cache_bytes=cache_bytes,
        spans_enabled=config.spans_enabled,
    )
    machine = Machine(machine_config)
    machine.deliver_change_notifications = False
    machine.cc.assume_resident = True
    if config.cache_mb is not None:
        # Grid cells observe their cache size through the shadow cache.
        machine.cc.install_overlay()
    local_labels, remote_labels = _volume_labels(source)
    snapshots = _first_snapshots(source)
    for slot, label in enumerate(local_labels):
        volume = Volume(label=label, fs_type=Volume.NTFS,
                        capacity_bytes=_REPLAY_VOLUME_CAPACITY,
                        disk=machine_config.disk)
        _rebuild_tree(volume, snapshots.get(label, []))
        machine.mount(f"R{slot}", volume)
    for label in remote_labels:
        volume = Volume(label=label,
                        capacity_bytes=_REPLAY_VOLUME_CAPACITY,
                        disk=machine_config.disk)
        machine.mount_remote(rf"\\replay\{label}", volume)
    for pid, name in source.process_names.items():
        machine.collector.register_process(
            pid, name, source.process_interactive.get(pid, False))
    return machine


def replay_collector(source: TraceCollector, index: int = 0,
                     config: ReplayConfig = ReplayConfig()
                     ) -> ReplayedMachine:
    """Replay one archived machine; returns its second-generation output."""
    machine = build_replay_machine(source, index, config)
    machine.take_snapshots()
    initiator = ReplayInitiator(machine, source, mode=config.mode)
    inject = initiator.inject
    open_loop = config.mode == "open"
    for block in source.blocks:
        for base in range(0, len(block), RECORD_FIELDS):
            if open_loop and block[base + _T_START] > machine.clock.now:
                machine.run_until(block[base + _T_START])
            inject(block, base)
    machine.finish_tracing(
        drain_ticks=ticks_from_seconds(config.drain_seconds))
    machine.take_snapshots()
    outcome = initiator.outcome
    perf = machine.perf
    perf.set_gauge("replay.divergence.status",
                   sum(outcome.status_divergences.values()))
    perf.set_gauge("replay.divergence.returned",
                   sum(outcome.returned_divergences.values()))
    perf.set_gauge("replay.divergence.skipped", outcome.skipped_records)
    return ReplayedMachine(
        index=index, name=source.machine_name,
        category=_category_of(source.machine_name),
        collector=machine.collector, outcome=outcome,
        perf=perf.snapshot(),
        metrics=(machine.flight.section()
                 if machine.flight is not None else None))
