"""Study orchestration: the trace collection run.

``run_study`` builds a fleet of machines across the paper's five usage
categories (plus a network file server holding each user's home share),
drives heavy-tailed application sessions on every machine, takes start and
end snapshots, and returns the collectors — the equivalent of the paper's
4-week, 45-machine data collection, scaled down in duration.

The per-machine simulation is :func:`simulate_machine`, the unit the
machine driver (:mod:`repro.workload.parallel`) runs serially or in
worker processes: every random stream a machine consumes derives from
``config.seed`` and the machine index alone, so a machine produces
identical traces wherever it runs.  ``run_study`` drives the fleet into
the keep sink; :func:`archive_study` drives it into the archive sink,
which writes each machine's ``.nttrace`` as soon as it finishes, the way
the paper's collection servers stored each stream as it arrived.

:class:`StudyTelemetry` is the run's progress layer: structured
per-machine (and, for day-scale runs, per-simulated-day) events carrying
simulated, deterministic fields only, so a run emits the same events
serially and under workers.  Nothing here reads a host clock: the CLI
times what it reports (``repro perf``'s phases, ``repro study``'s
console), like the paper's collection servers, which measured offline
what the filter driver only buffered (§3.2).
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional, Sequence, TextIO

import numpy as np

from repro.common.clock import TICKS_PER_SECOND, ticks_from_seconds
from repro.nt.flight.log import MetricsSection
from repro.nt.fs.disk import SCSI_ULTRA2_DISK
from repro.nt.fs.volume import Volume
from repro.nt.tracing.collector import TraceCollector
from repro.stats.distributions import OnOffProcess, Pareto
from repro.workload.apps import AppContext, AppModel, ExplorerApp, ServicesApp, WinlogonApp
from repro.workload.content import build_user_share
from repro.workload.users import BuiltMachine, build_machine

# The paper's rough machine mix across the categories of §2.
DEFAULT_CATEGORY_MIX: tuple[tuple[str, float], ...] = (
    ("walkup", 0.25),
    ("pool", 0.25),
    ("personal", 0.30),
    ("administrative", 0.10),
    ("scientific", 0.10),
)


class StudyError(RuntimeError):
    """A study failed to run to completion (e.g. a parallel worker died)."""


@dataclass
class StudyConfig:
    """Parameters of one trace collection run."""

    n_machines: int = 6
    duration_seconds: float = 240.0
    seed: int = 1
    content_scale: float = 0.2
    category_mix: tuple[tuple[str, float], ...] = DEFAULT_CATEGORY_MIX
    with_network_shares: bool = True
    # Seconds of post-horizon drain so lazy closes land in the trace.
    drain_seconds: float = 6.0
    # Optional periodic snapshots between the start and end walks (the
    # paper's daily 4 a.m. schedule, scaled to the study duration).
    snapshot_interval_seconds: Optional[float] = None
    # Parallel execution: None runs machines serially in-process; an int
    # fans the machines out over that many worker processes (0 = one per
    # CPU core).  Results are byte-identical either way — workers decide
    # only *where* a machine simulates, never *what* it produces.
    workers: Optional[int] = None
    # Causal span tracing (repro.nt.tracing.spans / CLI --spans).  Off by
    # default: archives stay byte-identical to pre-span studies.
    spans_enabled: bool = False
    # Runtime Driver-Verifier mode (repro.nt.io.verifier / CLI
    # --verifier): protocol assertions on every dispatched packet.
    # Archives stay byte-identical with it on or off.
    verifier_enabled: bool = False
    # Flight recorder (repro.nt.flight / CLI --metrics): sample every
    # perf series into fixed simulated-time interval buckets for the
    # metrics.ntmetrics sidecar.  0.0 disables; archives stay
    # byte-identical with it on or off.
    metrics_interval_seconds: float = 0.0


@dataclass
class StudyResult:
    """Everything a study produced, ready for the analysis warehouse."""

    collectors: list[TraceCollector]
    machine_categories: dict[str, str]
    duration_ticks: int
    # Per-machine PerfRegistry snapshots (see repro.nt.perf).
    perf: dict[str, dict] = field(default_factory=dict)
    # Per-machine flight-recorder sections (repro.nt.flight), in machine
    # order; empty unless the study ran with metrics_interval_seconds.
    metrics: list[MetricsSection] = field(default_factory=list)

    @property
    def total_records(self) -> int:
        return sum(len(c) for c in self.collectors)

    def perf_aggregate(self) -> dict:
        """Fleet-wide perf snapshot (all machines merged)."""
        from repro.nt.perf import merge_snapshots
        return merge_snapshots(self.perf.values())


class StudyTelemetry:
    """Progress events for a study run.

    ``emit`` records one structured event and, when ``verbose``, prints it
    as a ``key=value`` line to ``stream`` (stderr by default) — the
    operational view the paper's collection servers gave their operators.

    Thread-safe: during parallel runs worker events are forwarded by the
    engine's queue-drain thread while the main thread may emit too, so
    each line is rendered and written whole under a lock — lines never
    interleave mid-line.
    """

    def __init__(self, stream: Optional[TextIO] = None,
                 verbose: bool = True) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.verbose = verbose
        self.events: list[dict] = []
        self._lock = threading.Lock()

    def emit(self, event: str, **fields) -> None:
        """Record (and optionally print) one structured progress event."""
        record = {"event": event, **fields}
        with self._lock:
            self.events.append(record)
            if self.verbose:
                rendered = " ".join(
                    f"{key}={self._render(value)}"
                    for key, value in record.items())
                self.stream.write(f"[telemetry] {rendered}\n")
                self.stream.flush()

    def emit_record(self, record: Mapping) -> None:
        """Re-emit an event dict produced elsewhere (a worker process)."""
        fields = dict(record)
        self.emit(fields.pop("event"), **fields)

    @staticmethod
    def _render(value) -> str:
        if isinstance(value, float):
            return f"{value:.3f}"
        return str(value)


def _apportion(weights: Sequence[float], total: int) -> list[int]:
    """Largest-remainder apportionment of ``total`` units over ``weights``.

    Every weight's floor share is granted first; the units lost to
    flooring go to the largest fractional remainders.  Guarantees the
    counts always sum to ``total`` and each count is within one of its
    exact share, so every category whose exact share reaches 1 is
    represented (naive rounding drops the 10% categories entirely on
    small fleets).
    """
    w = np.asarray(list(weights), dtype=float)
    w = w / w.sum()
    exact = w * total
    counts = np.floor(exact).astype(int)
    remainders = exact - counts
    short = total - int(counts.sum())
    # Tie-break equal remainders by weight, not position: the granted
    # count multiset is then invariant under permuting the categories.
    # (Weights that tie have identical exact shares, so either order
    # yields the same multiset.)
    order = np.lexsort((-w, -remainders))
    for idx in order[:short]:
        counts[idx] += 1
    return [int(c) for c in counts]


def _assign_categories(config: StudyConfig) -> list[str]:
    """Machine categories for a study, in stable category-mix order.

    Purely a function of the config, which is what lets the driver's
    serial and worker shapes agree on machine identities without sharing
    any state.
    """
    assigned: list[str] = []
    counts = _apportion([w for _n, w in config.category_mix],
                        config.n_machines)
    for (name, _w), count in zip(config.category_mix, counts):
        assigned.extend([name] * count)
    return assigned


def machine_name_for(index: int, category_name: str) -> str:
    """The stable identity of machine ``index`` in a study."""
    return f"m{index:02d}-{category_name}"


class _MachineWorkload:
    """Schedules and pumps application sessions on one machine."""

    def __init__(self, built: BuiltMachine, horizon: int,
                 rng: np.random.Generator) -> None:
        self.built = built
        self.horizon = horizon
        self.rng = rng
        self.live_apps: list[AppModel] = []

    def install(self) -> None:
        machine = self.built.machine
        # Logon at the very start of the session.
        machine.schedule(machine.clock.now + TICKS_PER_SECOND // 10,
                         lambda: self._launch(WinlogonApp))
        # The resident processes.
        machine.schedule(machine.clock.now + TICKS_PER_SECOND // 5,
                         lambda: self._launch(ServicesApp))
        machine.schedule(machine.clock.now + TICKS_PER_SECOND // 3,
                         lambda: self._launch(ExplorerApp))
        # Heavy-tailed session launches over the horizon, gated by a
        # user-level ON/OFF process: users work in bursts and walk away
        # (the §7 mechanism for self-similar traffic at coarse scales).
        category = self.built.category
        interarrival = Pareto(alpha=1.2, xm=category.session_interarrival_xm)
        horizon_seconds = self.horizon / float(ticks_from_seconds(1.0))
        user_activity = OnOffProcess(
            on_duration=Pareto(alpha=1.4,
                               xm=4 * category.session_interarrival_xm),
            off_duration=Pareto(alpha=1.4,
                                xm=2 * category.session_interarrival_xm))
        classes = [cls for cls, _w in category.app_mix]
        weights = np.array([w for _c, w in category.app_mix], dtype=float)
        weights /= weights.sum()
        for on_start, on_end in user_activity.periods(self.rng,
                                                      horizon_seconds,
                                                      start=1.0):
            t = on_start
            while True:
                t += float(interarrival.sample(self.rng))
                if t >= on_end:
                    break
                when = ticks_from_seconds(t)
                if when >= self.horizon:
                    break
                cls = classes[int(self.rng.choice(len(classes), p=weights))]
                machine.schedule(when, lambda c=cls: self._launch(c))

    def _launch(self, cls: type[AppModel]) -> None:
        built = self.built
        machine = built.machine
        process = machine.create_process(cls.name, cls.interactive)
        ctx = AppContext(
            machine=machine, process=process, catalog=built.catalog,
            rng=machine.rng, drive="C:",
            remote_prefix=built.remote_prefix,
            remote_catalog=built.remote_catalog)
        app = cls(ctx)
        app.on_start()
        self.live_apps.append(app)
        self._pump(app)

    def _pump(self, app: AppModel) -> None:
        next_wake = app.step()
        if next_wake is None:
            app.on_exit()
            if app in self.live_apps:
                self.live_apps.remove(app)
            return
        self.built.machine.schedule(next_wake, lambda: self._pump(app))

    def shutdown(self) -> None:
        """End of the run: exit live applications, then log the user off.

        Logoff migrates changed profile files back to the user's share
        ("at the end of each session the changes to the profiles are
        migrated back to the central server", §5).
        """
        for app in list(self.live_apps):
            app.on_exit()
        self.live_apps.clear()
        self._logoff_profile_upload()

    def _logoff_profile_upload(self) -> None:
        built = self.built
        if not built.remote_prefix or not built.catalog.profile_dir:
            return
        machine = built.machine
        process = machine.create_process("winlogon.exe")
        w = machine.win32
        volume = machine.drives.get("C")
        if volume is None:
            return
        profile = volume.resolve(built.catalog.profile_dir)
        if profile is None:
            return
        # Upload a sample of recently-changed profile files.
        candidates = [n for n in volume.walk()
                      if not n.is_directory
                      and built.catalog.profile_dir.lower()
                      in n.full_path().lower()]
        candidates.sort(key=lambda n: -n.last_write_time)
        w.create_directory(process,
                           built.remote_prefix
                           + f"\\{built.username}\\profile")
        for node in candidates[:int(self.rng.integers(5, 20))]:
            remote = (built.remote_prefix
                      + f"\\{built.username}\\profile"
                      + f"\\up{node.node_id}.dat")
            w.copy_file(process, "C:" + node.full_path(), remote,
                        chunk=16384)
        for handle in list(process.handles):
            w.close_handle(process, handle)
        process.alive = False


_SIM_DAY_TICKS = 86_400 * TICKS_PER_SECOND


def _install_day_marks(machine, horizon: int,
                       telemetry: StudyTelemetry) -> None:
    """Emit a per-simulated-day progress line for day-scale machines."""
    when, day = _SIM_DAY_TICKS, 1
    while when < horizon:
        def mark(day=day, machine=machine):
            telemetry.emit(
                "sim-day", machine=machine.name, day=day,
                records=sum(f.buffer.records_seen
                            for f in machine.trace_filters))
        machine.schedule(when, mark)
        when += _SIM_DAY_TICKS
        day += 1


@dataclass
class MachineArtifact:
    """One machine's complete simulation output, ready for a sink."""

    index: int
    name: str
    category: str
    collector: TraceCollector
    perf: dict
    # Flight-recorder section (None unless the study enabled --metrics).
    metrics: Optional[MetricsSection] = None


def simulate_machine(config: StudyConfig, index: int, category_name: str,
                     n_total: int,
                     telemetry: Optional[StudyTelemetry] = None
                     ) -> MachineArtifact:
    """Simulate one machine of a study — the unit the driver runs.

    Fully self-contained: the machine's seed derives from ``config.seed``
    and ``index`` alone (``seed * 10_007 + index``), so the same machine
    produces the same trace whether it runs in the driver's serial shape
    or in a worker process.
    """
    horizon = ticks_from_seconds(config.duration_seconds)
    name = machine_name_for(index, category_name)
    seed = config.seed * 10_007 + index
    built = build_machine(name, category_name, seed,
                          content_scale=config.content_scale,
                          spans_enabled=config.spans_enabled,
                          verifier_enabled=config.verifier_enabled,
                          metrics_interval_seconds=(
                              config.metrics_interval_seconds))
    machine = built.machine
    if config.with_network_shares:
        share = Volume(label=f"srv-{built.username}",
                       capacity_bytes=1024**3,
                       disk=SCSI_ULTRA2_DISK)
        built.remote_catalog = build_user_share(
            share, machine.rng, username=built.username,
            scale=config.content_scale)
        built.remote_prefix = rf"\\fileserv\{built.username}"
        machine.mount_remote(built.remote_prefix, share)
        # Home-share paths in the remote catalog are share-relative.
    machine.take_snapshots()
    if config.snapshot_interval_seconds:
        interval = ticks_from_seconds(config.snapshot_interval_seconds)
        when = interval
        while when < horizon:
            machine.schedule(when, machine.take_snapshots)
            when += interval
    workload = _MachineWorkload(built, horizon, machine.rng)
    workload.install()
    if telemetry is not None:
        _install_day_marks(machine, horizon, telemetry)
    machine.run_until(horizon)
    workload.shutdown()
    machine.finish_tracing(
        drain_ticks=ticks_from_seconds(config.drain_seconds))
    machine.take_snapshots()
    if telemetry is not None:
        telemetry.emit(
            "machine-done", machine=name, category=category_name,
            index=index, of=n_total,
            records=len(machine.collector),
            sim_seconds=config.duration_seconds)
    return MachineArtifact(
        index=index, name=name, category=category_name,
        collector=machine.collector,
        perf=machine.perf.snapshot(),
        metrics=(machine.flight.section()
                 if machine.flight is not None else None))


def run_study(config: StudyConfig,
              telemetry: Optional[StudyTelemetry] = None) -> StudyResult:
    """Run a full trace collection study and keep every machine's trace.

    The driver's keep sink: ``config.workers`` picks the serial or the
    worker shape (see :mod:`repro.workload.parallel`), and both produce
    identical results.
    """
    from repro.workload.parallel import KeepSink, drive, machine_tasks
    keep = KeepSink()
    drive(machine_tasks(config), keep, config.workers, telemetry)
    artifacts = keep.parts
    if telemetry is not None:
        telemetry.emit("study-done", machines=len(artifacts),
                       records=sum(len(a.collector) for a in artifacts))
    return StudyResult(
        collectors=[a.collector for a in artifacts],
        machine_categories={a.name: a.category for a in artifacts},
        duration_ticks=ticks_from_seconds(config.duration_seconds),
        perf={a.name: a.perf for a in artifacts},
        metrics=[a.metrics for a in artifacts if a.metrics is not None])


def archive_study(config: StudyConfig, directory: Optional[Path] = None,
                  telemetry: Optional[StudyTelemetry] = None) -> list:
    """Run a study through the driver's archive sink.

    Each machine's ``.nttrace`` lands in ``directory`` as soon as the
    machine finishes, so the run holds at most one machine's trace at a
    time (with ``directory`` None nothing is written).  Returns one
    :class:`~repro.workload.parallel.ArchivedMachine` per machine, in
    index order: counts, perf snapshot and metrics section.
    """
    from repro.workload.parallel import ArchiveSink, drive, machine_tasks
    sink = ArchiveSink(directory)
    drive(machine_tasks(config), sink, config.workers, telemetry)
    if telemetry is not None:
        telemetry.emit("study-done", machines=len(sink.parts),
                       records=sum(m.records for m in sink.parts))
    return sink.parts
