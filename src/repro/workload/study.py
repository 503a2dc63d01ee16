"""Study orchestration: the trace collection run.

``run_study`` builds a fleet of machines across the paper's five usage
categories (plus a network file server holding each user's home share),
drives heavy-tailed application sessions on every machine, takes start and
end snapshots, and returns the collectors — the equivalent of the paper's
4-week, 45-machine data collection, scaled down in duration.

The per-machine simulation is factored into :func:`simulate_machine`, the
unit of fan-out for the parallel engine (:mod:`repro.workload.parallel`):
every random stream a machine consumes derives from ``config.seed`` and
the machine index alone, so a machine produces identical traces whether it
runs inline or in a worker process.  :func:`merge_artifacts` is the
order-stable merge both paths share — results are assembled in machine
index order, never completion order, which keeps a study's output
byte-identical across worker counts.

:class:`StudyTelemetry` is the run's progress layer: structured
per-machine (and, for day-scale runs, per-simulated-day) progress lines,
plus wall-clock self-profiling of the simulate → warehouse-build →
analysis pipeline.  Wall-clock figures never enter the study's results or
``perf.json`` — those stay fully deterministic — they only feed the
progress stream and the CI ``BENCH_perf.json`` baseline.
"""

from __future__ import annotations

import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional, Sequence, TextIO

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
    # Host-side hot-path self-profiler (repro.nt.flight.profiler / CLI
    # --profile).  Wall-clock bins ride telemetry only — they never
    # enter archives or perf.json.
    profile_enabled: bool = False


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
    # Per-machine hot-path profiler bins (host wall clock — telemetry
    # only, never part of archives or perf.json).
    profiles: dict[str, dict] = field(default_factory=dict)

    @property
    def total_records(self) -> int:
        return sum(len(c) for c in self.collectors)

    def perf_aggregate(self) -> dict:
        """Fleet-wide perf snapshot (all machines merged)."""
        from repro.nt.perf import merge_snapshots
        return merge_snapshots(self.perf.values())


class StudyTelemetry:
    """Progress lines and wall-clock phase profiling for a study run.

    ``emit`` prints one structured ``key=value`` line per event to
    ``stream`` (stderr by default) when ``verbose`` — the operational view
    the paper's collection servers gave their operators.  ``phase`` times
    a pipeline stage (simulate, warehouse, analysis) in wall-clock
    seconds; phases are always recorded even when line printing is off,
    so benchmarks can self-profile silently.

    Thread-safe: during parallel runs worker events are forwarded by the
    engine's queue-drain thread while the main thread may emit too, so
    each line is rendered and written whole under a lock — lines never
    interleave mid-line.
    """

    def __init__(self, stream: Optional[TextIO] = None,
                 verbose: bool = True) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.verbose = verbose
        self.phase_seconds: dict[str, float] = {}
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

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a pipeline stage; cumulative across repeated entries."""
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            self.phase_seconds[name] = \
                self.phase_seconds.get(name, 0.0) + elapsed
            self.emit("phase-done", phase=name, wall_seconds=elapsed)

    def bench_payload(self) -> dict:
        """Wall-clock phase timings, for the CI ``BENCH_perf.json``."""
        return {"phases": {name: round(seconds, 6)
                           for name, seconds in
                           sorted(self.phase_seconds.items())}}


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


def _assign_categories(config: StudyConfig, rng=None) -> list[str]:
    """Machine categories for a study, in stable category-mix order.

    Purely a function of the config (``rng`` is accepted for backward
    compatibility and unused), which is what lets the serial and parallel
    engines agree on machine identities without sharing any state.
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
    """One machine's complete simulation output, ready to merge."""

    index: int
    name: str
    category: str
    collector: TraceCollector
    perf: dict
    # Flight-recorder section (None unless the study enabled --metrics).
    metrics: Optional[MetricsSection] = None
    # Hot-path profiler bins (empty unless the study enabled --profile).
    profile: dict = field(default_factory=dict)


def simulate_machine(config: StudyConfig, index: int, category_name: str,
                     n_total: int,
                     telemetry: Optional[StudyTelemetry] = None
                     ) -> MachineArtifact:
    """Simulate one machine of a study — the unit of parallel fan-out.

    Fully self-contained: the machine's seed derives from ``config.seed``
    and ``index`` alone (``seed * 10_007 + index``), so the same machine
    produces the same trace whether it runs inline in the serial loop or
    in a worker process of :mod:`repro.workload.parallel`.
    """
    horizon = ticks_from_seconds(config.duration_seconds)
    name = machine_name_for(index, category_name)
    seed = config.seed * 10_007 + index
    built = build_machine(name, category_name, seed,
                          content_scale=config.content_scale,
                          spans_enabled=config.spans_enabled,
                          verifier_enabled=config.verifier_enabled,
                          metrics_interval_seconds=(
                              config.metrics_interval_seconds),
                          profile_enabled=config.profile_enabled)
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
    wall_started = time.perf_counter()
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
            sim_seconds=config.duration_seconds,
            wall_seconds=time.perf_counter() - wall_started)
    return MachineArtifact(
        index=index, name=name, category=category_name,
        collector=machine.collector,
        perf=machine.perf.snapshot(),
        metrics=(machine.flight.section()
                 if machine.flight is not None else None),
        profile=(machine.profiler.snapshot()
                 if machine.profiler.enabled else {}))


def merge_artifacts(artifacts: Sequence[MachineArtifact],
                    duration_ticks: int,
                    telemetry: Optional[StudyTelemetry] = None
                    ) -> StudyResult:
    """Order-stable merge of per-machine artifacts into a study result.

    Artifacts are assembled in machine *index* order regardless of the
    order they arrive in, so a parallel run's ``StudyResult`` (and its
    ``perf.json``) is byte-identical to the serial run's.
    """
    ordered = sorted(artifacts, key=lambda a: a.index)
    collectors = [a.collector for a in ordered]
    if telemetry is not None:
        telemetry.emit("study-done", machines=len(collectors),
                       records=sum(len(c) for c in collectors))
    return StudyResult(
        collectors=collectors,
        machine_categories={a.name: a.category for a in ordered},
        duration_ticks=duration_ticks,
        perf={a.name: a.perf for a in ordered},
        metrics=[a.metrics for a in ordered if a.metrics is not None],
        profiles={a.name: a.profile for a in ordered if a.profile})


def run_study(config: StudyConfig,
              telemetry: Optional[StudyTelemetry] = None) -> StudyResult:
    """Run a full trace collection study and return its results.

    With ``config.workers`` set, the per-machine loop fans out across a
    process pool (see :mod:`repro.workload.parallel`); otherwise machines
    simulate serially in-process.  Both paths produce identical results.
    """
    if config.workers is not None:
        from repro.workload.parallel import run_study_parallel
        return run_study_parallel(config, telemetry)
    categories = _assign_categories(config)
    artifacts = [
        simulate_machine(config, index, category_name, len(categories),
                         telemetry)
        for index, category_name in enumerate(categories)]
    return merge_artifacts(artifacts,
                           ticks_from_seconds(config.duration_seconds),
                           telemetry)
