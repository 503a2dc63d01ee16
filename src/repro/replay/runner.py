"""Replay orchestration: whole archived studies through the machine driver.

Each archived machine replays independently — its seed derives from the
replay seed and its index alone — so :func:`replay_archive` hands one
:class:`ReplayTask` per archive file to the same driver the study uses
(:func:`repro.workload.parallel.drive`) with the keep sink.  The serial
shape replays in-process, from the caller's decoded sources when it
passes them; the worker shape re-reads each file in a worker and ships
the replayed machine back, its collector as packed ``.nttrace`` bytes.
Both shapes produce byte-identical second-generation archives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from repro.nt.io.initiator import ReplayOutcome
from repro.nt.tracing.collector import TraceCollector
from repro.nt.tracing.store import load_collector, study_paths
from repro.replay.engine import ReplayConfig, ReplayedMachine, replay_collector
from repro.workload.parallel import KeepSink, drive
from repro.workload.study import StudyTelemetry


@dataclass(frozen=True)
class ReplayTask:
    """Pickling-friendly description of one machine's replay.

    ``source`` is the archive already decoded, when the caller holds it;
    a serial run replays it in place (replay only reads it).  A task
    pickles as ``(index, path, config)`` alone, so workers re-read the
    archive file themselves (the path is cheap to pickle; the trace is
    not) and the parent never ships trace data to the pool.
    """

    index: int
    path: str
    config: ReplayConfig
    source: Optional[TraceCollector] = field(default=None, compare=False,
                                             repr=False)

    def __reduce__(self):
        return ReplayTask, (self.index, self.path, self.config)

    @property
    def machine_name(self) -> str:
        return Path(self.path).stem

    def run(self, telemetry: Optional[StudyTelemetry] = None
            ) -> ReplayedMachine:
        """Replay this archive file."""
        source = self.source
        if source is None:
            source = load_collector(Path(self.path))
        replayed = replay_collector(source, self.index, self.config)
        if telemetry is not None:
            telemetry.emit(
                "replay-machine-done", machine=replayed.name,
                index=self.index,
                records=replayed.outcome.source_records,
                skipped=replayed.outcome.skipped_records,
                divergences=replayed.outcome.total_divergences)
        return replayed


class ReplayResult:
    """A replayed study: per-machine second-generation traces + accounts."""

    def __init__(self, machines: list[ReplayedMachine], mode: str) -> None:
        self.machines = machines
        self.mode = mode

    @property
    def collectors(self) -> list:
        return [m.collector for m in self.machines]

    @property
    def outcomes(self) -> list[ReplayOutcome]:
        return [m.outcome for m in self.machines]

    @property
    def perf_by_machine(self) -> dict[str, dict]:
        return {m.name: m.perf for m in self.machines}

    @property
    def metrics_sections(self) -> list:
        """Flight-recorder sections in machine order (absent ones skipped)."""
        return [m.metrics for m in self.machines if m.metrics is not None]

    @property
    def total_replayed(self) -> int:
        return sum(m.outcome.replayed_records for m in self.machines)

    @property
    def total_skipped(self) -> int:
        return sum(m.outcome.skipped_records for m in self.machines)

    @property
    def total_divergences(self) -> int:
        return sum(m.outcome.total_divergences for m in self.machines)


def replay_archive(directory: Path | str,
                   config: ReplayConfig = ReplayConfig(),
                   telemetry: Optional[StudyTelemetry] = None,
                   sources: Optional[Sequence[TraceCollector]] = None
                   ) -> ReplayResult:
    """Replay every ``.nttrace`` archive under ``directory``.

    ``config.workers`` selects the execution shape: ``None`` replays
    machines serially in-process; an int fans out over that many worker
    processes (0 = one per CPU core).  Both shapes produce identical
    results for the same config.  ``sources`` are the archive's files
    already decoded, in :func:`study_paths` order; the serial shape
    replays them instead of reading each file again.
    """
    paths = study_paths(Path(directory))
    if sources is None:
        sources = [None] * len(paths)
    tasks = [ReplayTask(index=i, path=str(path), config=config,
                        source=source)
             for i, (path, source) in enumerate(zip(paths, sources))]
    if telemetry is not None:
        telemetry.emit("replay-start", mode=config.mode,
                       n_machines=len(tasks))
    keep = KeepSink()
    drive(tasks, keep, config.workers, telemetry)
    result = ReplayResult(keep.parts, config.mode)
    if telemetry is not None:
        telemetry.emit("replay-done", mode=config.mode,
                       n_machines=len(result.machines),
                       replayed=result.total_replayed,
                       skipped=result.total_skipped,
                       divergences=result.total_divergences)
    return result
