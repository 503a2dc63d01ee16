"""Replay orchestration: whole archived studies, serial or fanned out.

Mirrors the ``workload`` split between :mod:`repro.workload.study`
(serial) and :mod:`repro.workload.parallel` (process pool): each archived
machine replays independently — its seed derives from the replay seed and
its index alone — so the fan-out rides the same generic
:func:`repro.workload.parallel.run_pool` engine and the same packed-bytes
transport, and the serial and parallel paths produce byte-identical
second-generation archives.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.nt.io.initiator import ReplayOutcome
from repro.nt.tracing.store import (
    load_collector,
    pack_collector,
    study_paths,
    unpack_collector,
)
from repro.replay.engine import ReplayConfig, ReplayedMachine, replay_collector
from repro.workload.study import StudyTelemetry
from repro.workload.parallel import resolve_workers, run_pool


@dataclass(frozen=True)
class ReplayTask:
    """Pickling-friendly description of one machine's replay.

    Workers re-read the archive file themselves (the path is cheap to
    pickle; the collector is not), so the parent never ships trace data
    to the pool.
    """

    index: int
    path: str
    config: ReplayConfig

    @property
    def machine_name(self) -> str:
        return Path(self.path).stem


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
    def profiles(self) -> dict[str, dict]:
        """Per-machine hot-path profiler snapshots (empty when disabled)."""
        return {m.name: m.profile for m in self.machines if m.profile}

    @property
    def total_replayed(self) -> int:
        return sum(m.outcome.replayed_records for m in self.machines)

    @property
    def total_skipped(self) -> int:
        return sum(m.outcome.skipped_records for m in self.machines)

    @property
    def total_divergences(self) -> int:
        return sum(m.outcome.total_divergences for m in self.machines)


def _replay_task(task: ReplayTask, events_queue=None) -> dict:
    """Worker entry point: replay one archive file, return a payload."""
    source = load_collector(Path(task.path))
    replayed = replay_collector(source, task.index, task.config)
    if events_queue is not None:
        events_queue.put({
            "event": "replay-machine-done",
            "machine": replayed.name,
            "index": task.index,
            "records": replayed.outcome.source_records,
            "skipped": replayed.outcome.skipped_records,
            "divergences": replayed.outcome.total_divergences,
        })
    return {
        "index": replayed.index,
        "name": replayed.name,
        "category": replayed.category,
        "collector": pack_collector(replayed.collector),
        "outcome": replayed.outcome.to_dict(),
        "perf": replayed.perf,
        "metrics": replayed.metrics,
        "profile": replayed.profile,
    }


def _machine_from_payload(payload: dict) -> ReplayedMachine:
    return ReplayedMachine(
        index=payload["index"],
        name=payload["name"],
        category=payload["category"],
        collector=unpack_collector(payload["collector"]),
        outcome=ReplayOutcome.from_dict(payload["outcome"]),
        perf=payload["perf"],
        metrics=payload["metrics"],
        profile=payload["profile"])


def replay_archive(directory: Path | str,
                   config: ReplayConfig = ReplayConfig(),
                   telemetry: Optional[StudyTelemetry] = None
                   ) -> ReplayResult:
    """Replay every ``.nttrace`` archive under ``directory``.

    ``config.workers`` selects the execution shape: ``None`` replays
    machines serially in-process; an int fans out over that many worker
    processes (0 = one per CPU core).  Both shapes produce identical
    results for the same config.
    """
    paths = study_paths(Path(directory))
    tasks = [ReplayTask(index=i, path=str(path), config=config)
             for i, path in enumerate(paths)]
    if telemetry is not None:
        telemetry.emit("replay-start", mode=config.mode,
                       n_machines=len(tasks),
                       workers=config.workers if config.workers is not None
                       else "serial")
    if config.workers is None:
        machines = []
        for task in tasks:
            source = load_collector(Path(task.path))
            replayed = replay_collector(source, task.index, config)
            machines.append(replayed)
            if telemetry is not None:
                telemetry.emit(
                    "replay-machine-done", machine=replayed.name,
                    index=task.index,
                    records=replayed.outcome.source_records,
                    skipped=replayed.outcome.skipped_records,
                    divergences=replayed.outcome.total_divergences)
    else:
        n_workers = resolve_workers(config.workers, len(tasks))
        payloads = run_pool(_replay_task, tasks, n_workers, telemetry,
                            describe=lambda task: task.machine_name)
        machines = [_machine_from_payload(p) for p in payloads]
    result = ReplayResult(machines, config.mode)
    if telemetry is not None:
        telemetry.emit("replay-done", mode=config.mode,
                       n_machines=len(machines),
                       replayed=result.total_replayed,
                       skipped=result.total_skipped,
                       divergences=result.total_divergences)
    return result
