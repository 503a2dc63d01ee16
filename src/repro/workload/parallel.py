"""The machine driver: every fleet run goes through :func:`drive`.

``run_study``, ``repro run``, ``repro study`` and replay all run machines
the same way.  The driver runs one task per machine and hands each
finished machine to a *sink*, in machine-index order, as soon as that
machine and every lower index are done.  Three sinks cover every caller:

* **keep** (:class:`KeepSink`) holds every machine whole: ``run_study``
  builds its ``StudyResult`` from them, ``replay_archive`` its
  ``ReplayResult``;
* **fold** (:class:`~repro.workload.campaign.FoldSink`) folds each
  machine into a part sketch and merges it (``repro study``);
* **archive** (:class:`ArchiveSink`) writes each machine's ``.nttrace``
  and keeps only its perf snapshot, metrics section and counts
  (``repro run``).

A sink has two halves.  ``reduce(artifact)`` runs in the process that
simulated the machine; ``take(part)`` runs in the caller's process.  The
driver has two shapes:

* **serial** (``workers=None``) runs each task in-process and hands the
  reduced part straight over.  Nothing is packed or pickled, and each
  machine is dropped before the next one builds.
* **worker** fans the tasks out over a spawn-context
  ``ProcessPoolExecutor``.  A worker runs the task and ``reduce``; only
  the part crosses the process boundary: a kept collector as its packed
  ``.nttrace`` payload (``TraceCollector`` pickles that way), a part
  sketch, or an archived machine's counts.  The parent takes parts in
  index order while later machines are still simulating.

Both shapes give byte-identical output.  A machine's seed derives from
the study seed and its index alone (``seed * 10_007 + index``, inside
:func:`~repro.workload.study.simulate_machine`), so it does not matter
which process simulates it, and the hand-off order is the index order,
never the completion order.

Telemetry: workers forward their progress events over a manager queue; a
drain thread in the parent re-emits them through the caller's
:class:`~repro.workload.study.StudyTelemetry`, whose lock keeps lines
whole.  Worker events may interleave *between* lines, never mid-line, and
all of them are re-emitted before ``drive`` returns, so the caller's
final event (``study-done``, ``replay-done``, ``campaign-done``) is last.

A worker failure of any kind — an exception inside the simulation, a
part that cannot be pickled, or the worker process dying outright
(``BrokenProcessPool``) — surfaces as a :class:`StudyError` naming the
machine, never a bare pool traceback.  Parts taken before the failure
stay taken, and archive files already written stay on disk.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import partial
from multiprocessing import get_context
from pathlib import Path
from queue import Empty
from threading import Event, Thread
from typing import Optional

from repro.nt.flight.log import MetricsSection
from repro.nt.tracing.store import save_collector
from repro.workload.study import (
    MachineArtifact,
    StudyConfig,
    StudyError,
    StudyTelemetry,
    _assign_categories,
    machine_name_for,
    simulate_machine,
)

_MP_CONTEXT = "spawn"


@dataclass(frozen=True)
class MachineTask:
    """Pickling-friendly description of one machine's simulation.

    ``fault`` is test-only fault injection for the error-path tests:
    ``"raise"`` raises inside the worker, ``"crash"`` kills the worker
    process outright, ``"unpicklable-result"`` poisons the machine's perf
    snapshot so no sink's part can be sent back.
    """

    index: int
    n_total: int
    category_name: str
    config: StudyConfig
    fault: Optional[str] = None

    @property
    def machine_name(self) -> str:
        return machine_name_for(self.index, self.category_name)

    def run(self, telemetry: Optional[StudyTelemetry] = None
            ) -> MachineArtifact:
        """Simulate this machine."""
        if self.fault == "crash":
            os._exit(13)
        if self.fault == "raise":
            raise RuntimeError(
                f"injected fault in worker for {self.machine_name}")
        artifact = simulate_machine(self.config, self.index,
                                    self.category_name, self.n_total,
                                    telemetry)
        if self.fault == "unpicklable-result":
            artifact.perf["poison"] = lambda: None
        return artifact


def machine_tasks(config: StudyConfig) -> list[MachineTask]:
    """The study's fan-out plan: one task per machine, in index order."""
    categories = _assign_categories(config)
    return [MachineTask(index=index, n_total=len(categories),
                        category_name=category_name, config=config)
            for index, category_name in enumerate(categories)]


def resolve_workers(workers: Optional[int], n_machines: int) -> int:
    """Worker-process count for a fleet (0 or None = one per CPU core)."""
    if not workers:
        workers = os.cpu_count() or 1
    return max(1, min(workers, max(1, n_machines)))


class KeepSink:
    """The keep sink, and the two halves every sink has.

    ``reduce(artifact)`` runs where the machine was simulated.  The worker
    shape pickles it by reference, so it is a static method or a
    ``functools.partial`` of a module function, and its return value must
    pickle.  ``take(part)`` runs in the caller's process, once per
    machine, in index order.

    Keep passes each artifact through whole and holds every one in
    ``parts``.
    """

    def __init__(self) -> None:
        self.parts: list = []

    @staticmethod
    def reduce(artifact):
        return artifact

    def take(self, part) -> None:
        self.parts.append(part)


@dataclass
class ArchivedMachine:
    """What the archive sink keeps of one machine."""

    name: str
    records: int
    spans: int
    # Bytes of the written .nttrace file (0 when nothing was written).
    nbytes: int
    perf: dict
    metrics: Optional[MetricsSection] = None


def _archive_machine(directory: Optional[Path], artifact) -> ArchivedMachine:
    collector = artifact.collector
    nbytes = 0
    if directory is not None:
        nbytes = save_collector(
            collector, directory / f"{collector.machine_name}.nttrace")
    return ArchivedMachine(name=artifact.name, records=len(collector),
                           spans=collector.n_spans, nbytes=nbytes,
                           perf=artifact.perf, metrics=artifact.metrics)


class ArchiveSink(KeepSink):
    """The archive sink: each machine's ``.nttrace`` is written into
    ``directory`` by the process that simulated it, and ``parts`` holds
    one :class:`ArchivedMachine` per machine.  With ``directory`` None
    nothing is written, and a run still holds one trace at a time."""

    def __init__(self, directory: Optional[Path]) -> None:
        super().__init__()
        if directory is not None:
            directory.mkdir(parents=True, exist_ok=True)
        self.reduce = partial(_archive_machine, directory)


class _QueueTelemetry(StudyTelemetry):
    """Worker-side telemetry that forwards every event to the parent."""

    def __init__(self, queue) -> None:
        super().__init__(verbose=False)
        self._queue = queue

    def emit(self, event: str, **fields) -> None:
        super().emit(event, **fields)
        self._queue.put({"event": event, **fields})


def _work(task, reduce, events_queue=None):
    """Worker entry point: run one task and reduce it for the parent."""
    telemetry = (_QueueTelemetry(events_queue)
                 if events_queue is not None else None)
    return reduce(task.run(telemetry))


def _drain_events(queue, telemetry: StudyTelemetry, stop: Event) -> None:
    """Forward worker events to the parent telemetry until stopped."""
    while True:
        try:
            record = queue.get(timeout=0.05)
        except Empty:
            if stop.is_set():
                return
            continue
        telemetry.emit_record(record)


def drive(tasks, sink, workers: Optional[int] = None,
          telemetry: Optional[StudyTelemetry] = None) -> None:
    """Run every task's machine and hand it to ``sink`` in index order.

    ``tasks`` are in index order; each has ``run(telemetry)``, which
    returns the machine's artifact, and ``machine_name``.  ``workers``
    None is the serial shape; an int is the worker shape with that many
    processes (0 = one per CPU core, capped at the fleet size).
    """
    if workers is None:
        for task in tasks:
            sink.take(sink.reduce(task.run(telemetry)))
        return
    ctx = get_context(_MP_CONTEXT)
    manager = events_queue = drainer = None
    stop = Event()
    if telemetry is not None:
        manager = ctx.Manager()
        events_queue = manager.Queue()
        drainer = Thread(target=_drain_events,
                         args=(events_queue, telemetry, stop), daemon=True)
        drainer.start()
    try:
        with ProcessPoolExecutor(
                max_workers=resolve_workers(workers, len(tasks)),
                mp_context=ctx) as pool:
            futures = [(task, pool.submit(_work, task, sink.reduce,
                                          events_queue))
                       for task in tasks]
            for task, future in futures:
                try:
                    part = future.result()
                except Exception as exc:
                    kind = ("worker process died"
                            if isinstance(exc, BrokenProcessPool)
                            else type(exc).__name__)
                    raise StudyError(
                        f"parallel worker for machine {task.machine_name} "
                        f"failed ({kind}): {exc}") from exc
                sink.take(part)
    finally:
        if telemetry is not None:
            stop.set()
            drainer.join(timeout=10.0)
            manager.shutdown()
