"""Parallel multi-machine study execution.

The paper traced 45 machines *concurrently* for four weeks; the serial
``run_study`` loop simulates that fleet one machine at a time on one
core.  This module fans the per-machine simulation out across a
``ProcessPoolExecutor`` (spawn context, so it behaves identically under
fork-unsafe embeddings) while guaranteeing the merged result is
byte-identical to the serial path:

* **Seeding** — a machine's seed derives from ``config.seed`` and its
  index alone (inside :func:`~repro.workload.study.simulate_machine`), so
  workers need no shared random state and each is independently
  deterministic.
* **Transport** — trace records are slotted frozen dataclasses that do
  not survive ``pickle``; collectors cross the process boundary in the
  trace store's packed binary format
  (:func:`repro.nt.tracing.store.pack_collector`), the same bytes the
  ``.nttrace`` archive uses, whose round-trip the test suite guards.
* **Merge** — artifacts are merged in machine *index* order
  (:func:`~repro.workload.study.merge_artifacts`), never completion
  order, so ``StudyResult`` and ``perf.json`` match the serial run byte
  for byte.  Wall-clock never enters results; worker topology only
  decides *where* a machine simulates.

Telemetry: workers forward their progress events over a manager queue; a
drain thread in the parent re-emits them through the caller's
:class:`~repro.workload.study.StudyTelemetry`, whose lock keeps lines
whole.  Worker events may interleave *between* lines (completion order is
nondeterministic) but never mid-line, and ``study-done`` is always last.

A worker failure of any kind — an exception inside the simulation, a
payload that cannot be pickled, or the worker process dying outright
(``BrokenProcessPool``) — surfaces as a :class:`StudyError` naming the
machine, never a bare pool traceback.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing import get_context
from queue import Empty
from threading import Event, Thread
from typing import Optional

from repro.common.clock import ticks_from_seconds
from repro.nt.tracing.store import pack_collector, unpack_collector
from repro.workload.study import (
    MachineArtifact,
    StudyConfig,
    StudyError,
    StudyResult,
    StudyTelemetry,
    _assign_categories,
    machine_name_for,
    merge_artifacts,
    simulate_machine,
)

_MP_CONTEXT = "spawn"


@dataclass(frozen=True)
class MachineTask:
    """Pickling-friendly description of one machine's simulation.

    ``fault`` is test-only fault injection for the error-path tests:
    ``"raise"`` raises inside the worker, ``"crash"`` kills the worker
    process outright, ``"unpicklable-result"`` poisons the result payload
    so it cannot be sent back.
    """

    index: int
    n_total: int
    category_name: str
    config: StudyConfig
    fault: Optional[str] = None

    @property
    def machine_name(self) -> str:
        return machine_name_for(self.index, self.category_name)


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


class _QueueTelemetry(StudyTelemetry):
    """Worker-side telemetry that forwards every event to the parent."""

    def __init__(self, queue) -> None:
        super().__init__(verbose=False)
        self._queue = queue

    def emit(self, event: str, **fields) -> None:
        super().emit(event, **fields)
        self._queue.put({"event": event, **fields})


def _simulate_task(task: MachineTask, events_queue=None) -> dict:
    """Worker entry point: simulate one machine, return a picklable payload."""
    if task.fault == "crash":
        os._exit(13)
    if task.fault == "raise":
        raise RuntimeError(
            f"injected fault in worker for {task.machine_name}")
    telemetry = (_QueueTelemetry(events_queue)
                 if events_queue is not None else None)
    artifact = simulate_machine(task.config, task.index, task.category_name,
                                task.n_total, telemetry=telemetry)
    payload = {
        "index": artifact.index,
        "name": artifact.name,
        "category": artifact.category,
        "collector": pack_collector(artifact.collector),
        "perf": artifact.perf,
        "metrics": artifact.metrics,
    }
    if task.fault == "unpicklable-result":
        payload["poison"] = lambda: None
    return payload


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


def run_pool(worker, tasks, n_workers: int,
             telemetry: Optional[StudyTelemetry] = None,
             describe=str) -> list:
    """Execute per-machine tasks on a spawn-context process pool.

    The generic engine under both study simulation and trace replay
    (:mod:`repro.replay.runner`): ``worker(task, events_queue)`` runs in a
    worker process and returns a picklable payload; payloads come back in
    *task* order, never completion order.  Any worker failure — an
    exception, an unpicklable payload, or the process dying outright — is
    raised as a :class:`StudyError` naming ``describe(task)`` (with a
    broken pool the earliest still-pending task is named, since the pool
    cannot attribute the death more precisely).
    """
    ctx = get_context(_MP_CONTEXT)
    manager = events_queue = drainer = None
    stop = Event()
    if telemetry is not None:
        manager = ctx.Manager()
        events_queue = manager.Queue()
        drainer = Thread(target=_drain_events,
                         args=(events_queue, telemetry, stop), daemon=True)
        drainer.start()
    payloads: list = []
    try:
        with ProcessPoolExecutor(max_workers=n_workers,
                                 mp_context=ctx) as pool:
            futures = [(task, pool.submit(worker, task, events_queue))
                       for task in tasks]
            for task, future in futures:
                try:
                    payloads.append(future.result())
                except Exception as exc:
                    kind = ("worker process died"
                            if isinstance(exc, BrokenProcessPool)
                            else type(exc).__name__)
                    raise StudyError(
                        f"parallel worker for machine {describe(task)} "
                        f"failed ({kind}): {exc}") from exc
    finally:
        if telemetry is not None:
            stop.set()
            drainer.join(timeout=10.0)
            manager.shutdown()
    return payloads


def run_tasks(tasks: list[MachineTask], n_workers: int,
              telemetry: Optional[StudyTelemetry] = None
              ) -> list[MachineArtifact]:
    """Execute machine tasks on a process pool; artifacts in index order."""
    payloads = run_pool(_simulate_task, tasks, n_workers, telemetry,
                        describe=lambda task: task.machine_name)
    return [MachineArtifact(
        index=payload["index"],
        name=payload["name"],
        category=payload["category"],
        collector=unpack_collector(payload["collector"]),
        perf=payload["perf"],
        metrics=payload["metrics"]) for payload in payloads]


def run_study_parallel(config: StudyConfig,
                       telemetry: Optional[StudyTelemetry] = None
                       ) -> StudyResult:
    """Run a study with its machines fanned out over worker processes.

    Byte-identical to the serial ``run_study`` for the same config seed;
    see the module docstring for the three guarantees that make it so.
    """
    tasks = machine_tasks(config)
    n_workers = resolve_workers(config.workers, len(tasks))
    artifacts = run_tasks(tasks, n_workers, telemetry)
    return merge_artifacts(artifacts,
                           ticks_from_seconds(config.duration_seconds),
                           telemetry)
