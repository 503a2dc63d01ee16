"""Paper-scale streaming campaigns: simulate, fold, discard.

``repro run`` archives every machine's trace and the analysis loads them
all back — fine at seed scale, impossible at the paper's (45 machines,
4 weeks, ~190M records).  A *campaign* instead folds each machine's
staged trace blocks (:func:`~repro.analysis.streaming.fold_collector`)
the moment it finishes simulating, keeps only the bounded-memory
:class:`~repro.analysis.streaming.StatsSketch` plus one small integer
row per machine, and discards the collector.  Peak memory is flat in
machine count, which the CI ``study-smoke`` job gates with a
``tracemalloc`` budget at 100 machines.

Determinism mirrors the study engine's: machine seeds derive from
``(config.seed, index)`` alone, sketch merges are commutative integer
operations, and the parallel path ships per-machine *sketches* (not
collectors) back from the workers and merges them in index order — so
serial and ``--workers K`` campaigns produce byte-identical ``nt-study-1``
artifacts, and the property tests merge shards in shuffled orders to the
same bytes.

:class:`CampaignConsole` is the live view: one line per machine with
records/sec, the storage queue-depth and cache dirty-page watermarks
(the ``storage.*.queue_depth_max`` / ``cc.dirty_pages_peak`` perf gauges
the flight recorder also samples), and the phase ETA.  Wall-clock only
ever reaches the console and the bench payload's non-deterministic
block — never the artifact.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from typing import Optional, TextIO

from repro.analysis.streaming import StatsSketch, fold_collector
from repro.common.clock import ticks_from_seconds
from repro.workload.study import (
    StudyConfig,
    StudyTelemetry,
    _assign_categories,
    simulate_machine,
)

ARTIFACT_FORMAT = "nt-study-1"
BENCH_FORMAT = "nt-study-bench-1"
ARTIFACT_FILENAME = "study.json"


def _watermarks(perf_snapshot: dict) -> tuple[int, int]:
    """(queue-depth peak, dirty-page peak) from one machine's perf
    snapshot — the two flight-recorder watermark gauges."""
    gauges = perf_snapshot.get("gauges", {})
    queue = 0
    for name, value in gauges.items():
        if name.startswith("storage.") and name.endswith(".queue_depth_max"):
            queue = max(queue, int(value))
    return queue, int(gauges.get("cc.dirty_pages_peak", 0))


def _fmt_eta(seconds: float) -> str:
    seconds = max(0, int(round(seconds)))
    if seconds < 60:
        return f"{seconds}s"
    minutes, secs = divmod(seconds, 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


class CampaignConsole(StudyTelemetry):
    """Live campaign progress: one line per machine as it folds.

    Subclasses :class:`StudyTelemetry` so worker events flow through the
    same queue-drain path as study runs, but renders its own compact
    lines instead of raw ``key=value`` telemetry::

        [study  12/100] m11-personal      15,023 rec   52,001 rec/s  queue^7  dirty^412  eta 38s
    """

    def __init__(self, n_machines: int,
                 stream: Optional[TextIO] = None,
                 quiet: bool = False) -> None:
        super().__init__(stream=stream if stream is not None else sys.stderr,
                         verbose=False)
        self.n_machines = n_machines
        self.quiet = quiet
        self.n_folded = 0
        self.records_folded = 0
        self._started = time.perf_counter()

    def _say(self, line: str) -> None:
        if not self.quiet:
            with self._lock:
                self.stream.write(line + "\n")
                self.stream.flush()

    def machine_folded(self, index: int, name: str, records: int,
                       queue_peak: int, dirty_peak: int) -> None:
        """One machine's trace has been folded into the sketch."""
        self.n_folded += 1
        self.records_folded += records
        elapsed = time.perf_counter() - self._started
        rate = self.records_folded / elapsed if elapsed > 0 else 0.0
        remaining = self.n_machines - self.n_folded
        eta = (elapsed / self.n_folded * remaining) if self.n_folded else 0.0
        self.emit("machine-folded", machine=name, index=index,
                  records=records, queue_depth_peak=queue_peak,
                  dirty_pages_peak=dirty_peak)
        self._say(
            f"[study {self.n_folded:3d}/{self.n_machines}] {name:<20} "
            f"{records:>10,} rec {rate:>10,.0f} rec/s  "
            f"queue^{queue_peak} dirty^{dirty_peak}  eta {_fmt_eta(eta)}")

    def campaign_done(self, sketch: StatsSketch,
                      wall_seconds: float) -> None:
        self.emit("campaign-done", machines=sketch.n_machines,
                  records=sketch.n_records,
                  wall_seconds=wall_seconds)
        rate = sketch.n_records / wall_seconds if wall_seconds else 0.0
        self._say(
            f"[study done] {sketch.n_machines} machines  "
            f"{sketch.n_records:,} records  "
            f"{sketch.n_instances:,} instances  "
            f"{rate:,.0f} rec/s  wall {_fmt_eta(wall_seconds)}")


@dataclass
class CampaignResult:
    """Everything a streaming campaign keeps: sketch + small rows."""

    sketch: StatsSketch
    config: StudyConfig
    duration_ticks: int
    # Deterministic per-machine rows, in machine index order.
    machine_rows: list[dict] = field(default_factory=list)
    # Per-machine PerfRegistry snapshots (deterministic), machine order.
    perf: dict[str, dict] = field(default_factory=dict)
    wall_seconds: float = 0.0

    @property
    def total_records(self) -> int:
        return self.sketch.n_records

    def perf_aggregate(self) -> dict:
        from repro.nt.perf import merge_snapshots
        return merge_snapshots(self.perf.values())


def _machine_row(index: int, name: str, category: str, records: int,
                 perf_snapshot: dict) -> dict:
    queue_peak, dirty_peak = _watermarks(perf_snapshot)
    return {"index": index, "name": name, "category": category,
            "records": records, "queue_depth_peak": queue_peak,
            "dirty_pages_peak": dirty_peak}


def _fold_campaign_task(task, events_queue=None) -> dict:
    """Worker entry point: simulate one machine and return its *sketch*.

    Unlike the study engine's ``_simulate_task``, the collector never
    crosses the process boundary — the worker folds it locally and ships
    the bounded-size partial sketch, so a paper-scale parallel campaign
    moves kilobytes per machine, not the whole trace.
    """
    from repro.workload.parallel import _QueueTelemetry

    telemetry = (_QueueTelemetry(events_queue)
                 if events_queue is not None else None)
    artifact = simulate_machine(task.config, task.index, task.category_name,
                                task.n_total, telemetry=telemetry)
    part = StatsSketch()
    fold_collector(part, task.index, task.category_name, artifact.collector)
    return {
        "index": task.index,
        "name": artifact.name,
        "category": task.category_name,
        "records": len(artifact.collector),
        "perf": artifact.perf,
        "sketch": part.to_dict(),
    }


def run_campaign(config: StudyConfig,
                 console: Optional[CampaignConsole] = None
                 ) -> CampaignResult:
    """Run a streaming campaign: simulate → fold → discard, per machine.

    Serial (``config.workers is None``) folds each machine's collector
    the moment its simulation finishes and drops it before the next
    machine builds.  Parallel fans the simulate+fold unit out over
    worker processes and merges the partial sketches in machine index
    order.  Both paths produce byte-identical sketches — every merge is
    commutative, so order cannot matter (the shard-permutation property
    tests hold this).
    """
    started = time.perf_counter()
    sketch = StatsSketch()
    result = CampaignResult(
        sketch=sketch, config=config,
        duration_ticks=ticks_from_seconds(config.duration_seconds))
    if config.workers is not None:
        from repro.workload.parallel import (machine_tasks, resolve_workers,
                                             run_pool)
        tasks = machine_tasks(config)
        n_workers = resolve_workers(config.workers, len(tasks))
        payloads = run_pool(_fold_campaign_task, tasks, n_workers, console,
                            describe=lambda task: task.machine_name)
        for payload in payloads:
            sketch.merge(StatsSketch.from_dict(payload["sketch"]))
            row = _machine_row(payload["index"], payload["name"],
                               payload["category"], payload["records"],
                               payload["perf"])
            result.machine_rows.append(row)
            result.perf[payload["name"]] = payload["perf"]
            if console is not None:
                console.machine_folded(row["index"], row["name"],
                                       row["records"],
                                       row["queue_depth_peak"],
                                       row["dirty_pages_peak"])
    else:
        categories = _assign_categories(config)
        for index, category_name in enumerate(categories):
            artifact = simulate_machine(config, index, category_name,
                                        len(categories), telemetry=console)
            fold_collector(sketch, index, category_name, artifact.collector)
            row = _machine_row(index, artifact.name, category_name,
                               len(artifact.collector), artifact.perf)
            result.machine_rows.append(row)
            result.perf[artifact.name] = artifact.perf
            if console is not None:
                console.machine_folded(index, artifact.name,
                                       row["records"],
                                       row["queue_depth_peak"],
                                       row["dirty_pages_peak"])
            del artifact  # the whole point: one machine resident at a time
    result.wall_seconds = time.perf_counter() - started
    if console is not None:
        console.campaign_done(sketch, result.wall_seconds)
    return result


# --------------------------------------------------------------------- #
# The nt-study-1 report artifact.

def study_artifact_doc(result: CampaignResult) -> dict:
    """The deterministic ``nt-study-1`` document: study parameters, the
    full sketch, the per-machine watermark rows and the fleet-wide perf
    aggregate.  No wall-clock fields — two campaigns with the same
    parameters produce the same bytes regardless of worker count."""
    config = result.config
    return {
        "format": ARTIFACT_FORMAT,
        "study": {
            "machines": config.n_machines,
            "seconds": config.duration_seconds,
            "seed": config.seed,
            "scale": config.content_scale,
        },
        "machines": result.machine_rows,
        "perf_aggregate": result.perf_aggregate(),
        "sketch": result.sketch.to_dict(),
    }


def study_artifact_bytes(result: CampaignResult) -> bytes:
    return (json.dumps(study_artifact_doc(result), sort_keys=True,
                       indent=1) + "\n").encode("utf-8")


def load_study_artifact(path) -> tuple[dict, StatsSketch]:
    """Read an ``nt-study-1`` artifact; returns (document, sketch).

    A foreign document or a malformed sketch raises ``ValueError`` naming
    the file.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != ARTIFACT_FORMAT:
        raise ValueError(
            f"{path} is not an {ARTIFACT_FORMAT} artifact "
            f"(format={doc.get('format')!r})")
    try:
        sketch = StatsSketch.from_dict(doc["sketch"])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return doc, sketch


def bench_payload(result: CampaignResult, workers: Optional[int],
                  peak_traced_mb: Optional[float] = None) -> dict:
    """The CI ``BENCH_study.json`` payload.

    Everything under ``deterministic`` is a pure function of the study
    parameters; ``sketch_sha256`` pins the whole aggregate — a single
    drifted bucket anywhere flips it.  Wall-clock and memory live
    outside the block; ``peak_traced_mb`` is None for an untraced
    (timed) campaign.
    """
    config = result.config
    rate = (result.total_records / result.wall_seconds
            if result.wall_seconds else float("nan"))
    return {
        "format": BENCH_FORMAT,
        "deterministic": {
            "machines": config.n_machines,
            "seconds": config.duration_seconds,
            "seed": config.seed,
            "scale": config.content_scale,
            "records": result.total_records,
            "instances": result.sketch.n_instances,
            "sketch_sha256": result.sketch.sha256(),
        },
        "workers": workers,
        "wall_seconds": result.wall_seconds,
        "records_per_second": rate,
        "peak_traced_mb": peak_traced_mb,
    }
