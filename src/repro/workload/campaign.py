"""Paper-scale streaming campaigns: simulate, fold, discard.

``repro run`` archives every machine's trace and the analysis loads them
all back — fine at seed scale, impossible at the paper's (45 machines,
4 weeks, ~190M records).  A *campaign* instead drives the fleet into the
fold sink (:class:`FoldSink`): each machine's staged trace blocks are
folded (:func:`~repro.analysis.streaming.fold_collector`) into a part
sketch the moment it finishes simulating, the part is merged into the
bounded-memory :class:`~repro.analysis.streaming.StatsSketch`, one small
integer row per machine is kept, and the collector is discarded.  Peak
memory is flat in machine count, which the CI ``study-smoke`` job gates
with a ``tracemalloc`` budget at 100 machines.

Determinism mirrors the study engine's: machine seeds derive from
``(config.seed, index)`` alone, sketch merges are commutative integer
operations, and in the driver's worker shape each worker folds its own
machine and ships only the part sketch, which the parent merges in index
order — so serial and ``--workers K`` campaigns produce byte-identical
``nt-study-1`` artifacts, and the property tests merge shards in shuffled
orders to the same bytes.

:class:`CampaignConsole` counts the folded machines and emits one
``machine-folded`` event per machine with its records and the storage
queue-depth and cache dirty-page watermarks (the
``storage.*.queue_depth_max`` / ``cc.dirty_pages_peak`` perf gauges the
flight recorder also samples).  Nothing here reads a host clock: the
live console that renders records/sec and an ETA is a subclass in
:mod:`repro.cli`, which also times the campaign and passes the wall
seconds to :func:`bench_payload`'s non-deterministic block — never to
the artifact.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from typing import Optional, TextIO

from repro.analysis.streaming import StatsSketch, fold_collector
from repro.common.clock import ticks_from_seconds
from repro.workload.parallel import drive, machine_tasks
from repro.workload.study import StudyConfig, StudyTelemetry

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


class CampaignConsole(StudyTelemetry):
    """Campaign progress: counts each machine as it folds and emits a
    ``machine-folded`` event.

    Subclasses :class:`StudyTelemetry` so worker events flow through the
    same queue-drain path as study runs.  It prints nothing itself:
    ``stream`` and ``quiet`` are for subclasses that render console
    lines, such as ``repro study``'s live console in :mod:`repro.cli`.
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

    def machine_folded(self, index: int, name: str, records: int,
                       queue_peak: int, dirty_peak: int) -> None:
        """One machine's trace has been folded into the sketch."""
        self.n_folded += 1
        self.records_folded += records
        self.emit("machine-folded", machine=name, index=index,
                  records=records, queue_depth_peak=queue_peak,
                  dirty_pages_peak=dirty_peak)


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


class FoldSink:
    """The driver's fold sink: each machine is folded into its own part
    sketch where it was simulated, and the parent merges the parts in
    index order, keeping one row and one perf snapshot per machine.

    ``console.machine_folded`` is called right after each merge, in the
    parent, while later machines may still be simulating.
    """

    def __init__(self, console: Optional[CampaignConsole] = None) -> None:
        self.sketch = StatsSketch()
        self.rows: list[dict] = []
        self.perf: dict[str, dict] = {}
        self.console = console

    @staticmethod
    def reduce(artifact) -> tuple[dict, dict, StatsSketch]:
        part = StatsSketch()
        fold_collector(part, artifact.index, artifact.category,
                       artifact.collector)
        row = _machine_row(artifact.index, artifact.name, artifact.category,
                           len(artifact.collector), artifact.perf)
        return row, artifact.perf, part

    def take(self, part: tuple[dict, dict, StatsSketch]) -> None:
        row, perf, sketch = part
        self.sketch.merge(sketch)
        self.rows.append(row)
        self.perf[row["name"]] = perf
        if self.console is not None:
            self.console.machine_folded(row["index"], row["name"],
                                        row["records"],
                                        row["queue_depth_peak"],
                                        row["dirty_pages_peak"])


def run_campaign(config: StudyConfig,
                 console: Optional[CampaignConsole] = None
                 ) -> CampaignResult:
    """Run a streaming campaign: simulate → fold → discard, per machine.

    The fold sink of the machine driver: ``config.workers`` picks the
    serial or the worker shape, and both produce byte-identical sketches.
    """
    sink = FoldSink(console)
    drive(machine_tasks(config), sink, config.workers, console)
    return CampaignResult(
        sketch=sink.sketch, config=config,
        duration_ticks=ticks_from_seconds(config.duration_seconds),
        machine_rows=sink.rows, perf=sink.perf)


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
                  wall_seconds: float,
                  peak_traced_mb: Optional[float] = None) -> dict:
    """The CI ``BENCH_study.json`` payload.

    Everything under ``deterministic`` is a pure function of the study
    parameters; ``sketch_sha256`` pins the whole aggregate — a single
    drifted bucket anywhere flips it.  Wall-clock (measured by the
    caller) and memory live outside the block; ``peak_traced_mb`` is
    None for an untraced (timed) campaign.
    """
    config = result.config
    rate = (result.total_records / wall_seconds
            if wall_seconds else float("nan"))
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
        "wall_seconds": wall_seconds,
        "records_per_second": rate,
        "peak_traced_mb": peak_traced_mb,
    }
