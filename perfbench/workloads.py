"""The three benchmark workloads: campaign, whatif and report.

Each workload has two halves.  ``prepare(seed, directory)`` makes the
workload's input from the seed with the code under test; it is timed as
set-up.  ``run(inputs)`` performs one *unit* of the user-facing command
on that input and returns a :class:`Unit`: the output digest the
correctness gate compares, the records the unit moved, its latency
samples, and anything that went wrong.

* ``campaign`` — ``repro study`` at the shape of the committed
  ``BENCH_study.json`` (100 machines x 8 simulated s, content scale
  0.05): simulate, fold into the streaming sketch, discard, per machine.
  One unit is one whole campaign; its digest is the sketch sha256.
  Latency samples are machines, stamped from the
  ``CampaignConsole.machine_folded`` callback the campaign already makes.
* ``whatif`` — ``repro whatif`` in closed loop over a seeded
  ``repro run`` archive (6 machines x 120 s, the ``run`` defaults), on a
  grid that crosses both storage personalities with a 4 MB cache (which
  evicts) and a 64 MB one (which holds the working set).  One unit is
  the whole sweep; its digest is the report's deterministic block.
  Latency samples are replayed machines, stamped from the replay
  telemetry events.
* ``report`` — ``repro report ARCHIVE`` on the same archive.  One unit is
  one invocation; its digest is the printed tables, and the invocation
  is its latency sample.

A latency sample is (records, wall seconds): the runner reports its cost
per record, because the seed moves a machine's or an archive's size far
more than it moves the cost of each record.
"""

from __future__ import annotations

import hashlib
import io
import json
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from repro import cli
from repro.nt.perf import merge_snapshots
from repro.nt.tracing.store import read_store_header, study_paths
from repro.replay import ReplayConfig
from repro.replay import whatif as whatif_module
from repro.replay.whatif import parse_grid, whatif_sweep
from repro.workload.campaign import CampaignConsole, run_campaign
from repro.workload.study import StudyConfig, StudyTelemetry

# Input shapes.  Tests shrink them; the digests in digests.json are keyed
# by shape, so a shrunk run never compares against the full-size digest.
CAMPAIGN_SHAPE = {"machines": 100, "seconds": 8.0, "scale": 0.05}
ARCHIVE_SHAPE = {"machines": 6, "seconds": 120.0, "scale": 0.12}
WHATIF_GRID = "devices=hdd_ide,ssd×cache_mb=4,64"


@dataclass
class Unit:
    """What one unit of a workload produced."""

    digest: str
    records: int
    attempted: int
    failed: int
    # (records, wall seconds) per latency sample; None means the unit as
    # a whole is the one sample.
    samples: Optional[list[tuple[int, float]]] = None
    problems: list[str] = field(default_factory=list)
    # Per-machine perf snapshots of the simulation the unit ran.
    perf: list[dict] = field(default_factory=list)


def _sha256_json(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------- #
# campaign

class _MachineClock(CampaignConsole):
    """A quiet campaign console that stamps each machine's wall time."""

    def __init__(self, n_machines: int) -> None:
        super().__init__(n_machines, quiet=True)
        self.samples: list[tuple[int, float]] = []
        self._last = time.perf_counter()

    def machine_folded(self, index: int, name: str, records: int,
                       queue_peak: int, dirty_peak: int) -> None:
        now = time.perf_counter()
        self.samples.append((records, now - self._last))
        self._last = now
        super().machine_folded(index, name, records, queue_peak, dirty_peak)


def campaign_prepare(seed: int, directory: Path) -> StudyConfig:
    shape = CAMPAIGN_SHAPE
    return StudyConfig(n_machines=shape["machines"],
                       duration_seconds=shape["seconds"],
                       seed=seed, content_scale=shape["scale"])


def campaign_run(config: StudyConfig) -> Unit:
    console = _MachineClock(config.n_machines)
    result = run_campaign(config, console)
    return Unit(digest=result.sketch.sha256(),
                records=result.total_records,
                attempted=len(result.machine_rows), failed=0,
                samples=console.samples,
                perf=list(result.perf.values()))


# ---------------------------------------------------------------------- #
# The seeded archive behind whatif and report

@dataclass
class Archive:
    directory: Path
    seed: int
    records: int
    files: int


def archive_prepare(seed: int, directory: Path) -> Archive:
    """``repro run`` at ``ARCHIVE_SHAPE`` with ``--seed seed``."""
    shape = ARCHIVE_SHAPE
    out = directory / "archive"
    argv = ["run", "--machines", str(shape["machines"]),
            "--seconds", str(shape["seconds"]), "--scale", str(shape["scale"]),
            "--seed", str(seed), "--out", str(out)]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        status = cli.main(argv)
    if status != 0:
        raise RuntimeError(f"repro {' '.join(argv)} exited {status}")
    paths = study_paths(out)
    records = sum(read_store_header(path)[2] for path in paths)
    return Archive(directory=out, seed=seed, records=records,
                   files=len(paths))


def archive_bytes(archive: Archive) -> list[bytes]:
    """The archive's files, for checking that set-up is deterministic."""
    return [path.read_bytes() for path in study_paths(archive.directory)]


# ---------------------------------------------------------------------- #
# whatif

class _ReplayClock(StudyTelemetry):
    """Silent replay telemetry that stamps each replayed machine."""

    def __init__(self) -> None:
        super().__init__(verbose=False)
        self.samples: list[tuple[int, float]] = []
        self.skipped = 0
        self._last = time.perf_counter()

    def emit(self, event: str, **fields) -> None:
        now = time.perf_counter()
        if event == "replay-machine-done":
            self.samples.append((fields["records"], now - self._last))
            self.skipped += fields["skipped"]
        self._last = now
        super().emit(event, **fields)


@contextmanager
def capture_replay_perf(sink: list):
    """Keep the per-machine perf snapshots of every replay a sweep runs.

    ``whatif_sweep`` reduces each cell's ``ReplayResult`` to its report
    and drops the perf registry; the traced run takes the simulated
    per-layer counts from it, so it routes the sweep's ``replay_archive``
    calls through this pass-through for the duration.
    """
    original = whatif_module.replay_archive

    def keep(*args, **kwargs):
        result = original(*args, **kwargs)
        sink.extend(result.perf_by_machine.values())
        return result

    whatif_module.replay_archive = keep
    try:
        yield sink
    finally:
        whatif_module.replay_archive = original


def whatif_run(archive: Archive) -> Unit:
    telemetry = _ReplayClock()
    config = ReplayConfig(mode="closed", seed=archive.seed)
    report = whatif_sweep(archive.directory, parse_grid(WHATIF_GRID), config,
                          telemetry=telemetry)
    report.format()  # what `repro whatif` prints
    replayed = sum(cell["replayed_records"] for cell in report.cells)
    problems = []
    if not report.all_core_match:
        problems.append("closed-loop core counts diverged in cells "
                        + ", ".join(cell["label"] for cell in report.cells
                                    if not cell["core_match"]))
    if telemetry.skipped:
        problems.append(f"{telemetry.skipped} archived records were "
                        f"skipped at replay")
    return Unit(digest=_sha256_json(report.deterministic_block()),
                records=replayed,
                attempted=archive.records * len(report.cells),
                failed=telemetry.skipped,
                samples=telemetry.samples,
                problems=problems)


# ---------------------------------------------------------------------- #
# report

def report_run(archive: Archive) -> Unit:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        status = cli.main(["report", str(archive.directory)])
    text = out.getvalue()
    problems = [] if status == 0 else [f"repro report exited {status}"]
    return Unit(digest=hashlib.sha256(text.encode("utf-8")).hexdigest(),
                records=archive.records, attempted=archive.files,
                failed=0, problems=problems)


# ---------------------------------------------------------------------- #

def _campaign_shape() -> dict:
    return dict(CAMPAIGN_SHAPE)


def _archive_shape() -> dict:
    return dict(ARCHIVE_SHAPE)


def _whatif_shape() -> dict:
    return {**ARCHIVE_SHAPE, "grid": WHATIF_GRID}


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable
    run: Callable
    # The input shape, part of the key the stored digests are filed under.
    shape: Callable[[], dict]


WORKLOADS = {
    "campaign": Workload("campaign", campaign_prepare, campaign_run,
                         _campaign_shape),
    "whatif": Workload("whatif", archive_prepare, whatif_run, _whatif_shape),
    "report": Workload("report", archive_prepare, report_run, _archive_shape),
}


def simulated_counts(unit: Unit) -> dict[str, float]:
    """The per-layer counts of a unit's simulation, from its perf.

    They repeat exactly for a given seed, so a count that moves names the
    layer whose work changed.  Ratios with nothing to divide are 0.  A
    unit that simulates nothing (report) counts the records it analysed.
    """
    counters = (merge_snapshots(unit.perf).get("counters", {})
                if unit.perf else {})

    def get(name: str) -> int:
        return counters.get(name, 0)

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    def storage(suffix: str) -> int:
        return sum(value for name, value in counters.items()
                   if name.startswith("storage.") and name.endswith(suffix))

    hits, misses = get("cc.copy_read.hits"), get("cc.copy_read.misses")
    shadow_hits = get("cc.whatif.read_hits")
    shadow_misses = get("cc.whatif.read_misses")
    return {
        "io.fastio_declined": get("io.fastio.declined"),
        "cc.hit_ratio": ratio(hits, hits + misses),
        "cc.readahead_useful_ratio": ratio(get("cc.readahead.pages_consumed"),
                                           get("cc.readahead.pages")),
        "cc.pages_evicted": get("cc.pages_evicted"),
        "cc.shadow_hit_ratio": ratio(shadow_hits, shadow_hits + shadow_misses),
        "cc.shadow_pages_evicted": get("cc.whatif.pages_evicted"),
        "lw.pages_written": get("lw.pages_written"),
        "mm.paging_irps": get("mm.paging_irps"),
        "rdr.wire_requests": get("rdr.wire.requests"),
        "storage.requests": storage(".requests"),
        "storage.busy_ticks": storage(".busy_ticks"),
        "storage.wait_ticks": storage(".wait_ticks"),
        "trace.records": (get("trace.records") if unit.perf
                          else unit.records),
        "replay.divergences": (get("replay.status_divergences")
                               + get("replay.returned_divergences")),
        "replay.skipped": get("replay.records_skipped"),
    }
