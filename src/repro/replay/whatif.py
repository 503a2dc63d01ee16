"""What-if sweeps: replay one archived study across a device×cache grid.

The replay engine turns an archive into a controlled experiment: the
injected request stream is fixed, so any latency difference between two
replays is caused by the configuration delta alone.  This module runs
that experiment as a grid — every combination of storage personality
(:data:`~repro.nt.storage.devices.PERSONALITIES`) and cache size — and
reduces each cell to the comparison the paper's figures invite:

* the fig-13/14 latency bands (count, mean, p50/p90/p99) of the four
  data-path series, from the cell's merged perf histograms;
* the span critical-path decomposition, with device time as its own
  share, showing *where* the latency moved when the device changed;
* the what-if shadow-cache hit/miss deltas across cache sizes;
* per-device queue/busy accounting from the storage driver.

Every cell also runs the closed-loop fidelity check: the replay's core
operation counts must reconcile exactly with the source archive —
a device model may move time, never operations.

Cells replay sequentially; within a cell the archive's machines run
through :func:`repro.replay.runner.replay_archive`, i.e. through the same
machine driver the study uses, serially or in worker processes.  The
sweep decodes each source file once: serial cells replay from those
decoded sources, worker tasks still read their own file, and the first
cell's fidelity report summarises each source for every later cell.
Reports carry no wall clock, so a sweep is byte-identical across reruns
and across serial vs ``--workers`` execution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

from repro.analysis.attribution import critical_path_table
from repro.analysis.fidelity import FidelityReport, fidelity_report
from repro.nt.perf import LatencyHistogram, merge_snapshots
from repro.nt.storage.devices import PERSONALITIES
from repro.nt.tracing.store import load_collector, study_paths
from repro.replay.engine import ReplayConfig
from repro.replay.runner import ReplayResult, replay_archive
from repro.workload.study import StudyTelemetry

GRID_DIMENSIONS = ("devices", "cache_mb")

# The fig-13/14 data-path series, as named in the perf registry.
_LATENCY_SERIES = (
    "io.irp.latency.read",
    "io.irp.latency.write",
    "io.fastio.latency.read",
    "io.fastio.latency.write",
)


def parse_grid(spec: str) -> dict:
    """Parse ``devices=hdd_ide,ssd×cache_mb=4,16,64`` into dimensions.

    Dimension chunks are separated by ``×`` (or ASCII ``*`` / ``;``),
    values by commas.  Device names must exist in PERSONALITIES; cache
    sizes are positive, finite megabytes.  A dimension may be omitted,
    leaving that axis at the replay default.  A bad spec raises
    ``ValueError`` before anything replays.
    """
    dims: dict = {}
    normalized = spec.replace("×", ";").replace("*", ";")
    for chunk in normalized.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, sep, values = chunk.partition("=")
        key = key.strip()
        if not sep or key not in GRID_DIMENSIONS:
            raise ValueError(
                f"bad grid dimension {chunk!r}; expected "
                f"{' / '.join(f'{d}=v1,v2' for d in GRID_DIMENSIONS)}")
        if key in dims:
            raise ValueError(f"grid dimension {key!r} given twice")
        items = [v.strip() for v in values.split(",") if v.strip()]
        if not items:
            raise ValueError(f"grid dimension {key!r} has no values")
        if key == "devices":
            for name in items:
                if name not in PERSONALITIES:
                    raise ValueError(
                        f"unknown storage personality {name!r}; expected "
                        f"one of {sorted(PERSONALITIES)}")
            dims[key] = items
        else:
            dims[key] = [_cache_mb(v) for v in items]
    if not dims:
        raise ValueError("empty grid")
    return dims


def _cache_mb(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise ValueError(
            f"bad cache_mb value {text!r}; expected a positive, finite "
            f"size in MB")
    return value


@dataclass(frozen=True)
class GridCell:
    """One configuration point of the sweep."""

    device: Optional[str]
    cache_mb: Optional[float]

    @property
    def label(self) -> str:
        parts = []
        if self.device is not None:
            parts.append(self.device)
        if self.cache_mb is not None:
            parts.append(f"cache{self.cache_mb:g}mb")
        return "+".join(parts) if parts else "baseline"


def grid_cells(dims: dict) -> list[GridCell]:
    """The cell list, devices-major in the order the spec listed values."""
    devices = dims.get("devices") or [None]
    caches = dims.get("cache_mb") or [None]
    return [GridCell(device, cache)
            for device in devices for cache in caches]


def _band(hist_dict: dict, name: str) -> dict:
    hist = LatencyHistogram.from_dict(name, hist_dict)
    if not hist.count:
        # Keep empty series JSON-clean (mean/quantile are NaN on zero
        # samples, which would poison the byte-compared report).
        return {"count": 0, "mean_micros": 0.0, "p50_micros": 0.0,
                "p90_micros": 0.0, "p99_micros": 0.0}
    return {
        "count": hist.count,
        "mean_micros": hist.mean_micros,
        "p50_micros": hist.quantile_micros(0.50),
        "p90_micros": hist.quantile_micros(0.90),
        "p99_micros": hist.quantile_micros(0.99),
    }


def _cell_report(cell: GridCell, result: ReplayResult,
                 fidelity: FidelityReport) -> dict:
    """Reduce one cell's ReplayResult and fidelity report to the cell's
    deterministic report dict."""
    merged = merge_snapshots(machine.perf for machine in result.machines)
    counters = merged.get("counters", {})
    bands = {name: _band(merged["histograms"][name], name)
             for name in _LATENCY_SERIES
             if name in merged.get("histograms", {})}
    storage: dict = {"requests": 0, "busy_ticks": 0, "wait_ticks": 0}
    for name, value in counters.items():
        for key in storage:
            if name.startswith("storage.") and name.endswith(f".{key}"):
                storage[key] += value
    hits = counters.get("cc.whatif.read_hits", 0)
    misses = counters.get("cc.whatif.read_misses", 0)
    cache = {
        "read_hits": hits,
        "read_misses": misses,
        "hit_rate": hits / (hits + misses) if hits + misses else 1.0,
        "pages_evicted": counters.get("cc.whatif.pages_evicted", 0),
    }
    return {
        "label": cell.label,
        "device": cell.device,
        "cache_mb": cell.cache_mb,
        "core_match": fidelity.all_core_match,
        "mismatched_machines": [m.name for m in fidelity.machines
                                if not m.core_match],
        "replayed_records": sum(len(m.collector) for m in result.machines),
        "latency_bands": bands,
        "critical_path": critical_path_table(result.collectors).to_dict(),
        "cache": cache,
        "storage": storage,
    }


@dataclass
class WhatifReport:
    """The sweep's comparison report (deterministic, JSON-serialisable)."""

    grid: dict
    cells: list[dict]
    n_machines: int
    mode: str

    @property
    def all_core_match(self) -> bool:
        return all(cell["core_match"] for cell in self.cells)

    def to_dict(self) -> dict:
        return {
            "format": "nt-whatif-1",
            "grid": self.grid,
            "n_machines": self.n_machines,
            "mode": self.mode,
            "all_core_match": self.all_core_match,
            "cells": self.cells,
            # The CI smoke contract: a compact block that is a pure
            # function of (archive, grid, seed), compared byte-for-byte
            # against the committed BENCH_whatif.json baseline.
            "deterministic": self.deterministic_block(),
        }

    def deterministic_block(self) -> dict:
        cells = []
        for cell in self.cells:
            reads = cell["latency_bands"].get("io.irp.latency.read", {})
            cells.append({
                "label": cell["label"],
                "core_match": cell["core_match"],
                "replayed_records": cell["replayed_records"],
                "irp_read_count": reads.get("count", 0),
                "irp_read_mean_micros": reads.get("mean_micros", 0.0),
                "device_busy_ticks": cell["storage"]["busy_ticks"],
                "device_wait_ticks": cell["storage"]["wait_ticks"],
                "cache_read_hits": cell["cache"]["read_hits"],
                "cache_read_misses": cell["cache"]["read_misses"],
            })
        return {"grid": self.grid, "cells": cells}

    def format(self) -> str:
        """Operator-facing comparison tables, one block per cell."""
        title = (f"What-if sweep: {len(self.cells)} cells × "
                 f"{self.n_machines} machines ({self.mode}-loop)")
        lines = [title, "=" * len(title)]
        for cell in self.cells:
            lines.append("")
            header = f"cell {cell['label']}"
            lines.append(header)
            lines.append("-" * len(header))
            verdict = ("exact" if cell["core_match"]
                       else "MISMATCH: " + ", ".join(
                           cell["mismatched_machines"]))
            lines.append(f"  core-count reconciliation: {verdict}   "
                         f"records: {cell['replayed_records']:,}")
            lines.append(f"  {'series':<24} {'n':>9} {'mean µs':>9} "
                         f"{'p50 µs':>9} {'p90 µs':>10} {'p99 µs':>10}")
            for name in _LATENCY_SERIES:
                band = cell["latency_bands"].get(name)
                if band is None:
                    continue
                lines.append(
                    f"  {name:<24} {band['count']:>9,} "
                    f"{band['mean_micros']:>9.1f} "
                    f"{band['p50_micros']:>9.1f} "
                    f"{band['p90_micros']:>10.1f} "
                    f"{band['p99_micros']:>10.1f}")
            lines.append(f"  {'path kind':<14} {'n':>9} {'total µs':>9} "
                         f"{'self µs':>9} {'device µs':>10} "
                         f"{'overlap µs':>11}")
            for row in cell["critical_path"]["kinds"]:
                lines.append(
                    f"  {row['kind']:<14} {row['n']:>9,} "
                    f"{row['mean_total_micros']:>9.1f} "
                    f"{row['mean_self_micros']:>9.1f} "
                    f"{row['mean_device_micros']:>10.1f} "
                    f"{row['mean_overlapped_micros']:>11.1f}")
            cache = cell["cache"]
            lines.append(
                f"  cache: hit rate {cache['hit_rate']:.1%} "
                f"({cache['read_hits']:,} hits / "
                f"{cache['read_misses']:,} misses, "
                f"{cache['pages_evicted']:,} pages evicted)")
            storage = cell["storage"]
            lines.append(
                f"  device: {storage['requests']:,} transfers, "
                f"busy {storage['busy_ticks']:,} ticks, "
                f"queued {storage['wait_ticks']:,} ticks")
        status = "exact in every cell" if self.all_core_match \
            else "MISMATCH in some cells"
        lines.append("")
        lines.append(f"  closed-loop core counts: {status}")
        return "\n".join(lines)


def whatif_sweep(directory: Path | str, grid: dict,
                 base_config: ReplayConfig = ReplayConfig(),
                 telemetry: Optional[StudyTelemetry] = None
                 ) -> WhatifReport:
    """Replay the archived study once per grid cell and compare.

    Each cell derives its ReplayConfig from ``base_config`` (mode, seed,
    workers, ...) plus the cell's device/cache override, with spans
    enabled so the critical-path decomposition sees device time.
    """
    directory = Path(directory)
    sources = [load_collector(path) for path in study_paths(directory)]
    # Each fidelity report's source summaries stand in for the sources
    # in the next cell's report.
    summaries: list = sources
    cells = grid_cells(grid)
    reports: list[dict] = []
    for cell in cells:
        if telemetry is not None:
            telemetry.emit("whatif-cell-start", cell=cell.label)
        config = replace(base_config, storage=cell.device,
                         cache_mb=cell.cache_mb, spans_enabled=True)
        result = replay_archive(directory, config, telemetry, sources)
        fidelity = fidelity_report(
            [(machine.name, summary, machine.collector,
              machine.outcome.to_dict())
             for summary, machine in zip(summaries, result.machines)],
            mode=result.mode)
        summaries = [machine.source for machine in fidelity.machines]
        reports.append(_cell_report(cell, result, fidelity))
        if telemetry is not None:
            telemetry.emit("whatif-cell-done", cell=cell.label,
                           core_match=reports[-1]["core_match"])
    return WhatifReport(grid=grid, cells=reports,
                        n_machines=len(sources),
                        mode=base_config.mode)
