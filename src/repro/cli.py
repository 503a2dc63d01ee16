"""Command-line interface: run studies, archive traces, print reports.

::

    python -m repro run    --machines 6 --seconds 120 --out traces/ --perf
    python -m repro run    --machines 6 --seconds 120 --out traces/ --spans
    python -m repro run    --machines 6 --seconds 120 --out traces/ --metrics
    python -m repro study  --machines 100 --workers auto --out study/
    python -m repro report study/
    python -m repro report traces/
    python -m repro figures traces/ --out figure-data/
    python -m repro perf   --machines 2 --seconds 30
    python -m repro metrics traces/ --openmetrics metrics.prom
    python -m repro replay --traces traces/ --mode closed
    python -m repro whatif --traces traces/ \
        --grid "devices=hdd_ide,ssd×cache_mb=4,16,64"
    python -m repro spans  export traces/ --out chrome-trace.json
    python -m repro spans  attribution traces/
    python -m repro verify src/repro

``run`` simulates a trace collection and archives it; ``study`` runs a
paper-scale streaming campaign on one box — each machine's trace folds
into a bounded-memory mergeable sketch the moment it completes (live
console: per-machine progress, records/sec, queue-depth and dirty-page
watermarks, phase ETA) and a deterministic ``nt-study-1`` artifact comes
out, byte-identical across ``--workers`` counts; ``report`` prints
the paper's tables from an archive, an ``nt-study-1`` artifact, or a
fresh study — ``--streaming`` computes them with the bounded-memory
folds and ``--reconcile`` proves them exactly equal to the materialized
warehouse; ``figures`` exports every figure's data series as CSV; ``perf``
prints the performance-monitor counter table (from a dumped ``perf.json``
or a fresh study) and writes the ``nt-throughput-2`` wall-clock baseline
(pipeline phases, records/sec, host calibration) for CI; ``metrics``
analyses the flight-recorder sidecar of a ``--metrics`` archive —
per-interval fleet activity with figure-8 burst/dispersion analysis,
reconciled against the archive's record counts, with optional
OpenMetrics text export of the perf counters; ``replay`` re-drives an
archived study through fresh machines and prints the first- vs
second-generation fidelity report; ``whatif`` replays one archived study
across a storage-device × cache-size grid and prints a deterministic
comparison report (latency bands, critical-path decomposition with
device time split out, cache hit deltas), failing if any cell's
closed-loop core counts diverge; ``spans`` works on the causal span
logs of a ``--spans`` archive — Chrome trace-event export and the
induced-I/O attribution tables; ``verify`` runs the Driver-Verifier-style
static analysis over the source tree and fails on any finding the
committed baseline does not justify.

The simulation scope (``repro.nt``, ``repro.workload``, ``repro.replay``)
reads no host clock.  The wall-clock figures of ``repro study``
(records/sec, ETA, ``--bench-json``) and ``repro perf`` (pipeline phases)
are measured here, around it.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.analysis.streaming import StatsSketch
from repro.common.clock import TICKS_PER_SECOND
from repro.workload.campaign import CampaignConsole


def _workers_argument(value: str) -> int:
    """Parse ``--workers N|auto`` (auto = 0, resolved to one per core)."""
    if value.lower() == "auto":
        return 0
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'auto', got {value!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError("must be >= 1 (or 'auto')")
    return n


def _positive_argument(kind: type, most: float = math.inf):
    """The argparse type of a positive numeric flag (the fleet shape
    ``--machines``, ``--seconds``, ``--weeks``, ``--scale``, and
    ``--max-peak-mb``): a finite ``kind`` above zero and at most
    ``most``."""
    expected = ("an integer" if kind is int else "a finite number") + (
        f" in (0, {most:g}]" if most < math.inf else " > 0")

    def parse(value: str):
        try:
            x = kind(value)
        except ValueError:
            x = math.nan
        if not (math.isfinite(x) and 0 < x <= most):
            raise argparse.ArgumentTypeError(
                f"expected {expected}, got {value!r}")
        return x
    return parse


# A run's horizon in 100 ns ticks must fit the records' int64 tick
# fields; half the int64 range leaves room for the drain and for timers
# that fire past the horizon.
_MAX_SECONDS = 2 ** 62 / TICKS_PER_SECOND
_SECONDS_PER_WEEK = 7 * 86_400.0

_machines_argument = _positive_argument(int)
_duration_argument = _positive_argument(float, most=_MAX_SECONDS)
_weeks_argument = _positive_argument(float,
                                     most=_MAX_SECONDS / _SECONDS_PER_WEEK)
_scale_argument = _positive_argument(float, most=1.0)
_megabytes_argument = _positive_argument(float)


def _add_workers_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=_workers_argument, default=None,
        metavar="N|auto",
        help="simulate machines in N parallel worker processes ('auto' ="
             " one per CPU core); results are byte-identical to serial")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'File system usage in Windows NT 4.0'"
                    " (Vogels, SOSP '99)")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a trace-collection study")
    run.add_argument("--machines", type=_machines_argument, default=6)
    run.add_argument("--seconds", type=_duration_argument, default=120.0)
    run.add_argument("--seed", type=int, default=1998)
    run.add_argument("--scale", type=_scale_argument, default=0.12)
    run.add_argument("--out", type=Path, default=None,
                     help="directory for the .nttrace archive")
    run.add_argument("--perf", action="store_true",
                     help="print the perfmon counter table and dump"
                          " perf.json next to the archive")
    run.add_argument("--spans", action="store_true",
                     help="record causal spans (ETW-style activity"
                          " tracing); archives become format v3")
    run.add_argument("--verifier", action="store_true",
                     help="run with the runtime Driver Verifier: assert"
                          " IRP protocol invariants on every dispatch"
                          " (archives are unaffected)")
    run.add_argument("--metrics", action="store_true",
                     help="run the flight recorder: sample every perf"
                          " series each simulated second and write a"
                          " metrics.ntmetrics sidecar next to the archive"
                          " (.nttrace files are unaffected)")
    run.add_argument("--progress", action="store_true",
                     help="emit per-machine telemetry lines to stderr")
    _add_workers_option(run)

    study = sub.add_parser(
        "study", help="run a paper-scale streaming campaign on one box")
    study.add_argument("--machines", type=_machines_argument, default=45,
                       help="fleet size (the paper traced 45)")
    study.add_argument("--weeks", type=_weeks_argument, default=None,
                       help="simulated duration in weeks (the paper's 4);"
                            " overrides --seconds")
    study.add_argument("--seconds", type=_duration_argument, default=60.0,
                       help="simulated duration in seconds (default 60)")
    study.add_argument("--seed", type=int, default=1998)
    study.add_argument("--scale", type=_scale_argument, default=0.12)
    study.add_argument("--out", type=Path, default=None,
                       help="write the deterministic nt-study-1 artifact"
                            " here (a .json path, or a directory that"
                            " gets study.json)")
    study.add_argument("--report", action="store_true",
                       help="print the streaming report (category table,"
                            " table 3, latency bands) when done")
    study.add_argument("--reconcile", action="store_true",
                       help="re-run the study through the materialized"
                            " TraceWarehouse and verify the streaming"
                            " sketch matches it exactly (seed-scale"
                            " studies only: this path is NOT bounded-"
                            "memory)")
    study.add_argument("--bench-json", type=Path, default=None,
                       help="write the campaign baseline here (the CI"
                            " BENCH_study baseline: deterministic sketch"
                            " digest + wall-clock, plus the traced peak"
                            " memory when --max-peak-mb is given)")
    study.add_argument("--max-peak-mb", type=_megabytes_argument,
                       default=None,
                       help="trace memory with tracemalloc and fail if"
                            " its peak exceeds this budget (the CI"
                            " flat-memory gate; slows the campaign)")
    study.add_argument("--quiet", action="store_true",
                       help="suppress the live campaign console")
    _add_workers_option(study)

    report = sub.add_parser("report", help="print the paper's tables")
    report.add_argument("traces", type=Path, nargs="?", default=None,
                        help=".nttrace archive directory, or an"
                             " nt-study-1 study.json artifact from"
                             " `repro study --out` (default: run a"
                             " fresh study)")
    report.add_argument("--seed", type=int, default=1998)
    report.add_argument("--perf", action="store_true",
                        help="also print the perfmon counter table (from"
                             " the archive's perf.json, or the fresh"
                             " study)")
    report.add_argument("--streaming", action="store_true",
                        help="compute the tables with the bounded-memory"
                             " streaming folds (one .nttrace at a time)"
                             " instead of materializing the warehouse")
    report.add_argument("--reconcile", action="store_true",
                        help="with --streaming: also materialize the"
                             " warehouse and verify the streaming sketch"
                             " matches it exactly")
    report.set_defaults(usage_error=report.error)
    _add_workers_option(report)

    figures = sub.add_parser("figures", help="export figure data as CSV")
    figures.add_argument("traces", type=Path, nargs="?", default=None)
    figures.add_argument("--out", type=Path, default=Path("figure-data"))
    figures.add_argument("--seed", type=int, default=1998)
    figures.add_argument("--streaming", action="store_true",
                         help="derive the figure series from the"
                              " streaming sketch (bounded memory; CDF x"
                              " positions come from digest bucket edges)")
    _add_workers_option(figures)

    perf = sub.add_parser(
        "perf", help="print the performance-monitor counter table")
    perf.add_argument("traces", type=Path, nargs="?", default=None,
                      help="archive directory holding a perf.json"
                           " (default: run a fresh study)")
    perf.add_argument("--machines", type=_machines_argument, default=2)
    perf.add_argument("--seconds", type=_duration_argument, default=30.0)
    perf.add_argument("--seed", type=int, default=1998)
    perf.add_argument("--scale", type=_scale_argument, default=0.12)
    perf.add_argument("--json", type=Path, default=None,
                      help="write the per-machine perf.json here")
    perf.add_argument("--bench-json", type=Path, default=None,
                      help="write the throughput baseline here: wall-clock"
                           " phases of the simulate/warehouse/analysis"
                           " pipeline, records/sec and host calibration"
                           " (the committed BENCH_throughput.json)")
    _add_workers_option(perf)

    metrics = sub.add_parser(
        "metrics", help="analyse a flight-recorder metrics.ntmetrics log")
    metrics.add_argument("traces", type=Path,
                         help="archive directory holding a"
                              " metrics.ntmetrics sidecar (from"
                              " `repro run --metrics --out DIR`)")
    metrics.add_argument("--series", default=None,
                         help="perf series to fold into the fleet interval"
                              " series (default: trace.records)")
    metrics.add_argument("--seed", type=int, default=1998,
                         help="seed of the synthesized Poisson reference")
    metrics.add_argument("--json", type=Path, default=None,
                         help="write the time-series report here as JSON")
    metrics.add_argument("--openmetrics", type=Path, default=None,
                         help="write the archive's perf counters in"
                              " OpenMetrics text format here (requires"
                              " the archive's perf.json)")

    replay = sub.add_parser(
        "replay", help="re-drive an archived study through the simulator")
    replay.add_argument("--traces", type=Path, required=True,
                        help=".nttrace archive directory to replay")
    replay.add_argument("--mode", choices=("open", "closed"),
                        default="closed",
                        help="closed = dependency order, as fast as the"
                             " simulator allows (default); open = honor"
                             " recorded start times against the simulated"
                             " clock")
    replay.add_argument("--seed", type=int, default=1998)
    replay.add_argument("--out", type=Path, default=None,
                        help="directory for the second-generation .nttrace"
                             " archive")
    replay.add_argument("--fidelity-json", type=Path, default=None,
                        help="write the machine-by-machine fidelity report"
                             " here as JSON")
    replay.add_argument("--progress", action="store_true",
                        help="emit per-machine telemetry lines to stderr")
    replay.add_argument("--metrics", action="store_true",
                        help="flight-record the replay and write a"
                             " metrics.ntmetrics sidecar next to the"
                             " second-generation archive (meaningful"
                             " pacing needs --mode open)")
    _add_workers_option(replay)

    whatif = sub.add_parser(
        "whatif", help="replay one archive across a device×cache grid")
    whatif.add_argument("--traces", type=Path, required=True,
                        help=".nttrace archive directory to sweep")
    whatif.add_argument("--grid", required=True,
                        help="sweep grid, e.g."
                             " 'devices=hdd_ide,ssd×cache_mb=4,16,64'"
                             " ('*' or ';' also separate dimensions;"
                             " devices come from the storage personality"
                             " registry, cache sizes are MB)")
    whatif.add_argument("--mode", choices=("open", "closed"),
                        default="closed",
                        help="replay mode for every cell (closed-loop"
                             " gates on exact core counts)")
    whatif.add_argument("--seed", type=int, default=1998)
    whatif.add_argument("--json", type=Path, default=None,
                        help="write the full comparison report here as"
                             " JSON (carries the 'deterministic' block"
                             " the CI whatif-smoke baseline compares)")
    whatif.add_argument("--progress", action="store_true",
                        help="emit per-cell telemetry lines to stderr")
    _add_workers_option(whatif)

    spans = sub.add_parser(
        "spans", help="causal span tooling (export, attribution)")
    spans_sub = spans.add_subparsers(dest="spans_command", required=True)

    export = spans_sub.add_parser(
        "export", help="export span logs as Chrome trace-event JSON")
    export.add_argument("traces", type=Path,
                        help=".nttrace archive directory recorded with"
                             " --spans")
    export.add_argument("--out", type=Path,
                        default=Path("chrome-trace.json"),
                        help="output JSON path (open in Perfetto or"
                             " chrome://tracing)")

    attribution = spans_sub.add_parser(
        "attribution", help="print the induced-I/O attribution tables")
    attribution.add_argument("traces", type=Path,
                             help=".nttrace archive directory recorded"
                                  " with --spans")
    attribution.add_argument("--json", type=Path, default=None,
                             help="also write the tables as JSON here")

    verify = sub.add_parser(
        "verify", help="run the Driver-Verifier-style static analysis")
    verify.add_argument("paths", type=Path, nargs="*",
                        default=[Path("src/repro")],
                        help="files or directories to verify"
                             " (default: src/repro)")
    verify.add_argument("--baseline", type=Path,
                        default=Path("verifier_baseline.toml"),
                        help="suppression baseline (every entry needs a"
                             " justification; stale entries fail the run)")
    verify.add_argument("--rules", action="store_true",
                        help="print the rule catalog and exit")
    verify.add_argument("--sarif", type=Path, default=None,
                        help="write findings (kept and suppressed) as a"
                             " SARIF 2.1.0 log here")
    verify.add_argument("--cache", type=Path, default=None,
                        help="content-hash cache for interprocedural"
                             " flow summaries (created on first run)")
    verify.add_argument("--bench-json", type=Path, default=None,
                        help="write per-rule runtime and cache stats"
                             " here (the CI rules_runtime block)")
    return parser


def _load_or_run(traces: Optional[Path], seed: int,
                 workers: Optional[int] = None):
    from repro import StudyConfig, TraceWarehouse, run_study
    from repro.nt.tracing.store import load_study

    if traces is not None:
        try:
            collectors = load_study(traces)
        except (FileNotFoundError, ValueError) as exc:
            raise SystemExit(str(exc)) from None
        print(f"loaded {len(collectors)} machines from {traces}",
              file=sys.stderr)
        return TraceWarehouse(collectors), None
    result = run_study(StudyConfig(n_machines=6, duration_seconds=120,
                                   seed=seed, workers=workers))
    return TraceWarehouse.from_study(result), result


def _write_perf_json(perf_by_machine, meta, path: Path) -> None:
    from repro.nt.perf import perf_json_bytes

    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(perf_json_bytes(perf_by_machine, meta))
    print(f"wrote perf counters to {path}")


def _print_perf_table(perf_by_machine, n_machines: int) -> None:
    from repro.nt.perf import format_perf_table, merge_snapshots

    aggregate = merge_snapshots(perf_by_machine.values())
    print()
    print(format_perf_table(
        aggregate,
        title=f"Performance monitor — {n_machines} machine(s), aggregated"))


def cmd_run(args: argparse.Namespace) -> int:
    from repro import StudyConfig, StudyTelemetry
    from repro.nt.flight.log import (DEFAULT_METRICS_INTERVAL_SECONDS,
                                     METRICS_FILENAME, write_metrics_log)
    from repro.workload.study import archive_study

    telemetry = StudyTelemetry() if args.progress else None
    machines = archive_study(StudyConfig(
        n_machines=args.machines, duration_seconds=args.seconds,
        seed=args.seed, content_scale=args.scale,
        workers=args.workers, spans_enabled=args.spans,
        verifier_enabled=args.verifier,
        metrics_interval_seconds=(DEFAULT_METRICS_INTERVAL_SECONDS
                                  if args.metrics else 0.0)),
        args.out, telemetry=telemetry)
    print(f"collected {sum(m.records for m in machines)} records from "
          f"{len(machines)} machines")
    if args.spans:
        print(f"recorded {sum(m.spans for m in machines)} causal spans")
    if args.out is not None:
        total = sum(m.nbytes for m in machines)
        print(f"archived {len(machines)} machines to {args.out} "
              f"({total / 1024:.0f} KB)")
    if args.metrics:
        sections = [m.metrics for m in machines if m.metrics is not None]
        n_samples = sum(s.n_samples for s in sections)
        print(f"flight recorder sampled {n_samples} intervals across "
              f"{len(sections)} machines")
        if args.out is not None:
            path = args.out / METRICS_FILENAME
            nbytes = write_metrics_log(sections, path)
            print(f"wrote metrics log to {path} ({nbytes / 1024:.0f} KB)")
    if args.perf:
        perf = {m.name: m.perf for m in machines}
        # Persist before the chatty table print so the archive companion
        # survives a closed downstream pipe (`repro run --perf | head`).
        if args.out is not None:
            _write_perf_json(perf, _study_meta(args), args.out / "perf.json")
        _print_perf_table(perf, len(machines))
    return 0


def _study_meta(args: argparse.Namespace) -> dict:
    # Deliberately excludes --workers: the worker topology is execution
    # detail, not a study parameter, and perf.json must stay byte-identical
    # between serial and parallel runs of the same study.
    return {"machines": args.machines, "seconds": args.seconds,
            "seed": args.seed, "scale": args.scale}


def _fmt_eta(seconds: float) -> str:
    seconds = max(0, int(round(seconds)))
    if seconds < 60:
        return f"{seconds}s"
    minutes, secs = divmod(seconds, 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


class _StudyConsole(CampaignConsole):
    """``repro study``'s live console: the campaign's fold counts and
    events, rendered one line per machine with records/sec and an ETA
    read from the host clock, then a done line::

        [study  12/100] m11-personal      15,023 rec   52,001 rec/s  queue^7  dirty^412  eta 38s
    """

    def __init__(self, n_machines: int, quiet: bool = False) -> None:
        super().__init__(n_machines, quiet=quiet)
        self._started = time.perf_counter()

    def _say(self, line: str) -> None:
        if not self.quiet:
            with self._lock:
                self.stream.write(line + "\n")
                self.stream.flush()

    def machine_folded(self, index: int, name: str, records: int,
                       queue_peak: int, dirty_peak: int) -> None:
        super().machine_folded(index, name, records, queue_peak, dirty_peak)
        elapsed = time.perf_counter() - self._started
        rate = self.records_folded / elapsed if elapsed > 0 else 0.0
        eta = elapsed / self.n_folded * (self.n_machines - self.n_folded)
        self._say(
            f"[study {self.n_folded:3d}/{self.n_machines}] {name:<20} "
            f"{records:>10,} rec {rate:>10,.0f} rec/s  "
            f"queue^{queue_peak} dirty^{dirty_peak}  eta {_fmt_eta(eta)}")

    def campaign_done(self, sketch: StatsSketch,
                      wall_seconds: float) -> None:
        self.emit("campaign-done", machines=sketch.n_machines,
                  records=sketch.n_records)
        rate = sketch.n_records / wall_seconds if wall_seconds else 0.0
        self._say(
            f"[study done] {sketch.n_machines} machines  "
            f"{sketch.n_records:,} records  "
            f"{sketch.n_instances:,} instances  "
            f"{rate:,.0f} rec/s  wall {_fmt_eta(wall_seconds)}")


@contextmanager
def timed_phase(phases: dict[str, float], name: str) -> Iterator[None]:
    """Add the host seconds the block takes to ``phases[name]``."""
    started = time.perf_counter()
    try:
        yield
    finally:
        phases[name] = phases.get(name, 0.0) + time.perf_counter() - started


def cmd_study(args: argparse.Namespace) -> int:
    import json
    import tracemalloc

    from repro import StudyConfig
    from repro.analysis.streaming import (format_streaming_report,
                                          reconcile_sketch)
    from repro.workload.campaign import (ARTIFACT_FILENAME, bench_payload,
                                         run_campaign, study_artifact_bytes)

    seconds = args.seconds
    if args.weeks is not None:
        seconds = args.weeks * _SECONDS_PER_WEEK
    config = StudyConfig(
        n_machines=args.machines, duration_seconds=seconds,
        seed=args.seed, content_scale=args.scale, workers=args.workers)
    console = _StudyConsole(args.machines, quiet=args.quiet)
    # Only the memory gate traces allocations: tracemalloc slows the
    # campaign several times over, so --bench-json alone times it untraced.
    gate_memory = args.max_peak_mb is not None
    if gate_memory:
        tracemalloc.start()
    started = time.perf_counter()
    result = run_campaign(config, console)
    wall_seconds = time.perf_counter() - started
    console.campaign_done(result.sketch, wall_seconds)
    peak_mb = None
    if gate_memory:
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        peak_mb = peak / (1024 * 1024)
    rate = (result.total_records / wall_seconds
            if wall_seconds else float("nan"))
    print(f"campaign: {result.sketch.n_machines} machines, "
          f"{result.total_records:,} records folded at {rate:,.0f} rec/s "
          f"(sketch sha256 {result.sketch.sha256()[:16]})")
    if peak_mb is not None:
        print(f"peak traced memory: {peak_mb:.1f} MB")
    status = 0
    if args.reconcile:
        from repro import TraceWarehouse, run_study
        result_mat = run_study(config)
        problems = reconcile_sketch(result.sketch,
                                    TraceWarehouse.from_study(result_mat))
        if problems:
            status = 1
            for problem in problems:
                print(f"RECONCILIATION MISMATCH: {problem}",
                      file=sys.stderr)
        else:
            print("reconciliation: streaming sketch matches the "
                  "materialized warehouse exactly")
    if args.out is not None:
        path = args.out
        if path.suffix != ".json":
            path = path / ARTIFACT_FILENAME
        path.parent.mkdir(parents=True, exist_ok=True)
        data = study_artifact_bytes(result)
        path.write_bytes(data)
        print(f"wrote {path} ({len(data) / 1024:.0f} KB)")
    if args.report:
        print()
        print(format_streaming_report(result.sketch, result.duration_ticks))
    if args.bench_json is not None:
        from repro.workload.parallel import resolve_workers

        workers = (None if args.workers is None
                   else resolve_workers(args.workers, args.machines))
        payload = bench_payload(result, workers, wall_seconds, peak_mb)
        args.bench_json.parent.mkdir(parents=True, exist_ok=True)
        args.bench_json.write_text(
            json.dumps(payload, sort_keys=True, indent=1) + "\n")
        print(f"wrote campaign baseline to {args.bench_json}")
    if gate_memory and peak_mb > args.max_peak_mb:
        print(f"MEMORY GATE: peak traced memory {peak_mb:.1f} MB exceeds "
              f"the {args.max_peak_mb:.1f} MB budget", file=sys.stderr)
        status = 1
    return status


def _study_artifact_path(traces: Optional[Path]) -> Optional[Path]:
    """The nt-study-1 artifact ``traces`` points at, if any."""
    if traces is None:
        return None
    if traces.is_file() and traces.suffix == ".json":
        return traces
    if traces.is_dir():
        from repro.workload.campaign import ARTIFACT_FILENAME
        candidate = traces / ARTIFACT_FILENAME
        if candidate.exists() and not sorted(traces.glob("*.nttrace")):
            return candidate
    return None


def _report_streaming(args: argparse.Namespace) -> int:
    """`repro report --streaming`: tables off the bounded-memory folds."""
    from repro.analysis.streaming import (format_streaming_report,
                                          reconcile_sketch,
                                          sketch_from_archive,
                                          sketch_from_study)

    if args.traces is not None:
        try:
            sketch = sketch_from_archive(args.traces)
        except (FileNotFoundError, ValueError) as exc:
            raise SystemExit(str(exc)) from None
        print(f"streamed {sketch.n_machines} machines from {args.traces}",
              file=sys.stderr)
        duration_ticks = None
    else:
        from repro import StudyConfig, run_study
        result = run_study(StudyConfig(n_machines=6, duration_seconds=120,
                                       seed=args.seed, workers=args.workers))
        sketch = sketch_from_study(result)
        duration_ticks = result.duration_ticks
    print(format_streaming_report(sketch, duration_ticks))
    if args.reconcile:
        from repro import TraceWarehouse
        from repro.nt.tracing.store import load_study
        if args.traces is not None:
            warehouse = TraceWarehouse(load_study(args.traces))
        else:
            warehouse = TraceWarehouse.from_study(result)
        problems = reconcile_sketch(sketch, warehouse)
        if problems:
            for problem in problems:
                print(f"RECONCILIATION MISMATCH: {problem}",
                      file=sys.stderr)
            return 1
        print(f"\nreconciliation: streaming sketch matches the "
              f"materialized warehouse exactly "
              f"({sketch.n_records:,} records)")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.activity import user_activity_table
    from repro.analysis.categories import by_category, format_category_table
    from repro.analysis.patterns import access_pattern_table
    from repro.analysis.report import summarize_observations

    artifact = _study_artifact_path(args.traces)
    if args.reconcile and artifact is not None:
        args.usage_error(f"--reconcile needs .nttrace records to compare "
                         f"against; {artifact} is an nt-study-1 artifact")
    if args.reconcile and not args.streaming:
        args.usage_error("--reconcile needs --streaming")
    if artifact is not None:
        from repro.analysis.streaming import format_streaming_report
        from repro.common.clock import ticks_from_seconds
        from repro.workload.campaign import load_study_artifact
        try:
            doc, sketch = load_study_artifact(artifact)
        except (ValueError, OSError, KeyError) as exc:
            raise SystemExit(f"cannot read {artifact}: {exc}") from None
        meta = doc.get("study", {})
        print(f"nt-study-1 artifact: {artifact} "
              f"({meta.get('machines')} machines, "
              f"{meta.get('seconds')} s, seed {meta.get('seed')})",
              file=sys.stderr)
        duration = meta.get("seconds")
        print(format_streaming_report(
            sketch,
            ticks_from_seconds(duration) if duration else None))
        return 0
    if args.streaming:
        return _report_streaming(args)
    warehouse, result = _load_or_run(args.traces, args.seed, args.workers)
    perf = result.perf if result is not None else None
    print(summarize_observations(warehouse, perf).format())
    print("\nTable 2 (user activity):")
    print(user_activity_table(warehouse).format())
    print("\nTable 3 (access patterns):")
    print(access_pattern_table(warehouse).format())
    if warehouse.machine_categories:
        print("\nUsage categories:")
        print(format_category_table(by_category(warehouse)))
    if args.perf:
        if result is not None:
            _print_perf_table(result.perf, len(result.collectors))
        else:
            _print_archived_perf(args.traces)
    return 0


def _load_archived_perf(traces: Path, strict: bool = False) -> Optional[dict]:
    """Load an archive's perf.json document.

    ``strict`` (the ``repro perf TRACES`` form, where the table is the
    whole point) exits non-zero naming the missing path; the soft form
    (``report --perf``, where the table is a bonus) warns and returns
    ``None``.
    """
    from repro.nt.perf import load_perf_json

    if strict and not traces.is_dir():
        raise SystemExit(
            f"trace archive directory {traces} does not exist")
    perf_path = traces / "perf.json"
    if not perf_path.exists():
        if strict:
            raise SystemExit(
                f"no perf.json in {traces} — re-run "
                f"`repro run --perf --out {traces}` to produce one")
        print(f"\nno perf.json in {traces} — re-run "
              f"`repro run --perf --out {traces}` to produce one",
              file=sys.stderr)
        return None
    try:
        return load_perf_json(perf_path)
    except (ValueError, OSError, KeyError) as exc:
        raise SystemExit(f"cannot read {perf_path}: {exc}") from None


def _print_archived_perf(traces: Path, strict: bool = False) -> None:
    doc = _load_archived_perf(traces, strict)
    if doc is not None:
        _print_perf_table(doc["machines"], len(doc["machines"]))


def cmd_figures(args: argparse.Namespace) -> int:
    from repro.analysis.figures import figure_series, write_csv

    if args.streaming:
        from repro.analysis.streaming import (sketch_from_archive,
                                              streaming_figure_series)
        if args.traces is not None:
            try:
                sketch = sketch_from_archive(args.traces)
            except (FileNotFoundError, ValueError) as exc:
                raise SystemExit(str(exc)) from None
        else:
            from repro import StudyConfig
            from repro.workload.campaign import run_campaign
            sketch = run_campaign(StudyConfig(
                n_machines=6, duration_seconds=120, seed=args.seed,
                workers=args.workers)).sketch
        figures = streaming_figure_series(
            sketch, np.random.default_rng(args.seed))
    else:
        warehouse, _result = _load_or_run(args.traces, args.seed,
                                          args.workers)
        figures = figure_series(warehouse, np.random.default_rng(args.seed))
    paths = write_csv(figures, args.out)
    for path in paths:
        print(path)
    print(f"wrote {len(paths)} figure files to {args.out}")
    return 0


def cmd_perf(args: argparse.Namespace) -> int:
    import json

    from repro import (StudyConfig, StudyTelemetry, TraceWarehouse,
                       run_study)
    from repro.analysis.report import summarize_observations

    if args.traces is not None:
        if args.bench_json is not None:
            raise SystemExit(
                "--bench-json times the simulate/warehouse/analysis "
                "pipeline, which does not run when reading an archive — "
                "drop the TRACES argument to measure a fresh study")
        doc = _load_archived_perf(args.traces, strict=True)
        if args.json is not None:
            # Re-dump the archived document canonically (byte-stable).
            _write_perf_json(doc["machines"], doc.get("meta", {}),
                             args.json)
        _print_perf_table(doc["machines"], len(doc["machines"]))
        return 0

    phases: dict[str, float] = {}
    with timed_phase(phases, "simulate"):
        result = run_study(StudyConfig(
            n_machines=args.machines, duration_seconds=args.seconds,
            seed=args.seed, content_scale=args.scale,
            workers=args.workers), telemetry=StudyTelemetry())
    with timed_phase(phases, "warehouse"):
        warehouse = TraceWarehouse.from_study(result)
        _ = warehouse.instances
    with timed_phase(phases, "analysis"):
        summarize_observations(warehouse, result.perf)
    if args.json is not None:
        _write_perf_json(result.perf, _study_meta(args), args.json)
    _print_perf_table(result.perf, len(result.collectors))
    print("\nPipeline wall-clock:")
    for name, seconds in sorted(phases.items()):
        print(f"  {name:<12} {seconds:8.3f} s")
    if args.bench_json is not None:
        from repro.workload.parallel import resolve_workers

        simulate_seconds = phases["simulate"]
        payload = {
            "phases": {name: round(seconds, 6)
                       for name, seconds in sorted(phases.items())},
            "format": "nt-throughput-2",
            "records": result.total_records,
            "machines": len(result.collectors),
            # null = serial; otherwise the resolved worker-process count.
            "workers": (None if args.workers is None
                        else resolve_workers(args.workers, args.machines)),
            "records_per_second": (result.total_records / simulate_seconds
                                   if simulate_seconds else float("nan")),
            "calibration_seconds": host_calibration_seconds(),
            # A pure function of the study parameters: two runs with the
            # same parameters write identical blocks, which is what lets
            # the CI gate tell "the simulator changed" from "the runner
            # was slow".
            "deterministic": {
                "machines": args.machines,
                "seconds": args.seconds,
                "seed": args.seed,
                "scale": args.scale,
                "records": result.total_records,
            },
        }
        args.bench_json.parent.mkdir(parents=True, exist_ok=True)
        args.bench_json.write_text(
            json.dumps(payload, sort_keys=True, indent=1) + "\n")
        print(f"wrote throughput baseline to {args.bench_json}")
    return 0


def host_calibration_seconds(repeats: int = 5) -> float:
    """Best-of-``repeats`` seconds for a fixed pure-Python workload.

    The throughput baseline records this next to records/sec so the CI
    gate can rescale a committed baseline to the host it runs on: only
    the ratio of measured throughput to calibrated host speed matters,
    never the absolute numbers, which keeps the regression band from
    tripping on a slower (or faster) runner.
    """
    best = float("inf")
    for _ in range(repeats):
        begin = time.perf_counter()
        acc = 0
        table = {}
        for i in range(100_000):
            acc += i & 1023
            table[i & 511] = acc
        best = min(best, time.perf_counter() - begin)
    return best


def cmd_metrics(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.openmetrics import write_openmetrics
    from repro.analysis.timeseries import (DEFAULT_SERIES,
                                           analyze_metrics_log,
                                           reconcile_with_archive)
    from repro.nt.flight.log import METRICS_FILENAME
    from repro.nt.tracing.store import read_store_header, study_paths

    if not args.traces.is_dir():
        raise SystemExit(
            f"trace archive directory {args.traces} does not exist")
    metrics_path = args.traces / METRICS_FILENAME
    if not metrics_path.exists():
        raise SystemExit(
            f"no {METRICS_FILENAME} in {args.traces} — re-run "
            f"`repro run --metrics --out {args.traces}` to record one")
    series = args.series or DEFAULT_SERIES
    try:
        report = analyze_metrics_log(metrics_path, series=series,
                                     seed=args.seed)
    except (ValueError, OSError) as exc:
        raise SystemExit(str(exc)) from None
    print(report.format())
    status = 0
    if series == DEFAULT_SERIES:
        try:
            record_counts = {}
            for path in study_paths(args.traces):
                _version, name, n_records = read_store_header(path)
                record_counts[name] = n_records
        except (FileNotFoundError, ValueError) as exc:
            raise SystemExit(str(exc)) from None
        problems = reconcile_with_archive(report, record_counts)
        if problems:
            status = 1
            for problem in problems:
                print(f"RECONCILIATION MISMATCH: {problem}",
                      file=sys.stderr)
        else:
            print(f"\nreconciliation: metrics log matches the archive's "
                  f"record counts on all {len(record_counts)} machines")
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(
            json.dumps(report.to_dict(), sort_keys=True, indent=1) + "\n")
        print(f"wrote time-series report to {args.json}")
    if args.openmetrics is not None:
        doc = _load_archived_perf(args.traces, strict=True)
        args.openmetrics.parent.mkdir(parents=True, exist_ok=True)
        nbytes = write_openmetrics(doc["machines"], args.openmetrics)
        print(f"wrote OpenMetrics exposition to {args.openmetrics} "
              f"({nbytes / 1024:.1f} KB)")
    return status


def cmd_replay(args: argparse.Namespace) -> int:
    import json

    from repro import StudyTelemetry
    from repro.analysis.fidelity import fidelity_report
    from repro.nt.flight.log import (DEFAULT_METRICS_INTERVAL_SECONDS,
                                     METRICS_FILENAME, write_metrics_log)
    from repro.nt.tracing.store import load_collector, save_study, study_paths
    from repro.replay import ReplayConfig, replay_archive

    config = ReplayConfig(
        mode=args.mode, seed=args.seed, workers=args.workers,
        metrics_interval_seconds=(DEFAULT_METRICS_INTERVAL_SECONDS
                                  if args.metrics else 0.0))
    telemetry = StudyTelemetry() if args.progress else None
    try:
        sources = [load_collector(path) for path in study_paths(args.traces)]
        result = replay_archive(args.traces, config, telemetry=telemetry,
                                sources=sources)
    except (FileNotFoundError, ValueError) as exc:
        raise SystemExit(str(exc)) from None
    report = fidelity_report(
        [(machine.name, source, machine.collector, machine.outcome.to_dict())
         for source, machine in zip(sources, result.machines)],
        mode=args.mode)
    print(report.format())
    if args.out is not None:
        paths = save_study(result.collectors, args.out)
        total = sum(p.stat().st_size for p in paths)
        print(f"\narchived {len(paths)} replayed machines to {args.out} "
              f"({total / 1024:.0f} KB)")
        if args.metrics:
            path = args.out / METRICS_FILENAME
            nbytes = write_metrics_log(result.metrics_sections, path)
            print(f"wrote metrics log to {path} ({nbytes / 1024:.0f} KB)")
    if args.fidelity_json is not None:
        args.fidelity_json.parent.mkdir(parents=True, exist_ok=True)
        args.fidelity_json.write_text(
            json.dumps(report.to_dict(), sort_keys=True, indent=1) + "\n")
        print(f"wrote fidelity report to {args.fidelity_json}")
    # Closed-loop replay promises exact core-path counts; failing that is
    # an error the exit code reports (the CI replay-smoke gate).
    if args.mode == "closed" and not report.all_core_match:
        print("closed-loop core-path counts diverged from the source",
              file=sys.stderr)
        return 1
    return 0


def cmd_whatif(args: argparse.Namespace) -> int:
    import json

    from repro import StudyTelemetry
    from repro.replay import ReplayConfig
    from repro.replay.whatif import parse_grid, whatif_sweep

    try:
        grid = parse_grid(args.grid)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    config = ReplayConfig(mode=args.mode, seed=args.seed,
                          workers=args.workers)
    telemetry = StudyTelemetry() if args.progress else None
    try:
        report = whatif_sweep(args.traces, grid, config,
                              telemetry=telemetry)
    except (FileNotFoundError, ValueError) as exc:
        raise SystemExit(str(exc)) from None
    print(report.format())
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(
            json.dumps(report.to_dict(), sort_keys=True, indent=1) + "\n")
        print(f"wrote what-if report to {args.json}")
    # Every cell replays the same records; a device model may move time
    # but never operations, so any core-count drift is an error.
    if args.mode == "closed" and not report.all_core_match:
        print("closed-loop core-path counts diverged in at least one "
              "grid cell", file=sys.stderr)
        return 1
    return 0


def _load_span_study(traces: Path):
    """Load an archive and require it to carry span logs."""
    from repro.nt.tracing.store import load_study

    try:
        collectors = load_study(traces)
    except (FileNotFoundError, ValueError) as exc:
        raise SystemExit(str(exc)) from None
    if not any(c.n_spans for c in collectors):
        raise SystemExit(
            f"no span records in {traces} — re-run "
            f"`repro run --spans --out {traces}` to record them")
    return collectors


def cmd_spans_export(args: argparse.Namespace) -> int:
    from repro.nt.tracing.spans import write_chrome_trace

    collectors = _load_span_study(args.traces)
    n_spans = sum(c.n_spans for c in collectors)
    nbytes = write_chrome_trace(collectors, args.out)
    print(f"exported {n_spans} spans from {len(collectors)} machines to "
          f"{args.out} ({nbytes / 1024:.0f} KB)")
    return 0


def cmd_spans_attribution(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.attribution import (attribution_table,
                                            critical_path_table,
                                            reconcile_attribution)

    collectors = _load_span_study(args.traces)
    table = attribution_table(collectors)
    paths = critical_path_table(collectors)
    print(table.format())
    print()
    print(paths.format())
    status = 0
    for collector in collectors:
        problems = reconcile_attribution(collector)
        if problems:
            status = 1
            for kind, sides in problems.items():
                print(f"RECONCILIATION MISMATCH {collector.machine_name} "
                      f"{kind}: records {sides['records']} != spans "
                      f"{sides['spans']}", file=sys.stderr)
    if status == 0:
        print(f"\nreconciliation: spans match trace records exactly on "
              f"all {len(collectors)} machines")
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(
            {"attribution": table.to_dict(),
             "critical_path": paths.to_dict()},
            sort_keys=True, indent=1) + "\n")
        print(f"wrote attribution tables to {args.json}")
    return status


def cmd_spans(args: argparse.Namespace) -> int:
    handlers = {"export": cmd_spans_export,
                "attribution": cmd_spans_attribution}
    return handlers[args.spans_command](args)


def cmd_verify(args: argparse.Namespace) -> int:
    from repro.verifier import (
        RULE_CATALOG,
        BaselineError,
        load_baseline,
        verify_paths,
    )

    if args.rules:
        for rule_id, description in RULE_CATALOG:
            print(f"{rule_id}  {description}")
        return 0
    try:
        suppressions = load_baseline(args.baseline)
    except BaselineError as exc:
        raise SystemExit(str(exc)) from None
    try:
        report = verify_paths(args.paths, suppressions,
                              cache_path=args.cache)
    except (FileNotFoundError, ValueError) as exc:
        raise SystemExit(str(exc)) from None
    for finding in report.findings:
        print(finding.format())
    for entry in report.stale:
        print(f"{args.baseline}: stale suppression ({entry.rule} "
              f"{entry.path} match={entry.match!r}) no longer matches "
              "anything — remove it", file=sys.stderr)
    if args.sarif is not None:
        from repro.verifier.sarif import write_sarif
        write_sarif(report, args.sarif, suppressions)
        print(f"wrote SARIF log to {args.sarif}", file=sys.stderr)
    if args.bench_json is not None:
        import json as _json
        stats = report.cache_stats
        doc = {
            "format": "nt-verifier-bench-1",
            "deterministic": {
                "files": report.n_files,
                "findings": len(report.findings),
                "suppressed": len(report.suppressed),
                "stale": len(report.stale),
            },
            "rules_runtime": {
                name: round(seconds, 6)
                for name, seconds in sorted(report.timings.items())},
            "cache": None if stats is None else {
                "hits": stats.hits, "misses": stats.misses,
                "loaded": stats.loaded},
        }
        args.bench_json.parent.mkdir(parents=True, exist_ok=True)
        args.bench_json.write_text(
            _json.dumps(doc, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        print(f"wrote verify runtime stats to {args.bench_json}",
              file=sys.stderr)
    if report.cache_stats is not None:
        print(f"flow cache: {report.cache_stats.hits} hit(s), "
              f"{report.cache_stats.misses} miss(es)", file=sys.stderr)
    print(f"verified {report.n_files} files: "
          f"{len(report.findings)} finding(s), "
          f"{len(report.suppressed)} suppressed by baseline",
          file=sys.stderr)
    return 0 if report.clean else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"run": cmd_run, "study": cmd_study,
                "report": cmd_report,
                "figures": cmd_figures, "perf": cmd_perf,
                "metrics": cmd_metrics,
                "replay": cmd_replay, "whatif": cmd_whatif,
                "spans": cmd_spans, "verify": cmd_verify}
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
