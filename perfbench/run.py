"""Seeded benchmark of the reproduction's user-facing commands.

Run from the root of a checkout::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 12 --trace 0

``--workload`` is ``campaign`` (``repro study``), ``whatif``
(``repro whatif``) or ``report`` (``repro report``); see workloads.py for
what each one runs and why.  Everything runs in this one process, serially.

Set-up is timed as ``setup_s``: importing the program plus the median
of three generations of the seeded input.  Then whole units of the
workload run until ``--seconds`` have passed.

``--trace 0`` reports the end-to-end metrics of untraced units:
records per wall second, the p50/p90 wall microseconds per record of a
latency sample (a machine for campaign and whatif, an invocation for
report), set-up time and the peak RSS of the timed region.

``--trace 1`` reports per-layer metrics.  It first times untraced units
for half of ``--seconds``, then wraps each layer's public calls (see
layers.py and tracer.py) and runs as many traced units again.  Per bin it
reports self seconds and calls per unit, plus the time no bin claims
(``unattributed_s``), the tracing overhead against the untraced units,
and the unit's simulated per-layer counts.  The spans are written to
``.perfbench-work/spans-<workload>.npz``.

Every unit's output digest must equal the first unit's, the traced
units' digests must equal the untraced ones, and where digests.json has
a digest for this workload, input shape and seed, they must equal it.
A mismatch, or a unit that reports a problem (a closed-loop core-count
divergence, a skipped replay record, a non-zero exit), prints
``"correct": false`` with no metrics and exits 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# Set-up time runs from here: everything after the standard library.
_PROCESS_T0 = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench-work"
DIGESTS = HERE / "digests.json"

SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "records_per_s": "1/s",
    "record_us_p50": "us",
    "record_us_p90": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

SIMULATED_UNITS = {
    "io.fastio_declined": "count",
    "cc.hit_ratio": "ratio",
    "cc.readahead_useful_ratio": "ratio",
    "cc.pages_evicted": "count",
    "cc.shadow_hit_ratio": "ratio",
    "cc.shadow_pages_evicted": "count",
    "lw.pages_written": "count",
    "mm.paging_irps": "count",
    "rdr.wire_requests": "count",
    "storage.requests": "count",
    "storage.busy_ticks": "ticks",
    "storage.wait_ticks": "ticks",
    "trace.records": "count",
    "replay.divergences": "count",
    "replay.skipped": "count",
}


def per_layer_units(bin_names) -> dict[str, str]:
    units = {}
    for name in bin_names:
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    units["unattributed_s"] = "s"
    units["trace_overhead_ratio"] = "ratio"
    units.update(SIMULATED_UNITS)
    return units


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)


def _load_program():
    """Import the program from this checkout's ``src``; None if absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        _fail(f"no program to benchmark: {SRC / 'repro'} is missing")
        return None
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro
    if SRC.resolve() not in Path(repro.__file__).resolve().parents:
        _fail(f"imported repro from {repro.__file__}, not from {SRC}")
        return None
    import workloads
    return workloads


def _import_layer_modules(layers) -> None:
    """Import every module a layer bin names, so set-up pays for them."""
    import importlib
    for _name, targets in layers.BINS:
        for target in targets:
            importlib.import_module(target.partition(":")[0])


def _reset_peak_rss() -> bool:
    """Restart the kernel's peak-RSS mark at the current RSS (Linux)."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        return False
    return True


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def expected_digest(workload, seed: int):
    """The stored digest for this workload, shape and seed, or None."""
    if not DIGESTS.is_file():
        return None
    table = json.loads(DIGESTS.read_text()).get(workload.name, {})
    if table.get("shape") != workload.shape():
        return None
    return table.get("seeds", {}).get(str(seed))


def _run_units(workload, inputs, seconds: float):
    """Run whole units until ``seconds`` have passed; (unit, wall) pairs."""
    done = []
    started = time.perf_counter()
    while True:
        begin = time.perf_counter()
        unit = workload.run(inputs)
        end = time.perf_counter()
        done.append((unit, end - begin))
        if end - started >= seconds:
            return done


def _check(units, expected, problems: list[str]) -> None:
    """Every unit's digest must agree with the first and the stored one."""
    first = units[0].digest
    for index, unit in enumerate(units):
        problems.extend(unit.problems)
        if unit.digest != first:
            problems.append(f"unit {index} digest {unit.digest[:16]} differs "
                            f"from unit 0's {first[:16]}")
    if expected is not None and first != expected:
        problems.append(f"digest {first[:16]} differs from the stored "
                        f"{expected[:16]}")


def _set_up(workload, seed: int, work: Path):
    """Make the seeded input SETUP_REPEATS times; (inputs, median seconds)."""
    import workloads
    seconds = []
    inputs = None
    for index in range(SETUP_REPEATS):
        begin = time.perf_counter()
        made = workload.prepare(seed, work / f"setup{index}")
        seconds.append(time.perf_counter() - begin)
        if inputs is None:
            inputs = made
        elif isinstance(made, workloads.Archive) and \
                workloads.archive_bytes(made) != workloads.archive_bytes(inputs):
            raise RuntimeError("the same seed made two different archives")
    return inputs, statistics.median(seconds)


def measure(workload, inputs, seconds: float, setup_s: float,
            expected, problems: list[str]):
    """The untraced run: (attempted, failed, end-to-end metrics)."""
    import numpy as np

    gc.collect()
    rss_reset = _reset_peak_rss()
    runs = _run_units(workload, inputs, seconds)
    peak_rss = _peak_rss_mb()
    units = [unit for unit, _wall in runs]
    _check(units, expected, problems)
    costs = []
    for unit, wall in runs:
        samples = unit.samples if unit.samples is not None \
            else [(unit.records, wall)]
        costs.extend(wall_s * 1e6 / n for n, wall_s in samples)
    wall = sum(w for _unit, w in runs)
    print(f"perfbench: {len(runs)} unit(s) in {wall:.2f} s, "
          f"{len(costs)} latency samples"
          + ("" if rss_reset else "; peak RSS includes set-up"),
          file=sys.stderr)
    p50, p90 = np.percentile(costs, [50, 90])
    metrics = {
        "records_per_s": sum(unit.records for unit in units) / wall,
        "record_us_p50": float(p50),
        "record_us_p90": float(p90),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss,
    }
    return (sum(u.attempted for u in units), sum(u.failed for u in units),
            metrics)


def measure_traced(workload, inputs, seconds: float, expected,
                   problems: list[str], spans_path: Path):
    """The traced run: (attempted, failed, per-layer metrics)."""
    import layers
    import tracer as tracing
    import workloads

    reference = _run_units(workload, inputs, seconds / 2.0)
    untraced_wall = sum(wall for _unit, wall in reference) / len(reference)
    tracer = tracing.LayerTracer(layers.BINS)
    perf: list[dict] = []
    traced = []
    tracer.install()
    try:
        with workloads.capture_replay_perf(perf):
            for _ in range(len(reference)):
                with tracer.root():
                    traced.append(workload.run(inputs))
    finally:
        tracer.uninstall()
    units = [unit for unit, _wall in reference] + traced
    _check(units, expected, problems)
    n = len(traced)
    profile = tracer.profile()
    tracer.write(spans_path)
    metrics: dict[str, float] = {}
    for name, entry in profile["bins"].items():
        metrics[f"{name}.self_s"] = entry["self_s"] / n
        metrics[f"{name}.calls"] = entry["calls"] // n
    metrics["unattributed_s"] = profile["unattributed_s"] / n
    metrics["trace_overhead_ratio"] = (profile["wall_s"] / n) / untraced_wall \
        - 1.0
    first = traced[0]
    if perf:
        first.perf = perf[:len(perf) // n]
    metrics.update(workloads.simulated_counts(first))
    print(f"perfbench: traced {n} unit(s), {len(tracer.span_start)} spans, "
          f"{profile['wall_s'] / n:.2f} s per unit traced vs "
          f"{untraced_wall:.2f} s untraced, "
          f"{profile['unattributed_s'] / profile['wall_s']:.1%} unattributed",
          file=sys.stderr)
    return (sum(u.attempted for u in traced), sum(u.failed for u in traced),
            metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workloads = _load_program()
    if workloads is None:
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        _fail(f"unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}")
        return 2
    import layers
    _import_layer_modules(layers)
    import_s = time.perf_counter() - _PROCESS_T0

    work = WORK_DIR / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    problems: list[str] = []
    try:
        inputs, generate_s = _set_up(workload, args.seed, work)
        expected = expected_digest(workload, args.seed)
        if expected is None:
            print(f"perfbench: no stored digest for {workload.name} seed "
                  f"{args.seed}; checking determinism and invariants only",
                  file=sys.stderr)
        if args.trace:
            attempted, failed, metrics = measure_traced(
                workload, inputs, args.seconds, expected, problems,
                WORK_DIR / f"spans-{workload.name}.npz")
            units = per_layer_units(layers.BIN_NAMES)
        else:
            attempted, failed, metrics = measure(
                workload, inputs, args.seconds, import_s + generate_s,
                expected, problems)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if problems:
        for problem in problems:
            _fail(f"INCORRECT: {problem}")
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
