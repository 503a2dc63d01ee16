"""``repro run --out`` archives in flat memory.

The run drives its machines into the archive sink, which writes each
machine's ``.nttrace`` as soon as that machine finishes and keeps only its
counts, perf snapshot and metrics section.  Two checks hold it to that:
the number of live trace collectors at every ``machine-done`` event, and
a ``tracemalloc`` budget on a 36-machine run (slow-marked, run in CI's
untimed memory pass).
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main as cli_main
from repro.nt.tracing.collector import TraceCollector
from repro.nt.tracing.store import study_paths
from repro.workload.study import StudyTelemetry

# Peak traced MB of the 36-machine run below.  Keeping every collector
# until the end and then writing them all peaks at about 41 MB there;
# writing each machine as it finishes peaks at about 23 MB.
PEAK_BUDGET_MB = 32.0


def _live_collectors() -> int:
    gc.collect()
    return sum(isinstance(obj, TraceCollector) for obj in gc.get_objects())


def test_one_trace_alive_at_each_machine_done(tmp_path, monkeypatch):
    baseline = _live_collectors()
    alive: list[int] = []
    emit = StudyTelemetry.emit

    def counting_emit(self, event, **fields):
        if event == "machine-done":
            alive.append(_live_collectors() - baseline)
        emit(self, event, **fields)

    monkeypatch.setattr(StudyTelemetry, "emit", counting_emit)
    out = tmp_path / "traces"
    rc = cli_main(["run", "--machines", "4", "--seconds", "8",
                   "--seed", "5", "--scale", "0.05", "--progress",
                   "--out", str(out)])
    assert rc == 0
    assert len(study_paths(out)) == 4
    # Only the machine that just finished holds a trace; every earlier
    # one is already on disk and its collector gone.
    assert alive == [1, 1, 1, 1]


@pytest.mark.slow
def test_run_out_traced_peak_within_budget(tmp_path):
    script = (
        "import sys, tracemalloc\n"
        "from repro.cli import main\n"
        "tracemalloc.start()\n"
        "status = main(sys.argv[1:])\n"
        "peak = tracemalloc.get_traced_memory()[1] / (1024 * 1024)\n"
        "print(f'peak_traced_mb={peak:.1f}')\n"
        "sys.exit(status)\n")
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", script, "run", "--machines", "36",
         "--seconds", "30", "--scale", "0.05", "--seed", "7",
         "--out", str(tmp_path / "traces")],
        env=env, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stderr
    assert "archived 36 machines" in proc.stdout
    peak = float(proc.stdout.rsplit("peak_traced_mb=", 1)[1])
    assert peak <= PEAK_BUDGET_MB, (
        f"repro run --out peaked at {peak:.1f} MB traced, over the "
        f"{PEAK_BUDGET_MB:.0f} MB budget")
