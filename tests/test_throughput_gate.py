"""The records/sec regression gate.

``BENCH_throughput.json`` (committed at the repo root, refreshed by
``repro perf --bench-json``) is the headline benchmark of the
simulator's hot path.  The gate splits the baseline the way the payload
does:

* The ``deterministic`` block — the study parameters and the record
  count — must match a fresh run *exactly*.  A mismatch means the
  simulator changed, not the host.
* ``records_per_second`` is compared with a tolerance band after
  rescaling by the host-calibration workload, so a slower CI runner
  shifts the expectation instead of tripping the gate.  A drop of more
  than 25% beyond that is a real hot-path regression and fails.

The measuring tests are marked ``slow`` (they re-run the full benchmark
configuration) and excluded from the tier-1 lane; CI's profile-smoke job
runs them with ``-m slow``.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter

import pytest

from repro import StudyConfig, run_study
from repro.cli import host_calibration_seconds, main

BASELINE_PATH = Path(__file__).resolve().parents[1] / "BENCH_throughput.json"

# Fractional records/sec regression (after host rescaling) that fails.
REGRESSION_TOLERANCE = 0.25


@pytest.fixture(scope="module")
def baseline() -> dict:
    return json.loads(BASELINE_PATH.read_text())


@pytest.fixture(scope="module")
def fresh(baseline):
    """One fresh run of the committed benchmark configuration."""
    det = baseline["deterministic"]
    config = StudyConfig(
        n_machines=det["machines"], duration_seconds=det["seconds"],
        seed=det["seed"], content_scale=det["scale"])
    begin = perf_counter()
    result = run_study(config)
    wall = perf_counter() - begin
    return result, wall


@pytest.mark.slow
def test_deterministic_block_matches_committed_baseline(baseline, fresh):
    result, _wall = fresh
    assert result.total_records == baseline["deterministic"]["records"]


@pytest.mark.slow
def test_records_per_second_within_tolerance_band(baseline, fresh):
    result, wall = fresh
    measured = result.total_records / wall
    expected = baseline["records_per_second"]
    base_cal = baseline.get("calibration_seconds")
    if base_cal:
        # Slower host => larger calibration time => smaller expectation.
        expected *= base_cal / host_calibration_seconds()
    floor = expected * (1.0 - REGRESSION_TOLERANCE)
    assert measured >= floor, (
        f"hot-path throughput regressed: measured {measured:,.0f} rec/s "
        f"against a host-adjusted expectation of {expected:,.0f} "
        f"(gate at {floor:,.0f}); if this is an intentional change, "
        f"refresh BENCH_throughput.json with `repro perf --bench-json`")


def test_profile_json_deterministic_block_is_reproducible(tmp_path):
    """Same parameters, two runs: the deterministic block is identical.

    Wall-clock-derived fields stay *outside* the block; the block itself
    is a pure function of the study parameters.
    """
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out_a, out_b):
        assert main(["perf", "--machines", "1", "--seconds", "5",
                     "--bench-json", str(out)]) == 0
    doc_a = json.loads(out_a.read_text())
    doc_b = json.loads(out_b.read_text())
    assert doc_a["deterministic"] == doc_b["deterministic"]
    for nondeterministic in ("phases", "records_per_second",
                             "calibration_seconds"):
        assert nondeterministic in doc_a
        assert nondeterministic not in doc_a["deterministic"]
    # The stable counts are mirrored inside the block.
    assert doc_a["deterministic"]["records"] == doc_a["records"]


def test_committed_baseline_is_current_format(baseline):
    """The committed file carries everything the slow gate needs."""
    assert baseline["format"] == "nt-throughput-2"
    det = baseline["deterministic"]
    for key in ("machines", "seconds", "seed", "scale", "records"):
        assert key in det, key
    assert baseline["calibration_seconds"] > 0
    assert baseline["records_per_second"] > 0
    assert det["records"] > 0
