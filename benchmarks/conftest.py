"""Shared benchmark fixtures.

One trace-collection study is run per benchmark session and shared by all
benches; each bench times its *analysis* (the paper's deliverable) and
prints the paper-vs-measured rows or curve marks for its table or figure.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import StudyConfig, TraceWarehouse, run_study

BENCH_SEED = 1999  # SOSP'99


@pytest.fixture(scope="session")
def study():
    """The benchmark study: 8 machines, 3 simulated minutes each."""
    return run_study(StudyConfig(n_machines=8, duration_seconds=180,
                                 seed=BENCH_SEED, content_scale=0.12))


@pytest.fixture(scope="session")
def warehouse(study):
    wh = TraceWarehouse.from_study(study)
    # Build the instance table once, outside any timed region.
    _ = wh.instances
    return wh


@pytest.fixture(scope="session")
def bench_rng():
    return np.random.default_rng(BENCH_SEED)


def run_mini_study(seed: int = 77, n_machines: int = 2,
                   seconds: float = 60.0, scale: float = 0.1):
    """A small study for ablation benches; returns (result, warehouse)."""
    result = run_study(StudyConfig(n_machines=n_machines,
                                   duration_seconds=seconds, seed=seed,
                                   content_scale=scale))
    wh = TraceWarehouse.from_study(result)
    _ = wh.instances
    return result, wh


def print_header(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def print_row(label: str, paper: str, measured: str) -> None:
    print(f"  {label:<48} paper: {paper:<16} measured: {measured}")
