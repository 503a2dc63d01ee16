"""Shared fixtures: a small machine, and a session-scoped study.

Markers
-------
``slow``
    Benchmark-shaped tests: anything that re-runs a full benchmark
    configuration or whose pass/fail depends on host wall-clock speed
    (tests/test_throughput_gate.py's records/sec gate).  The tier-1 lane
    excludes them by default (``addopts = -m 'not slow'`` in
    pyproject.toml); select them explicitly with ``pytest -m slow``,
    which CI's profile-smoke job does against the committed
    BENCH_throughput.json baseline.  Correctness tests — including the
    golden-digest checks — are deliberately *not* marked slow: they must
    run in every tier-1 pass.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import StudyConfig, TraceWarehouse, run_study
from repro.common.flags import FileAttributes
from repro.nt.fs.nodes import DirectoryNode, FileNode
from repro.nt.fs.path import split_path
from repro.nt.fs.volume import Volume
from repro.nt.system import Machine, MachineConfig


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def volume():
    return Volume("C", Volume.NTFS, capacity_bytes=2 * 1024**3)


@pytest.fixture
def machine():
    m = Machine(MachineConfig(name="testbox", seed=7))
    vol = Volume("C", Volume.NTFS, capacity_bytes=2 * 1024**3)
    m.mount("C", vol)
    return m


@pytest.fixture
def process(machine):
    return machine.create_process("testapp.exe", interactive=True)


@pytest.fixture
def win(machine):
    return machine.win32


def make_tree(volume: Volume, path: str) -> DirectoryNode:
    """Create the directory chain for ``path`` directly on a volume."""
    node = volume.root
    for component in split_path(path):
        child = node.lookup(component)
        if child is None:
            child = volume.create_directory(node, component,
                                            FileAttributes.DIRECTORY, now=0)
        node = child
    return node


def make_file(volume: Volume, path: str, size: int = 0) -> FileNode:
    """Create a file of the given size directly on a volume (no tracing)."""
    parts = split_path(path)
    parent = make_tree(volume, "\\".join(parts[:-1])) if len(parts) > 1 \
        else volume.root
    node = volume.create_file(parent, parts[-1], FileAttributes.NORMAL,
                              now=0)
    volume.set_file_size(node, size, now=0)
    node.valid_data_length = size
    return node


@pytest.fixture
def make_file_on(machine):
    """Factory: create a sized file on the machine's C volume."""
    vol = machine.drives["C"]

    def _make(path: str, size: int = 0) -> FileNode:
        return make_file(vol, path, size)

    return _make


# --------------------------------------------------------------------- #
# Deep-equality helpers for studies and collectors, shared by the
# serial-vs-parallel differential harness and the trace-store round-trip
# tests.

def collector_state(collector) -> tuple:
    """Complete comparable state of one collector.

    Everything a collector accumulates — trace records, name records,
    process identities, snapshots, causal spans — as plain comparable
    values.  Two collectors with equal state are interchangeable for
    every analysis.
    """
    return (
        collector.machine_name,
        list(collector.records),
        list(collector.name_records),
        dict(collector.process_names),
        dict(collector.process_interactive),
        [(label, when, list(records))
         for label, when, records in collector.snapshots],
        list(collector.span_records),
    )


def study_state(result) -> dict:
    """Complete comparable state of a study result."""
    return {
        "collectors": [collector_state(c) for c in result.collectors],
        "machine_categories": dict(result.machine_categories),
        "duration_ticks": result.duration_ticks,
        "perf": result.perf,
    }


def assert_studies_identical(a, b) -> None:
    """Assert two study results are record-for-record identical."""
    assert [c.machine_name for c in a.collectors] == \
        [c.machine_name for c in b.collectors]
    for ca, cb in zip(a.collectors, b.collectors):
        assert collector_state(ca) == collector_state(cb), \
            f"collector state differs for {ca.machine_name}"
    sa, sb = study_state(a), study_state(b)
    for key in sa:
        assert sa[key] == sb[key], f"study {key} differs"


# --------------------------------------------------------------------- #
# A small end-to-end study, shared across analysis and integration tests.

@pytest.fixture(scope="session")
def small_study():
    return run_study(StudyConfig(n_machines=6, duration_seconds=90,
                                 seed=11, content_scale=0.1))


@pytest.fixture(scope="session")
def small_warehouse(small_study):
    return TraceWarehouse.from_study(small_study)
