"""Serial-vs-parallel differential harness for the study engine.

The parallel engine's whole contract is equivalence: for the same
``StudyConfig.seed``, fanning machines out over worker processes must
produce a ``StudyResult`` that is record-for-record — and, for
``perf.json``, byte-for-byte — identical to the serial loop.  Kahanwal &
Singh's point that replayed workloads are only trustworthy once validated
for equivalence is enforced here across several (seed, n_machines,
workers) combinations, including fleets smaller and larger than the
worker pool and runs with periodic snapshots enabled.

Also covered: the worker failure contract — any crash, in-worker
exception, or unpicklable payload surfaces as a clean ``StudyError``
naming the machine, never a bare ``BrokenProcessPool`` traceback.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import StudyConfig, StudyError, TraceWarehouse, run_study
from repro.nt.perf import perf_json_bytes
from repro.workload.parallel import (KeepSink, MachineTask, drive,
                                     machine_tasks, resolve_workers)
from repro.workload.study import machine_name_for

from tests.conftest import assert_studies_identical


def _config(seed: int, n_machines: int, workers=None, **overrides
            ) -> StudyConfig:
    base = dict(n_machines=n_machines, duration_seconds=10.0, seed=seed,
                content_scale=0.05, with_network_shares=False,
                workers=workers)
    base.update(overrides)
    return StudyConfig(**base)


# The acceptance matrix: fleets below, equal to, and above the worker
# count; one combination exercises periodic snapshots, one the network
# shares (the remote-volume trace path).
DIFFERENTIAL_CASES = [
    pytest.param(3, 3, 2, {}, id="seed3-3machines-2workers"),
    pytest.param(7, 5, 2, {"snapshot_interval_seconds": 4.0},
                 id="seed7-5machines-2workers-snapshots"),
    pytest.param(11, 2, 4, {"with_network_shares": True,
                            "duration_seconds": 8.0},
                 id="seed11-2machines-4workers-shares"),
]


class TestSerialParallelDifferential:
    @pytest.mark.parametrize("seed, n_machines, workers, overrides",
                             DIFFERENTIAL_CASES)
    def test_results_identical(self, seed, n_machines, workers, overrides):
        serial = run_study(_config(seed, n_machines, None, **overrides))
        parallel = run_study(_config(seed, n_machines, workers, **overrides))

        # Record-level trace equality (records, names, processes,
        # snapshots), plus categories, counters and perf snapshots.
        assert serial.total_records > 0
        assert_studies_identical(serial, parallel)

        # Byte-identical perf.json for the same meta.
        meta = {"machines": n_machines, "seed": seed}
        assert perf_json_bytes(serial.perf, meta) == \
            perf_json_bytes(parallel.perf, meta)

        # Identical merged (fleet-wide) perf counters.
        assert serial.perf_aggregate() == parallel.perf_aggregate()

        # Identical warehouse fact tables and dimensions.
        ws = TraceWarehouse.from_study(serial)
        wp = TraceWarehouse.from_study(parallel)
        assert ws.machine_names == wp.machine_names
        for column in TraceWarehouse.COLUMNS:
            assert np.array_equal(getattr(ws, column), getattr(wp, column)), \
                f"warehouse column {column} differs"
        assert ws.files == wp.files
        assert ws.processes == wp.processes

    def test_snapshot_case_actually_snapshots(self):
        """Guard the matrix: the snapshot combo must exercise mid-run walks."""
        result = run_study(_config(7, 2, 2, snapshot_interval_seconds=4.0))
        # Start + end + at least one periodic walk per machine.
        assert all(len(c.snapshots) > 2 for c in result.collectors)


class TestResolveWorkers:
    def test_auto_detects_cores(self):
        import os
        assert resolve_workers(0, 64) == max(1, min(os.cpu_count() or 1, 64))
        assert resolve_workers(None, 64) == resolve_workers(0, 64)

    def test_capped_by_fleet_size(self):
        assert resolve_workers(8, 3) == 3

    def test_floor_of_one(self):
        assert resolve_workers(1, 5) == 1
        assert resolve_workers(4, 0) == 1


class TestMachineTasks:
    def test_plan_matches_serial_identities(self):
        config = _config(5, 4)
        tasks = machine_tasks(config)
        assert [t.index for t in tasks] == [0, 1, 2, 3]
        assert all(t.n_total == 4 for t in tasks)
        serial = run_study(dataclasses.replace(config, duration_seconds=4.0))
        assert [t.machine_name for t in tasks] == \
            [c.machine_name for c in serial.collectors]

    def test_tasks_pickle(self):
        import pickle
        for task in machine_tasks(_config(5, 2)):
            assert pickle.loads(pickle.dumps(task)) == task


class TestWorkerFailures:
    """Satellite: poison machine specs surface as clean StudyErrors."""

    def _tasks(self, n_machines=2):
        return machine_tasks(_config(5, n_machines,
                                     duration_seconds=4.0))

    def test_worker_exception_names_machine(self):
        tasks = self._tasks()
        tasks[1] = dataclasses.replace(tasks[1], fault="raise")
        expected = machine_name_for(1, tasks[1].category_name)
        with pytest.raises(StudyError, match=expected):
            drive(tasks, KeepSink(), workers=2)

    def test_worker_crash_is_not_bare_broken_pool(self):
        # A single poisoned machine so the broken pool's blame is exact.
        tasks = self._tasks(n_machines=1)
        tasks[0] = dataclasses.replace(tasks[0], fault="crash")
        with pytest.raises(StudyError, match=r"m00-.*worker process died"):
            drive(tasks, KeepSink(), workers=1)

    def test_unpicklable_worker_payload_names_machine(self):
        tasks = self._tasks()
        tasks[1] = dataclasses.replace(tasks[1], fault="unpicklable-result")
        expected = machine_name_for(1, tasks[1].category_name)
        with pytest.raises(StudyError, match=expected):
            drive(tasks, KeepSink(), workers=2)

    def test_unpicklable_machine_spec_names_machine(self):
        # App state that cannot cross the process boundary at submit time.
        tasks = self._tasks()
        poisoned_config = dataclasses.replace(
            tasks[1].config, category_mix=(("walkup", lambda: 1.0),))
        tasks[1] = MachineTask(index=tasks[1].index,
                               n_total=tasks[1].n_total,
                               category_name=tasks[1].category_name,
                               config=poisoned_config)
        expected = machine_name_for(1, tasks[1].category_name)
        with pytest.raises(StudyError, match=expected):
            drive(tasks, KeepSink(), workers=2)
