"""StudyTelemetry under parallel execution.

Worker processes forward progress events over a queue; the parent's drain
thread re-emits them through one ``StudyTelemetry``.  These tests pin the
operational guarantees: every printed line is well-formed (never
interleaved mid-line even with concurrent workers), per-machine progress
covers the whole fleet, a campaign's console reports each machine while
later ones still simulate, ``study-done`` arrives after every worker
event, and wall-clock phase profiling still accounts for the run's total
time.
"""

from __future__ import annotations

import dataclasses
import io
import re
import time

from repro import StudyConfig, StudyTelemetry, TraceWarehouse, run_study

# One structured line: "[telemetry] event=<name> key=value key=value ...",
# keys and values with no internal whitespace.  A mid-line interleaving of
# two emits cannot match this.
LINE_RE = re.compile(
    r"^\[telemetry\] event=[\w-]+(?: [\w.]+=[^\s]+)*$")


def _parallel_config(n_machines=3, workers=2) -> StudyConfig:
    return StudyConfig(n_machines=n_machines, duration_seconds=6.0, seed=9,
                       content_scale=0.05, with_network_shares=False,
                       workers=workers)


class TestParallelTelemetry:
    def test_lines_wellformed_and_never_interleaved(self):
        stream = io.StringIO()
        telemetry = StudyTelemetry(stream=stream, verbose=True)
        result = run_study(_parallel_config(), telemetry=telemetry)
        lines = stream.getvalue().splitlines()
        assert len(lines) >= len(result.collectors) + 1
        for line in lines:
            assert LINE_RE.match(line), f"malformed telemetry line: {line!r}"

    def test_every_machine_reports_progress(self):
        telemetry = StudyTelemetry(verbose=False)
        result = run_study(_parallel_config(), telemetry=telemetry)
        done = [e for e in telemetry.events if e["event"] == "machine-done"]
        # Workers complete in nondeterministic order; the *set* of
        # machines must still be exactly the fleet, each with records.
        assert sorted(e["machine"] for e in done) == \
            sorted(c.machine_name for c in result.collectors)
        assert all(e["records"] > 0 for e in done)
        assert all(e["of"] == len(result.collectors) for e in done)

    def test_study_done_after_all_worker_events(self):
        telemetry = StudyTelemetry(verbose=False)
        run_study(_parallel_config(), telemetry=telemetry)
        events = [e["event"] for e in telemetry.events]
        assert events[-1] == "study-done"
        assert events.count("study-done") == 1
        assert events.count("machine-done") == 3

    def test_phase_profile_sums_to_total_wall_time(self):
        telemetry = StudyTelemetry(verbose=False)
        started = time.perf_counter()
        with telemetry.phase("simulate"):
            result = run_study(_parallel_config(n_machines=2),
                               telemetry=telemetry)
        with telemetry.phase("warehouse"):
            TraceWarehouse.from_study(result)
        total = time.perf_counter() - started
        covered = sum(telemetry.phase_seconds.values())
        assert telemetry.phase_seconds["simulate"] > 0.0
        assert telemetry.phase_seconds["warehouse"] > 0.0
        # The two phases tile the measured interval: they can never
        # exceed it, and the only uncovered time is microseconds of test
        # glue between the context managers.
        assert covered <= total + 1e-6
        assert total - covered < 0.25

    def test_campaign_folds_while_workers_still_simulate(self):
        # The driver hands machine 0 to the fold sink as soon as it is
        # done, so the console's first line does not wait for the pool.
        # The last machine simulates a hundred times longer than the
        # others (about a second of wall time), which keeps the check
        # independent of host load.
        from repro.workload.campaign import CampaignConsole, FoldSink
        from repro.workload.parallel import drive, machine_tasks
        config = _parallel_config(n_machines=3)
        tasks = machine_tasks(config)
        tasks[-1] = dataclasses.replace(tasks[-1], config=dataclasses.replace(
            config, duration_seconds=100 * config.duration_seconds))
        console = CampaignConsole(len(tasks), quiet=True)
        drive(tasks, FoldSink(console), config.workers, console)
        events = [e["event"] for e in console.events]
        assert events.count("machine-done") == 3
        last_done = len(events) - 1 - events[::-1].index("machine-done")
        assert events.index("machine-folded") < last_done
        folded = [e["index"] for e in console.events
                  if e["event"] == "machine-folded"]
        assert folded == [0, 1, 2]

    def test_telemetry_presence_never_changes_results(self):
        from tests.conftest import assert_studies_identical
        silent = run_study(_parallel_config())
        chatty = run_study(_parallel_config(),
                           telemetry=StudyTelemetry(stream=io.StringIO()))
        assert_studies_identical(silent, chatty)
