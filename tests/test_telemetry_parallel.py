"""StudyTelemetry under parallel execution.

Worker processes forward progress events over a queue; the parent's drain
thread re-emits them through one ``StudyTelemetry``.  These tests pin the
operational guarantees: every printed line is well-formed (never
interleaved mid-line even with concurrent workers), per-machine progress
covers the whole fleet, a campaign's console reports each machine while
later ones still simulate, ``study-done`` arrives after every worker
event, a run emits the same events serially and under workers, and the
CLI's wall-clock phase timing still accounts for the run's total time.
"""

from __future__ import annotations

import dataclasses
import io
import json
import re
import time

import pytest

from repro import (
    ReplayConfig,
    StudyConfig,
    StudyTelemetry,
    TraceWarehouse,
    replay_archive,
    run_study,
)
from repro.cli import timed_phase
from repro.workload.campaign import CampaignConsole, run_campaign
from repro.workload.study import archive_study

# One structured line: "[telemetry] event=<name> key=value key=value ...",
# keys and values with no internal whitespace.  A mid-line interleaving of
# two emits cannot match this.
LINE_RE = re.compile(
    r"^\[telemetry\] event=[\w-]+(?: [\w.]+=[^\s]+)*$")


def _parallel_config(n_machines=3, workers=2) -> StudyConfig:
    return StudyConfig(n_machines=n_machines, duration_seconds=6.0, seed=9,
                       content_scale=0.05, with_network_shares=False,
                       workers=workers)


EVENTS_CONFIG = StudyConfig(n_machines=3, duration_seconds=5.0, seed=5,
                            content_scale=0.05)


def _canonical(events: list[dict]) -> list[str]:
    return sorted(json.dumps(event, sort_keys=True) for event in events)


def _study_events(workers, _archive) -> list[str]:
    telemetry = StudyTelemetry(verbose=False)
    run_study(dataclasses.replace(EVENTS_CONFIG, workers=workers), telemetry)
    return _canonical(telemetry.events)


def _campaign_events(workers, _archive) -> list[str]:
    console = CampaignConsole(EVENTS_CONFIG.n_machines, quiet=True)
    run_campaign(dataclasses.replace(EVENTS_CONFIG, workers=workers), console)
    return _canonical(console.events)


def _replay_events(workers, archive) -> list[str]:
    telemetry = StudyTelemetry(verbose=False)
    replay_archive(archive, ReplayConfig(seed=5, workers=workers), telemetry)
    return _canonical(telemetry.events)


@pytest.fixture(scope="module")
def events_archive(tmp_path_factory):
    directory = tmp_path_factory.mktemp("events") / "traces"
    archive_study(EVENTS_CONFIG, directory)
    return directory


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
        phases: dict[str, float] = {}
        started = time.perf_counter()
        with timed_phase(phases, "simulate"):
            result = run_study(_parallel_config(n_machines=2),
                               telemetry=telemetry)
        with timed_phase(phases, "warehouse"):
            TraceWarehouse.from_study(result)
        total = time.perf_counter() - started
        covered = sum(phases.values())
        assert phases["simulate"] > 0.0
        assert phases["warehouse"] > 0.0
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
        from repro.workload.campaign import FoldSink
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

    @pytest.mark.parametrize("events", [
        _study_events, _campaign_events, _replay_events,
    ], ids=["run_study", "run_campaign", "replay_archive"])
    def test_events_same_serial_and_under_workers(self, events,
                                                  events_archive):
        # Events carry simulated, deterministic fields only, so where a
        # machine ran cannot show in them; only their order may differ.
        assert events(2, events_archive) == events(None, events_archive)

    def test_telemetry_presence_never_changes_results(self):
        from tests.conftest import assert_studies_identical
        silent = run_study(_parallel_config())
        chatty = run_study(_parallel_config(),
                           telemetry=StudyTelemetry(stream=io.StringIO()))
        assert_studies_identical(silent, chatty)
