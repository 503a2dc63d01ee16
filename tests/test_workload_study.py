"""Tests for study orchestration and end-to-end reproduction bands."""

import numpy as np
import pytest

from repro import StudyConfig, run_study
from repro.analysis.report import summarize_observations
from repro.workload.study import _assign_categories


class TestCategoryAssignment:
    def test_counts_match(self):
        cfg = StudyConfig(n_machines=10)
        assigned = _assign_categories(cfg, np.random.default_rng(0))
        assert len(assigned) == 10

    def test_small_fleet_keeps_minorities(self):
        # Largest-remainder must not drop the 10% categories for n=8.
        cfg = StudyConfig(n_machines=8)
        assigned = _assign_categories(cfg, np.random.default_rng(0))
        assert "administrative" in assigned
        assert "scientific" in assigned

    def test_proportions_roughly_respected(self):
        cfg = StudyConfig(n_machines=20)
        assigned = _assign_categories(cfg, np.random.default_rng(0))
        assert assigned.count("personal") == 6  # 0.30 * 20
        assert assigned.count("walkup") == 5    # 0.25 * 20


class TestStudyRun:
    def test_study_produces_collectors(self, small_study):
        assert len(small_study.collectors) == 6
        assert small_study.total_records > 1000

    def test_every_machine_has_snapshots(self, small_study):
        for collector in small_study.collectors:
            labels = {label for label, _t, _r in collector.snapshots}
            assert labels  # at least the local C volume
            # Start and end snapshots for each volume.
            for label in labels:
                count = sum(1 for l, _t, _r in collector.snapshots
                            if l == label)
                assert count == 2

    def test_counters_per_machine(self, small_study):
        assert set(small_study.perf) == \
            set(small_study.machine_categories)

    def test_deterministic_given_seed(self):
        a = run_study(StudyConfig(n_machines=1, duration_seconds=10,
                                  seed=99, content_scale=0.05))
        b = run_study(StudyConfig(n_machines=1, duration_seconds=10,
                                  seed=99, content_scale=0.05))
        assert a.total_records == b.total_records
        ra = a.collectors[0].records
        rb = b.collectors[0].records
        assert [r.kind for r in ra[:500]] == [r.kind for r in rb[:500]]

    def test_different_seeds_differ(self):
        a = run_study(StudyConfig(n_machines=1, duration_seconds=10,
                                  seed=1, content_scale=0.05))
        b = run_study(StudyConfig(n_machines=1, duration_seconds=10,
                                  seed=2, content_scale=0.05))
        assert a.total_records != b.total_records


class TestEndToEndBands:
    """The headline observations must land in loose bands around the
    paper's values — the reproduction's shape claims."""

    @pytest.fixture(scope="class")
    def summary(self, small_study, small_warehouse):
        return summarize_observations(small_warehouse, small_study.perf)

    def test_control_opens_dominate(self, summary):
        # Paper: 74%.
        assert summary.value("opens for control/directory operations") > 50

    def test_open_failures_band(self, summary):
        # Paper: 12%.
        v = summary.value("open requests that fail")
        assert 3 < v < 30

    def test_most_failures_are_not_found(self, summary):
        # Paper: 52% not-found vs 31% collision.
        assert summary.value("failed opens: file did not exist") > \
            summary.value("failed opens: already existed")

    def test_fastio_shares_substantial(self, summary):
        # Paper: 96% writes vs 59% reads.  At this fixture's scale the
        # two shares are close; the strict ordering is asserted in the
        # larger benchmark study (bench_fig13_14_fastio).
        reads = summary.value("reads over the FastIO path")
        writes = summary.value("writes over the FastIO path")
        assert writes > 50
        assert reads > 30
        assert writes > reads - 10

    def test_sessions_are_short(self, summary):
        # Paper: 90% under a second.
        assert summary.value("sessions open less than 1s") > 80

    def test_new_files_die_young(self, summary):
        # Paper: ~80% within 4 s.
        assert summary.value("new files deleted within 4s (all methods)") > 50

    def test_deletion_mix(self, summary):
        # Paper: 37 / 62 / 1.
        # At this fixture's tiny scale the overwrite/explicit split is
        # noisy; assert the robust shape only (both dwarf the temporary
        # sliver, which together they dominate).
        ow = summary.value("deletions by overwrite/truncate")
        ex = summary.value("deletions by explicit delete")
        tmp = summary.value("deletions by temporary attribute")
        assert ow > tmp and ex > tmp
        assert ow + ex > 70
        assert tmp < 15

    def test_prefetch_sufficiency(self, summary):
        # Paper: 92%.
        assert summary.value("open-for-read needing a single prefetch") > 75

    def test_interactive_minority(self, summary):
        # Paper: <8%.  The compressed study simulates continuously-active
        # users with no idle background hours, which inflates the
        # interactive share; the qualitative claim — the majority of
        # accesses come from processes taking no direct user input —
        # still holds.
        assert summary.value(
            "accesses from processes with direct user input") < 50

    def test_heavy_tails_everywhere(self, summary):
        assert summary.value(
            "variables with infinite variance (alpha<2)") >= 40

    def test_burstiness_survives_aggregation(self, summary):
        assert summary.value(
            "burstiness vs Poisson (max IoD ratio across scales)") > 2
