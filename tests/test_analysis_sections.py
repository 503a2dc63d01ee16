"""Tests for the per-section analyses over the shared small study."""

import numpy as np
import pytest

from repro.analysis.activity import user_activity_table
from repro.analysis.cache import analyze_cache
from repro.analysis.content import analyze_content
from repro.analysis.fastio import REQUEST_TYPES, analyze_fastio
from repro.analysis.heavytail import analyze_heavy_tails
from repro.analysis.lifetimes import analyze_lifetimes
from repro.analysis.opens import analyze_opens
from repro.analysis.patterns import (
    PATTERNS,
    USAGES,
    access_pattern_table,
    file_size_distributions,
    run_length_distributions,
)
from repro.analysis.report import summarize_observations


class TestPatterns:
    def test_table_has_all_cells(self, small_warehouse):
        table = access_pattern_table(small_warehouse)
        for usage in USAGES:
            for pattern in PATTERNS + ("usage",):
                cell = table.cell(usage, pattern)
                assert cell.accesses_min <= cell.accesses_mean \
                    <= cell.accesses_max

    def test_usage_shares_sum_to_100(self, small_warehouse):
        table = access_pattern_table(small_warehouse)
        total = sum(table.cell(u, "usage").accesses_mean for u in USAGES)
        assert total == pytest.approx(100.0, abs=1.0)

    def test_pattern_shares_sum_within_usage(self, small_warehouse):
        table = access_pattern_table(small_warehouse)
        for usage in USAGES:
            total = sum(table.cell(usage, p).accesses_mean for p in PATTERNS)
            if total > 0:
                assert total == pytest.approx(100.0, abs=1.0)

    def test_format_renders(self, small_warehouse):
        text = access_pattern_table(small_warehouse).format()
        assert "read-only" in text and "random" in text

    def test_run_lengths(self, small_warehouse):
        runs = run_length_distributions(small_warehouse)
        assert runs.read_runs.size > 0
        x, p = runs.by_files(reads=True)
        assert p[-1] == pytest.approx(1.0)
        xb, pb = runs.by_bytes(reads=True)
        assert pb[-1] == pytest.approx(1.0)

    def test_bytes_weighting_shifts_right(self, small_warehouse):
        # Figure 1 vs 2: weighting by bytes moves the mass toward longer
        # runs (the paper's "most bytes move in long runs").
        runs = run_length_distributions(small_warehouse)
        x_f, p_f = runs.by_files(reads=True)
        x_b, p_b = runs.by_bytes(reads=True)
        from repro.stats.descriptive import cdf_quantile
        median_by_files = cdf_quantile(x_f, p_f, 0.5)
        median_by_bytes = cdf_quantile(x_b, p_b, 0.5)
        assert median_by_bytes >= median_by_files

    def test_file_sizes(self, small_warehouse):
        sizes = file_size_distributions(small_warehouse)
        x, p = sizes.combined_by_opens()
        assert x.size > 0 and p[-1] == pytest.approx(1.0)


class TestActivity:
    def test_table_computes(self, small_study, small_warehouse):
        table = user_activity_table(small_warehouse,
                                    duration_ticks=small_study.duration_ticks)
        assert table.n_users == len(small_warehouse.machine_names)
        assert table.ten_second.max_active_users <= table.n_users
        assert table.ten_second.avg_throughput_kbs >= 0

    def test_ten_second_peaks_exceed_averages(self, small_study,
                                              small_warehouse):
        table = user_activity_table(small_warehouse,
                                    duration_ticks=small_study.duration_ticks)
        row = table.ten_second
        if row.avg_throughput_kbs > 0:
            assert row.peak_user_throughput_kbs >= row.avg_throughput_kbs

    def test_format_renders(self, small_warehouse):
        text = user_activity_table(small_warehouse).format()
        assert "10-second" in text


class TestLifetimes:
    def test_analysis_runs(self, small_warehouse):
        lt = analyze_lifetimes(small_warehouse)
        assert lt.n_created > 0
        assert lt.n_deleted > 0

    def test_method_shares_sum(self, small_warehouse):
        lt = analyze_lifetimes(small_warehouse)
        shares = lt.method_shares()
        assert sum(shares.values()) == pytest.approx(100.0)

    def test_lifetimes_nonnegative(self, small_warehouse):
        lt = analyze_lifetimes(small_warehouse)
        assert np.all(lt.all_lifetimes() >= 0)

    def test_fraction_within_monotone(self, small_warehouse):
        lt = analyze_lifetimes(small_warehouse)
        f1 = lt.fraction_deleted_within(1.0)
        f60 = lt.fraction_deleted_within(60.0)
        assert f1 <= f60

    def test_cdf_reads(self, small_warehouse):
        lt = analyze_lifetimes(small_warehouse)
        if lt.delete_lifetimes.size:
            x, p = lt.lifetime_cdf("explicit")
            assert p[-1] == pytest.approx(1.0)

    def test_size_lifetime_uncorrelated(self, small_warehouse):
        # Figure 7's finding: no meaningful size-lifetime correlation.
        lt = analyze_lifetimes(small_warehouse)
        rho = lt.size_lifetime_correlation()
        if not np.isnan(rho):
            assert abs(rho) < 0.6


class TestOpens:
    def test_analysis_runs(self, small_warehouse):
        opens = analyze_opens(small_warehouse)
        assert opens.interarrival_all.size > 0
        assert opens.session_all.size > 0

    def test_control_share_in_range(self, small_warehouse):
        opens = analyze_opens(small_warehouse)
        assert 0 < opens.control_open_share_pct < 100

    def test_interarrivals_positive(self, small_warehouse):
        opens = analyze_opens(small_warehouse)
        assert np.all(opens.interarrival_all >= 0)

    def test_failure_breakdown(self, small_warehouse):
        opens = analyze_opens(small_warehouse)
        assert 0 <= opens.open_failure_pct <= 100
        if opens.open_failure_pct > 0:
            assert opens.failure_not_found_pct \
                + opens.failure_collision_pct <= 100.001

    def test_followup_gaps_match_paper_bands(self, small_warehouse):
        # §8.2: ~80% of follow-up reads arrive within 90 us and writes
        # within 30 us; assert the same order of magnitude (ticks are
        # 100 ns).
        # (Upper percentiles are dominated by cache-miss disk time in this
        # scaled-down study, so the band is asserted on the median.)
        opens = analyze_opens(small_warehouse)
        if opens.read_followup_gaps.size > 50:
            assert np.median(opens.read_followup_gaps) < 90 * 10 * 3
        if opens.write_followup_gaps.size > 50:
            assert np.median(opens.write_followup_gaps) < 30 * 10 * 3

    def test_close_gap_written_longer(self, small_warehouse):
        # §8.1: written files close seconds later; clean files in micros.
        opens = analyze_opens(small_warehouse)
        if opens.close_gap_written.size and opens.close_gap_clean.size:
            assert np.median(opens.close_gap_written) > \
                np.median(opens.close_gap_clean)

    def test_session_cdfs_render(self, small_warehouse):
        opens = analyze_opens(small_warehouse)
        x, p = opens.session_cdf("all")
        assert p[-1] == pytest.approx(1.0)


class TestCacheAnalysis:
    def test_runs(self, small_study, small_warehouse):
        cache = analyze_cache(small_warehouse, small_study.perf)
        assert 0 < cache.read_cache_hit_pct <= 100
        assert 0 < cache.single_prefetch_sufficient_pct <= 100

    def test_lazy_write_bursts_present(self, small_study, small_warehouse):
        cache = analyze_cache(small_warehouse, small_study.perf)
        assert cache.lazy_write_burst_sizes.size > 0
        assert np.all(cache.lazy_write_sizes <= 65536)

    def test_flush_population(self, small_study, small_warehouse):
        cache = analyze_cache(small_warehouse, small_study.perf)
        assert 0 <= cache.flush_user_pct <= 100


class TestFastIo:
    def test_shares_in_range(self, small_warehouse):
        fio = analyze_fastio(small_warehouse)
        assert 0 < fio.fastio_read_share_pct < 100
        assert 0 < fio.fastio_write_share_pct < 100

    def test_all_request_types_present(self, small_warehouse):
        fio = analyze_fastio(small_warehouse)
        for rt in REQUEST_TYPES:
            assert fio.latencies_micros[rt].size > 0, rt

    def test_fastio_faster_than_irp(self, small_warehouse):
        # Figure 13's headline: FastIO medians sit well below IRP medians.
        fio = analyze_fastio(small_warehouse)
        assert fio.median_latency("fastio-read") < \
            fio.median_latency("irp-read")
        assert fio.median_latency("fastio-write") < \
            fio.median_latency("irp-write")

    def test_cdfs_render(self, small_warehouse):
        fio = analyze_fastio(small_warehouse)
        x, p = fio.latency_cdf("fastio-read")
        assert p[-1] == pytest.approx(1.0)


class TestContent:
    def test_volumes_summarized(self, small_warehouse):
        content = analyze_content(small_warehouse)
        assert content.volumes
        for v in content.volumes:
            assert v.n_files > 0

    def test_churn_concentrated_in_profile(self, small_warehouse):
        # §5: most local changes land in the profile tree.
        content = analyze_content(small_warehouse)
        share = content.mean_profile_share_pct()
        assert share > 50.0

    def test_executables_dominate_bytes(self, small_warehouse):
        content = analyze_content(small_warehouse)
        shares = [v.executable_byte_share_pct for v in content.volumes
                  if not np.isnan(v.executable_byte_share_pct)]
        assert np.mean(shares) > 30.0


class TestHeavyTails:
    def test_variables_analyzed(self, small_warehouse):
        report = analyze_heavy_tails(small_warehouse)
        assert len(report.variables) >= 5

    def test_most_variables_heavy(self, small_warehouse):
        report = analyze_heavy_tails(small_warehouse)
        assert report.heavy_tailed_fraction(alpha_threshold=2.5) > 0.5

    def test_burstiness_exceeds_poisson(self, small_warehouse):
        report = analyze_heavy_tails(small_warehouse)
        if report.burstiness is not None:
            assert report.burstiness.trace_iod[0] > \
                2 * report.burstiness.poisson_iod[0]

    def test_interactive_minority(self, small_warehouse):
        report = analyze_heavy_tails(small_warehouse)
        assert report.interactive_access_pct < 50.0

    def test_format_renders(self, small_warehouse):
        assert "alpha" in analyze_heavy_tails(small_warehouse).format()


class TestReport:
    def test_summary_builds(self, small_study, small_warehouse):
        summary = summarize_observations(small_warehouse,
                                         small_study.perf)
        assert len(summary.observations) >= 20
        text = summary.format()
        assert "paper" in text and "measured" in text

    def test_values_accessible(self, small_study, small_warehouse):
        summary = summarize_observations(small_warehouse,
                                         small_study.perf)
        v = summary.value("opens for control/directory operations")
        assert 0 < v < 100
