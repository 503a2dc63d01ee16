"""Table 1 — the summary of observations (paper vs measured)."""

from benchmarks.conftest import print_header


def test_table1_summary(benchmark, study, warehouse):
    from repro.analysis.report import summarize_observations

    summary = benchmark(summarize_observations, warehouse, study.perf)
    print_header("Table 1: summary of observations")
    print(summary.format())
