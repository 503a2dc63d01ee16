"""The analysis pipeline: the paper's actual deliverable.

Mirrors the paper's §4 data-warehouse design: a *trace* fact table (every
record) and an *instance* fact table (one row per file-object open-close
session with per-session summaries), with dimension tables for files,
processes and machines.  The per-section analyses consume these tables:

* :mod:`repro.analysis.sessions` — instance construction with §3.3's
  paging-duplicate filtering.
* :mod:`repro.analysis.patterns` — §6.2's access patterns (table 3,
  figures 1–4).
* :mod:`repro.analysis.activity` — §6.1's user activity (table 2).
* :mod:`repro.analysis.lifetimes` — §6.3's new-file lifetimes (figures 6–7).
* :mod:`repro.analysis.opens` — §8.1's open/close behaviour (figures 11–12).
* :mod:`repro.analysis.cache` — §9's cache-manager effectiveness.
* :mod:`repro.analysis.fastio` — §10's FastIO share (figures 13–14).
* :mod:`repro.analysis.content` — §5's file-system content and churn.
* :mod:`repro.analysis.heavytail` — §7's distribution analyses
  (figures 8–10).
* :mod:`repro.analysis.attribution` — §9–10's induced-I/O breakdown and
  critical-path decomposition, exact via causal spans.
* :mod:`repro.analysis.report` — the table-1 observation summary.
* :mod:`repro.analysis.timeseries` — flight-recorder interval series with
  figure-8 burst/dispersion analysis.
* :mod:`repro.analysis.openmetrics` — OpenMetrics text exposition of
  perf snapshots.
* :mod:`repro.analysis.streaming` — bounded-memory mergeable streaming
  aggregates (``StatsSketch``) with exact warehouse reconciliation.
"""

from repro.analysis.warehouse import TraceWarehouse
from repro.analysis.sessions import Instance, build_instances
from repro.analysis.patterns import (
    AccessPatternTable,
    access_pattern_table,
    run_length_distributions,
    file_size_distributions,
)
from repro.analysis.activity import UserActivityTable, user_activity_table
from repro.analysis.lifetimes import LifetimeAnalysis, analyze_lifetimes
from repro.analysis.opens import OpenCloseAnalysis, analyze_opens
from repro.analysis.cache import CacheAnalysis, analyze_cache
from repro.analysis.fastio import FastIoAnalysis, analyze_fastio
from repro.analysis.content import ContentAnalysis, analyze_content
from repro.analysis.heavytail import HeavyTailReport, analyze_heavy_tails
from repro.analysis.report import ObservationSummary, summarize_observations
from repro.analysis.drilldown import (
    by_process,
    by_file_type,
    category_of,
    format_process_table,
    format_type_table,
)
from repro.analysis.categories import by_category, format_category_table
from repro.analysis.figures import figure_series, write_csv
from repro.analysis.compare import TraceComparison, compare_warehouses, ks_distance
from repro.analysis.fidelity import (
    CORE_KINDS,
    FidelityReport,
    MachineFidelity,
    TraceStats,
    fidelity_report,
    machine_fidelity,
)
from repro.analysis.attribution import (
    AttributionTable,
    CriticalPathTable,
    attribution_table,
    critical_path_table,
    reconcile_attribution,
)
from repro.analysis.timeseries import (
    TimeseriesReport,
    analyze_metrics_log,
    reconcile_with_archive,
)
from repro.analysis.openmetrics import (
    openmetrics_exposition,
    validate_openmetrics,
    write_openmetrics,
)
from repro.analysis.streaming import (
    Digest,
    StatsSketch,
    fold_collector,
    fold_store_file,
    format_streaming_report,
    reconcile_sketch,
    sketch_from_archive,
    sketch_from_study,
    sketch_from_warehouse,
    streaming_category_profiles,
    streaming_figure_series,
    streaming_pattern_table,
)

__all__ = [
    "TraceWarehouse",
    "Instance",
    "build_instances",
    "AccessPatternTable",
    "access_pattern_table",
    "run_length_distributions",
    "file_size_distributions",
    "UserActivityTable",
    "user_activity_table",
    "LifetimeAnalysis",
    "analyze_lifetimes",
    "OpenCloseAnalysis",
    "analyze_opens",
    "CacheAnalysis",
    "analyze_cache",
    "FastIoAnalysis",
    "analyze_fastio",
    "ContentAnalysis",
    "analyze_content",
    "HeavyTailReport",
    "analyze_heavy_tails",
    "ObservationSummary",
    "summarize_observations",
    "by_process",
    "by_file_type",
    "category_of",
    "format_process_table",
    "format_type_table",
    "by_category",
    "format_category_table",
    "figure_series",
    "write_csv",
    "TraceComparison",
    "compare_warehouses",
    "ks_distance",
    "CORE_KINDS",
    "FidelityReport",
    "MachineFidelity",
    "TraceStats",
    "fidelity_report",
    "machine_fidelity",
    "AttributionTable",
    "CriticalPathTable",
    "attribution_table",
    "critical_path_table",
    "reconcile_attribution",
    "TimeseriesReport",
    "analyze_metrics_log",
    "reconcile_with_archive",
    "openmetrics_exposition",
    "validate_openmetrics",
    "write_openmetrics",
    "Digest",
    "StatsSketch",
    "fold_collector",
    "fold_store_file",
    "format_streaming_report",
    "reconcile_sketch",
    "sketch_from_archive",
    "sketch_from_study",
    "sketch_from_warehouse",
    "streaming_category_profiles",
    "streaming_figure_series",
    "streaming_pattern_table",
]
