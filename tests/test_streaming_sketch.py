"""The streaming aggregation path (repro.analysis.streaming).

Three pillars:

* the quantile digest's integer bucket comb (bounds, determinism,
  serialization round-trips);
* the ``kinds=`` predicate pushdown of the trace store readers, equal to
  post-hoc filtering;
* the tentpole guarantee — the one-pass streaming folds produce the
  *byte-identical* sketch whether fed from live collectors, archived
  ``.nttrace`` files, or the materialized warehouse, and the streaming
  tables reconcile exactly with the materialized analyses.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.patterns import access_pattern_table
from repro.analysis.categories import by_category
from repro.analysis.figures import figure_series
from repro.analysis.streaming import (
    Digest,
    StatsSketch,
    digest_bucket,
    digest_bucket_upper,
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
from repro.nt.perf import N_BUCKETS
from repro.nt.tracing.records import TraceEventKind
from repro.nt.tracing.store import StoreStream, iter_trace_records, save_study


# --------------------------------------------------------------------- #
# The digest comb.

class TestDigestBuckets:
    def test_small_values_are_exact(self):
        for v in range(8):
            assert digest_bucket(v) == v
            assert digest_bucket_upper(v) == v

    def test_bucket_monotonic_in_value(self):
        values = list(range(0, 4096)) + [2**k for k in range(12, 62)]
        indices = [digest_bucket(v) for v in values]
        assert indices == sorted(indices)

    def test_upper_edge_bounds_its_bucket(self):
        rng = np.random.default_rng(3)
        for v in map(int, rng.integers(0, 2**48, size=2000)):
            idx = digest_bucket(v)
            upper = digest_bucket_upper(idx)
            assert v <= upper
            assert digest_bucket(upper) == idx

    def test_relative_error_bounded(self):
        # Each octave splits into 8 linear sub-buckets: <= 12.5% error.
        rng = np.random.default_rng(5)
        for v in map(int, rng.integers(8, 2**40, size=2000)):
            upper = digest_bucket_upper(digest_bucket(v))
            assert (upper - v) <= v / 8 + 1


class TestDigest:
    def test_counts_weight_min_max(self):
        d = Digest()
        for v, w in ((5, 1), (100, 3), (7, 2)):
            d.add(v, w)
        assert (d.n, d.weight, d.vmin, d.vmax) == (3, 6, 5, 100)

    def test_zero_weight_and_negative_values(self):
        d = Digest()
        d.add(10, 0)       # no mass, no min/max update
        d.add(10, -2)
        assert d.n == 0 and d.vmin == -1
        d.add(-50)         # negative values clamp to zero
        assert (d.vmin, d.vmax) == (0, 0)

    def test_merge_equals_bulk_add(self):
        rng = np.random.default_rng(11)
        values = [int(v) for v in rng.integers(0, 10**7, size=500)]
        bulk, a, b = Digest(), Digest(), Digest()
        for i, v in enumerate(values):
            bulk.add(v)
            (a if i % 2 else b).add(v)
        a.merge(b)
        assert a.to_dict() == bulk.to_dict()

    def test_quantile_within_observed_range(self):
        d = Digest()
        for v in (10, 20, 30, 1000):
            d.add(v)
        assert 10 <= d.quantile(0.5) <= 1000
        assert d.quantile(1.0) == 1000.0

    def test_cdf_reaches_one(self):
        d = Digest()
        for v in range(100):
            d.add(v * 37)
        xs, ps = d.cdf_points()
        assert ps[-1] == pytest.approx(1.0)
        assert list(xs) == sorted(xs)

    def test_round_trip(self):
        d = Digest()
        for v in (0, 5, 123456, 999):
            d.add(v, 2)
        assert Digest.from_dict(d.to_dict()).to_dict() == d.to_dict()


# --------------------------------------------------------------------- #
# Predicate pushdown on the store readers.

@pytest.fixture(scope="module")
def archived_study(tmp_path_factory, small_study):
    directory = tmp_path_factory.mktemp("streaming-archive")
    save_study(small_study.collectors, directory)
    return directory


DATA_KINDS = (int(TraceEventKind.IRP_READ), int(TraceEventKind.IRP_WRITE),
              int(TraceEventKind.FASTIO_READ),
              int(TraceEventKind.FASTIO_WRITE))


class TestKindsPushdown:
    def test_iter_trace_records_matches_posthoc_filter(self, archived_study):
        path = sorted(archived_study.glob("*.nttrace"))[0]
        everything = list(iter_trace_records(path))
        pushed = list(iter_trace_records(path, kinds=DATA_KINDS))
        assert pushed == [r for r in everything if r.kind in DATA_KINDS]
        assert 0 < len(pushed) < len(everything)

    def test_accepts_enum_members(self, archived_study):
        path = sorted(archived_study.glob("*.nttrace"))[0]
        via_enum = list(iter_trace_records(
            path, kinds=(TraceEventKind.IRP_CREATE,)))
        via_int = list(iter_trace_records(
            path, kinds=(int(TraceEventKind.IRP_CREATE),)))
        assert via_enum == via_int
        assert all(r.kind == int(TraceEventKind.IRP_CREATE)
                   for r in via_enum)

    def test_empty_kinds_yields_nothing(self, archived_study):
        path = sorted(archived_study.glob("*.nttrace"))[0]
        assert list(iter_trace_records(path, kinds=())) == []

    def test_store_stream_matches_iter(self, archived_study, small_study):
        path = sorted(archived_study.glob("*.nttrace"))[0]
        stream = StoreStream(path)
        records = list(stream.records(kinds=DATA_KINDS))
        assert records == list(iter_trace_records(path, kinds=DATA_KINDS))
        names, process_names, process_interactive = stream.tail_sections()
        collector = next(c for c in small_study.collectors
                         if c.machine_name == stream.machine_name)
        assert names == collector.name_records
        assert process_names == collector.process_names
        assert process_interactive == collector.process_interactive

    def test_tail_sections_requires_drained_records(self, archived_study):
        path = sorted(archived_study.glob("*.nttrace"))[0]
        stream = StoreStream(path)
        with pytest.raises(ValueError, match="record"):
            stream.tail_sections()


# --------------------------------------------------------------------- #
# The tentpole: three producers, one set of bytes.

@pytest.fixture(scope="module")
def study_sketch(small_study):
    return sketch_from_study(small_study)


class TestThreeWayIdentity:
    def test_collector_vs_archive_vs_warehouse(self, small_study,
                                               small_warehouse,
                                               archived_study,
                                               study_sketch):
        from_archive = sketch_from_archive(
            archived_study, categories=small_study.machine_categories)
        from_wh = sketch_from_warehouse(small_warehouse)
        assert study_sketch.canonical_bytes() == \
            from_archive.canonical_bytes()
        assert study_sketch.canonical_bytes() == from_wh.canonical_bytes()

    def test_reconcile_clean(self, study_sketch, small_warehouse):
        assert reconcile_sketch(study_sketch, small_warehouse) == []

    def test_reconcile_detects_drift(self, study_sketch, small_warehouse):
        tampered = StatsSketch.from_dict(study_sketch.to_dict())
        tampered.n_records += 1
        tampered.latency["irp-read"].bucket_counts[3] += 1
        problems = reconcile_sketch(tampered, small_warehouse)
        assert any("records.n" in p for p in problems)
        assert any("latency" in p for p in problems)

    def test_serialization_round_trip(self, study_sketch):
        clone = StatsSketch.from_dict(study_sketch.to_dict())
        assert clone.canonical_bytes() == study_sketch.canonical_bytes()
        assert clone.sha256() == study_sketch.sha256()

    def test_double_fold_rejected(self, small_study):
        sketch = StatsSketch()
        collector = small_study.collectors[0]
        fold_collector(sketch, 0, "walkup", collector)
        with pytest.raises(ValueError, match="folded twice"):
            fold_collector(sketch, 0, "walkup", collector)

    def test_fold_store_file_single_machine(self, archived_study,
                                            study_sketch):
        # Folding one file reproduces exactly that machine's row.
        path = sorted(archived_study.glob("*.nttrace"))[0]
        single = StatsSketch()
        name = StoreStream(path).machine_name
        midx = [i for i, row in sorted(study_sketch.machines.items())
                if row["name"] == name][0]
        category = study_sketch.machines[midx]["category"]
        fold_store_file(single, midx, category, path)
        assert single.machines[midx] == study_sketch.machines[midx]


# --------------------------------------------------------------------- #
# Golden digests.  Every in-tree sketch comparison runs the same record
# update on both sides, so these sha256s — recorded with the
# record-at-a-time fold that preceded the columnar one — are the
# independent check that the columnar fold changed no byte.

GOLDEN_SMALL_STUDY_SHA256 = (
    "61d501e5a9c36b40350230b3468808cffd71b677b4b8bfbdaf1f9da5210bb76c")
# The same archive folded without categories (every machine "unknown").
GOLDEN_ARCHIVE_NO_CATEGORIES_SHA256 = (
    "9b164ee01ae7a99ff8ba7a80e6965af7f323fb58ea4a216aa2abe2839e70b36d")


class TestGoldenDigests:
    def test_small_study(self, study_sketch):
        assert study_sketch.sha256() == GOLDEN_SMALL_STUDY_SHA256

    def test_archived_study(self, archived_study, small_study):
        assert sketch_from_archive(
            archived_study, categories=small_study.machine_categories
        ).sha256() == GOLDEN_SMALL_STUDY_SHA256
        assert sketch_from_archive(archived_study).sha256() == \
            GOLDEN_ARCHIVE_NO_CATEGORIES_SHA256

    def test_warehouse(self, small_warehouse):
        assert sketch_from_warehouse(small_warehouse).sha256() == \
            GOLDEN_SMALL_STUDY_SHA256


# --------------------------------------------------------------------- #
# Malformed sketches are refused on decode and on merge.

class TestMalformedSketch:
    def test_short_histogram_rejected(self, study_sketch):
        doc = study_sketch.to_dict()
        doc["records"]["latency"]["irp-read"]["bucket_counts"] = [1, 2]
        with pytest.raises(ValueError, match="irp-read"):
            StatsSketch.from_dict(doc)

    def test_negative_bucket_rejected(self, study_sketch):
        doc = study_sketch.to_dict()
        counts = doc["records"]["latency"]["fastio-read"]["bucket_counts"]
        counts[1] += counts[0] + 1
        counts[0] = -1          # the sum still equals count
        with pytest.raises(ValueError, match="fastio-read"):
            StatsSketch.from_dict(doc)

    def test_histogram_sum_must_equal_count(self, study_sketch):
        doc = study_sketch.to_dict()
        doc["records"]["latency"]["irp-write"]["count"] += 1
        with pytest.raises(ValueError, match="irp-write"):
            StatsSketch.from_dict(doc)

    @pytest.mark.parametrize("section,key", [
        ("records", "req_size"), ("instances", "session")])
    def test_digest_weights_must_sum_to_w(self, study_sketch, section, key):
        doc = study_sketch.to_dict()
        digest = next(iter(doc[section][key].values()))
        digest["w"] += 1
        with pytest.raises(ValueError, match="malformed digest"):
            StatsSketch.from_dict(doc)

    def test_merge_refuses_mismatched_histograms(self, study_sketch):
        good = StatsSketch.from_dict(study_sketch.to_dict())
        other = StatsSketch.from_dict(study_sketch.to_dict())
        other.machines = {}               # a disjoint, non-empty shard
        other.latency["irp-read"].bucket_counts = [1, 2]
        before = good.canonical_bytes()
        with pytest.raises(ValueError, match="buckets"):
            good.merge(other)
        # Refused before anything merged: the good sketch is untouched.
        assert good.canonical_bytes() == before
        assert len(good.latency["irp-read"].bucket_counts) == N_BUCKETS + 1


# --------------------------------------------------------------------- #
# Streaming tables reconcile with the materialized analyses.

class TestStreamingTables:
    def test_pattern_table_exactly_equal(self, study_sketch,
                                         small_warehouse):
        streaming = streaming_pattern_table(study_sketch)
        materialized = access_pattern_table(small_warehouse)
        assert streaming.n_instances == materialized.n_instances
        assert streaming.cells == materialized.cells  # float-for-float

    def test_category_profiles_match_counts(self, study_sketch,
                                            small_warehouse):
        streaming = streaming_category_profiles(study_sketch)
        materialized = by_category(small_warehouse)
        assert set(streaming) == set(materialized)
        for name, profile in streaming.items():
            other = materialized[name]
            assert profile.n_machines == other.n_machines
            assert profile.n_opens == other.n_opens
            assert profile.bytes_read == other.bytes_read
            assert profile.bytes_written == other.bytes_written
            assert profile.paging_view_bytes == other.paging_view_bytes
            assert profile.throughput_kbs == \
                pytest.approx(other.throughput_kbs)

    def test_figure_keys_match_materialized(self, study_sketch,
                                            small_warehouse):
        streaming = streaming_figure_series(study_sketch,
                                            np.random.default_rng(11))
        materialized = figure_series(small_warehouse,
                                     np.random.default_rng(11))
        assert set(streaming) == set(materialized)
        for fig, series in materialized.items():
            assert set(streaming[fig]) == set(series), fig

    def test_figure_cdfs_complete(self, study_sketch):
        figures = streaming_figure_series(study_sketch,
                                          np.random.default_rng(11))
        for fig, series in figures.items():
            if fig in ("fig07_size_vs_lifetime", "fig08_burstiness",
                       "fig10_llcd"):
                continue
            for name, (xs, ps) in series.items():
                if len(ps):
                    assert ps[-1] == pytest.approx(1.0), (fig, name)

    def test_fig13_histogram_counts_exact(self, study_sketch,
                                          small_warehouse):
        # The latency *histograms* are exact (not digest-approximated):
        # counts equal the materialized per-kind record counts.
        from repro.nt.tracing.records import TraceEventKind as K
        for rt, kind in (("irp-read", K.IRP_READ),
                         ("irp-write", K.IRP_WRITE),
                         ("fastio-read", K.FASTIO_READ),
                         ("fastio-write", K.FASTIO_WRITE)):
            mask = small_warehouse.mask_kind(kind)
            assert study_sketch.latency[rt].count == int(mask.sum())

    def test_report_renders(self, study_sketch):
        text = format_streaming_report(study_sketch)
        assert "Streaming study sketch" in text
        assert "table 3" in text
        assert "Latency bands" in text
