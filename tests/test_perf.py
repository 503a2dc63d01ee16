"""The performance-monitor subsystem (repro.nt.perf).

Covers the primitives (counters, log-scale latency histograms, registry
snapshots and merging), the kernel instrumentation points, the telemetry
layer, the CLI surfacing, and — most importantly — the cross-check the
issue demands: the perf registry's FastIO/IRP and cache hit/miss counts
must agree exactly with what the trace warehouse reconstructs (the
figures 13/14 and §9 numbers).
"""

from __future__ import annotations

import hashlib
import json
import shutil

import pytest

from repro import StudyConfig, StudyTelemetry, run_study
from repro.analysis.cache import analyze_cache
from repro.analysis.fastio import analyze_fastio
from repro.cli import main as cli_main
from repro.cli import timed_phase
from repro.common.clock import TICKS_PER_MICROSECOND
from repro.common.flags import CreateDisposition, FileAccess
from repro.nt.perf import (
    BUCKET_EDGES_TICKS,
    Counter,
    LatencyHistogram,
    N_BUCKETS,
    PerfRegistry,
    PerfSchemaError,
    format_perf_table,
    load_perf_json,
    merge_snapshots,
    perf_json_bytes,
)
from repro.nt.system import Machine, MachineConfig
from repro.nt.tracing.records import TraceEventKind
from repro.nt.fs.volume import Volume


# The machine once kept a second counter table beside the registry.  Its
# 38 names, each with the registry counter that now counts the same
# event: ten renamed, the other 28 under their own name.
LEGACY_COUNTERS = {
    "cc.read_hits": "cc.copy_read.hits",
    "cc.read_misses": "cc.copy_read.misses",
    "cc.prefetches": "cc.copy_read.misses",
    "cc.cached_writes": "cc.copy_write.calls",
    "cc.pages_flushed": "cc.flush.pages",
    "cc.read_aheads": "cc.readahead.issued",
    "mm.paging_reads": "mm.page_ins",
    "mm.paging_writes": "mm.page_outs",
    "rdr.wire_requests": "rdr.wire.requests",
    "rdr.wire_transfers": "rdr.wire.transfers",
}
LEGACY_COUNTERS.update((name, name) for name in (
    "cc.cache_maps_initialized", "cc.dirty_discarded_on_cleanup",
    "cc.dirty_discarded_on_delete", "cc.dirty_purged_on_truncate",
    "cc.pages_evicted", "cc.reads_past_eof", "cc.set_end_of_file",
    "fastio.declined", "fastio.mdl_reads", "fs.change_notifications",
    "fs.explicit_flushes", "fs.files_created", "fs.files_deleted",
    "fs.files_overwritten", "fs.files_renamed", "fs.sharing_violations",
    "lw.deferred_closes", "lw.pages_written", "lw.scans",
    "mm.image_cold_loads", "mm.image_page_ins", "mm.image_warm_loads",
    "mm.images_evicted", "replay.records_injected", "replay.records_skipped",
    "win32.open_failures", "win32.opens", "win32.volume_mounted_checks",
))

# The legacy table's non-zero values for ``small_study``, recorded from the
# last code that kept it: fleet totals, and the sha256 of the sorted JSON
# of the per-machine values.
LEGACY_TOTALS = {
    "cc.cache_maps_initialized": 1465,
    "cc.cached_writes": 8457,
    "cc.dirty_discarded_on_cleanup": 23,
    "cc.dirty_discarded_on_delete": 7194,
    "cc.dirty_purged_on_truncate": 47,
    "cc.pages_evicted": 20666,
    "cc.pages_flushed": 9793,
    "cc.prefetches": 1086,
    "cc.read_aheads": 1357,
    "cc.read_hits": 6708,
    "cc.read_misses": 1086,
    "cc.reads_past_eof": 267,
    "cc.set_end_of_file": 639,
    "fastio.declined": 152,
    "fastio.mdl_reads": 217,
    "fs.change_notifications": 2,
    "fs.explicit_flushes": 37,
    "fs.files_created": 454,
    "fs.files_deleted": 57,
    "fs.files_overwritten": 54,
    "fs.sharing_violations": 75,
    "lw.deferred_closes": 691,
    "lw.pages_written": 433,
    "lw.scans": 531,
    "mm.image_cold_loads": 166,
    "mm.image_page_ins": 166,
    "mm.image_warm_loads": 86,
    "mm.images_evicted": 36,
    "mm.paging_reads": 2670,
    "mm.paging_writes": 1489,
    "rdr.wire_requests": 764,
    "rdr.wire_transfers": 719,
    "win32.open_failures": 591,
    "win32.opens": 6222,
    "win32.volume_mounted_checks": 2314,
}
LEGACY_SHA256 = ("3bc2371a1034e1579afc11713b3b8708"
                 "88b9e9a2f6009ef2d04494667fe28505")


class TestPrimitives:
    def test_counter_monotonic(self):
        c = Counter("x")
        c.add()
        c.add(41)
        assert c.value == 42

    def test_histogram_bucketing(self):
        h = LatencyHistogram("lat")
        h.observe(0)                      # below 1 us -> bucket 0
        h.observe(1 * TICKS_PER_MICROSECOND)       # exactly 1 us edge
        h.observe(3 * TICKS_PER_MICROSECOND)       # (2, 4] us -> bucket 2
        h.observe(10 ** 9)                # 100 s -> overflow bucket
        assert h.count == 4
        assert h.bucket_counts[0] == 2
        assert h.bucket_counts[2] == 1
        assert h.bucket_counts[N_BUCKETS] == 1
        assert h.max_ticks == 10 ** 9
        assert h.sum_ticks == 10 ** 9 + 4 * TICKS_PER_MICROSECOND

    def test_histogram_quantiles_capped_at_max(self):
        h = LatencyHistogram("lat")
        for _ in range(100):
            h.observe(14 * TICKS_PER_MICROSECOND)  # bucket edge is 16 us
        assert h.quantile_micros(0.5) == pytest.approx(14.0)
        assert h.quantile_micros(0.99) == pytest.approx(14.0)
        assert h.mean_micros == pytest.approx(14.0)

    def test_histogram_empty(self):
        import math
        h = LatencyHistogram("lat")
        assert math.isnan(h.quantile_micros(0.5))
        assert math.isnan(h.mean_micros)

    def test_bucket_edges_are_log_scale(self):
        assert all(b == 2 * a for a, b in zip(BUCKET_EDGES_TICKS,
                                              BUCKET_EDGES_TICKS[1:]))


class TestRegistry:
    def test_get_or_create_identity(self):
        reg = PerfRegistry("m")
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")

    def test_snapshot_drops_untouched_entries(self):
        reg = PerfRegistry("m")
        reg.counter("zero")
        reg.histogram("empty")
        reg.count("hot", 3)
        reg.observe("lat", 50)
        snap = reg.snapshot()
        assert snap["counters"] == {"hot": 3}
        assert list(snap["histograms"]) == ["lat"]

    def test_merge_snapshots(self):
        a, b = PerfRegistry("a"), PerfRegistry("b")
        for reg, n in ((a, 2), (b, 5)):
            reg.count("ops", n)
            reg.observe("lat", n * TICKS_PER_MICROSECOND)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["counters"]["ops"] == 7
        hist = merged["histograms"]["lat"]
        assert hist["count"] == 2
        assert hist["max_ticks"] == 5 * TICKS_PER_MICROSECOND
        assert sum(hist["bucket_counts"]) == 2

    def test_format_table_lists_counters_and_histograms(self):
        reg = PerfRegistry("m")
        reg.count("io.ops", 12345)
        reg.observe("io.lat", 70)
        text = format_perf_table(reg.snapshot(), title="T")
        assert "io.ops" in text and "12,345" in text
        assert "io.lat" in text and "p99" in text

    def test_all_three_metric_kinds_render_and_merge(self):
        # Counters accumulate, gauges are last-value-wins per machine but
        # sum across machines, histograms aggregate — one snapshot pair
        # exercising every kind through both merge and render.
        a, b = PerfRegistry("a"), PerfRegistry("b")
        for reg, n in ((a, 2), (b, 5)):
            reg.count("io.ops", n)
            reg.gauge("replay.divergences").set(n)
            reg.gauge("replay.divergences").set(n * 10)  # overwrites
            reg.observe("io.lat", n * TICKS_PER_MICROSECOND)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["counters"]["io.ops"] == 7
        assert merged["gauges"]["replay.divergences"] == 70
        assert merged["histograms"]["io.lat"]["count"] == 2
        text = format_perf_table(merged, title="T")
        assert "Counter" in text and "io.ops" in text
        assert "Gauge" in text and "replay.divergences" in text and "70" in text
        assert "Latency histogram" in text and "io.lat" in text

    def test_merge_rejects_kind_mismatch(self):
        a, b = PerfRegistry("a"), PerfRegistry("b")
        a.count("x", 1)
        b.gauge("x").set(2)
        with pytest.raises(PerfSchemaError, match="'x' is a counter in one"
                                                  " snapshot and a gauge"):
            merge_snapshots([a.snapshot(), b.snapshot()])

    def test_merge_rejects_histogram_bucket_mismatch(self):
        import copy
        a = PerfRegistry("a")
        a.observe("lat", 5)
        snap_a = a.snapshot()
        snap_b = copy.deepcopy(snap_a)
        snap_b["histograms"]["lat"]["bucket_counts"].append(0)
        with pytest.raises(PerfSchemaError, match="buckets"):
            merge_snapshots([snap_a, snap_b])

    def test_zero_sample_histogram_renders_dashes(self):
        # A hand-edited or synthesized snapshot can carry a zero-count
        # histogram; the quantile columns must show '-', not a misleading
        # p50 of 0.
        snap = {"counters": {}, "histograms": {"lat": {
            "count": 0, "sum_ticks": 0, "max_ticks": 0,
            "bucket_counts": [0] * (N_BUCKETS + 1)}}}
        text = format_perf_table(snap)
        line = next(ln for ln in text.splitlines() if "lat" in ln)
        assert line.count("-") >= 5
        assert "nan" not in line

    def test_untouched_gauge_omitted_from_snapshot(self):
        reg = PerfRegistry("m")
        reg.gauge("never.set")
        reg.count("ops", 1)
        snap = reg.snapshot()
        assert "gauges" not in snap
        assert format_perf_table(snap).count("Gauge") == 0

    def test_perf_json_roundtrip(self, tmp_path):
        reg = PerfRegistry("m00")
        reg.count("c", 9)
        payload = perf_json_bytes({"m00": reg.snapshot()}, {"seed": 1})
        path = tmp_path / "perf.json"
        path.write_bytes(payload)
        doc = load_perf_json(path)
        assert doc["machines"]["m00"]["counters"]["c"] == 9
        assert doc["meta"]["seed"] == 1
        assert doc["aggregate"]["counters"]["c"] == 9

    def test_load_perf_json_rejects_other_files(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text("{}")
        with pytest.raises(ValueError):
            load_perf_json(path)


def _drive_small_workload(machine: Machine) -> None:
    process = machine.create_process("app.exe", interactive=True)
    w = machine.win32
    _s, handle = w.create_file(
        process, r"C:\a.dat", access=FileAccess.GENERIC_WRITE,
        disposition=CreateDisposition.CREATE)
    w.write_file(process, handle, 20000)
    w.close_handle(process, handle)
    _s, handle = w.create_file(process, r"C:\a.dat")
    for offset in (0, 4096, 8192):
        w.read_file(process, handle, 4096, offset=offset)
    w.close_handle(process, handle)
    machine.finish_tracing(drain_ticks=5 * 10_000_000)


class TestMachineInstrumentation:
    def test_kernel_counters_populate(self):
        machine = Machine(MachineConfig(name="perfbox", seed=3))
        machine.mount("C", Volume("C", capacity_bytes=2 * 1024 ** 3))
        _drive_small_workload(machine)
        snap = machine.perf.snapshot()
        counters = snap["counters"]
        assert counters["io.irp.dispatched.create"] > 0
        assert counters["io.irp.dispatched.read"] > 0
        assert counters["cc.copy_write.calls"] > 0
        assert counters["mm.paging_irps"] > 0
        assert counters["trace.records"] == len(machine.collector.records)
        assert "io.irp.latency.read" in snap["histograms"]
        assert snap["histograms"]["io.irp.latency.read"]["count"] == \
            counters["io.irp.dispatched.read"]

    def test_filter_drop_counter(self):
        machine = Machine(MachineConfig(name="drops", seed=3))
        machine.mount("C", Volume("C", capacity_bytes=2 * 1024 ** 3))
        for filt in machine.trace_filters:
            filt.enabled = False
        _drive_small_workload(machine)
        snap = machine.perf.snapshot()
        assert snap["counters"]["trace.dropped"] > 0
        assert snap["counters"].get("trace.records", 0) == \
            len(machine.collector.records)

    def test_stack_for_unmounted_volume_raises_unchained(self):
        machine = Machine(MachineConfig(name="nostack", seed=3))
        stray = Volume("Z", capacity_bytes=1024 ** 3)
        with pytest.raises(KeyError) as excinfo:
            machine.io.stack_for(stray)
        assert excinfo.value.__suppress_context__  # raise ... from None


class TestWarehouseCrossCheck:
    """Perf counters must agree with the trace-warehouse reconstruction."""

    @pytest.fixture(scope="class")
    def aggregate(self, small_study):
        return merge_snapshots(small_study.perf.values())["counters"]

    def test_dispatch_counts_match_trace_reconstruction(
            self, small_warehouse, aggregate):
        expected = {
            "io.irp.dispatched.read": TraceEventKind.IRP_READ,
            "io.irp.dispatched.write": TraceEventKind.IRP_WRITE,
            "io.irp.dispatched.create": TraceEventKind.IRP_CREATE,
            "io.irp.dispatched.cleanup": TraceEventKind.IRP_CLEANUP,
            "io.irp.dispatched.close": TraceEventKind.IRP_CLOSE,
            "io.fastio.handled.read": TraceEventKind.FASTIO_READ,
            "io.fastio.handled.write": TraceEventKind.FASTIO_WRITE,
        }
        for counter_name, kind in expected.items():
            assert aggregate[counter_name] == \
                int(small_warehouse.mask_kind(kind).sum()), counter_name

    def test_trace_record_count_matches(self, small_warehouse, aggregate):
        assert aggregate["trace.records"] == small_warehouse.n_records

    def test_fig13_14_fastio_split_matches(self, small_warehouse, aggregate):
        fio = analyze_fastio(small_warehouse)
        reads = aggregate["io.fastio.handled.read"] \
            + aggregate["io.irp.dispatched.read"]
        writes = aggregate["io.fastio.handled.write"] \
            + aggregate["io.irp.dispatched.write"]
        assert fio.fastio_read_share_pct == pytest.approx(
            100.0 * aggregate["io.fastio.handled.read"] / reads)
        assert fio.fastio_write_share_pct == pytest.approx(
            100.0 * aggregate["io.fastio.handled.write"] / writes)

    def test_sec9_cache_hit_ratio_matches(self, small_study, small_warehouse,
                                          aggregate):
        cache = analyze_cache(small_warehouse, small_study.perf)
        hits = aggregate["cc.copy_read.hits"]
        misses = aggregate["cc.copy_read.misses"]
        assert cache.read_cache_hit_pct == pytest.approx(
            100.0 * hits / (hits + misses))

    def test_perf_mirrors_legacy_machine_counters(self, small_study):
        # Every event the legacy table counted is still counted, once, by
        # the registry: reading each legacy name through its registry twin
        # reproduces the recorded values machine by machine.
        legacy = {
            machine: {old: snap["counters"][new]
                      for old, new in LEGACY_COUNTERS.items()
                      if snap["counters"].get(new, 0)}
            for machine, snap in small_study.perf.items()}
        totals = {old: sum(values.get(old, 0) for values in legacy.values())
                  for old in LEGACY_COUNTERS}
        assert {old: n for old, n in totals.items() if n} == LEGACY_TOTALS
        digest = hashlib.sha256(
            json.dumps(legacy, sort_keys=True).encode("utf-8")).hexdigest()
        assert digest == LEGACY_SHA256

    def test_readahead_issued_vs_consumed(self, aggregate):
        if "cc.readahead.issued" not in aggregate:
            pytest.skip("workload issued no read-ahead")
        assert aggregate["cc.readahead.pages"] >= \
            aggregate["cc.readahead.issued"]
        assert aggregate.get("cc.readahead.pages_consumed", 0) <= \
            aggregate["cc.readahead.pages"]


class TestTelemetry:
    def test_phase_timing_and_events(self):
        # `repro perf` times its phases in the CLI, around the study, and
        # repeated entries of a phase add up; the study's own events
        # carry no host time.
        phases: dict[str, float] = {}
        telemetry = StudyTelemetry(verbose=False)
        with timed_phase(phases, "simulate"):
            run_study(StudyConfig(n_machines=1, duration_seconds=5, seed=5,
                                  content_scale=0.05,
                                  with_network_shares=False),
                      telemetry=telemetry)
        first = phases["simulate"]
        with timed_phase(phases, "simulate"):
            pass
        assert phases.keys() == {"simulate"}
        assert phases["simulate"] >= first > 0.0
        assert [e["event"] for e in telemetry.events] == \
            ["machine-done", "study-done"]
        assert not [e for e in telemetry.events if "wall_seconds" in e]

    def test_emit_prints_structured_lines(self, capsys):
        import sys
        telemetry = StudyTelemetry(stream=sys.stdout)
        telemetry.emit("machine-done", machine="m00", records=5,
                       wall_seconds=0.25)
        out = capsys.readouterr().out
        assert "[telemetry] event=machine-done machine=m00 records=5 " \
               "wall_seconds=0.250" in out

    def test_run_study_emits_per_machine_progress(self):
        telemetry = StudyTelemetry(verbose=False)
        result = run_study(StudyConfig(n_machines=2, duration_seconds=10,
                                       seed=5, content_scale=0.05,
                                       with_network_shares=False),
                           telemetry=telemetry)
        done = [e for e in telemetry.events if e["event"] == "machine-done"]
        assert [e["machine"] for e in done] == \
            [c.machine_name for c in result.collectors]
        assert all(e["records"] > 0 for e in done)
        assert telemetry.events[-1]["event"] == "study-done"

    def test_perf_snapshots_in_study_result(self):
        result = run_study(StudyConfig(n_machines=2, duration_seconds=10,
                                       seed=5, content_scale=0.05,
                                       with_network_shares=False))
        assert set(result.perf) == {c.machine_name
                                    for c in result.collectors}
        agg = result.perf_aggregate()
        assert agg["counters"]["trace.records"] == result.total_records


class TestCli:
    def test_run_perf_writes_table_and_json(self, tmp_path, capsys):
        rc = cli_main(["run", "--machines", "1", "--seconds", "10",
                       "--scale", "0.05", "--seed", "21", "--perf",
                       "--out", str(tmp_path / "t")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Performance monitor" in out
        assert "io.irp.dispatched.read" in out
        doc = load_perf_json(tmp_path / "t" / "perf.json")
        assert doc["meta"]["machines"] == 1
        assert doc["aggregate"]["counters"]["trace.records"] > 0

    def test_perf_subcommand_fresh_study(self, tmp_path, capsys):
        bench = tmp_path / "BENCH_perf.json"
        rc = cli_main(["perf", "--machines", "1", "--seconds", "10",
                       "--scale", "0.05", "--seed", "21",
                       "--json", str(tmp_path / "perf.json"),
                       "--bench-json", str(bench)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Performance monitor" in out
        assert "Pipeline wall-clock" in out
        payload = json.loads(bench.read_text())
        assert set(payload["phases"]) == {"simulate", "warehouse",
                                          "analysis"}
        assert payload["records"] > 0
        assert load_perf_json(tmp_path / "perf.json")["machines"]

    def test_perf_subcommand_reads_archive(self, tmp_path, capsys):
        cli_main(["run", "--machines", "1", "--seconds", "10",
                  "--scale", "0.05", "--seed", "21", "--perf",
                  "--out", str(tmp_path / "t")])
        capsys.readouterr()
        rc = cli_main(["perf", str(tmp_path / "t")])
        assert rc == 0
        assert "io.irp.dispatched.read" in capsys.readouterr().out

    def test_report_perf_flag_reads_archived_json(self, tmp_path, capsys):
        cli_main(["run", "--machines", "1", "--seconds", "10",
                  "--scale", "0.05", "--seed", "21", "--perf",
                  "--out", str(tmp_path / "t")])
        capsys.readouterr()
        rc = cli_main(["report", str(tmp_path / "t"), "--perf"])
        assert rc == 0
        assert "Performance monitor" in capsys.readouterr().out


def _snapshot(**sections) -> dict:
    return {"format": "nt-perf-1", "machines": {"m00": sections}}


def _histogram(bucket_counts: list, count: int) -> dict:
    return {"count": count, "sum_ticks": 10, "max_ticks": 5,
            "bucket_counts": bucket_counts}


# perf.json documents the CLI must refuse with a one-line error instead of
# a traceback from the table, merge or OpenMetrics code downstream.
MALFORMED_PERF_JSON = {
    "document-is-list": [],
    "document-is-string": "nt-perf-1",
    "no-machines": {"format": "nt-perf-1"},
    "machines-is-list": {"format": "nt-perf-1", "machines": []},
    "counters-is-list": _snapshot(counters=[1]),
    "counter-not-integer": _snapshot(counters={"a": "x"}),
    "gauge-not-integer": _snapshot(gauges={"g": 1.5}),
    "histogram-short": _snapshot(histograms={"h": _histogram([1], 1)}),
    "histogram-negative-bucket": _snapshot(histograms={"h": _histogram(
        [-1, 2] + [0] * (N_BUCKETS - 1), 1)}),
    "histogram-sum-not-count": _snapshot(histograms={"h": _histogram(
        [1] + [0] * N_BUCKETS, 2)}),
    "meta-is-list": {"format": "nt-perf-1", "meta": [], "machines": {}},
    "series-kind-differs": {"format": "nt-perf-1", "machines": {
        "m00": {"counters": {"x": 1}}, "m01": {"gauges": {"x": 2}}}},
}


@pytest.fixture(scope="module")
def perf_archive(tmp_path_factory):
    """A one-machine archive written with ``--perf``."""
    out = tmp_path_factory.mktemp("perf-archive") / "t"
    assert cli_main(["run", "--machines", "1", "--seconds", "5",
                     "--scale", "0.05", "--seed", "3", "--perf",
                     "--out", str(out)]) == 0
    return out


class TestMalformedPerfJson:
    @pytest.mark.parametrize("case", sorted(MALFORMED_PERF_JSON))
    @pytest.mark.parametrize("command", ["perf", "report"])
    def test_cli_exits_with_cannot_read(self, perf_archive, tmp_path,
                                        capsys, command, case):
        archive = tmp_path / "t"
        shutil.copytree(perf_archive, archive)
        perf_path = archive / "perf.json"
        perf_path.write_text(json.dumps(MALFORMED_PERF_JSON[case]))
        argv = ([command, str(archive)] if command == "perf"
                else [command, str(archive), "--perf"])
        with pytest.raises(SystemExit) as excinfo:
            cli_main(argv)
        # A string exit code is printed to stderr and exits with status 1.
        assert str(excinfo.value.code).startswith(
            f"cannot read {perf_path}: {perf_path}: ")

    def test_loader_accepts_what_the_writer_writes(self, perf_archive):
        doc = load_perf_json(perf_archive / "perf.json")
        assert doc["aggregate"] == merge_snapshots(doc["machines"].values())
