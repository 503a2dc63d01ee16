"""The flight recorder: .ntmetrics format, sampling, export.

Covers the tentpole end to end: the log format's encode/decode
round-trip and its malformed-input errors (every one a ``ValueError``
naming the file), the recorder's delta sampling against the perf
registry, the serial-vs-parallel byte-identity of the metrics sidecar,
the metrics-on/off byte-identity of the trace archives, the figure-8
time-series analysis with archive reconciliation, the OpenMetrics
exposition (checked by the format validator), and the CLI surfacing.
"""

from __future__ import annotations

import dataclasses
import json
import re
import struct
import subprocess
import sys
import zlib
from array import array
from pathlib import Path

import pytest

from repro import StudyConfig, run_study
from repro.cli import main as cli_main
from repro.common.clock import TICKS_PER_SECOND
from repro.nt.flight.log import (
    KIND_COUNTER,
    KIND_GAUGE,
    KIND_HISTOGRAM,
    MAGIC,
    METRICS_FILENAME,
    MetricsSection,
    encode_define,
    encode_end,
    encode_sample_head,
    encode_histogram_entry,
    encode_scalar_entry,
    iter_samples,
    write_metrics_log,
)
from repro.nt.flight.recorder import FlightRecorder
from repro.nt.system import Machine, MachineConfig
from repro.nt.tracing.collector import TraceCollector
from repro.nt.tracing.store import pack_collector, save_collector
from repro.analysis.openmetrics import (
    openmetrics_exposition,
    validate_openmetrics,
)
from repro.analysis.timeseries import (
    analyze_metrics_log,
    reconcile_with_archive,
)
from tests.test_perf import _drive_small_workload

REPO_ROOT = Path(__file__).resolve().parents[1]


def _section(frames: bytes, n_samples: int, name: str = "m00",
             interval: int = 10) -> MetricsSection:
    return MetricsSection(machine_name=name, interval_ticks=interval,
                          n_samples=n_samples, frames=frames)


def _hand_built_section() -> MetricsSection:
    frames = bytearray()
    frames += encode_define(KIND_COUNTER, 0, "trace.records")
    frames += encode_define(KIND_GAUGE, 1, "cc.pages")
    frames += encode_define(KIND_HISTOGRAM, 2, "io.lat")
    frames += encode_sample_head(10, 3)
    frames += encode_scalar_entry(0, 5)
    frames += encode_scalar_entry(1, 42)
    frames += encode_histogram_entry(2, 2, 300, 200)
    frames += encode_sample_head(20, 0)     # explicit idle interval
    frames += encode_sample_head(30, 1)
    frames += encode_scalar_entry(0, 7)
    frames += encode_end(3)
    return _section(bytes(frames), 3)


class TestLogFormat:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "m.ntmetrics"
        write_metrics_log([_hand_built_section()], path)
        samples = list(iter_samples(path))
        assert [(m, ticks) for m, ticks, _s in samples] == [("m00", 10)] * 3
        first, idle, last = (s for _m, _t, s in samples)
        assert first.t_end == 10
        assert first.counters == {"trace.records": 5}
        assert first.gauges == {"cc.pages": 42}
        assert first.histograms == {"io.lat": (2, 300, 200)}
        assert idle.t_end == 20 and idle.n_entries == 0
        assert last.counters == {"trace.records": 7}

    def test_multiple_sections_in_order(self, tmp_path):
        path = tmp_path / "m.ntmetrics"
        a = _hand_built_section()
        b = dataclasses.replace(a, machine_name="m01")
        write_metrics_log([a, b], path)
        machines = [m for m, _t, _s in iter_samples(path)]
        assert machines == ["m00"] * 3 + ["m01"] * 3

    def test_bad_magic_names_path(self, tmp_path):
        path = tmp_path / "nope.ntmetrics"
        path.write_bytes(b"NOTMETRIC")
        with pytest.raises(ValueError, match="nope.ntmetrics"):
            list(iter_samples(path))

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "m.ntmetrics"
        write_metrics_log([_hand_built_section()], path)
        data = bytearray(path.read_bytes())
        data[len(MAGIC)] = ord("9")
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="version 9"):
            list(iter_samples(path))

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "m.ntmetrics"
        write_metrics_log([_hand_built_section()], path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(ValueError, match="truncated"):
            list(iter_samples(path))

    def test_end_count_mismatch(self, tmp_path):
        frames = bytearray()
        frames += encode_define(KIND_COUNTER, 0, "x")
        frames += encode_sample_head(10, 1)
        frames += encode_scalar_entry(0, 1)
        frames += encode_end(2)             # lies about the sample count
        path = tmp_path / "m.ntmetrics"
        write_metrics_log([_section(bytes(frames), 1)], path)
        with pytest.raises(ValueError, match="sample count mismatch"):
            list(iter_samples(path))

    def test_undefined_series_reference(self, tmp_path):
        frames = encode_sample_head(10, 1) + encode_scalar_entry(9, 1) \
            + encode_end(1)
        path = tmp_path / "m.ntmetrics"
        write_metrics_log([_section(frames, 1)], path)
        with pytest.raises(ValueError, match="undefined series id 9"):
            list(iter_samples(path))

    def test_duplicate_series_id(self, tmp_path):
        frames = (encode_define(KIND_COUNTER, 0, "a")
                  + encode_define(KIND_GAUGE, 0, "b") + encode_end(0))
        path = tmp_path / "m.ntmetrics"
        write_metrics_log([_section(frames, 0)], path)
        with pytest.raises(ValueError, match="defined twice"):
            list(iter_samples(path))

    def test_trailing_frames_after_end(self, tmp_path):
        frames = (encode_define(KIND_COUNTER, 0, "a") + encode_end(0)
                  + encode_sample_head(10, 0))
        path = tmp_path / "m.ntmetrics"
        write_metrics_log([_section(frames, 0)], path)
        with pytest.raises(ValueError, match="trailing frames"):
            list(iter_samples(path))

    def test_trailing_bytes_after_last_section(self, tmp_path):
        path = tmp_path / "m.ntmetrics"
        write_metrics_log([_hand_built_section()], path)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(ValueError, match="trailing bytes"):
            list(iter_samples(path))

    def test_corrupt_zlib_stream(self, tmp_path):
        path = tmp_path / "m.ntmetrics"
        write_metrics_log([_hand_built_section()], path)
        data = bytearray(path.read_bytes())
        data[-10] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError):
            list(iter_samples(path))

    def test_compression_actually_compresses_idle(self, tmp_path):
        # A long idle stretch (zero-entry samples) must compress to far
        # less than its raw frame size — the bounded-memory design point.
        frames = bytearray()
        frames += encode_define(KIND_COUNTER, 0, "x")
        for i in range(10_000):
            frames += encode_sample_head((i + 1) * 10, 0)
        frames += encode_end(10_000)
        path = tmp_path / "m.ntmetrics"
        nbytes = write_metrics_log([_section(bytes(frames), 10_000)], path)
        assert nbytes < len(frames) / 5
        assert sum(1 for _ in iter_samples(path)) == 10_000


def _raw_log(name: bytes, n_samples: int, compressed: bytes,
             interval: int = 10) -> bytes:
    """A one-section ``.ntmetrics`` file laid out byte by byte, so a test
    can plant what the writer never emits."""
    return (MAGIC + b"1" + struct.pack("<II", 1, len(name)) + name
            + struct.pack("<QQQ", interval, n_samples, len(compressed))
            + compressed)


class TestDecoderNamesFile:
    """Damage the writer never produces still fails as a ``ValueError``
    naming the file, from the store's shared reader."""

    def test_corrupt_section_name(self, tmp_path):
        path = tmp_path / "m.ntmetrics"
        section = _hand_built_section()
        path.write_bytes(_raw_log(b"m\xff0", section.n_samples,
                                  zlib.compress(section.frames)))
        with pytest.raises(ValueError,
                           match=re.escape(f"{path}: corrupt string")):
            list(iter_samples(path))

    def test_corrupt_series_name(self, tmp_path):
        frames = encode_define(KIND_COUNTER, 0, "x")[:-1] + b"\xff" \
            + encode_end(0)
        path = tmp_path / "m.ntmetrics"
        write_metrics_log([_section(frames, 0)], path)
        with pytest.raises(ValueError,
                           match=re.escape(f"{path}: corrupt string")):
            list(iter_samples(path))

    def test_stream_cut_before_its_trailer_fails_repro_metrics(self,
                                                              tmp_path):
        # The hand-built section counts 12 trace records for m00; next to
        # an archive holding 12 records for m00 the intact log reconciles.
        traces = tmp_path / "traces"
        traces.mkdir()
        collector = TraceCollector("m00")
        collector.receive_block(array("q", [kind for kind in range(12)
                                            for _ in range(15)]))
        save_collector(collector, traces / "m00.nttrace")
        path = traces / METRICS_FILENAME
        section = _hand_built_section()
        compressed = zlib.compress(section.frames)
        path.write_bytes(_raw_log(b"m00", section.n_samples, compressed))
        assert cli_main(["metrics", str(traces)]) == 0
        # Drop the 4-byte Adler-32 trailer and shrink compressed_len to
        # match: every frame still inflates, but the stream never ends.
        path.write_bytes(_raw_log(b"m00", section.n_samples,
                                  compressed[:-4]))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "metrics", str(traces)],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"})
        assert proc.returncode == 1
        assert f"{path}: corrupt compressed payload" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_stray_bytes_after_the_stream_fail_repro_metrics(self,
                                                            tmp_path):
        # Junk after the end of a section's zlib stream, inside a
        # compressed_len raised to match: every sample still decodes,
        # but the section is not what the writer wrote.
        traces = tmp_path / "traces"
        traces.mkdir()
        path = traces / METRICS_FILENAME
        section = _hand_built_section()
        path.write_bytes(_raw_log(b"m00", section.n_samples,
                                  zlib.compress(section.frames) + b"junk"))
        message = (f"{path}: corrupt compressed payload: 4 stray bytes "
                   f"after the end of the stream")
        with pytest.raises(ValueError, match=re.escape(message)):
            list(iter_samples(path))
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["metrics", str(traces)])
        assert exit_info.value.code == message


class TestRecorder:
    def test_recorder_deltas_sum_to_perf_totals(self):
        config = MachineConfig(name="m", seed=3,
                               metrics_interval_seconds=1.0)
        machine = Machine(config)
        from repro.nt.fs.volume import Volume
        machine.mount("C", Volume("C", Volume.NTFS,
                                  capacity_bytes=2 * 1024**3))
        _drive_small_workload(machine)
        section = machine.flight.section()
        assert section.machine_name == "m"
        path_totals: dict[str, int] = {}
        import tempfile, os
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "m.ntmetrics")
            write_metrics_log([section], path)
            for _m, _t, sample in iter_samples(path):
                for name, delta in sample.counters.items():
                    path_totals[name] = path_totals.get(name, 0) + delta
        snap = machine.perf.snapshot()
        for name, value in snap["counters"].items():
            assert path_totals.get(name, 0) == value, name
        # Deltas only for changed series: no counter appears that the
        # registry never counted.
        assert set(path_totals) <= set(snap["counters"])

    def test_idle_machine_emits_empty_samples(self, tmp_path):
        # Lazy-writer scans count as activity, so quiesce it.
        config = MachineConfig(name="m", seed=3,
                               metrics_interval_seconds=1.0,
                               lazy_writer_enabled=False)
        machine = Machine(config)
        machine.run_until(5 * TICKS_PER_SECOND)
        machine.flight.finish()
        section = machine.flight.section()
        assert section.n_samples >= 5
        path = tmp_path / "idle.ntmetrics"
        write_metrics_log([section], path)
        samples = [s for _m, _t, s in iter_samples(path)]
        assert len(samples) == section.n_samples
        assert all(s.n_entries == 0 for s in samples)

    def test_interval_must_be_positive(self):
        machine = Machine(MachineConfig(name="m", seed=3))
        with pytest.raises(ValueError, match="interval"):
            FlightRecorder(machine, 0)

    def test_finish_idempotent(self):
        config = MachineConfig(name="m", seed=3,
                               metrics_interval_seconds=1.0)
        machine = Machine(config)
        machine.run_until(TICKS_PER_SECOND)
        machine.flight.finish()
        before = machine.flight.section()
        machine.flight.finish()
        assert machine.flight.section() == before


def _metrics_config(**overrides) -> StudyConfig:
    base = dict(n_machines=2, duration_seconds=10.0, seed=23,
                content_scale=0.05, with_network_shares=False,
                metrics_interval_seconds=1.0)
    base.update(overrides)
    return StudyConfig(**base)


class TestStudyIntegration:
    def test_serial_parallel_metrics_byte_identical(self, tmp_path):
        serial = run_study(_metrics_config())
        parallel = run_study(_metrics_config(workers=2))
        a, b = tmp_path / "serial.ntmetrics", tmp_path / "par.ntmetrics"
        write_metrics_log(serial.metrics, a)
        write_metrics_log(parallel.metrics, b)
        assert a.read_bytes() == b.read_bytes()

    def test_archives_byte_identical_metrics_on_off(self):
        with_metrics = run_study(_metrics_config())
        without = run_study(_metrics_config(metrics_interval_seconds=0.0))
        for c_on, c_off in zip(with_metrics.collectors,
                               without.collectors):
            assert pack_collector(c_on) == pack_collector(c_off)


class TestTimeseries:
    def test_reconciles_with_archive_counts(self, tmp_path):
        result = run_study(_metrics_config())
        path = tmp_path / METRICS_FILENAME
        write_metrics_log(result.metrics, path)
        report = analyze_metrics_log(path, seed=23)
        counts = {c.machine_name: len(c.records)
                  for c in result.collectors}
        assert reconcile_with_archive(report, counts) == []
        assert report.total == sum(counts.values())
        assert report.n_machines == 2

    def test_mismatch_is_reported(self, tmp_path):
        result = run_study(_metrics_config())
        path = tmp_path / METRICS_FILENAME
        write_metrics_log(result.metrics, path)
        report = analyze_metrics_log(path, seed=23)
        counts = {c.machine_name: len(c.records) + 1
                  for c in result.collectors}
        counts["ghost"] = 5
        problems = reconcile_with_archive(report, counts)
        assert any("ghost" in p for p in problems)
        assert sum("archive holds" in p for p in problems) == 2

    def test_burst_and_idle_detection(self, tmp_path):
        # One bursty interval in an otherwise steady series, plus idle.
        frames = bytearray()
        frames += encode_define(KIND_COUNTER, 0, "trace.records")
        values = [10] * 40
        values[7] = 500                     # the burst
        values[20] = 0                      # idle
        for i, v in enumerate(values):
            frames += encode_sample_head((i + 1) * TICKS_PER_SECOND,
                                         1 if v else 0)
            if v:
                frames += encode_scalar_entry(0, v)
        frames += encode_end(len(values))
        path = tmp_path / "m.ntmetrics"
        write_metrics_log(
            [MetricsSection("m00", TICKS_PER_SECOND, len(values),
                            bytes(frames))], path)
        report = analyze_metrics_log(path, seed=1)
        assert report.idle_intervals == 1
        assert report.burst_intervals == 1
        assert report.peak_count == 500 and report.peak_interval == 7
        assert len(report.dispersion) >= 2
        doc = report.to_dict()
        assert doc["burst_intervals"] == 1
        assert "remains_bursty" in doc
        assert "poisson" in report.format()

    def test_mixed_intervals_rejected(self, tmp_path):
        a = _hand_built_section()
        b = dataclasses.replace(a, machine_name="m01", interval_ticks=20)
        path = tmp_path / "m.ntmetrics"
        write_metrics_log([a, b], path)
        with pytest.raises(ValueError, match="mixed intervals"):
            analyze_metrics_log(path)


class TestOpenMetrics:
    def test_exposition_passes_validator(self, small_study):
        text = openmetrics_exposition(small_study.perf)
        assert validate_openmetrics(text) == []
        assert text.endswith("# EOF\n")
        assert 'machine="m00-' in text

    def test_counters_become_totals(self):
        snaps = {"m00": {"counters": {"trace.records": 7},
                         "gauges": {"cc.pages": 3},
                         "histograms": {"io.lat": {
                             "count": 2, "sum_ticks": 20_000_000,
                             "max_ticks": 1, "bucket_counts": [2]}}}}
        text = openmetrics_exposition(snaps)
        assert validate_openmetrics(text) == []
        assert 'nt_trace_records_total{machine="m00"} 7' in text
        assert 'nt_cc_pages{machine="m00"} 3' in text
        assert 'nt_io_lat_count{machine="m00"} 2' in text
        assert 'nt_io_lat_sum{machine="m00"} 2.0' in text   # ticks -> s

    def test_validator_catches_missing_eof(self):
        assert any("EOF" in p for p in
                   validate_openmetrics("# TYPE nt_x counter\n"))

    def test_validator_catches_counter_without_total(self):
        text = ("# TYPE nt_x counter\n"
                'nt_x{machine="a"} 1\n'
                "# EOF\n")
        assert any("_total" in p for p in validate_openmetrics(text))

    def test_validator_catches_non_contiguous_family(self):
        text = ("# TYPE nt_a counter\n"
                "# TYPE nt_b gauge\n"
                'nt_a_total{machine="a"} 1\n'
                "# EOF\n")
        assert any("contiguous" in p for p in validate_openmetrics(text))

    def test_validator_catches_bad_value_and_undeclared(self):
        text = ("# TYPE nt_a gauge\n"
                "nt_a oops\n"
                "nt_zzz 1\n"
                "# EOF\n")
        problems = validate_openmetrics(text)
        assert any("non-numeric" in p for p in problems)
        assert any("no TYPE declaration" in p for p in problems)


class TestCli:
    @pytest.fixture(scope="class")
    def metrics_archive(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("flightcli") / "traces"
        rc = cli_main(["run", "--machines", "2", "--seconds", "10",
                       "--seed", "23", "--scale", "0.05",
                       "--out", str(out), "--metrics", "--perf"])
        assert rc == 0
        return out

    def test_run_writes_metrics_sidecar(self, metrics_archive):
        assert (metrics_archive / METRICS_FILENAME).exists()

    def test_metrics_command_reconciles(self, metrics_archive, tmp_path,
                                        capsys):
        json_path = tmp_path / "ts.json"
        om_path = tmp_path / "om.prom"
        rc = cli_main(["metrics", str(metrics_archive),
                       "--json", str(json_path),
                       "--openmetrics", str(om_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "reconciliation: metrics log matches" in out
        assert "Index of dispersion" in out
        doc = json.loads(json_path.read_text())
        assert doc["n_machines"] == 2
        assert validate_openmetrics(om_path.read_text()) == []

    def test_metrics_command_missing_dir(self, tmp_path):
        missing = tmp_path / "nope"
        with pytest.raises(SystemExit, match="nope"):
            cli_main(["metrics", str(missing)])

    def test_metrics_command_missing_sidecar(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(SystemExit, match="repro run --metrics"):
            cli_main(["metrics", str(empty)])

    def test_profile_command_writes_throughput_baseline(self, tmp_path,
                                                        capsys):
        # `repro perf --bench-json` is the one wall-clock baseline writer.
        bench = tmp_path / "BENCH_throughput.json"
        rc = cli_main(["perf", "--machines", "1", "--seconds", "10",
                       "--seed", "23", "--scale", "0.05",
                       "--bench-json", str(bench)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "wrote throughput baseline" in out
        doc = json.loads(bench.read_text())
        assert doc["format"] == "nt-throughput-2"
        assert doc["records_per_second"] > 0
        assert doc["phases"]["simulate"] > 0
        assert doc["deterministic"]["records"] == doc["records"] > 0

    def test_replay_metrics_and_profile(self, metrics_archive, tmp_path):
        out = tmp_path / "replayed"
        rc = cli_main(["replay", "--traces", str(metrics_archive),
                       "--mode", "open", "--out", str(out), "--metrics"])
        assert rc == 0
        assert (out / METRICS_FILENAME).exists()
        report = analyze_metrics_log(out / METRICS_FILENAME, seed=1)
        assert report.total > 0

    def test_perf_archive_rejects_bench_json(self, metrics_archive,
                                             tmp_path):
        with pytest.raises(SystemExit, match="bench-json"):
            cli_main(["perf", str(metrics_archive),
                      "--bench-json", str(tmp_path / "b.json")])

    def test_perf_archive_json_redump(self, metrics_archive, tmp_path,
                                      capsys):
        redump = tmp_path / "perf-copy.json"
        rc = cli_main(["perf", str(metrics_archive),
                       "--json", str(redump)])
        assert rc == 0
        original = (metrics_archive / "perf.json").read_bytes()
        assert redump.read_bytes() == original
