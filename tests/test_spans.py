"""Causal span tracing: off-by-default differential, parenting and
causes, exact reconciliation with the trace store, serial-vs-parallel
identity, Chrome export, and the CLI surface."""

import json

import pytest

from repro import StudyConfig, run_study
from repro.analysis.attribution import (
    attribution_table,
    critical_path_table,
    reconcile_attribution,
)
from repro.cli import main as cli_main
from repro.nt.fs.volume import Volume
from repro.nt.system import Machine, MachineConfig
from repro.nt.tracing.records import TraceEventKind
from repro.nt.tracing.spans import (
    SpanCause,
    SpanLayer,
    chrome_trace_events,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.nt.tracing.store import pack_collector, save_study

from tests.conftest import make_file

_STUDY = dict(n_machines=3, duration_seconds=20, seed=5, content_scale=0.1)


@pytest.fixture(scope="module")
def study_off():
    return run_study(StudyConfig(**_STUDY))


@pytest.fixture(scope="module")
def study_on():
    return run_study(StudyConfig(**_STUDY, spans_enabled=True))


@pytest.fixture
def spanned_machine():
    m = Machine(MachineConfig(name="spanbox", seed=7, spans_enabled=True))
    vol = Volume("C", Volume.NTFS, capacity_bytes=2 * 1024**3)
    m.mount("C", vol)
    return m


def _spans(collector):
    return collector.span_records


def _recorded(collector):
    return [s for s in collector.span_records if s.recorded]


class TestDisabledByDefault:
    def test_default_machine_records_no_spans(self, machine, process,
                                              make_file_on):
        make_file_on(r"\f.txt", 100)
        machine.win32.get_file_attributes(process, r"C:\f.txt")
        assert not machine.spans.enabled
        assert machine.collector.span_records == []

    def test_records_and_perf_identical_with_and_without_spans(
            self, study_off, study_on):
        # The tentpole differential: tracing must observe, never perturb.
        assert study_off.perf == study_on.perf
        for off, on in zip(study_off.collectors, study_on.collectors):
            assert off.machine_name == on.machine_name
            assert off.records == on.records
            assert off.name_records == on.name_records
            assert not off.span_records
            assert on.span_records

    def test_disabled_archive_bytes_match_pre_span_writer(
            self, study_off, tmp_path):
        # Satellite: a spans-disabled run archives byte-identically to the
        # seed — no span section, version byte still "2".
        paths = save_study(study_off.collectors, tmp_path)
        for path in paths:
            assert path.read_bytes().startswith(b"NTTRACE2")

    def test_enabled_archive_is_v3_and_round_trips(self, study_on, tmp_path):
        from repro.nt.tracing.store import load_study

        paths = save_study(study_on.collectors, tmp_path)
        for path in paths:
            assert path.read_bytes().startswith(b"NTTRACE3")
        for orig, loaded in zip(study_on.collectors, load_study(tmp_path)):
            assert loaded.span_records == orig.span_records


class TestParentingAndCauses:
    def _read_cold(self, machine):
        """Open and read a file cold, so the read faults through Mm."""
        vol = machine.drives["C"]
        make_file(vol, r"\data.bin", 256 * 1024)
        process = machine.create_process("reader.exe", interactive=True)
        w = machine.win32
        _s, handle = w.create_file(process, r"C:\data.bin")
        w.read_file(process, handle, 64 * 1024, offset=0)
        w.close_handle(process, handle)
        return machine.collector.span_records

    def test_cold_read_opens_user_root_with_paging_children(
            self, spanned_machine):
        spans = self._read_cold(spanned_machine)
        reads = [s for s in spans
                 if s.is_root and s.op == TraceEventKind.IRP_READ]
        assert reads, "cold read should dispatch on the IRP path"
        root = reads[0]
        assert root.cause == SpanCause.USER
        assert root.activity_id == root.span_id
        family = [s for s in spans
                  if s.activity_id == root.span_id and s is not root]
        assert family, "a cold read must induce child work"
        mm = [s for s in family if s.layer == SpanLayer.MM]
        assert mm and all(s.cause == SpanCause.PAGING for s in mm)
        paging_irps = [s for s in family if s.layer == SpanLayer.IO]
        assert paging_irps
        assert all(s.cause == SpanCause.PAGING for s in paging_irps)

    def test_children_nest_within_roots(self, spanned_machine):
        spans = self._read_cold(spanned_machine)
        by_id = {s.span_id: s for s in spans}
        for span in spans:
            if span.is_root or span.background:
                continue
            parent = by_id[span.parent_id]
            assert parent.t_begin <= span.t_begin
            assert span.t_end <= parent.t_end

    def test_every_span_resolves_to_a_root(self, study_on):
        # The acceptance bar: no orphaned induced work, ever.
        for collector in study_on.collectors:
            by_id = {s.span_id: s for s in collector.span_records}
            for span in collector.span_records:
                if span.is_root:
                    assert span.activity_id == span.span_id
                    continue
                parent = by_id.get(span.parent_id)
                assert parent is not None, \
                    f"span {span.span_id} has no parent in the log"
                assert span.activity_id == parent.activity_id
                root = by_id[span.activity_id]
                assert root.is_root

    def test_study_exercises_all_recordable_causes(self, study_on):
        causes = {SpanCause(s.cause)
                  for c in study_on.collectors for s in _recorded(c)}
        # DEVICE stamps storage-device annotation spans, which are never
        # recorded (no trace record is emitted inside them).
        assert causes == set(SpanCause) - {SpanCause.DEVICE}

    def test_lazy_writer_spans_are_roots_from_timers(self, study_on):
        lw = [s for c in study_on.collectors for s in _spans(c)
              if s.layer == SpanLayer.LAZY_WRITER]
        assert lw
        assert all(s.cause == SpanCause.LAZY_WRITER for s in lw)


class TestReconciliation:
    def test_exact_per_kind_reconciliation(self, study_on):
        # The headline guarantee: the attribution tables and the trace
        # store agree *exactly*, per kind, on counts and bytes.
        for collector in study_on.collectors:
            assert reconcile_attribution(collector) == {}, \
                collector.machine_name

    def test_attribution_totals_match_record_stream(self, study_on):
        table = attribution_table(study_on.collectors)
        assert table.total_ops == sum(
            len(c.records) for c in study_on.collectors)
        assert table.total_bytes == sum(
            r.length for c in study_on.collectors for r in c.records)
        assert 0.0 < table.induced_op_share < 1.0

    def test_induced_traffic_detected_by_cause(self, study_on):
        table = attribution_table(study_on.collectors)
        assert table.rows[SpanCause.USER].ops > 0
        assert table.rows[SpanCause.PAGING].ops > 0
        assert table.rows[SpanCause.LAZY_WRITER].ops > 0
        # Paging dominates bytes moved (the paper's duplicate-transfer
        # observation, §3.3): demand fault-ins carry whole VM pages.
        shares = {cause: row.share_of(table.total_ops, table.total_bytes)
                  for cause, row in table.rows.items()}
        assert shares[SpanCause.PAGING][1] > shares[SpanCause.USER][1]

    def test_span_durations_cross_check_perf_histograms(self, study_on):
        # A dispatch's span closes on the exact clock reads the perf
        # histogram observes, so the two instruments must agree on both
        # the IRP_READ count and the summed latency, tick for tick.
        for collector in study_on.collectors:
            snap = study_on.perf[collector.machine_name]
            reads = [s for s in _spans(collector)
                     if s.layer == SpanLayer.IO
                     and s.op == TraceEventKind.IRP_READ]
            hist = snap["histograms"]["io.irp.latency.read"]
            assert len(reads) == hist["count"] \
                == snap["counters"]["io.irp.dispatched.read"]
            assert sum(s.duration for s in reads) == hist["sum_ticks"]


class TestCriticalPath:
    def test_fastio_band_below_irp_band(self, study_on):
        # Figures 13–14: FastIO completions live in the 1–100 us band,
        # IRP-path reads above it.
        table = critical_path_table(study_on.collectors)
        fast = table.rows[TraceEventKind.FASTIO_READ]
        irp = table.rows[TraceEventKind.IRP_READ]
        assert fast.n and irp.n
        assert 1.0 <= fast.mean_self_micros <= 100.0
        assert irp.mean_total_micros > fast.mean_total_micros

    def test_decomposition_sums(self, study_on):
        table = critical_path_table(study_on.collectors)
        for row in table.rows.values():
            assert row.self_ticks == row.total_ticks - row.sync_ticks
            assert row.self_ticks >= 0


class TestSerialParallelIdentity:
    def test_span_logs_byte_identical_across_workers(self):
        serial = run_study(StudyConfig(**_STUDY, spans_enabled=True))
        parallel = run_study(StudyConfig(**_STUDY, spans_enabled=True,
                                         workers=2))
        for a, b in zip(serial.collectors, parallel.collectors):
            assert pack_collector(a) == pack_collector(b), a.machine_name
        assert (attribution_table(serial.collectors).to_dict()
                == attribution_table(parallel.collectors).to_dict())


class TestChromeExport:
    def test_export_validates_clean(self, study_on):
        doc = {"traceEvents": chrome_trace_events(study_on.collectors)}
        assert validate_chrome_trace(doc) == []

    def test_event_count_and_process_metadata(self, study_on):
        events = chrome_trace_events(study_on.collectors)
        metadata = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        assert len(metadata) == len(study_on.collectors)
        assert len(complete) == sum(
            len(c.span_records) for c in study_on.collectors)
        names = {e["args"]["name"] for e in metadata}
        assert names == {c.machine_name for c in study_on.collectors}

    def test_written_file_round_trips(self, study_on, tmp_path):
        out = tmp_path / "chrome.json"
        write_chrome_trace(study_on.collectors, out)
        doc = json.loads(out.read_text())
        assert validate_chrome_trace(doc) == []

    def test_validator_flags_orphan_activity(self):
        doc = {"traceEvents": [
            {"name": "IRP_READ", "ph": "X", "ts": 1.0, "dur": 2.0,
             "pid": 0, "tid": 99,
             "args": {"span": 5, "parent": 4, "activity": 99}},
        ]}
        problems = validate_chrome_trace(doc)
        assert any("does not resolve to a root" in p for p in problems)


class TestRecordBufferFlush:
    def test_partial_buffers_reach_collector_exactly_once(
            self, spanned_machine):
        # Satellite: end-of-run drain.  A short run leaves every buffer
        # partially full; finish_tracing must deliver each record exactly
        # once, and the span log (one RECORDED span per record) agrees.
        machine = spanned_machine
        vol = machine.drives["C"]
        make_file(vol, r"\f.txt", 4096)
        process = machine.create_process("app.exe", interactive=True)
        w = machine.win32
        _s, h = w.create_file(process, r"C:\f.txt")
        w.read_file(process, h, 4096, offset=0)
        w.close_handle(process, h)
        buffered = sum(f.buffer.records_seen for f in machine.trace_filters)
        assert buffered > 0
        assert any(f.buffer.active_fill for f in machine.trace_filters)
        machine.finish_tracing()
        assert len(machine.collector.records) == buffered
        assert all(f.buffer.active_fill == 0 for f in machine.trace_filters)
        assert len(_recorded(machine.collector)) == buffered
        # Draining again must not duplicate anything.
        machine.finish_tracing()
        assert len(machine.collector.records) == buffered


class TestSpansCli:
    @pytest.fixture(scope="class")
    def archive(self, tmp_path_factory):
        result = run_study(StudyConfig(n_machines=2, duration_seconds=15,
                                       seed=3, content_scale=0.1,
                                       spans_enabled=True))
        directory = tmp_path_factory.mktemp("span-archive")
        save_study(result.collectors, directory)
        return directory

    def test_export_writes_valid_chrome_trace(self, archive, tmp_path,
                                              capsys):
        out = tmp_path / "chrome.json"
        assert cli_main(["spans", "export", str(archive),
                         "--out", str(out)]) == 0
        assert validate_chrome_trace(json.loads(out.read_text())) == []
        assert "exported" in capsys.readouterr().out

    def test_attribution_reports_exact_reconciliation(self, archive,
                                                      tmp_path, capsys):
        out = tmp_path / "attribution.json"
        assert cli_main(["spans", "attribution", str(archive),
                         "--json", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "Induced-I/O attribution" in stdout
        assert "match trace records exactly" in stdout
        doc = json.loads(out.read_text())
        assert doc["attribution"]["total_ops"] > 0
        assert doc["critical_path"]["kinds"]

    def test_missing_archive_exits_nonzero_naming_path(self, tmp_path):
        missing = tmp_path / "nowhere"
        for argv in (["spans", "export", str(missing)],
                     ["spans", "attribution", str(missing)]):
            with pytest.raises(SystemExit, match=str(missing)):
                cli_main(argv)

    def test_spanless_archive_refused_with_hint(self, study_off, tmp_path):
        directory = tmp_path / "plain"
        save_study(study_off.collectors, directory)
        with pytest.raises(SystemExit, match="no span records"):
            cli_main(["spans", "export", str(directory)])

    def test_run_spans_flag_records_and_archives_v3(self, tmp_path, capsys):
        out = tmp_path / "traces"
        assert cli_main(["run", "--machines", "1", "--seconds", "5",
                         "--scale", "0.1", "--out", str(out),
                         "--spans"]) == 0
        assert "causal spans" in capsys.readouterr().out
        archives = sorted(out.glob("*.nttrace"))
        assert archives
        assert all(p.read_bytes().startswith(b"NTTRACE3")
                   for p in archives)


class TestPerfCliStrictness:
    def test_perf_missing_directory_exits_nonzero(self, tmp_path):
        missing = tmp_path / "never-created"
        with pytest.raises(SystemExit, match=str(missing)):
            cli_main(["perf", str(missing)])

    def test_perf_archive_without_perf_json_exits_nonzero(self, tmp_path):
        with pytest.raises(SystemExit, match="no perf.json"):
            cli_main(["perf", str(tmp_path)])
