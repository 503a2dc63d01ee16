"""Causal span tracing: off-by-default differential, parenting and
causes, exact reconciliation with the trace store, serial-vs-parallel
identity, Chrome export, and the CLI surface.

The attribution analyses read the staged span log as numpy rows.  The
per-span loops they replaced live on here as the reference oracle
(:func:`_reference_attribution`, :func:`_reference_reconcile`,
:func:`_reference_critical_path`), and a Hypothesis property holds the
columnar functions equal to them on random span forests."""

import hashlib
import itertools
import json
import re
import subprocess
import sys
from array import array
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import StudyConfig, run_study
from repro.analysis import attribution
from repro.analysis.attribution import (
    DATA_PATH_KINDS,
    CriticalPathTable,
    PathRow,
    attribution_table,
    critical_path_table,
    reconcile_attribution,
)
from repro.cli import main as cli_main
from repro.nt.fs.volume import Volume
from repro.nt.system import Machine, MachineConfig
from repro.nt.tracing.collector import TraceCollector
from repro.nt.tracing.fastbuf import RECORD_FIELDS
from repro.nt.tracing.records import (N_EVENT_KINDS, RECORD_COLUMNS,
                                      TraceEventKind)
from repro.nt.tracing.spans import (
    NO_OP,
    SPAN_BACKGROUND,
    SPAN_DECLINED,
    SPAN_FIELDS,
    SPAN_RECORDED,
    SpanCause,
    SpanLayer,
    SpanRecord,
    chrome_trace_events,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.nt.tracing.store import (load_collector, pack_collector,
                                    save_collector, save_study,
                                    unpack_collector)

from tests.conftest import make_file

REPO_ROOT = Path(__file__).resolve().parents[1]
_STUDY = dict(n_machines=3, duration_seconds=20, seed=5, content_scale=0.1)
_NBYTES = SpanRecord.__slots__.index("nbytes")


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

    def test_mismatch_names_each_kind_with_both_sides(self, study_on):
        # Drop one recorded CREATE span and inflate one recorded READ
        # span's bytes: exactly those two kinds are reported, with the
        # record side computed from the trace records themselves.
        collector = unpack_collector(pack_collector(study_on.collectors[0]))
        records = collector.records
        log = collector.span_log

        def first(kind):
            """Offset of the first recorded ``kind`` span's row in the log."""
            return next(i * SPAN_FIELDS
                        for i, s in enumerate(collector.span_records)
                        if s.recorded and s.op == kind)

        log[first(TraceEventKind.IRP_READ) + _NBYTES] += 7
        create = first(TraceEventKind.IRP_CREATE)
        dropped = SpanRecord(*log[create:create + SPAN_FIELDS])
        del log[create:create + SPAN_FIELDS]
        fresh = unpack_collector(pack_collector(collector))

        def side(kind):
            mine = [r for r in records if r.kind == kind]
            return (len(mine), sum(r.length for r in mine))

        n_reads, read_bytes = side(TraceEventKind.IRP_READ)
        n_creates, create_bytes = side(TraceEventKind.IRP_CREATE)
        problems = reconcile_attribution(fresh)
        assert problems == {
            "IRP_CREATE": {"records": (n_creates, create_bytes),
                           "spans": (n_creates - 1,
                                     create_bytes - dropped.nbytes)},
            "IRP_READ": {"records": (n_reads, read_bytes),
                         "spans": (n_reads, read_bytes + 7)},
        }
        assert all(type(value) is int for sides in problems.values()
                   for pair in sides.values() for value in pair)

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


# --------------------------------------------------------------------- #
# The per-span reference oracle: the loops the columnar analyses replaced.

def _reference_attribution(collectors) -> dict:
    """{cause: (recorded ops, bytes)}, one span at a time."""
    sides = {cause: [0, 0] for cause in SpanCause}
    for collector in collectors:
        for span in collector.span_records:
            if not span.recorded:
                continue
            side = sides[SpanCause(span.cause)]
            side[0] += 1
            side[1] += span.nbytes
    return {cause: tuple(side) for cause, side in sides.items()}


def _reference_reconcile(collector) -> dict:
    record_counts, record_bytes = Counter(), Counter()
    for record in collector.records:
        record_counts[record.kind] += 1
        record_bytes[record.kind] += record.length
    span_counts, span_bytes = Counter(), Counter()
    for span in collector.span_records:
        if span.recorded:
            span_counts[span.op] += 1
            span_bytes[span.op] += span.nbytes
    problems = {}
    for kind in sorted(set(record_counts) | set(span_counts)):
        recs = (record_counts[kind], record_bytes[kind])
        spans = (span_counts[kind], span_bytes[kind])
        if recs != spans:
            problems[TraceEventKind(kind).name] = {"records": recs,
                                                   "spans": spans}
    return problems


def _reference_decompose(spans, rows) -> None:
    wanted = {int(kind) for kind in DATA_PATH_KINDS}
    by_id = {span.span_id: span for span in spans}
    roots = {}
    for span in spans:
        if span.is_root and span.op in wanted and span.recorded:
            roots[span.span_id] = rows[TraceEventKind(span.op)]
    for span in spans:
        if span.is_root:
            row = roots.get(span.span_id)
            if row is not None:
                row.n += 1
                row.total_ticks += span.duration
            continue
        row = roots.get(span.parent_id)
        if row is None:
            continue
        if span.flags & SPAN_BACKGROUND:
            row.overlapped_ticks += span.duration
        else:
            row.sync_ticks += span.duration
    for span in spans:
        if span.cause != int(SpanCause.DEVICE):
            continue
        row = roots.get(span.activity_id)
        if row is None:
            continue
        background = False
        cursor = span
        while cursor.parent_id != 0:
            parent = by_id.get(cursor.parent_id)
            if parent is None:
                break
            if parent.flags & SPAN_BACKGROUND:
                background = True
                break
            cursor = parent
        if background:
            row.device_overlapped_ticks += span.duration
        else:
            row.device_ticks += span.duration


def _reference_critical_path(collectors) -> CriticalPathTable:
    table = CriticalPathTable(
        rows={kind: PathRow(kind) for kind in DATA_PATH_KINDS},
        n_machines=len(collectors))
    for collector in collectors:
        _reference_decompose(collector.span_records, table.rows)
    return table


_DATA_OPS = [int(kind) for kind in DATA_PATH_KINDS]
_RECORD_KIND, _RECORD_LENGTH = (RECORD_COLUMNS.index(name)
                                 for name in ("kind", "length"))
# Weighted toward what the decomposition looks at: I/O spans, data-path
# ops and device time.
_LAYERS = (SpanLayer.IO,) * 3 + tuple(SpanLayer)[1:]
_CAUSES = (SpanCause.DEVICE,) + tuple(SpanCause)


@st.composite
def _span_log(draw) -> list[tuple]:
    """One machine's span rows, in a shuffled order: ids with gaps;
    parents that are 0, the previous span (deep chains) or any lower id,
    logged or not; activities inherited where the parent is logged and
    any earlier activity where it is not; random causes and flags on
    every layer."""
    n = draw(st.integers(0, 30))
    ids = list(itertools.accumulate(
        draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))))
    activity: dict[int, int] = {}
    rows = []
    for i, span_id in enumerate(ids):
        shape = draw(st.sampled_from(("root", "previous", "previous", "any")))
        if shape == "root" or span_id == 1:
            parent = 0
        elif shape == "previous" and i:
            parent = ids[i - 1]
        else:
            parent = draw(st.integers(1, span_id - 1))
        if parent == 0:
            activity[span_id] = span_id
        elif parent in activity:
            activity[span_id] = activity[parent]
        else:
            activity[span_id] = draw(st.sampled_from(
                [0, *sorted(set(activity.values()))]))
        layer = draw(st.sampled_from(_LAYERS))
        if layer == SpanLayer.IO:
            op = draw(st.one_of(st.sampled_from(_DATA_OPS),
                                st.integers(0, N_EVENT_KINDS - 1)))
            flags = draw(st.integers(
                0, SPAN_RECORDED | SPAN_BACKGROUND | SPAN_DECLINED))
        else:
            op = NO_OP
            flags = draw(st.sampled_from((0, SPAN_BACKGROUND)))
        t_begin = draw(st.integers(0, 10 ** 9))
        rows.append((span_id, parent, activity[span_id], int(layer), op,
                     int(draw(st.sampled_from(_CAUSES))), t_begin,
                     t_begin + draw(st.integers(0, 10 ** 6)),
                     draw(st.integers(0, 1 << 24)),
                     draw(st.integers(0, 0xC0000100)), flags))
    return draw(st.permutations(rows))


@st.composite
def _machine(draw) -> TraceCollector:
    """A collector holding a random span log and trace records that match
    its recorded spans, less a dropped prefix, plus a few strays."""
    rows = draw(_span_log())
    recorded = [(row[4], row[8]) for row in rows if row[10] & SPAN_RECORDED]
    records = recorded[draw(st.integers(0, len(recorded))):] + draw(
        st.lists(st.tuples(st.integers(0, N_EVENT_KINDS - 1),
                           st.integers(0, 1 << 24)), max_size=3))
    collector = TraceCollector("m00-random")
    for row in rows:
        collector.span_log.extend(row)
    block = array("q")
    for kind, length in records:
        fields = [0] * RECORD_FIELDS
        fields[_RECORD_KIND], fields[_RECORD_LENGTH] = kind, length
        block.extend(fields)
    if block:
        collector.receive_block(block)
    return collector


@settings(max_examples=300, deadline=None)
@given(collectors=st.lists(_machine(), max_size=3))
def test_columnar_attribution_matches_per_span_reference(collectors):
    table = attribution_table(collectors)
    assert ({cause: (row.ops, row.nbytes)
             for cause, row in table.rows.items()}
            == _reference_attribution(collectors))
    paths = critical_path_table(collectors)
    assert paths.rows == _reference_critical_path(collectors).rows
    problems = [reconcile_attribution(c) for c in collectors]
    assert problems == [_reference_reconcile(c) for c in collectors]
    values = [v for row in table.rows.values() for v in (row.ops, row.nbytes)]
    values += [getattr(row, name) for row in paths.rows.values()
               for name in ("n", "total_ticks", "sync_ticks",
                            "overlapped_ticks", "device_ticks",
                            "device_overlapped_ticks")]
    values += [v for sides in problems for pair in sides.values()
               for side in pair.values() for v in side]
    assert all(type(v) is int for v in values)


# --------------------------------------------------------------------- #
# The decoder checks the tracer's invariants, so no parent chain loops.

def _cyclic_collector() -> TraceCollector:
    """A device span that is its own parent, whose activity names a
    recorded FASTIO_READ root."""
    collector = TraceCollector("m00-cyclic")
    collector.span_log.extend((
        1, 0, 1, SpanLayer.IO, TraceEventKind.FASTIO_READ, SpanCause.USER,
        0, 50, 4096, 0, SPAN_RECORDED))
    collector.span_log.extend((
        2, 2, 1, SpanLayer.STORAGE, NO_OP, SpanCause.DEVICE, 10, 40, 4096,
        0, 0))
    return collector


class TestSpanLogDecodeChecks:
    def test_parent_cycle_rejected_naming_the_file(self, tmp_path):
        path = tmp_path / "m00-cyclic.nttrace"
        save_collector(_cyclic_collector(), path)
        with pytest.raises(ValueError, match=re.escape(str(path))
                           + r": span 2 names parent 2"):
            load_collector(path)

    @pytest.mark.parametrize("second, message", [
        ({"parent_id": 7}, "span 2 names parent 7"),
        ({"parent_id": -1}, "span 2 names parent -1"),
        ({"span_id": 1, "parent_id": 0}, "span id 1 appears more than once"),
        ({"cause": len(SpanCause)},
         f"span 2 has unknown cause {len(SpanCause)}"),
        ({"cause": -1}, "span 2 has unknown cause -1"),
    ])
    def test_broken_invariant_rejected_naming_the_file(
            self, tmp_path, second, message):
        # The second span, made a valid child of the root, then broken.
        collector = _cyclic_collector()
        log = collector.span_log
        for field, value in {"parent_id": 1, **second}.items():
            log[SPAN_FIELDS + SpanRecord.__slots__.index(field)] = value
        path = tmp_path / "m00-broken.nttrace"
        save_collector(collector, path)
        with pytest.raises(ValueError,
                           match=re.escape(f"{path}: {message}")):
            load_collector(path)

    def test_valid_log_round_trips(self, tmp_path):
        collector = _cyclic_collector()
        collector.span_log[SPAN_FIELDS + 1] = 1
        path = tmp_path / "m00-valid.nttrace"
        save_collector(collector, path)
        assert load_collector(path).span_records == collector.span_records

    @pytest.mark.parametrize("command", ["attribution", "export"])
    def test_spans_cli_exits_1_naming_the_file(self, tmp_path, command):
        directory = tmp_path / "traces"
        directory.mkdir()
        path = directory / "m00-cyclic.nttrace"
        save_collector(_cyclic_collector(), path)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "spans", command,
             str(directory), *(["--out", str(tmp_path / "t.json")]
                               if command == "export" else [])],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"})
        assert proc.returncode == 1
        assert f"{path}: span 2 names parent 2" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_parent_walk_is_bounded(self):
        # A cycle that never went through the decoder still cannot hang
        # the device-span walk: rows 0 and 1 are each other's parent.
        with pytest.raises(ValueError, match="parent cycle"):
            attribution._under_background(
                np.array([1, 0]), np.zeros(2, dtype=bool), np.array([0]))


# --------------------------------------------------------------------- #
# Golden digests of the span commands, recorded before the span log went
# columnar: `repro run --machines 2 --seconds 15 --seed 3 --scale 0.2
# --spans --out spans`, then each command run from the same directory.

SPAN_COMMAND_GOLDEN = {
    "attribution_json": "4d168042ed9dcecc1814dbfe79ba5364"
                        "0fb5186f73ea8b1b4c20cf5fbf330d76",
    "attribution_stdout": "4924ef05de9c8429b826cbd4c10f1595"
                          "7c0f8833f746aadad963507ac5b096e2",
    "export_json": "fea3891650c076806f06465272134709"
                   "bf66b566751ee4077f3615bbbd59517a",
    "export_stdout": "df60d977f9e68e4b2c43a38001bfde59"
                     "accb2497f6af3291ba6c15fb2fc43d30",
}


@pytest.mark.parametrize("workers", [[], ["--workers", "2"]],
                         ids=["serial", "workers2"])
def test_span_commands_match_golden(tmp_path, monkeypatch, capsys, workers):
    monkeypatch.chdir(tmp_path)
    assert cli_main(["run", "--machines", "2", "--seconds", "15",
                     "--seed", "3", "--scale", "0.2", "--spans",
                     "--out", "spans", *workers]) == 0
    capsys.readouterr()

    def sha256(data) -> str:
        if isinstance(data, str):
            data = data.encode("utf-8")
        return hashlib.sha256(data).hexdigest()

    assert cli_main(["spans", "attribution", "spans",
                     "--json", "attr.json"]) == 0
    stdout = capsys.readouterr().out
    assert cli_main(["spans", "export", "spans", "--out", "export.json"]) == 0
    digests = {
        "attribution_json": sha256((tmp_path / "attr.json").read_bytes()),
        "attribution_stdout": sha256(stdout),
        "export_json": sha256((tmp_path / "export.json").read_bytes()),
        "export_stdout": sha256(capsys.readouterr().out),
    }
    assert digests == SPAN_COMMAND_GOLDEN
