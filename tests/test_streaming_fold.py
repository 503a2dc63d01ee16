"""The columnar sketch fold against a record-at-a-time reference.

A fold takes one machine's trace as a single (n, 15) int64 array: the
record-level aggregates are whole-column numpy updates and the instances
come from one stable sort by (file object, start time).  The reference
below is the fold that array path replaced — each record updates the
aggregates in turn and is buffered per file object — and every producer
(live collector, archived store file, warehouse) must give the
reference's sketch field by field on generated traces, including the
edge cases of the integer bucketing.  The last tests check that folding
builds no per-record objects at all.
"""

from __future__ import annotations

import tempfile
from array import array
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import StudyConfig
from repro.analysis import streaming
from repro.analysis.sessions import build_instance
from repro.analysis.streaming import (
    Digest,
    StatsSketch,
    fold_collector,
    fold_store_file,
    sketch_from_archive,
    sketch_from_warehouse,
)
from repro.analysis.warehouse import TraceWarehouse, record_rows
from repro.common.flags import CreateOptions, FileAttributes
from repro.nt.perf import BUCKET_EDGES_TICKS, N_BUCKETS, LatencyHistogram
from repro.nt.tracing.collector import TraceCollector
from repro.nt.tracing.records import (
    NameRecord,
    SetInformationClass,
    TraceEventKind,
    TraceRecord,
    extension_of,
)
from repro.nt.tracing.store import (
    StoreStream,
    pack_collector,
    save_collector,
    save_study,
)
from repro.workload import campaign

K = TraceEventKind
# --------------------------------------------------------------------- #
# The reference: the record-at-a-time fold.

_KIND_TO_RTYPE = {int(K.IRP_READ): "irp-read", int(K.IRP_WRITE): "irp-write",
                  int(K.FASTIO_READ): "fastio-read",
                  int(K.FASTIO_WRITE): "fastio-write"}
_READ_KINDS = frozenset((int(K.IRP_READ), int(K.FASTIO_READ)))


def reference_update_record(sketch: StatsSketch, kind: int, t_start: int,
                            t_end: int, length: int, returned: int) -> None:
    """One record's record-level update, as the sketch once applied it."""
    sketch.n_records += 1
    sketch.kind_counts[kind] = sketch.kind_counts.get(kind, 0) + 1
    if sketch.t_min < 0 or t_start < sketch.t_min:
        sketch.t_min = t_start
    if t_end > sketch.t_max:
        sketch.t_max = t_end
    rtype = _KIND_TO_RTYPE.get(kind)
    if rtype is not None:
        sketch.latency[rtype].observe(t_end - t_start)
        sketch.req_size[rtype].add(length)
        if kind in _READ_KINDS:
            sketch.record_bytes_read += returned
        else:
            sketch.record_bytes_written += returned
    elif kind == int(K.IRP_CREATE):
        b = t_start // sketch.burst_bin_ticks
        sketch.bursts[b] = sketch.bursts.get(b, 0) + 1


def reference_fold(sketch: StatsSketch, machine_idx: int, category: str,
                   collector: TraceCollector) -> None:
    """Fold a collector record by record, buffering events per file
    object and sorting each buffer stably by start time."""
    events: dict[int, list[tuple]] = {}
    for r in collector.records:
        reference_update_record(sketch, r.kind, r.t_start, r.t_end,
                                r.length, r.returned)
        events.setdefault(r.fo_id, []).append(
            (r.kind, r.t_start, r.t_end, r.status, r.irp_flags, r.offset,
             r.length, r.returned, r.file_size, r.disposition, r.options,
             r.attributes, r.info, r.pid))
    file_info = {}
    for nr in collector.name_records:
        file_info[nr.fo_id] = (nr.path, extension_of(nr.path),
                               nr.volume_label, nr.volume_is_remote)

    def process_lookup(pid):
        name = collector.process_names.get(pid)
        if name is None:
            return None
        return (name, collector.process_interactive.get(pid, False))

    instances = []
    for fo_id, evs in events.items():
        evs.sort(key=lambda e: e[1])
        inst = build_instance(machine_idx, fo_id, evs, file_info.get(fo_id),
                              process_lookup)
        if inst is not None:
            instances.append(inst)
    instances.sort(key=lambda s: (s.open_t, s.fo_id))
    sketch._fold_instances(machine_idx, collector.machine_name, category,
                           len(collector), instances)


# --------------------------------------------------------------------- #
# Building collectors from plain rows.

MACHINE = "m0-oracle"
CATEGORY = "walkup"
PATHS = ("\\data\\report.doc", "\\tmp\\~wrl0001.tmp", "\\bin\\app.exe",
         "\\logs\\run.log", "\\dir")


def _row(kind, fo_id=1, pid=1, t_start=0, duration=10, status=0,
         irp_flags=0, offset=0, length=512, returned=512, file_size=4096,
         disposition=1, options=0, attributes=0, info=0) -> tuple:
    return (int(kind), fo_id, pid, t_start, t_start + duration, status,
            irp_flags, offset, length, returned, file_size, disposition,
            options, attributes, info)


def make_collector(rows, names=(), split_at: int = 0) -> TraceCollector:
    """A collector holding ``rows`` in up to three staged blocks: the
    first ``split_at`` rows, then the rest in two halves (an empty part
    adds no block)."""
    collector = TraceCollector(MACHINE)
    for part in (rows[:split_at],
                 rows[split_at:(split_at + len(rows)) // 2],
                 rows[(split_at + len(rows)) // 2:]):
        if part:
            collector.receive_block(array("q", (f for row in part
                                                for f in row)))
    for i, (fo_id, path_idx) in enumerate(names):
        collector.receive_name(NameRecord(
            fo_id=fo_id, path=PATHS[path_idx], volume_label="C",
            volume_is_remote=path_idx == 3, pid=1, t=i))
    collector.register_process(1, "winword.exe", True)
    collector.register_process(2, "services.exe", False)
    return collector


def assert_same_sketch(got: StatsSketch, want: StatsSketch) -> None:
    """Field-by-field equality, then byte equality."""
    a, b = got.to_dict(), want.to_dict()
    assert a.keys() == b.keys()
    for section in ("records", "instances"):
        assert a[section].keys() == b[section].keys()
        for field in b[section]:
            assert a[section][field] == b[section][field], (section, field)
    for key in b:
        assert a[key] == b[key], key
    assert got.canonical_bytes() == want.canonical_bytes()


def check_fold(rows, names=(), split_at: int = 0,
               event_batch: int = streaming._EVENT_BATCH) -> StatsSketch:
    """Every producer's sketch of ``rows`` equals the reference's, with
    the fold turning ``event_batch`` rows into event lists at a time."""
    want = StatsSketch()
    reference_fold(want, 0, CATEGORY, make_collector(rows, names, split_at))

    collector = make_collector(rows, names, split_at)
    blocks = [array("q", block) for block in collector.blocks]
    got, from_file = StatsSketch(), StatsSketch()
    with mock.patch.object(streaming, "_EVENT_BATCH", event_batch), \
            tempfile.TemporaryDirectory() as tmp:
        fold_collector(got, 0, CATEGORY, collector)
        path = Path(tmp) / f"{MACHINE}.nttrace"
        save_collector(collector, path)
        fold_store_file(from_file, 0, CATEGORY, path)
    assert_same_sketch(got, want)
    assert list(collector.blocks) == blocks
    assert_same_sketch(from_file, want)

    warehouse = TraceWarehouse([collector], {MACHINE: CATEGORY})
    assert_same_sketch(sketch_from_warehouse(warehouse), want)
    return got


# --------------------------------------------------------------------- #
# Generated traces.

KINDS = (K.IRP_CREATE, K.IRP_CREATE, K.IRP_READ, K.IRP_WRITE, K.FASTIO_READ,
         K.FASTIO_WRITE, K.IRP_CLEANUP, K.IRP_CLOSE, K.IRP_SET_INFORMATION,
         K.IRP_FLUSH_BUFFERS, K.IRP_QUERY_INFORMATION,
         K.FASTIO_CHECK_IF_POSSIBLE, K.FASTIO_ACQUIRE_FOR_MOD_WRITE)
EDGE_DURATIONS = sorted({edge + d for edge in BUCKET_EDGES_TICKS
                         for d in (-1, 0, 1)})
OVERFLOW_DURATIONS = (BUCKET_EDGES_TICKS[-1] + 1, BUCKET_EDGES_TICKS[-1] * 3)

durations = st.one_of(st.sampled_from(EDGE_DURATIONS),
                      st.sampled_from(OVERFLOW_DURATIONS),
                      st.integers(-3, 2**36))
lengths = st.one_of(st.sampled_from((0, -1, -4096, 1)),
                    st.integers(-10, 2**24))
rows_strategy = st.lists(st.builds(
    _row,
    kind=st.sampled_from(KINDS),
    fo_id=st.integers(0, 5),
    pid=st.integers(1, 3),
    # A narrow range forces start-time ties inside a file object.
    t_start=st.one_of(st.integers(0, 20), st.integers(0, 10**11)),
    duration=durations,
    status=st.sampled_from((0, 0xC0000034)),
    irp_flags=st.sampled_from((0, 0x2, 0x40, 0x400)),
    offset=st.integers(0, 2**20),
    length=lengths,
    returned=st.one_of(st.integers(0, 5), st.integers(0, 2**20)),
    file_size=st.integers(0, 2**24),
    disposition=st.integers(0, 5),
    options=st.sampled_from((0, int(CreateOptions.DIRECTORY_FILE),
                             int(CreateOptions.DELETE_ON_CLOSE))),
    attributes=st.sampled_from((0, int(FileAttributes.TEMPORARY))),
    info=st.sampled_from((0, int(SetInformationClass.DISPOSITION),
                          int(SetInformationClass.END_OF_FILE)))),
    max_size=60)
# A trace plus the row at which the collector's first block ends.
traces = rows_strategy.flatmap(
    lambda rows: st.tuples(st.just(rows), st.integers(0, len(rows))))
names_strategy = st.lists(st.tuples(st.integers(0, 5),
                                    st.integers(0, len(PATHS) - 1)),
                          max_size=8)


@settings(max_examples=60, deadline=None)
@given(trace=traces, names=names_strategy,
       event_batch=st.sampled_from((1, 2, 7, 1 << 12)))
@example(trace=([], 0), names=[], event_batch=1 << 12)
def test_fold_matches_record_at_a_time_reference(trace, names, event_batch):
    rows, split_at = trace
    check_fold(rows, names, split_at, event_batch)


# --------------------------------------------------------------------- #
# The edge cases, spelled out.

class TestEdgeCases:
    def test_durations_on_every_bucket_edge(self):
        rows = [_row(K.IRP_CREATE, fo_id=1)]
        rows += [_row(kind, fo_id=1, t_start=i, duration=d)
                 for i, d in enumerate(EDGE_DURATIONS)
                 for kind in (K.IRP_READ, K.FASTIO_WRITE)]
        sketch = check_fold(rows)
        hist = sketch.latency["irp-read"]
        for idx, edge in enumerate(BUCKET_EDGES_TICKS):
            # edge - 1 and edge land in bucket idx, edge + 1 in the next.
            below = sum(1 for d in EDGE_DURATIONS
                        if (BUCKET_EDGES_TICKS[idx - 1] if idx else -1)
                        < d <= edge)
            assert hist.bucket_counts[idx] == below, idx
        assert hist.bucket_counts[N_BUCKETS] == 1   # last edge + 1

    def test_durations_past_the_last_edge_overflow(self):
        rows = [_row(K.IRP_WRITE, t_start=i, duration=d)
                for i, d in enumerate(OVERFLOW_DURATIONS)]
        sketch = check_fold(rows)
        hist = sketch.latency["irp-write"]
        assert hist.bucket_counts[N_BUCKETS] == len(OVERFLOW_DURATIONS)
        assert hist.max_ticks == max(OVERFLOW_DURATIONS)

    def test_zero_and_negative_lengths_clamp_to_zero(self):
        rows = [_row(K.FASTIO_READ, t_start=i, length=n)
                for i, n in enumerate((0, -1, -4096, 7))]
        sketch = check_fold(rows)
        digest = sketch.req_size["fastio-read"]
        assert (digest.n, digest.vmin, digest.vmax) == (4, 0, 7)
        assert digest.buckets == {0: 3, 7: 1}

    def test_only_creates(self):
        rows = [_row(K.IRP_CREATE, fo_id=i % 3, t_start=i * 3_000_000)
                for i in range(12)]
        sketch = check_fold(rows, names=[(0, 0), (1, 1)])
        assert sum(sketch.bursts.values()) == 12
        assert all(h.count == 0 for h in sketch.latency.values())

    def test_no_data_kinds(self):
        rows = [_row(kind, fo_id=2, t_start=i)
                for i, kind in enumerate((K.IRP_CREATE,
                                          K.IRP_QUERY_INFORMATION,
                                          K.IRP_SET_INFORMATION,
                                          K.IRP_CLEANUP, K.IRP_CLOSE))]
        sketch = check_fold(rows, names=[(2, 4)])
        assert sketch.record_bytes_read == sketch.record_bytes_written == 0
        assert sketch.machines[0]["n_data"] == 0

    def test_empty_machine(self):
        sketch = check_fold([])
        assert sketch.n_records == 0
        assert sketch.machines[0]["n_records"] == 0
        assert (sketch.t_min, sketch.t_max) == (-1, -1)

    @pytest.mark.parametrize("event_batch", [1, 2, 3, 4])
    def test_file_objects_straddling_event_batches(self, event_batch):
        # Groups of 1 to 4 rows against batches of 1 to 4 rows: batches
        # end inside, at and past group edges, and groups outgrow them.
        rows = [_row(K.IRP_CREATE if i == 0 else K.IRP_WRITE, fo_id=fo,
                     t_start=10 * fo + i, offset=512 * i)
                for fo, size in enumerate((1, 4, 2, 3, 1))
                for i in range(size)]
        check_fold(rows, names=[(1, 0), (3, 2)], event_batch=event_batch)


# --------------------------------------------------------------------- #
# The whole-array adds against their per-value forms.

def test_histogram_observe_array_equals_observe():
    values = EDGE_DURATIONS + list(OVERFLOW_DURATIONS) + [-7, 0, 1]
    one, bulk = LatencyHistogram("one"), LatencyHistogram("bulk")
    for v in values:
        one.observe(v)
    bulk.observe_array(np.asarray(values, dtype=np.int64))
    bulk.observe_array(np.zeros(0, dtype=np.int64))
    assert bulk.to_dict() == one.to_dict()


def test_digest_add_array_equals_add():
    values = [-5, 0, 0, 3, 8, 9, 4095, 4096, 2**40, 2**40 + 1, -1]
    one, bulk = Digest(), Digest()
    for v in values:
        one.add(v)
    bulk.add_array(np.asarray(values, dtype=np.int64))
    bulk.add_array(np.zeros(0, dtype=np.int64))
    assert bulk.to_dict() == one.to_dict()


# --------------------------------------------------------------------- #
# No per-record objects.

def test_fold_builds_no_record_objects(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("the fold built a per-record object")

    # The collector calls records_from_block through its own import.
    monkeypatch.setattr("repro.nt.tracing.fastbuf.records_from_block",
                        refuse)
    monkeypatch.setattr("repro.nt.tracing.collector.records_from_block",
                        refuse)
    monkeypatch.setattr("repro.nt.tracing.store.TraceRecord", refuse)
    folded: list[TraceCollector] = []
    real_fold = campaign.fold_collector

    def keep(sketch, machine_idx, category, collector):
        real_fold(sketch, machine_idx, category, collector)
        folded.append(collector)

    monkeypatch.setattr(campaign, "fold_collector", keep)
    result = campaign.run_campaign(StudyConfig(
        n_machines=2, duration_seconds=8.0, seed=5, content_scale=0.05))
    assert result.sketch.n_records > 0
    assert len(folded) == 2
    assert all(collector.blocks for collector in folded)

    save_study(folded, tmp_path)
    archived = sketch_from_archive(tmp_path)
    assert archived.n_records == result.sketch.n_records
    assert archived.n_instances == result.sketch.n_instances


def test_store_record_block_reads_the_record_section(tmp_path):
    rows = [_row(K.IRP_CREATE, fo_id=1), _row(K.IRP_READ, fo_id=1, t_start=4)]
    collector = make_collector(rows, names=[(1, 0)])
    path = tmp_path / "one.nttrace"
    save_collector(collector, path)
    stream = StoreStream(path)
    block = stream.record_block()
    assert list(block) == [f for row in rows for f in row]
    assert stream.record_block() == array("q")
    names, process_names, _interactive = stream.tail_sections()
    assert names == collector.name_records
    assert process_names == collector.process_names


@pytest.mark.parametrize("split_at", [0, 1])
def test_double_fold_leaves_the_sketch_untouched(split_at):
    rows = [_row(K.IRP_CREATE, fo_id=1), _row(K.IRP_READ, fo_id=1)]
    sketch = StatsSketch()
    fold_collector(sketch, 0, CATEGORY, make_collector(rows))
    before = sketch.canonical_bytes()
    with pytest.raises(ValueError, match="folded twice"):
        fold_collector(sketch, 0, CATEGORY,
                       make_collector(rows, split_at=split_at))
    assert sketch.canonical_bytes() == before


def test_reading_records_changes_nothing():
    # .records builds a fresh list from the staged blocks: reading or
    # editing it leaves the packed bytes, the row table and the fold as
    # they were.
    rows = [_row(K.IRP_CREATE, fo_id=1), _row(K.IRP_READ, fo_id=1, t_start=4),
            _row(K.IRP_CREATE, fo_id=2, t_start=5),
            _row(K.IRP_WRITE, fo_id=2, t_start=9),
            _row(K.IRP_CLEANUP, fo_id=1, t_start=20)]
    collector = make_collector(rows, names=[(1, 0), (2, 1)], split_at=2)
    packed = pack_collector(collector)
    table = record_rows(collector).copy()
    want = StatsSketch()
    fold_collector(want, 0, CATEGORY, collector)

    records = collector.records
    assert records == [TraceRecord(*row) for row in rows]
    records.clear()
    assert collector.records == [TraceRecord(*row) for row in rows]
    assert len(collector) == len(rows)
    assert pack_collector(collector) == packed
    assert np.array_equal(record_rows(collector), table)
    got = StatsSketch()
    fold_collector(got, 0, CATEGORY, collector)
    assert_same_sketch(got, want)
