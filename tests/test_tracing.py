"""Tests for the tracing layer: the 54 event kinds, record contents,
record buffering, name records, and snapshots."""

import pytest

from repro.common.flags import CreateDisposition, FileAccess
from repro.nt.fs.volume import Volume
from repro.nt.io.fastio import FastIoOp
from repro.nt.io.irp import Irp, IrpMajor, IrpMinor
from repro.nt.tracing.fastbuf import BUFFER_CAPACITY, FastRecordBuffer
from repro.nt.tracing.records import (
    N_EVENT_KINDS,
    TraceEventKind,
    TraceRecord,
    kind_for_fastio,
    kind_for_irp,
)
from repro.nt.tracing.snapshot import take_snapshot

from tests.conftest import make_file, make_tree


class TestEventKinds:
    def test_exactly_54_kinds(self):
        # "The trace driver records 54 IRP and FastIO events" (§3.2).
        assert N_EVENT_KINDS == 54

    def test_27_irp_and_27_fastio(self):
        irp = [k for k in TraceEventKind if not k.is_fastio]
        fastio = [k for k in TraceEventKind if k.is_fastio]
        assert len(irp) == 27
        assert len(fastio) == 27

    def test_every_fastio_op_maps(self):
        kinds = {kind_for_fastio(op) for op in FastIoOp}
        assert len(kinds) == len(FastIoOp)
        assert all(k.is_fastio for k in kinds)

    def test_directory_minors_distinct(self):
        query = Irp(IrpMajor.DIRECTORY_CONTROL, None, 0,
                    minor=IrpMinor.QUERY_DIRECTORY)
        notify = Irp(IrpMajor.DIRECTORY_CONTROL, None, 0,
                     minor=IrpMinor.NOTIFY_CHANGE_DIRECTORY)
        assert kind_for_irp(query) == TraceEventKind.IRP_QUERY_DIRECTORY
        assert kind_for_irp(notify) == \
            TraceEventKind.IRP_NOTIFY_CHANGE_DIRECTORY

    def test_fsctl_minors_distinct(self):
        mount = Irp(IrpMajor.FILE_SYSTEM_CONTROL, None, 0,
                    minor=IrpMinor.MOUNT_VOLUME)
        user = Irp(IrpMajor.FILE_SYSTEM_CONTROL, None, 0,
                   minor=IrpMinor.USER_FS_REQUEST)
        assert kind_for_irp(mount) == TraceEventKind.IRP_FSCTL_MOUNT_VOLUME
        assert kind_for_irp(user) == TraceEventKind.IRP_FSCTL_USER_REQUEST

    def test_plain_majors_map(self):
        irp = Irp(IrpMajor.CLEANUP, None, 0)
        assert kind_for_irp(irp) == TraceEventKind.IRP_CLEANUP


class TestTraceRecord:
    def _record(self, **overrides):
        fields = dict(kind=int(TraceEventKind.IRP_READ), fo_id=1, pid=4,
                      t_start=100, t_end=250, status=0, irp_flags=0,
                      offset=0, length=4096, returned=4096, file_size=8192,
                      disposition=0, options=0, attributes=0, info=0)
        fields.update(overrides)
        return TraceRecord(**fields)

    def test_duration(self):
        assert self._record().duration == 150

    def test_paging_detection(self):
        assert self._record(irp_flags=0x02).is_paging
        assert self._record(irp_flags=0x40).is_paging
        assert not self._record(irp_flags=0x80).is_paging

    def test_fastio_detection(self):
        assert self._record(
            kind=int(TraceEventKind.FASTIO_READ)).is_fastio
        assert not self._record().is_fastio

    def test_immutable(self):
        record = self._record()
        with pytest.raises(AttributeError):
            record.kind = 5


class TestFastRecordBuffer:
    ROW = (0, 1, 2, 3, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)

    def test_flushes_on_capacity(self):
        flushed = []
        buf = FastRecordBuffer(flushed.append, capacity=3)
        for _ in range(7):
            buf.append_row(self.ROW)
        assert len(flushed) == 2
        assert all(len(b) == 3 * len(self.ROW) for b in flushed)
        assert buf.active_fill == 1

    def test_drain_flushes_partial(self):
        flushed = []
        buf = FastRecordBuffer(flushed.append, capacity=100)
        buf.append_row(self.ROW)
        buf.drain()
        assert [list(b) for b in flushed] == [list(self.ROW)]
        assert buf.active_fill == 0

    def test_default_capacity_matches_paper(self):
        buf = FastRecordBuffer(lambda block: None)
        assert buf.capacity == BUFFER_CAPACITY == 3000

    def test_counts_records(self):
        buf = FastRecordBuffer(lambda block: None, capacity=2)
        for _ in range(5):
            buf.append_row(self.ROW)
        assert buf.records_seen == 5
        assert buf.rotations == 2

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            FastRecordBuffer(lambda block: None, capacity=0)


class TestFilterDriver:
    def test_records_have_dual_timestamps(self, machine, process,
                                          make_file_on):
        make_file_on(r"\f.txt", 100)
        machine.win32.get_file_attributes(process, r"C:\f.txt")
        for filt in machine.trace_filters:
            filt.flush()
        for r in machine.collector.records:
            assert r.t_end >= r.t_start

    def test_name_record_per_file_object(self, machine, process,
                                         make_file_on):
        make_file_on(r"\f.txt", 100)
        w = machine.win32
        _s, h1 = w.create_file(process, r"C:\f.txt")
        w.close_handle(process, h1)
        _s, h2 = w.create_file(process, r"C:\f.txt")
        w.close_handle(process, h2)
        paths = [n.path for n in machine.collector.name_records
                 if n.path == r"\f.txt"]
        assert len(paths) == 2  # one per file object, not per file

    def test_failed_open_still_traced(self, machine, process):
        machine.win32.create_file(process, r"C:\missing.txt")
        for filt in machine.trace_filters:
            filt.flush()
        creates = [r for r in machine.collector.records
                   if r.kind == TraceEventKind.IRP_CREATE]
        assert any(r.status >= 0xC0000000 for r in creates)

    def test_disabled_filter_records_nothing(self, machine, process,
                                             make_file_on):
        make_file_on(r"\f.txt", 100)
        for filt in machine.trace_filters:
            filt.flush()
        baseline = len(machine.collector.records)
        for filt in machine.trace_filters:
            filt.enabled = False
        machine.win32.get_file_attributes(process, r"C:\f.txt")
        for filt in machine.trace_filters:
            filt.buffer.drain()
        assert len(machine.collector.records) == baseline

    def test_set_information_carries_argument(self, machine, process,
                                              make_file_on):
        make_file_on(r"\f.bin", 100)
        w = machine.win32
        _s, h = w.create_file(process, r"C:\f.bin",
                              access=FileAccess.GENERIC_WRITE,
                              disposition=CreateDisposition.OPEN)
        w.set_end_of_file(process, h, 12345)
        for filt in machine.trace_filters:
            filt.flush()
        set_infos = [r for r in machine.collector.records
                     if r.kind == TraceEventKind.IRP_SET_INFORMATION]
        assert any(r.length == 12345 for r in set_infos)


class TestSnapshot:
    def test_tree_recoverable(self, volume):
        make_file(volume, r"\a\b\f.txt", 100)
        make_file(volume, r"\a\g.doc", 200)
        records = take_snapshot(volume)
        paths = [r.path for r in records]
        # Parents precede children, so the tree can be rebuilt in order.
        assert paths.index(r"\a") < paths.index(r"\a\b")
        assert paths.index(r"\a\b") < paths.index(r"\a\b\f.txt")

    def test_directory_counts(self, volume):
        make_file(volume, r"\d\x.txt")
        make_file(volume, r"\d\y.txt")
        make_tree(volume, r"\d\sub")
        records = {r.path: r for r in take_snapshot(volume)}
        assert records[r"\d"].n_files == 2
        assert records[r"\d"].n_subdirectories == 1

    def test_extensions_short_form(self, volume):
        make_file(volume, r"\f.TXT")
        records = take_snapshot(volume)
        assert records[0].extension == "txt"

    def test_fat_times_zeroed(self):
        vol = Volume("F", Volume.FAT)
        make_file(vol, r"\f.txt", 10)
        records = take_snapshot(vol)
        assert records[0].creation_time == 0
        assert records[0].last_access_time == 0

    def test_sizes_present(self, volume):
        make_file(volume, r"\f.bin", 12345)
        records = take_snapshot(volume)
        assert records[0].size == 12345
