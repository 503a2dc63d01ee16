"""Tests for read/write dispatch: caching, EOF, no-buffering, write-through,
and the IRP-then-FastIO pattern of §10."""


from repro.common.flags import (
    CreateDisposition,
    CreateOptions,
    FileAccess,
)
from repro.common.status import NtStatus
from repro.nt.tracing.records import TraceEventKind


def open_for(machine, process, path, write=False, options=CreateOptions.NONE,
             disposition=None):
    access = FileAccess.GENERIC_READ | (FileAccess.GENERIC_WRITE if write
                                        else FileAccess.NONE)
    if disposition is None:
        disposition = (CreateDisposition.OPEN_IF if write
                       else CreateDisposition.OPEN)
    status, handle = machine.win32.create_file(
        process, path, access=access, disposition=disposition,
        options=options)
    assert status.is_success, status
    return handle


def trace_kinds(machine):
    records = []
    for filt in machine.trace_filters:
        filt.flush()
    for c in [machine.collector]:
        records.extend(c.records)
    return records


class TestReadSemantics:
    def test_read_returns_data(self, machine, process, make_file_on):
        make_file_on(r"\f.bin", 10_000)
        h = open_for(machine, process, r"C:\f.bin")
        status, got = machine.win32.read_file(process, h, 4096)
        assert status == NtStatus.SUCCESS
        assert got == 4096

    def test_read_clamps_at_eof(self, machine, process, make_file_on):
        make_file_on(r"\f.bin", 6000)
        h = open_for(machine, process, r"C:\f.bin")
        machine.win32.read_file(process, h, 4096)
        status, got = machine.win32.read_file(process, h, 4096)
        assert status == NtStatus.SUCCESS
        assert got == 6000 - 4096

    def test_read_past_eof_fails(self, machine, process, make_file_on):
        make_file_on(r"\f.bin", 100)
        h = open_for(machine, process, r"C:\f.bin")
        status, got = machine.win32.read_file(process, h, 512, offset=200)
        assert status == NtStatus.END_OF_FILE
        assert got == 0

    def test_first_read_initialises_caching(self, machine, process,
                                            make_file_on):
        make_file_on(r"\f.bin", 8192)
        h = open_for(machine, process, r"C:\f.bin")
        fo = machine.win32.file_object(process, h)
        assert not fo.caching_initialized
        machine.win32.read_file(process, h, 1024)
        assert fo.caching_initialized

    def test_first_read_irp_then_fastio(self, machine, process,
                                        make_file_on):
        make_file_on(r"\f.bin", 65536)
        h = open_for(machine, process, r"C:\f.bin")
        for _ in range(4):
            machine.win32.read_file(process, h, 4096)
        records = trace_kinds(machine)
        reads = [r for r in records
                 if r.kind in (TraceEventKind.IRP_READ,
                               TraceEventKind.FASTIO_READ)
                 and not r.is_paging]
        assert reads[0].kind == TraceEventKind.IRP_READ
        assert all(r.kind == TraceEventKind.FASTIO_READ for r in reads[1:])

    def test_cache_miss_issues_paging_read(self, machine, process,
                                           make_file_on):
        make_file_on(r"\f.bin", 65536)
        h = open_for(machine, process, r"C:\f.bin")
        machine.win32.read_file(process, h, 4096)
        records = trace_kinds(machine)
        paging = [r for r in records
                  if r.kind == TraceEventKind.IRP_READ and r.is_paging]
        assert paging, "expected a paging fault-in for the cold read"

    def test_cached_reread_is_hit(self, machine, process, make_file_on):
        make_file_on(r"\f.bin", 4096)
        h = open_for(machine, process, r"C:\f.bin")
        machine.win32.read_file(process, h, 4096)
        misses_before = machine.perf.value("cc.copy_read.misses")
        machine.win32.read_file(process, h, 4096, offset=0)
        assert machine.perf.value("cc.copy_read.misses") == misses_before
        assert machine.perf.value("cc.copy_read.hits") >= 1


class TestWriteSemantics:
    def test_write_extends_file(self, machine, process):
        h = open_for(machine, process, r"C:\new.bin", write=True)
        status, got = machine.win32.write_file(process, h, 5000)
        assert status == NtStatus.SUCCESS
        fo = machine.win32.file_object(process, h)
        assert fo.node.size == 5000
        assert fo.node.valid_data_length == 5000

    def test_write_marks_dirty(self, machine, process):
        h = open_for(machine, process, r"C:\new.bin", write=True)
        machine.win32.write_file(process, h, 4096)
        fo = machine.win32.file_object(process, h)
        assert fo.node.cache_map.dirty

    def test_write_through_flushes_immediately(self, machine, process):
        h = open_for(machine, process, r"C:\wt.bin", write=True,
                     options=CreateOptions.WRITE_THROUGH)
        machine.win32.write_file(process, h, 4096)
        fo = machine.win32.file_object(process, h)
        assert not fo.node.cache_map.dirty
        assert machine.perf.value("mm.page_outs") >= 1

    def test_disk_full_write_fails(self, machine, process):
        vol = machine.drives["C"]
        vol.capacity_bytes = vol.bytes_used + 8192
        h = open_for(machine, process, r"C:\big.bin", write=True)
        status, _got = machine.win32.write_file(process, h, 1 << 20)
        assert status == NtStatus.DISK_FULL

    def test_no_buffering_bypasses_cache(self, machine, process,
                                         make_file_on):
        make_file_on(r"\direct.bin", 65536)
        h = open_for(machine, process, r"C:\direct.bin", write=True,
                     options=CreateOptions.NO_INTERMEDIATE_BUFFERING)
        machine.win32.read_file(process, h, 4096)
        machine.win32.write_file(process, h, 4096, offset=0)
        fo = machine.win32.file_object(process, h)
        assert not fo.caching_initialized
        assert fo.node.cache_map is None

    def test_fastio_write_after_first(self, machine, process):
        h = open_for(machine, process, r"C:\log.bin", write=True)
        for _ in range(4):
            machine.win32.write_file(process, h, 1024)
        records = trace_kinds(machine)
        writes = [r for r in records
                  if r.kind in (TraceEventKind.IRP_WRITE,
                                TraceEventKind.FASTIO_WRITE)
                  and not r.is_paging]
        assert writes[0].kind == TraceEventKind.IRP_WRITE
        assert any(r.kind == TraceEventKind.FASTIO_WRITE for r in writes[1:])

    def test_write_updates_timestamp(self, machine, process, make_file_on):
        node = make_file_on(r"\f.bin", 100)
        before = node.last_write_time
        machine.clock.advance(10_000)
        h = open_for(machine, process, r"C:\f.bin", write=True)
        machine.win32.write_file(process, h, 512)
        assert node.last_write_time > before


class TestFlush:
    def test_flush_writes_dirty_pages(self, machine, process):
        h = open_for(machine, process, r"C:\f.bin", write=True)
        machine.win32.write_file(process, h, 8192)
        fo = machine.win32.file_object(process, h)
        assert fo.node.cache_map.dirty
        machine.win32.flush_file_buffers(process, h)
        assert not fo.node.cache_map.dirty
