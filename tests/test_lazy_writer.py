"""Tests for the lazy writer: scan cadence, portioned write-behind, bursts,
temporary-file exemption, and deferred closes."""


from repro.common.clock import TICKS_PER_SECOND
from repro.common.flags import (
    CreateDisposition,
    CreateOptions,
    FileAccess,
    FileAttributes,
)
from repro.nt.tracing.records import TraceEventKind


def open_writer(machine, process, path, attributes=FileAttributes.NORMAL,
                options=CreateOptions.NONE):
    status, handle = machine.win32.create_file(
        process, path, access=FileAccess.GENERIC_WRITE,
        disposition=CreateDisposition.OPEN_IF, options=options,
        attributes=attributes)
    assert status.is_success
    return handle


class TestScans:
    def test_scans_happen_every_second(self, machine):
        machine.run_until(5 * TICKS_PER_SECOND)
        assert machine.perf.value("lw.scans") == 5

    def test_writes_portion_of_dirty(self, machine, process):
        h = open_writer(machine, process, r"C:\big.bin")
        for _ in range(64):  # 256 KB dirty = 64 pages
            machine.win32.write_file(process, h, 4096)
        fo = machine.win32.file_object(process, h)
        dirty_before = len(fo.node.cache_map.dirty)
        machine.run_until(machine.clock.now + TICKS_PER_SECOND + 1000)
        dirty_after = len(fo.node.cache_map.dirty)
        # One scan writes roughly an eighth, not everything.
        assert 0 < dirty_after < dirty_before

    def test_eventually_all_clean(self, machine, process):
        h = open_writer(machine, process, r"C:\f.bin")
        for _ in range(16):
            machine.win32.write_file(process, h, 4096)
        fo = machine.win32.file_object(process, h)
        machine.run_until(machine.clock.now + 30 * TICKS_PER_SECOND)
        assert not fo.node.cache_map.dirty
        assert fo.node.cache_map not in machine.cc.dirty_maps

    def test_burst_structure(self, machine, process):
        h = open_writer(machine, process, r"C:\f.bin")
        for _ in range(64):
            machine.win32.write_file(process, h, 4096)
        machine.win32.close_handle(process, h)
        machine.run_until(machine.clock.now + 3 * TICKS_PER_SECOND)
        for filt in machine.trace_filters:
            filt.flush()
        paging_writes = [r for r in machine.collector.records
                         if r.kind == TraceEventKind.IRP_WRITE
                         and r.is_paging]
        assert paging_writes
        # Individual requests capped at 64 KB (§9.2).
        assert all(r.length <= 65536 for r in paging_writes)

    def test_acquire_release_mod_write_bracketing(self, machine, process):
        h = open_writer(machine, process, r"C:\f.bin")
        machine.win32.write_file(process, h, 8192)
        machine.run_until(machine.clock.now + 2 * TICKS_PER_SECOND)
        for filt in machine.trace_filters:
            filt.flush()
        kinds = [r.kind for r in machine.collector.records]
        assert int(TraceEventKind.FASTIO_ACQUIRE_FOR_MOD_WRITE) in kinds
        assert int(TraceEventKind.FASTIO_RELEASE_FOR_MOD_WRITE) in kinds


class TestTemporaryFiles:
    def test_temporary_pages_never_written(self, machine, process):
        h = open_writer(machine, process, r"C:\t.tmp",
                        attributes=FileAttributes.TEMPORARY)
        machine.win32.write_file(process, h, 16384)
        writes_before = machine.perf.value("mm.page_outs")
        machine.run_until(machine.clock.now + 5 * TICKS_PER_SECOND)
        assert machine.perf.value("mm.page_outs") == writes_before

    def test_temporary_dirty_discarded_at_cleanup(self, machine, process):
        h = open_writer(machine, process, r"C:\t.tmp",
                        attributes=FileAttributes.TEMPORARY,
                        options=CreateOptions.DELETE_ON_CLOSE)
        machine.win32.write_file(process, h, 16384)
        machine.win32.close_handle(process, h)
        assert machine.perf.value("cc.dirty_discarded_on_delete") >= 4 or \
            machine.perf.value("cc.dirty_discarded_on_cleanup") >= 4

    def test_explicit_flush_still_works_on_temporary(self, machine,
                                                     process):
        h = open_writer(machine, process, r"C:\t.tmp",
                        attributes=FileAttributes.TEMPORARY)
        machine.win32.write_file(process, h, 8192)
        machine.win32.flush_file_buffers(process, h)
        fo = machine.win32.file_object(process, h)
        assert not fo.node.cache_map.dirty


class TestDeferredClose:
    def test_close_follows_flush(self, machine, process):
        h = open_writer(machine, process, r"C:\f.bin")
        machine.win32.write_file(process, h, 8192)
        fo = machine.win32.file_object(process, h)
        machine.win32.close_handle(process, h)
        assert not fo.closed
        machine.run_until(machine.clock.now + 2 * TICKS_PER_SECOND)
        assert fo.closed
        assert not fo.node.cache_map.dirty

    def test_close_gap_is_seconds_scale(self, machine, process):
        h = open_writer(machine, process, r"C:\f.bin")
        machine.win32.write_file(process, h, 8192)
        machine.win32.close_handle(process, h)
        machine.run_until(machine.clock.now + 3 * TICKS_PER_SECOND)
        for filt in machine.trace_filters:
            filt.flush()
        records = machine.collector.records
        cleanup = [r for r in records
                   if r.kind == TraceEventKind.IRP_CLEANUP][-1]
        close = [r for r in records
                 if r.kind == TraceEventKind.IRP_CLOSE][-1]
        gap_seconds = (close.t_start - cleanup.t_start) / TICKS_PER_SECOND
        assert 0.1 < gap_seconds < 4.0
