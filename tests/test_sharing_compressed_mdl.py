"""Tests for sharing-mode arbitration, compressed files, MDL reads, and
CopyFile."""

import pytest

from repro.common.flags import (
    CreateDisposition,
    FileAccess,
    FileAttributes,
    ShareMode,
)
from repro.common.status import NtStatus
from repro.nt.fs.sharing import sharing_permits
from repro.nt.tracing.records import TraceEventKind


class TestSharingRules:
    def test_empty_always_permits(self):
        assert sharing_permits([], int(FileAccess.GENERIC_WRITE),
                               int(ShareMode.NONE))

    def test_share_all_coexists(self):
        existing = [(int(FileAccess.GENERIC_READ), int(ShareMode.ALL))]
        assert sharing_permits(existing, int(FileAccess.GENERIC_READ),
                               int(ShareMode.ALL))

    def test_exclusive_blocks_reader(self):
        existing = [(int(FileAccess.GENERIC_WRITE), int(ShareMode.NONE))]
        assert not sharing_permits(existing, int(FileAccess.GENERIC_READ),
                                   int(ShareMode.ALL))

    def test_read_share_blocks_writer(self):
        existing = [(int(FileAccess.GENERIC_READ), int(ShareMode.READ))]
        assert not sharing_permits(existing, int(FileAccess.GENERIC_WRITE),
                                   int(ShareMode.ALL))

    def test_new_share_must_admit_existing(self):
        existing = [(int(FileAccess.GENERIC_WRITE), int(ShareMode.ALL))]
        # New reader refusing to share writes conflicts with the writer.
        assert not sharing_permits(existing, int(FileAccess.GENERIC_READ),
                                   int(ShareMode.READ))

    def test_attribute_only_opens_never_conflict(self):
        existing = [(int(FileAccess.GENERIC_WRITE), int(ShareMode.NONE))]
        assert sharing_permits(existing, int(FileAccess.READ_ATTRIBUTES),
                               int(ShareMode.NONE))

    def test_delete_sharing(self):
        existing = [(int(FileAccess.GENERIC_READ),
                     int(ShareMode.READ | ShareMode.WRITE))]
        assert not sharing_permits(existing, int(FileAccess.DELETE),
                                   int(ShareMode.ALL))


class TestSharingInDriver:
    def test_violation_returned(self, machine, process, make_file_on):
        make_file_on(r"\f.txt", 100)
        w = machine.win32
        _s, holder = w.create_file(
            process, r"C:\f.txt",
            access=FileAccess.GENERIC_READ | FileAccess.GENERIC_WRITE,
            disposition=CreateDisposition.OPEN, share=ShareMode.READ)
        status, h2 = w.create_file(
            process, r"C:\f.txt", access=FileAccess.GENERIC_WRITE,
            disposition=CreateDisposition.OPEN)
        assert status == NtStatus.SHARING_VIOLATION
        assert machine.perf.value("fs.sharing_violations") == 1
        w.close_handle(process, holder)

    def test_grant_released_at_cleanup(self, machine, process,
                                       make_file_on):
        make_file_on(r"\f.txt", 100)
        w = machine.win32
        _s, holder = w.create_file(
            process, r"C:\f.txt",
            access=FileAccess.GENERIC_READ | FileAccess.GENERIC_WRITE,
            disposition=CreateDisposition.OPEN, share=ShareMode.READ)
        w.close_handle(process, holder)
        status, h2 = w.create_file(
            process, r"C:\f.txt", access=FileAccess.GENERIC_WRITE,
            disposition=CreateDisposition.OPEN)
        assert status == NtStatus.SUCCESS
        w.close_handle(process, h2)

    def test_concurrent_readers_allowed(self, machine, process,
                                        make_file_on):
        make_file_on(r"\f.txt", 100)
        w = machine.win32
        handles = []
        for _ in range(3):
            status, h = w.create_file(process, r"C:\f.txt",
                                      share=ShareMode.READ)
            assert status == NtStatus.SUCCESS
            handles.append(h)
        for h in handles:
            w.close_handle(process, h)


class TestCompressedFiles:
    @pytest.fixture
    def compressed_file(self, machine, make_file_on):
        node = make_file_on(r"\data.zip", 256 * 1024)
        node.attributes |= FileAttributes.COMPRESSED
        return node

    def test_reads_take_irp_path(self, machine, process, compressed_file):
        w = machine.win32
        _s, h = w.create_file(process, r"C:\data.zip")
        for _ in range(5):
            w.read_file(process, h, 4096)
        w.close_handle(process, h)
        for filt in machine.trace_filters:
            filt.flush()
        reads = [r for r in machine.collector.records
                 if not r.is_paging
                 and r.kind in (int(TraceEventKind.IRP_READ),
                                int(TraceEventKind.FASTIO_READ))]
        assert all(r.kind == int(TraceEventKind.IRP_READ) for r in reads)

    def test_decompression_slower(self, machine, process, make_file_on,
                                  compressed_file):
        plain = make_file_on(r"\plain.bin", 256 * 1024)
        w = machine.win32

        def cold_read(path):
            _s, h = w.create_file(process, path)
            t0 = machine.clock.now
            w.read_file(process, h, 65536)
            cost = machine.clock.now - t0
            w.close_handle(process, h)
            return cost

        plain_cost = cold_read(r"C:\plain.bin")
        compressed_cost = cold_read(r"C:\data.zip")
        # Jitter makes single-sample comparison loose; decompression adds
        # ~4 ms/64 KB on top of ~12 ms disk time.
        assert compressed_cost > plain_cost * 0.9


class TestMdlRead:
    def test_mdl_read_returns_data(self, machine, process, make_file_on):
        make_file_on(r"\svc.dll", 65536)
        w = machine.win32
        _s, h = w.create_file(process, r"C:\svc.dll")
        w.read_file(process, h, 4096)  # initialise caching
        status, got = w.mdl_read(process, h, 4096, offset=0)
        assert status == NtStatus.SUCCESS
        assert got == 4096
        w.close_handle(process, h)

    def test_mdl_events_traced(self, machine, process, make_file_on):
        make_file_on(r"\svc.dll", 65536)
        w = machine.win32
        _s, h = w.create_file(process, r"C:\svc.dll")
        w.read_file(process, h, 4096)
        w.mdl_read(process, h, 4096, offset=0)
        w.close_handle(process, h)
        for filt in machine.trace_filters:
            filt.flush()
        kinds = {r.kind for r in machine.collector.records}
        assert int(TraceEventKind.FASTIO_MDL_READ) in kinds
        assert int(TraceEventKind.FASTIO_MDL_READ_COMPLETE) in kinds

    def test_mdl_falls_back_without_cache(self, machine, process,
                                          make_file_on):
        make_file_on(r"\svc.dll", 65536)
        w = machine.win32
        _s, h = w.create_file(process, r"C:\svc.dll")
        # No prior read: MDL declined, plain read fallback still works.
        status, got = w.mdl_read(process, h, 4096, offset=0)
        assert status == NtStatus.SUCCESS
        assert got == 4096
        w.close_handle(process, h)


class TestCopyFile:
    def test_copy_creates_equal_size(self, machine, process, make_file_on):
        make_file_on(r"\src.doc", 100_000)
        status = machine.win32.copy_file(process, r"C:\src.doc",
                                         r"C:\dst.doc")
        assert status == NtStatus.SUCCESS
        dst = machine.drives["C"].resolve(r"\dst.doc")
        assert dst is not None
        assert dst.size == 100_000

    def test_copy_missing_source(self, machine, process):
        status = machine.win32.copy_file(process, r"C:\missing.doc",
                                         r"C:\dst.doc")
        assert status.is_error
        assert machine.drives["C"].resolve(r"\dst.doc") is None

    def test_copy_closes_handles(self, machine, process, make_file_on):
        make_file_on(r"\src.doc", 10_000)
        machine.win32.copy_file(process, r"C:\src.doc", r"C:\dst.doc")
        assert not process.handles
