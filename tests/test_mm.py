"""Tests for the VM manager: paging transfers, image sections, views."""


from repro.common.flags import CreateDisposition, FileAccess
from repro.common.status import NtStatus
from repro.nt.mm.vmmanager import MAX_PAGING_TRANSFER
from repro.nt.tracing.records import TraceEventKind


def flush_records(machine):
    for filt in machine.trace_filters:
        filt.flush()
    return machine.collector.records


class TestPagingTransfers:
    def test_chunked_into_64k(self, machine, process, make_file_on):
        make_file_on(r"\big.bin", 300_000)
        w = machine.win32
        _s, h = w.create_file(process, r"C:\big.bin")
        # Read it all: the prefetches come in <=64 KB paging chunks.
        w.read_file(process, h, 300_000)
        paging = [r for r in flush_records(machine)
                  if r.kind == TraceEventKind.IRP_READ and r.is_paging]
        assert paging
        assert all(r.length <= MAX_PAGING_TRANSFER for r in paging)

    def test_foreground_fault_is_synchronous(self, machine, process,
                                             make_file_on):
        make_file_on(r"\f.bin", 8192)
        w = machine.win32
        _s, h = w.create_file(process, r"C:\f.bin")
        w.read_file(process, h, 4096)
        paging = [r for r in flush_records(machine)
                  if r.kind == TraceEventKind.IRP_READ and r.is_paging]
        # SYNCHRONOUS_PAGING_IO (0x40) set on demand faults.
        assert any(r.irp_flags & 0x40 for r in paging)


class TestImageSections:
    def test_cold_load_pages_in(self, machine, process, make_file_on):
        make_file_on(r"\app.exe", 200_000)
        status = machine.win32.load_image(process, r"C:\app.exe")
        assert status == NtStatus.SUCCESS
        assert machine.perf.value("mm.image_cold_loads") == 1
        paging = [r for r in flush_records(machine)
                  if r.kind == TraceEventKind.IRP_READ and r.is_paging]
        assert sum(r.length for r in paging) >= 200_000

    def test_warm_load_skips_paging(self, machine, process, make_file_on):
        make_file_on(r"\app.exe", 200_000)
        machine.win32.load_image(process, r"C:\app.exe")
        reads_before = machine.perf.value("mm.page_ins")
        machine.win32.load_image(process, r"C:\app.exe")
        assert machine.perf.value("mm.image_warm_loads") == 1
        assert machine.perf.value("mm.page_ins") == reads_before

    def test_missing_image_fails(self, machine, process):
        status = machine.win32.load_image(process, r"C:\missing.exe")
        assert status.is_error

    def test_acquire_release_section_events(self, machine, process,
                                            make_file_on):
        make_file_on(r"\lib.dll", 50_000)
        machine.win32.load_image(process, r"C:\lib.dll")
        kinds = {r.kind for r in flush_records(machine)}
        assert int(TraceEventKind.FASTIO_ACQUIRE_FILE_FOR_NT_CREATE_SECTION) \
            in kinds
        assert int(TraceEventKind.FASTIO_RELEASE_FILE_FOR_NT_CREATE_SECTION) \
            in kinds

    def test_overwrite_evicts_image(self, machine, process, make_file_on):
        make_file_on(r"\app.exe", 100_000)
        w = machine.win32
        w.load_image(process, r"C:\app.exe")
        assert machine.perf.value("mm.image_cold_loads") == 1
        # Overwrite the binary (a rebuild): section must be invalidated.
        _s, h = w.create_file(process, r"C:\app.exe",
                              access=FileAccess.GENERIC_WRITE,
                              disposition=CreateDisposition.OVERWRITE_IF)
        w.write_file(process, h, 100_000)
        w.close_handle(process, h)
        w.load_image(process, r"C:\app.exe")
        assert machine.perf.value("mm.image_cold_loads") == 2

    def test_image_budget_eviction(self, machine, process, make_file_on):
        machine.mm._image_budget = 300_000
        for i in range(4):
            make_file_on(rf"\app{i}.exe", 150_000)
            machine.win32.load_image(process, rf"C:\app{i}.exe")
        assert machine.perf.value("mm.images_evicted") >= 1


class TestMappedViews:
    def test_fault_view_issues_paging_reads(self, machine, process,
                                            make_file_on):
        make_file_on(r"\data.bin", 10 << 20)
        w = machine.win32
        _s, h = w.create_file(process, r"C:\data.bin")
        reads_before = machine.perf.value("mm.page_ins")
        status = w.fault_view(process, h, 1 << 20, 128 * 1024)
        assert status == NtStatus.SUCCESS
        assert machine.perf.value("mm.page_ins") > reads_before

    def test_fault_view_bad_handle(self, machine, process):
        assert machine.win32.fault_view(process, 999, 0, 4096) == \
            NtStatus.INVALID_PARAMETER
