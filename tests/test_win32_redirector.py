"""Tests for the Win32 layer and the network redirector."""

import pytest

from repro.common.flags import CreateDisposition, FileAccess
from repro.common.status import NtStatus
from repro.nt.fs.volume import Volume

from tests.conftest import make_file


@pytest.fixture
def remote(machine):
    share = Volume("srv-share", capacity_bytes=1 << 30)
    make_file(share, r"\docs\report.doc", 50_000)
    machine.mount_remote(r"\\server\home", share)
    return share


class TestPathResolution:
    def test_drive_letter(self, machine):
        vol, rel = machine.win32.resolve_path(r"C:\a\b.txt")
        assert vol is machine.drives["C"]
        assert rel == r"\a\b.txt"

    def test_drive_root(self, machine):
        _vol, rel = machine.win32.resolve_path("C:")
        assert rel == "\\"

    def test_unc(self, machine, remote):
        vol, rel = machine.win32.resolve_path(r"\\server\home\docs\report.doc")
        assert vol is remote
        assert rel == r"\docs\report.doc"

    def test_unknown_drive(self, machine):
        with pytest.raises(ValueError):
            machine.win32.resolve_path(r"Z:\x")

    def test_unknown_share(self, machine, remote):
        with pytest.raises(ValueError):
            machine.win32.resolve_path(r"\\other\share\x")

    def test_relative_rejected(self, machine):
        with pytest.raises(ValueError):
            machine.win32.resolve_path(r"relative\path")


class TestHandleLifecycle:
    def test_close_unknown_handle(self, machine, process):
        assert machine.win32.close_handle(process, 1234) == \
            NtStatus.INVALID_PARAMETER

    def test_read_unknown_handle(self, machine, process):
        status, got = machine.win32.read_file(process, 555, 100)
        assert status == NtStatus.INVALID_PARAMETER

    def test_handle_removed_after_close(self, machine, process,
                                        make_file_on):
        make_file_on(r"\f.txt", 10)
        _s, h = machine.win32.create_file(process, r"C:\f.txt")
        machine.win32.close_handle(process, h)
        assert h not in process.handles

    def test_offsets_advance(self, machine, process, make_file_on):
        make_file_on(r"\f.bin", 10_000)
        w = machine.win32
        _s, h = w.create_file(process, r"C:\f.bin")
        w.read_file(process, h, 4096)
        fo = w.file_object(process, h)
        assert fo.current_byte_offset == 4096
        w.set_file_pointer(process, h, 0)
        assert fo.current_byte_offset == 0


class TestRemoteAccess:
    def test_remote_open_and_read(self, machine, process, remote):
        w = machine.win32
        status, h = w.create_file(process, r"\\server\home\docs\report.doc")
        assert status == NtStatus.SUCCESS
        status, got = w.read_file(process, h, 4096)
        assert status == NtStatus.SUCCESS and got == 4096
        w.close_handle(process, h)

    def test_remote_create_write(self, machine, process, remote):
        w = machine.win32
        status, h = w.create_file(
            process, r"\\server\home\docs\new.doc",
            access=FileAccess.GENERIC_WRITE,
            disposition=CreateDisposition.CREATE)
        assert status == NtStatus.SUCCESS
        w.write_file(process, h, 4096)
        w.close_handle(process, h)
        assert remote.resolve(r"\docs\new.doc") is not None

    def test_wire_costs_charged(self, machine, process, remote):
        perf = machine.perf
        requests = perf.value("rdr.wire.requests")
        transfers = perf.value("rdr.wire.transfers")
        w = machine.win32
        _s, h = w.create_file(process, r"\\server\home\docs\report.doc")
        assert perf.value("rdr.wire.requests") > requests
        w.read_file(process, h, 4096)  # cold: paging read crosses the wire
        assert perf.value("rdr.wire.transfers") > transfers
        w.close_handle(process, h)

    def test_cached_remote_read_stays_local(self, machine, process, remote):
        w = machine.win32
        _s, h = w.create_file(process, r"\\server\home\docs\report.doc")
        w.read_file(process, h, 4096)
        transfers = machine.perf.value("rdr.wire.transfers")
        # Second read of the same data: served by the local cache.
        w.read_file(process, h, 4096, offset=0)
        assert machine.perf.value("rdr.wire.transfers") == transfers
        w.close_handle(process, h)

    def test_remote_open_slower_than_local(self, machine, process, remote,
                                           make_file_on):
        make_file_on(r"\local.doc", 50_000)
        w = machine.win32
        t0 = machine.clock.now
        _s, h = w.create_file(process, r"C:\local.doc")
        local_cost = machine.clock.now - t0
        w.close_handle(process, h)
        t0 = machine.clock.now
        _s, h = w.create_file(process, r"\\server\home\docs\report.doc")
        remote_cost = machine.clock.now - t0
        w.close_handle(process, h)
        # The wire RTT dominates the difference (may be offset by random
        # metadata costs, so compare loosely).
        assert remote_cost > 0 and local_cost > 0


class TestMoveAcrossVolumes:
    def test_cross_volume_move_rejected(self, machine, process, remote,
                                        make_file_on):
        make_file_on(r"\f.txt")
        status = machine.win32.move_file(
            process, r"C:\f.txt", r"\\server\home\docs\f.txt")
        assert status == NtStatus.NOT_SAME_DEVICE


class TestDirectoryApi:
    def test_create_and_remove_directory(self, machine, process):
        w = machine.win32
        assert w.create_directory(process, r"C:\newdir") == NtStatus.SUCCESS
        assert w.remove_directory(process, r"C:\newdir") == NtStatus.SUCCESS
        assert machine.drives["C"].resolve(r"\newdir") is None

    def test_remove_nonempty_directory_fails(self, machine, process,
                                             make_file_on):
        make_file_on(r"\d\x.txt")
        assert machine.win32.remove_directory(process, r"C:\d") == \
            NtStatus.DIRECTORY_NOT_EMPTY
