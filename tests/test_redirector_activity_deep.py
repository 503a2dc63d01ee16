"""Deeper tests: redirector wire accounting, activity interval math,
lazy-writer aging details."""

import numpy as np
import pytest

from repro.common.clock import TICKS_PER_SECOND
from repro.common.flags import CreateDisposition, FileAccess
from repro.nt.fs.volume import Volume
from repro.nt.net.redirector import NetworkModel, SWITCHED_100MBIT

from tests.conftest import make_file


@pytest.fixture
def remote(machine):
    share = Volume("srv", capacity_bytes=1 << 30)
    make_file(share, r"\doc.txt", 200_000)
    machine.mount_remote(r"\\s\h", share)
    return share


class TestNetworkModel:
    def test_wire_ticks_formula(self):
        model = NetworkModel("t", rtt_micros=100.0, bytes_per_second=1e6)
        # 100 us RTT + 1e6 bytes at 1 MB/s = 1 s.
        assert model.wire_ticks(0) == 1000
        assert model.wire_ticks(1_000_000) == pytest.approx(10_001_000,
                                                            rel=0.001)

    def test_default_model_magnitude(self):
        # A 64 KB transfer on 100 Mbit: ~6 ms.
        ticks = SWITCHED_100MBIT.wire_ticks(65536)
        assert 4 * 10_000 < ticks < 10 * 10_000


class TestRedirectorAccounting:
    def test_remote_flush_pays_wire(self, machine, process, remote):
        w = machine.win32
        _s, h = w.create_file(process, r"\\s\h\new.dat",
                              access=FileAccess.GENERIC_WRITE,
                              disposition=CreateDisposition.CREATE)
        w.write_file(process, h, 65536)
        transfers_before = machine.perf.value("rdr.wire.transfers")
        w.flush_file_buffers(process, h)
        assert machine.perf.value("rdr.wire.transfers") > transfers_before
        w.close_handle(process, h)

    def test_failed_remote_open_still_crosses_wire(self, machine, process,
                                                   remote):
        requests_before = machine.perf.value("rdr.wire.requests")
        status, _h = machine.win32.create_file(process, r"\\s\h\nope.txt")
        assert status.is_error
        assert machine.perf.value("rdr.wire.requests") > requests_before

    def test_remote_directory_ops_cross_wire(self, machine, process,
                                             remote):
        requests_before = machine.perf.value("rdr.wire.requests")
        machine.win32.find_files(process, r"\\s\h")
        assert machine.perf.value("rdr.wire.requests") > requests_before

    def test_remote_lazy_flush_is_wire_traffic(self, machine, process,
                                               remote):
        w = machine.win32
        _s, h = w.create_file(process, r"\\s\h\lazy.dat",
                              access=FileAccess.GENERIC_WRITE,
                              disposition=CreateDisposition.CREATE)
        w.write_file(process, h, 32768)
        w.close_handle(process, h)
        before = machine.perf.value("rdr.wire.transfers")
        machine.run_until(machine.clock.now + 4 * TICKS_PER_SECOND)
        assert machine.perf.value("rdr.wire.transfers") > before


class TestActivityMath:
    def test_known_throughput(self):
        from repro.analysis.activity import _interval_stats
        # One user, 10 events of 1024 bytes in the first second.
        times = [np.asarray([i * 1_000_000 for i in range(10)],
                            dtype=float)]
        sizes = [np.full(10, 1024.0)]
        row = _interval_stats(times, sizes, duration_ticks=TICKS_PER_SECOND,
                              interval_seconds=1.0)
        assert row.max_active_users == 1
        assert row.avg_throughput_kbs == pytest.approx(10.0)
        assert row.peak_system_throughput_kbs == pytest.approx(10.0)

    def test_threshold_excludes_quiet_users(self):
        from repro.analysis.activity import (ACTIVITY_EVENT_THRESHOLD,
                                             _interval_stats)
        quiet_events = ACTIVITY_EVENT_THRESHOLD  # == threshold: inactive
        times = [np.asarray([0.0] * quiet_events)]
        sizes = [np.full(quiet_events, 100.0)]
        row = _interval_stats(times, sizes, duration_ticks=TICKS_PER_SECOND,
                              interval_seconds=1.0)
        assert row.max_active_users == 0

    def test_multiple_users_summed_systemwide(self):
        from repro.analysis.activity import _interval_stats
        times = [np.asarray([float(i * 500_000) for i in range(10)]),
                 np.asarray([float(i * 500_000) for i in range(10)])]
        sizes = [np.full(10, 2048.0), np.full(10, 2048.0)]
        row = _interval_stats(times, sizes, duration_ticks=TICKS_PER_SECOND,
                              interval_seconds=1.0)
        assert row.max_active_users == 2
        assert row.peak_system_throughput_kbs == pytest.approx(40.0)


class TestLazyWriterAging:
    def test_close_not_before_age(self, machine, process):
        w = machine.win32
        _s, h = w.create_file(process, r"C:\aged.bin",
                              access=FileAccess.GENERIC_WRITE,
                              disposition=CreateDisposition.CREATE)
        w.write_file(process, h, 8192)
        fo = w.file_object(process, h)
        w.close_handle(process, h)
        # Just past the first scan (1 s) the entry is still aging.
        machine.run_until(machine.clock.now + TICKS_PER_SECOND + 50_000)
        assert not fo.closed
        machine.run_until(machine.clock.now + 3 * TICKS_PER_SECOND)
        assert fo.closed

    def test_deleted_file_still_gets_closed(self, machine, process):
        w = machine.win32
        _s, h = w.create_file(process, r"C:\doomed.bin",
                              access=FileAccess.GENERIC_WRITE,
                              disposition=CreateDisposition.CREATE)
        w.write_file(process, h, 8192)
        fo = w.file_object(process, h)
        w.close_handle(process, h)
        # Delete before the aged flush happens.
        w.delete_file(process, r"C:\doomed.bin")
        writes_before = machine.perf.value("mm.page_outs")
        machine.run_until(machine.clock.now + 5 * TICKS_PER_SECOND)
        assert fo.closed
        # The dirty data was never written: deletion beat the writer.
        assert machine.perf.value("mm.page_outs") == writes_before

    def test_space_accounting_intact_after_deleted_pending_close(
            self, machine, process):
        vol = machine.drives["C"]
        w = machine.win32
        _s, h = w.create_file(process, r"C:\doomed.bin",
                              access=FileAccess.GENERIC_WRITE,
                              disposition=CreateDisposition.CREATE)
        w.write_file(process, h, 8192)
        w.close_handle(process, h)
        w.delete_file(process, r"C:\doomed.bin")
        used_after_delete = vol.bytes_used
        machine.run_until(machine.clock.now + 5 * TICKS_PER_SECOND)
        # The aged SetEndOfFile path must not resurrect the allocation.
        assert vol.bytes_used == used_after_delete
