"""Tests for machine assembly: scheduler, forked clock, processes,
snapshots, and trace lifecycle."""


from repro.common.clock import TICKS_PER_SECOND
from repro.nt.fs.volume import Volume



class TestScheduler:
    def test_events_run_in_order(self, machine):
        seen = []
        machine.schedule(300, lambda: seen.append("c"))
        machine.schedule(100, lambda: seen.append("a"))
        machine.schedule(200, lambda: seen.append("b"))
        machine.run_until(1000)
        assert seen == ["a", "b", "c"]

    def test_events_beyond_horizon_wait(self, machine):
        seen = []
        machine.schedule(5000, lambda: seen.append("later"))
        machine.run_until(1000)
        assert seen == []
        machine.run_until(10_000)
        assert seen == ["later"]

    def test_clock_advances_to_event_time(self, machine):
        times = []
        machine.schedule(700, lambda: times.append(machine.clock.now))
        machine.run_until(1000)
        assert times == [700]
        assert machine.clock.now == 1000

    def test_stale_event_runs_at_current_time(self, machine):
        machine.clock.advance(500)
        base = machine.clock.now
        times = []
        machine.schedule(100, lambda: times.append(machine.clock.now))
        machine.run_until(base + 100)
        assert times == [base]

    def test_recursive_scheduling(self, machine):
        count = []

        def tick():
            count.append(machine.clock.now)
            if len(count) < 3:
                machine.schedule(machine.clock.now + 100, tick)

        machine.schedule(100, tick)
        machine.run_until(1000)
        assert len(count) == 3


class TestForkedClock:
    def test_foreground_unaffected(self, machine):
        before = machine.clock.now
        with machine.forked_clock() as shadow:
            machine.clock.advance(12345)
            assert machine.clock is shadow
        assert machine.clock.now == before

    def test_shadow_starts_at_now(self, machine):
        machine.clock.advance(999)
        now = machine.clock.now
        with machine.forked_clock() as shadow:
            assert shadow.now == now

    def test_nested_forks(self, machine):
        with machine.forked_clock():
            machine.clock.advance(10)
            middle = machine.clock
            base = middle.now
            with machine.forked_clock():
                machine.clock.advance(50)
            assert machine.clock is middle
            assert machine.clock.now == base


class TestProcesses:
    def test_unique_pids(self, machine):
        a = machine.create_process("a.exe")
        b = machine.create_process("b.exe")
        assert a.pid != b.pid

    def test_registered_with_collector(self, machine):
        p = machine.create_process("x.exe", interactive=True)
        assert machine.collector.process_names[p.pid] == "x.exe"
        assert machine.collector.process_interactive[p.pid]

    def test_handle_allocation(self, machine):
        p = machine.create_process("x.exe")
        h1 = p.allocate_handle(object())
        h2 = p.allocate_handle(object())
        assert h1 != h2


class TestMachineLifecycle:
    def test_mount_records_event(self, machine):
        for filt in machine.trace_filters:
            filt.flush()
        from repro.nt.tracing.records import TraceEventKind
        kinds = [r.kind for r in machine.collector.records]
        assert int(TraceEventKind.IRP_FSCTL_MOUNT_VOLUME) in kinds

    def test_take_snapshots_local_only(self, machine):
        remote = Volume("srv", capacity_bytes=1 << 30)
        machine.mount_remote(r"\\s\share", remote)
        machine.take_snapshots()
        labels = {label for label, _t, _r in machine.collector.snapshots}
        assert "C" in labels
        assert "srv" not in labels

    def test_finish_tracing_flushes(self, machine, process, make_file_on):
        make_file_on(r"\f.txt", 10)
        machine.win32.get_file_attributes(process, r"C:\f.txt")
        collector = machine.finish_tracing()
        assert len(collector.records) > 0

    def test_lazy_writer_installed(self, machine):
        machine.run_until(3 * TICKS_PER_SECOND)
        assert machine.perf.value("lw.scans") == 3

    def test_volume_handle_available(self, machine):
        fo = machine.volume_handle(machine.drives["C"])
        assert fo.node is machine.drives["C"].root

    def test_trace_filters_one_per_volume(self, machine):
        remote = Volume("srv2", capacity_bytes=1 << 30)
        machine.mount_remote(r"\\s\share2", remote)
        assert len(machine.trace_filters) == 2
