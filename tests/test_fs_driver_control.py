"""Tests for control operations: set/query information, rename, delete
disposition, directory enumeration, FSCTLs, and the two-stage close."""


from repro.common.clock import TICKS_PER_SECOND
from repro.common.flags import CreateDisposition, CreateOptions, FileAccess
from repro.common.status import NtStatus
from repro.nt.tracing.records import TraceEventKind


class TestDeleteFile:
    def test_delete_removes_file(self, machine, process, make_file_on):
        make_file_on(r"\f.txt", 100)
        status = machine.win32.delete_file(process, r"C:\f.txt")
        assert status == NtStatus.SUCCESS
        assert machine.drives["C"].resolve(r"\f.txt") is None
        assert machine.perf.value("fs.files_deleted") == 1

    def test_delete_missing_fails(self, machine, process):
        status = machine.win32.delete_file(process, r"C:\missing.txt")
        assert status == NtStatus.OBJECT_NAME_NOT_FOUND

    def test_delete_deferred_while_open(self, machine, process,
                                        make_file_on):
        make_file_on(r"\f.txt", 100)
        w = machine.win32
        _s, holder = w.create_file(process, r"C:\f.txt")
        w.delete_file(process, r"C:\f.txt")
        # Still visible? NT removes the name at last cleanup; our holder
        # still has it open.
        assert machine.drives["C"].resolve(r"\f.txt") is not None
        w.close_handle(process, holder)
        assert machine.drives["C"].resolve(r"\f.txt") is None

    def test_delete_on_close_option(self, machine, process):
        w = machine.win32
        _s, h = w.create_file(
            process, r"C:\scratch.tmp", access=FileAccess.GENERIC_WRITE,
            disposition=CreateDisposition.CREATE,
            options=CreateOptions.DELETE_ON_CLOSE)
        assert machine.drives["C"].resolve(r"\scratch.tmp") is not None
        w.close_handle(process, h)
        assert machine.drives["C"].resolve(r"\scratch.tmp") is None


class TestRename:
    def test_move_file(self, machine, process, make_file_on):
        make_file_on(r"\a\f.txt", 10)
        make_file_on(r"\b\placeholder.txt", 1)
        status = machine.win32.move_file(process, r"C:\a\f.txt",
                                         r"C:\b\g.txt")
        assert status == NtStatus.SUCCESS
        vol = machine.drives["C"]
        assert vol.resolve(r"\a\f.txt") is None
        assert vol.resolve(r"\b\g.txt") is not None

    def test_move_to_existing_name_fails(self, machine, process,
                                         make_file_on):
        make_file_on(r"\f.txt")
        make_file_on(r"\g.txt")
        status = machine.win32.move_file(process, r"C:\f.txt", r"C:\g.txt")
        assert status == NtStatus.OBJECT_NAME_COLLISION

    def test_move_to_missing_dir_fails(self, machine, process,
                                       make_file_on):
        make_file_on(r"\f.txt")
        status = machine.win32.move_file(process, r"C:\f.txt",
                                         r"C:\nodir\f.txt")
        assert status == NtStatus.OBJECT_PATH_NOT_FOUND


class TestSetEndOfFile:
    def test_truncate_purges_cache(self, machine, process, make_file_on):
        make_file_on(r"\f.bin", 65536)
        w = machine.win32
        _s, h = w.create_file(
            process, r"C:\f.bin",
            access=FileAccess.GENERIC_READ | FileAccess.GENERIC_WRITE,
            disposition=CreateDisposition.OPEN)
        w.read_file(process, h, 65536)
        fo = w.file_object(process, h)
        assert fo.node.cache_map.pages
        w.set_end_of_file(process, h, 4096)
        assert fo.node.size == 4096
        assert all(p * 4096 < 4096 for p in fo.node.cache_map.pages)

    def test_extend(self, machine, process, make_file_on):
        make_file_on(r"\f.bin", 100)
        w = machine.win32
        _s, h = w.create_file(process, r"C:\f.bin",
                              access=FileAccess.GENERIC_WRITE,
                              disposition=CreateDisposition.OPEN)
        w.set_end_of_file(process, h, 10_000)
        assert w.file_object(process, h).node.size == 10_000


class TestDirectoryEnumeration:
    def test_find_files_counts_entries(self, machine, process,
                                       make_file_on):
        for i in range(10):
            make_file_on(rf"\d\f{i}.txt")
        status, count = machine.win32.find_files(process, r"C:\d")
        assert status == NtStatus.SUCCESS
        assert count == 10

    def test_find_files_on_missing_dir(self, machine, process):
        status, count = machine.win32.find_files(process, r"C:\nope")
        assert status.is_error
        assert count == 0

    def test_find_files_respects_max(self, machine, process, make_file_on):
        for i in range(10):
            make_file_on(rf"\d\f{i}.txt")
        _s, count = machine.win32.find_files(process, r"C:\d",
                                             max_entries=4)
        assert count == 4

    def test_enumeration_batches(self, machine, process, make_file_on):
        # More files than one 64-entry batch.
        for i in range(100):
            make_file_on(rf"\d\f{i:03d}.txt")
        _s, count = machine.win32.find_files(process, r"C:\d")
        assert count == 100


class TestQueriesAndFsctl:
    def test_get_file_attributes(self, machine, process, make_file_on):
        make_file_on(r"\f.txt")
        assert machine.win32.get_file_attributes(
            process, r"C:\f.txt") == NtStatus.SUCCESS

    def test_get_file_attributes_missing(self, machine, process):
        assert machine.win32.get_file_attributes(
            process, r"C:\missing.txt").is_error

    def test_volume_mounted_check(self, machine, process):
        status = machine.win32.volume_mounted_check(process,
                                                    machine.drives["C"])
        assert status == NtStatus.SUCCESS

    def test_get_disk_free_space(self, machine, process):
        assert machine.win32.get_disk_free_space(process, "C") == \
            NtStatus.SUCCESS
        assert machine.win32.get_disk_free_space(process, "Q").is_error


class TestTwoStageClose:
    def test_clean_file_closes_quickly(self, machine, process,
                                       make_file_on):
        make_file_on(r"\f.bin", 4096)
        w = machine.win32
        _s, h = w.create_file(process, r"C:\f.bin")
        w.read_file(process, h, 4096)
        fo = w.file_object(process, h)
        w.close_handle(process, h)
        assert fo.cleanup_done
        assert not fo.closed  # the Cc reference is still pending release
        machine.run_until(machine.clock.now + 1000)  # 100 us
        assert fo.closed

    def test_dirty_file_close_waits_for_lazy_writer(self, machine, process):
        w = machine.win32
        _s, h = w.create_file(process, r"C:\f.bin",
                              access=FileAccess.GENERIC_WRITE,
                              disposition=CreateDisposition.CREATE)
        w.write_file(process, h, 8192)
        fo = w.file_object(process, h)
        w.close_handle(process, h)
        assert fo.cleanup_done and not fo.closed
        machine.run_until(machine.clock.now + 2 * TICKS_PER_SECOND)
        assert fo.closed
        assert machine.perf.value("lw.deferred_closes") >= 1

    def test_set_end_of_file_precedes_deferred_close(self, machine,
                                                     process):
        w = machine.win32
        _s, h = w.create_file(process, r"C:\f.bin",
                              access=FileAccess.GENERIC_WRITE,
                              disposition=CreateDisposition.CREATE)
        w.write_file(process, h, 5000)
        w.close_handle(process, h)
        machine.run_until(machine.clock.now + 2 * TICKS_PER_SECOND)
        for filt in machine.trace_filters:
            filt.flush()
        records = machine.collector.records
        fo = [r for r in records
              if r.kind == TraceEventKind.IRP_SET_INFORMATION
              and r.length == 5000]
        assert fo, "cache manager should issue SetEndOfFile before close"

    def test_control_only_session_closes_immediately(self, machine,
                                                     process, make_file_on):
        make_file_on(r"\f.txt")
        w = machine.win32
        _s, h = w.create_file(process, r"C:\f.txt")
        fo = w.file_object(process, h)
        w.close_handle(process, h)
        # No cache reference was ever taken: close is immediate.
        assert fo.closed
