"""Tests for directory change notifications."""


from repro.common.flags import CreateDisposition, CreateOptions, FileAccess
from repro.common.status import NtStatus
from repro.nt.tracing.records import TraceEventKind


def _open_dir(machine, process, path):
    status, handle = machine.win32.create_file(
        process, path, access=FileAccess.READ_ATTRIBUTES,
        disposition=CreateDisposition.OPEN,
        options=CreateOptions.DIRECTORY_FILE)
    assert status.is_success
    return handle


def _notify_records(machine):
    for filt in machine.trace_filters:
        filt.flush()
    return [r for r in machine.collector.records
            if r.kind == int(TraceEventKind.IRP_NOTIFY_CHANGE_DIRECTORY)]


class TestWatchDirectory:
    def test_watch_pends(self, machine, process, make_file_on):
        make_file_on(r"\d\seed.txt")
        handle = _open_dir(machine, process, r"C:\d")
        status = machine.win32.watch_directory(process, handle)
        assert status == NtStatus.PENDING

    def test_create_completes_watch(self, machine, process, make_file_on):
        make_file_on(r"\d\seed.txt")
        handle = _open_dir(machine, process, r"C:\d")
        machine.win32.watch_directory(process, handle)
        # Creating a file in the watched directory delivers a completion.
        status, h2 = machine.win32.create_file(
            process, r"C:\d\new.txt", access=FileAccess.GENERIC_WRITE,
            disposition=CreateDisposition.CREATE)
        machine.win32.close_handle(process, h2)
        records = _notify_records(machine)
        completions = [r for r in records if r.status == 0]
        assert len(completions) == 1
        assert machine.perf.value("fs.change_notifications") == 1

    def test_delete_completes_watch(self, machine, process, make_file_on):
        make_file_on(r"\d\victim.txt")
        handle = _open_dir(machine, process, r"C:\d")
        machine.win32.watch_directory(process, handle)
        machine.win32.delete_file(process, r"C:\d\victim.txt")
        assert machine.perf.value("fs.change_notifications") == 1

    def test_one_shot_delivery(self, machine, process, make_file_on):
        make_file_on(r"\d\seed.txt")
        handle = _open_dir(machine, process, r"C:\d")
        machine.win32.watch_directory(process, handle)
        for i in range(3):
            _s, h = machine.win32.create_file(
                process, rf"C:\d\f{i}.txt", access=FileAccess.GENERIC_WRITE,
                disposition=CreateDisposition.CREATE)
            machine.win32.close_handle(process, h)
        # One arm -> one delivery; the application must re-arm.
        assert machine.perf.value("fs.change_notifications") == 1

    def test_unrelated_directory_untouched(self, machine, process,
                                           make_file_on):
        make_file_on(r"\d\seed.txt")
        make_file_on(r"\other\seed.txt")
        handle = _open_dir(machine, process, r"C:\d")
        machine.win32.watch_directory(process, handle)
        _s, h = machine.win32.create_file(
            process, r"C:\other\new.txt", access=FileAccess.GENERIC_WRITE,
            disposition=CreateDisposition.CREATE)
        machine.win32.close_handle(process, h)
        assert machine.perf.value("fs.change_notifications") == 0

    def test_closed_watcher_not_notified(self, machine, process,
                                         make_file_on):
        make_file_on(r"\d\seed.txt")
        handle = _open_dir(machine, process, r"C:\d")
        machine.win32.watch_directory(process, handle)
        machine.win32.close_handle(process, handle)
        _s, h = machine.win32.create_file(
            process, r"C:\d\new.txt", access=FileAccess.GENERIC_WRITE,
            disposition=CreateDisposition.CREATE)
        machine.win32.close_handle(process, h)
        assert machine.perf.value("fs.change_notifications") == 0

    def test_watch_bad_handle(self, machine, process):
        assert machine.win32.watch_directory(process, 404) == \
            NtStatus.INVALID_PARAMETER
