"""Tests for the application models: each must run and leave the expected
trace signature."""

import pytest

from repro.nt.fs.volume import Volume
from repro.nt.system import Machine, MachineConfig
from repro.nt.tracing.records import TraceEventKind
from repro.workload.apps import (
    APP_REGISTRY,
    AppContext,
    BigBufferMailerApp,
    CompilerApp,
    DbAdminApp,
    ExplorerApp,
    JavaToolApp,
    MailApp,
    NotepadApp,
    ScientificApp,
    ServicesApp,
    WebBrowserApp,
    WinlogonApp,
)
from repro.workload.content import build_system_volume


@pytest.fixture
def app_env():
    machine = Machine(MachineConfig(name="appbox", seed=5, memory_mb=128))
    vol = Volume("C", capacity_bytes=20 << 30,)
    catalog = build_system_volume(vol, machine.rng, username="u",
                                  scale=0.08, developer=True,
                                  scientific=True)
    machine.mount("C", vol)
    return machine, catalog


def run_app(machine, catalog, cls, bursts=3):
    process = machine.create_process(cls.name, cls.interactive)
    ctx = AppContext(machine=machine, process=process, catalog=catalog,
                     rng=machine.rng)
    app = cls(ctx)
    app.on_start()
    for _ in range(bursts):
        if app.step() is None:
            break
    app.on_exit()
    for filt in machine.trace_filters:
        filt.flush()
    return machine.collector.records, process


def kinds_of(records, pid=None):
    return {r.kind for r in records if pid is None or r.pid == pid}


class TestRegistry:
    def test_all_apps_registered(self):
        assert len(APP_REGISTRY) == 13
        assert APP_REGISTRY["notepad.exe"] is NotepadApp

    def test_registry_names_match(self):
        for name, cls in APP_REGISTRY.items():
            assert cls.name == name


class TestEachAppRuns:
    @pytest.mark.parametrize("cls", list(APP_REGISTRY.values()),
                             ids=lambda c: c.name)
    def test_app_produces_trace(self, app_env, cls):
        machine, catalog = app_env
        records, process = run_app(machine, catalog, cls)
        mine = [r for r in records if r.pid == process.pid]
        assert mine, f"{cls.name} produced no trace records"

    @pytest.mark.parametrize("cls", list(APP_REGISTRY.values()),
                             ids=lambda c: c.name)
    def test_app_closes_its_handles(self, app_env, cls):
        machine, catalog = app_env
        _records, process = run_app(machine, catalog, cls)
        assert not process.handles


class TestAppSignatures:
    def test_notepad_save_storm_has_failures_and_overwrite(self, app_env):
        machine, catalog = app_env
        records, process = run_app(machine, catalog, NotepadApp, bursts=2)
        mine = [r for r in records if r.pid == process.pid]
        creates = [r for r in mine
                   if r.kind == TraceEventKind.IRP_CREATE]
        assert any(r.status >= 0xC0000000 for r in creates)
        from repro.common.flags import CreateDisposition
        assert any(r.disposition == CreateDisposition.OVERWRITE_IF
                   for r in creates)

    def test_explorer_is_control_heavy(self, app_env):
        machine, catalog = app_env
        records, process = run_app(machine, catalog, ExplorerApp, bursts=4)
        mine = [r for r in records if r.pid == process.pid]
        control = [r for r in mine
                   if r.kind in (TraceEventKind.IRP_QUERY_DIRECTORY,
                                 TraceEventKind.IRP_QUERY_INFORMATION,
                                 TraceEventKind.IRP_FSCTL_USER_REQUEST)]
        data = [r for r in mine
                if r.kind in (TraceEventKind.IRP_WRITE,
                              TraceEventKind.FASTIO_WRITE)]
        assert len(control) > len(data)

    def test_compiler_reads_headers_and_writes_objects(self, app_env):
        machine, catalog = app_env
        records, process = run_app(machine, catalog, CompilerApp, bursts=4)
        mine = [r for r in records if r.pid == process.pid]
        assert any(r.kind in (TraceEventKind.IRP_READ,
                              TraceEventKind.FASTIO_READ) for r in mine)
        assert any(r.kind in (TraceEventKind.IRP_WRITE,
                              TraceEventKind.FASTIO_WRITE) for r in mine)

    def test_browser_churns_cache(self, app_env):
        machine, catalog = app_env
        before = machine.perf.value("fs.files_created")
        run_app(machine, catalog, WebBrowserApp, bursts=4)
        assert machine.perf.value("fs.files_created") > before

    def test_mail_flushes(self, app_env):
        machine, catalog = app_env
        rng_state_runs = 0
        for _ in range(4):  # some sessions browse-only; retry
            records, process = run_app(machine, catalog, MailApp, bursts=3)
            mine = [r for r in records if r.pid == process.pid]
            if any(r.kind == TraceEventKind.IRP_FLUSH_BUFFERS
                   for r in mine):
                return
            rng_state_runs += 1
        # Flush-after-write is the dominant strategy (87%); across four
        # sessions at least one flush is overwhelmingly likely.
        pytest.fail("mail app never flushed")

    def test_java_tool_reads_tiny(self, app_env):
        machine, catalog = app_env
        records, process = run_app(machine, catalog, JavaToolApp, bursts=2)
        mine = [r for r in records if r.pid == process.pid
                and r.kind in (TraceEventKind.IRP_READ,
                               TraceEventKind.FASTIO_READ)
                and not r.is_paging]
        assert mine
        small = [r for r in mine if r.length in (2, 4)]
        assert len(small) > len(mine) * 0.8

    def test_big_mailer_uses_4mb_buffer(self, app_env):
        machine, catalog = app_env
        records, process = run_app(machine, catalog, BigBufferMailerApp,
                                   bursts=1)
        mine = [r for r in records if r.pid == process.pid
                and r.kind in (TraceEventKind.IRP_WRITE,
                               TraceEventKind.FASTIO_WRITE)]
        assert any(r.length == 4 * 1024 * 1024 for r in mine)

    def test_scientific_uses_mapped_views(self, app_env):
        machine, catalog = app_env
        before = machine.perf.value("mm.page_ins")
        run_app(machine, catalog, ScientificApp, bursts=2)
        assert machine.perf.value("mm.page_ins") > before

    def test_services_keeps_handles_open(self, app_env):
        machine, catalog = app_env
        process = machine.create_process(ServicesApp.name, False)
        ctx = AppContext(machine=machine, process=process, catalog=catalog,
                         rng=machine.rng)
        app = ServicesApp(ctx)
        app.on_start()
        app.step()
        assert process.handles  # long-lived handles while running
        app.on_exit()
        assert not process.handles

    def test_dbadmin_uses_temporary_attribute(self, app_env):
        machine, catalog = app_env
        from repro.common.flags import FileAttributes
        found = False
        for _ in range(6):
            records, process = run_app(machine, catalog, DbAdminApp,
                                       bursts=3)
            mine = [r for r in records if r.pid == process.pid
                    and r.kind == TraceEventKind.IRP_CREATE]
            if any(r.attributes & FileAttributes.TEMPORARY for r in mine):
                found = True
                break
        assert found

    def test_winlogon_populates_profile(self, app_env):
        machine, catalog = app_env
        before = machine.perf.value("fs.files_created")
        run_app(machine, catalog, WinlogonApp, bursts=1)
        assert machine.perf.value("fs.files_created") > before

    def test_image_loading_on_start(self, app_env):
        machine, catalog = app_env
        before = machine.perf.value("mm.image_cold_loads") \
            + machine.perf.value("mm.image_warm_loads")
        run_app(machine, catalog, NotepadApp, bursts=1)
        after = machine.perf.value("mm.image_cold_loads") \
            + machine.perf.value("mm.image_warm_loads")
        assert after > before
