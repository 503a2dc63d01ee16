"""Tests for the FrontPage/Installer app models and the newer statistics
(active-interval fraction, functional lifetimes)."""

import numpy as np
import pytest

from repro.analysis.content import analyze_content
from repro.analysis.opens import analyze_opens
from repro.analysis.warehouse import TraceWarehouse
from repro.common.clock import TICKS_PER_MILLISECOND
from repro.nt.fs.volume import Volume
from repro.nt.system import Machine, MachineConfig
from repro.workload.apps import AppContext, FrontPageApp, InstallerApp
from repro.workload.content import build_system_volume


@pytest.fixture
def app_env():
    machine = Machine(MachineConfig(name="nx", seed=21, memory_mb=96))
    vol = Volume("C", capacity_bytes=8 << 30)
    catalog = build_system_volume(vol, machine.rng, scale=0.08)
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
    machine.finish_tracing()
    return machine.collector.records, process


class TestFrontPage:
    def test_sessions_are_milliseconds(self, app_env):
        machine, catalog = app_env
        records, process = run_app(machine, catalog, FrontPageApp)
        wh = TraceWarehouse([machine.collector])
        sessions = [s for s in wh.instances
                    if s.pid % 10 ** 9 == process.pid and s.has_data
                    and not s.open_failed]
        assert sessions
        durations_ms = [s.session_duration / TICKS_PER_MILLISECOND
                        for s in sessions]
        # §8.1's FrontPage observation: handles held only milliseconds.
        assert np.median(durations_ms) < 50


class TestInstaller:
    def test_creates_package_tree(self, app_env):
        machine, catalog = app_env
        before = machine.perf.value("fs.files_created")
        run_app(machine, catalog, InstallerApp, bursts=1)
        created = machine.perf.value("fs.files_created") - before
        assert created >= 10  # a real package burst

    def test_backdates_creation_times(self, app_env):
        machine, catalog = app_env
        machine.clock.advance(10_000_000)  # 1 s into the trace
        run_app(machine, catalog, InstallerApp, bursts=1)
        vol = machine.drives["C"]
        backdated = [n for n in vol.walk()
                     if not n.is_directory and n.creation_time == 500]
        assert backdated, "installer should stamp medium creation times"

    def test_registers_dlls_in_catalog(self, app_env):
        machine, catalog = app_env
        n_dlls = len(catalog.dlls)
        run_app(machine, catalog, InstallerApp, bursts=1)
        assert len(catalog.dlls) > n_dlls


class TestActiveIntervals:
    def test_reported(self, small_warehouse):
        opens = analyze_opens(small_warehouse)
        # §8.1: at most ~24% of 1-second intervals carry open requests in
        # the paper; our compressed sessions are denser but still far
        # from saturated.
        assert 0 < opens.active_open_interval_pct <= 100

    def test_empty_is_nan(self):
        from repro.nt.tracing.collector import TraceCollector
        wh = TraceWarehouse([TraceCollector("e")])
        assert np.isnan(analyze_opens(wh).active_open_interval_pct)


class TestFunctionalLifetimes:
    def test_computed_from_snapshots(self, small_warehouse):
        content = analyze_content(small_warehouse)
        assert content.functional_lifetimes.size > 0
        assert np.all(content.functional_lifetimes >= 0)

    def test_accessed_files_have_positive_span(self, small_warehouse):
        content = analyze_content(small_warehouse)
        # Some files were read after their last write.
        assert (content.functional_lifetimes > 0).any()
