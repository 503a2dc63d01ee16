"""The layer bins of the traced run, and the public calls that feed them.

Each bin lists the public functions or methods whose calls it times, as
``module:function``, ``module:Class.method``, ``module:Class.*`` (every
public method the class defines) or ``module:Class+.method`` (the class
and every subclass that overrides the method).  See ``tracer.resolve``.

``FileSystemDriver.dispatch`` / ``fastio`` are deliberately absent.
``TraceFilterDriver.bind_fast_path`` binds the leaf's handler tables and
calls them directly, and only while the leaf's ``dispatch``/``fastio``
are the base-class functions.  A wrapper on them would either see none of
the local-volume traffic or, put anywhere but on ``FileSystemDriver``
itself, fail that identity check and move the traced run onto the classic
forwarding path: a different program.  File-system work is timed through
the trace filter above it instead: ``nt.fs`` self time is the FSD
handlers plus the filter's record staging.
"""

from __future__ import annotations

BINS = [
    ("workload.build", [
        "repro.workload.users:build_machine",
        "repro.workload.content:build_user_share",
    ]),
    ("workload.apps", [
        "repro.workload.apps:AppModel+.step",
        "repro.workload.apps:AppModel+.on_start",
        "repro.workload.apps:AppModel+.on_exit",
    ]),
    # Self time: the timer heap and the callbacks no other bin claims.
    ("nt.system", [
        "repro.nt.system:Machine.run_until",
        "repro.nt.system:Machine.finish_tracing",
    ]),
    ("nt.win32", [
        "repro.nt.win32:Win32Api.*",
    ]),
    ("nt.io", [
        "repro.nt.io.iomanager:IoManager.send_irp",
        "repro.nt.io.iomanager:IoManager.try_fastio",
        "repro.nt.io.iomanager:IoManager.read",
        "repro.nt.io.iomanager:IoManager.write",
        "repro.nt.io.iomanager:IoManager.cleanup",
    ]),
    ("nt.fs", [
        "repro.nt.tracing.driver:TraceFilterDriver.dispatch",
        "repro.nt.tracing.driver:TraceFilterDriver.fastio",
    ]),
    ("nt.cache", [
        "repro.nt.cache.cachemanager:CacheManager.*",
        "repro.nt.cache.lazywriter:LazyWriter.scan",
    ]),
    ("nt.mm", [
        "repro.nt.mm.vmmanager:VmManager.page_in",
        "repro.nt.mm.vmmanager:VmManager.page_out",
        "repro.nt.mm.vmmanager:VmManager.map_image",
        "repro.nt.mm.vmmanager:VmManager.fault_view",
    ]),
    ("nt.net", [
        "repro.nt.net.redirector:RedirectorDriver.dispatch",
        "repro.nt.net.redirector:RedirectorDriver.fastio",
    ]),
    ("nt.storage", [
        "repro.nt.storage.driver:StorageDriver.dispatch",
    ]),
    ("nt.snapshot", [
        "repro.nt.system:Machine.take_snapshots",
    ]),
    # Staged array('q') blocks turned into TraceRecord dataclasses.
    ("nt.records", [
        "repro.nt.tracing.fastbuf:records_from_block",
    ]),
    ("nt.store", [
        "repro.nt.tracing.store:load_collector",
        "repro.nt.tracing.store:load_study",
        "repro.nt.tracing.store:iter_trace_records",
    ]),
    ("replay", [
        "repro.replay.engine:build_replay_machine",
        "repro.nt.io.initiator:ReplayInitiator.inject",
    ]),
    ("analysis.streaming", [
        "repro.analysis.streaming:fold_collector",
    ]),
    ("analysis.fidelity", [
        "repro.analysis.fidelity:fidelity_report",
    ]),
    ("analysis.attribution", [
        "repro.analysis.attribution:critical_path_table",
    ]),
    ("analysis.warehouse", [
        "repro.analysis.warehouse:TraceWarehouse.__init__",
    ]),
    ("analysis.sessions", [
        "repro.analysis.sessions:build_instances",
    ]),
    ("analysis.tables", [
        "repro.analysis.report:summarize_observations",
        "repro.analysis.activity:user_activity_table",
        "repro.analysis.patterns:access_pattern_table",
        "repro.analysis.categories:by_category",
    ]),
]

BIN_NAMES = [name for name, _targets in BINS]
