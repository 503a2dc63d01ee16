"""Ablation — the read-ahead granularity boost (§9.1).

The paper: FAT and NTFS boost read-ahead from the standard 4096 bytes to
65 KB in many cases, which is why 92% of open-for-read sessions needed
only a single prefetch.  This bench replays a fixed sequential-read
workload with and without the boost: without it, the prefetch count per
session multiplies and the single-prefetch share collapses.
"""

import numpy as np

import repro.nt.cache.cachemanager as cachemanager
from repro.nt.fs.volume import Volume
from repro.nt.system import Machine, MachineConfig
from repro.workload.content import build_system_volume

from benchmarks.conftest import print_header, print_row


def _run(boosted: bool) -> tuple[float, int]:
    original = cachemanager.BOOSTED_READ_AHEAD
    cachemanager.BOOSTED_READ_AHEAD = original if boosted else 4096
    try:
        machine = Machine(MachineConfig(name="ra", seed=9, memory_mb=96))
        volume = Volume("C", capacity_bytes=8 << 30)
        catalog = build_system_volume(volume, machine.rng, scale=0.08,
                                      developer=True)
        machine.mount("C", volume)
        process = machine.create_process("reader.exe")
        w = machine.win32
        rng = np.random.default_rng(3)
        sessions = 0
        single_prefetch = 0
        pool = catalog.documents + catalog.headers + catalog.dlls
        for _ in range(250):
            path = "C:" + catalog.pick(rng, pool, zipf_s=0.3)
            before = machine.perf.value("mm.page_ins")
            status, handle = w.create_file(process, path)
            if status.is_error:
                continue
            while True:
                status, got = w.read_file(process, handle, 4096)
                if status.is_error or got == 0:
                    break
            w.close_handle(process, handle)
            sessions += 1
            if machine.perf.value("mm.page_ins") - before <= 1:
                single_prefetch += 1
        share = 100.0 * single_prefetch / max(1, sessions)
        return share, machine.perf.value("mm.page_ins")
    finally:
        cachemanager.BOOSTED_READ_AHEAD = original


def test_ablation_readahead_boost(benchmark):
    boosted_share, boosted_faults = benchmark(_run, True)
    plain_share, plain_faults = _run(False)
    print_header("Ablation: 64 KB read-ahead boost vs 4 KB standard (§9.1)")
    print_row("single-prefetch sessions (64 KB boost)", "92%",
              f"{boosted_share:.0f}%")
    print_row("single-prefetch sessions (4 KB only)", "collapses",
              f"{plain_share:.0f}%")
    print_row("paging read IRPs (64 KB boost)", "-", str(boosted_faults))
    print_row("paging read IRPs (4 KB only)", "multiplies",
              str(plain_faults))
    assert boosted_share > plain_share + 10
    assert plain_faults > boosted_faults
