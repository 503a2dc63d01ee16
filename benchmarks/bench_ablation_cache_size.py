"""Ablation — file-cache size versus the paper's 60% hit ratio (§9).

The paper's machines served 60% of read requests from the cache.  This
bench sweeps the cache budget on the same seeded workload: the hit ratio
must rise monotonically with cache size and the eviction count fall — the
"limited resource systems" tuning problem §7 point 2 warns about, under a
heavy-tailed request stream.
"""

import numpy as np

from repro.nt.fs.volume import Volume
from repro.nt.system import Machine, MachineConfig
from repro.workload.apps import AppContext, MailApp, WebBrowserApp
from repro.workload.content import build_system_volume

from benchmarks.conftest import print_header, print_row


def _run(cache_fraction: float) -> tuple[float, int]:
    machine = Machine(MachineConfig(name="cs", seed=13, memory_mb=64,
                                    cache_memory_fraction=cache_fraction))
    volume = Volume("C", capacity_bytes=8 << 30)
    catalog = build_system_volume(volume, machine.rng, scale=0.08)
    machine.mount("C", volume)
    for cls in (MailApp, WebBrowserApp):
        process = machine.create_process(cls.name, cls.interactive)
        ctx = AppContext(machine=machine, process=process, catalog=catalog,
                         rng=machine.rng)
        app = cls(ctx)
        app.on_start()
        for _ in range(6):
            if app.step() is None:
                break
        app.on_exit()
    hits = machine.perf.value("cc.copy_read.hits")
    misses = machine.perf.value("cc.copy_read.misses")
    ratio = 100.0 * hits / max(1, hits + misses)
    return ratio, machine.perf.value("cc.pages_evicted")


def test_ablation_cache_size(benchmark):
    fractions = (0.005, 0.02, 0.10, 0.40)
    results = {}
    results[fractions[-1]] = benchmark(_run, fractions[-1])
    for fraction in fractions[:-1]:
        results[fraction] = _run(fraction)
    print_header("Ablation: cache size vs hit ratio (§9)")
    for fraction in fractions:
        ratio, evictions = results[fraction]
        print_row(f"cache = {64 * fraction:5.1f} MB", "60% at 1998 sizing",
                  f"hit {ratio:.1f}%, evictions {evictions}")
    ratios = [results[f][0] for f in fractions]
    evictions = [results[f][1] for f in fractions]
    # Monotone shape: more cache, more hits, fewer evictions.
    assert ratios[-1] >= ratios[0]
    assert evictions[0] >= evictions[-1]
