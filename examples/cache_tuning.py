"""Systems-engineering use case: explore cache-manager policies.

The paper argues (§7, §9) that cache design must be evaluated against
heavy-tailed request patterns, not Poisson/Normal assumptions.  This
example uses the simulator as a cache-policy workbench: a fixed seeded
workload is replayed against machines with different cache sizes and with
the read-ahead predictor's sequential trigger varied, and the resulting
hit ratios and read latencies are compared.

Run:  python examples/cache_tuning.py
"""

import numpy as np

import repro.nt.cache.readahead as readahead_module
from repro.common.flags import CreateDisposition, FileAccess
from repro.nt.fs.volume import Volume
from repro.nt.system import Machine, MachineConfig
from repro.workload.content import build_system_volume


def run_workload(cache_fraction: float, sequential_trigger: int) -> dict:
    """Replay a mixed sequential/random workload; return cache metrics."""
    original_trigger = readahead_module.SEQUENTIAL_RUN_TRIGGER
    readahead_module.SEQUENTIAL_RUN_TRIGGER = sequential_trigger
    try:
        machine = Machine(MachineConfig(
            name="tuning", seed=42, memory_mb=64,
            cache_memory_fraction=cache_fraction))
        volume = Volume("C", capacity_bytes=8 << 30)
        catalog = build_system_volume(volume, machine.rng, scale=0.1,
                                      developer=True)
        machine.mount("C", volume)
        process = machine.create_process("bench.exe")
        w = machine.win32
        rng = np.random.default_rng(7)

        latencies = []
        # Sequential whole-file reads over documents (read-ahead friendly).
        for _ in range(150):
            path = "C:" + catalog.pick(rng, catalog.documents)
            status, handle = w.create_file(process, path)
            if status.is_error:
                continue
            while True:
                t0 = machine.clock.now
                status, got = w.read_file(process, handle, 4096)
                if status.is_error or got == 0:
                    break
                latencies.append((machine.clock.now - t0) / 10.0)
            w.close_handle(process, handle)
        # Random reads over the mail files (read-ahead hostile).
        for _ in range(300):
            path = "C:" + catalog.pick(rng, catalog.mail_files)
            status, handle = w.create_file(process, path)
            if status.is_error:
                continue
            fo = w.file_object(process, handle)
            size = max(1, fo.node.size)
            for _ in range(8):
                t0 = machine.clock.now
                w.read_file(process, handle, 4096,
                            offset=int(rng.integers(0, size)))
                latencies.append((machine.clock.now - t0) / 10.0)
            w.close_handle(process, handle)

        perf = machine.perf
        hits = perf.value("cc.copy_read.hits")
        misses = perf.value("cc.copy_read.misses")
        return {
            "hit_pct": 100.0 * hits / max(1, hits + misses),
            "read_aheads": perf.value("cc.readahead.issued"),
            "evictions": perf.value("cc.pages_evicted"),
            "median_us": float(np.median(latencies)),
            "p90_us": float(np.percentile(latencies, 90)),
        }
    finally:
        readahead_module.SEQUENTIAL_RUN_TRIGGER = original_trigger


def main() -> None:
    print("cache size sweep (sequential trigger = 3):")
    print(f"  {'cache MB':>8} {'hit%':>6} {'readaheads':>10} "
          f"{'evictions':>9} {'median us':>10} {'p90 us':>8}")
    for fraction in (0.01, 0.05, 0.10, 0.25):
        m = run_workload(fraction, sequential_trigger=3)
        print(f"  {64 * fraction:8.1f} {m['hit_pct']:6.1f} "
              f"{m['read_aheads']:10d} {m['evictions']:9d} "
              f"{m['median_us']:10.1f} {m['p90_us']:8.0f}")

    print("\nread-ahead sequential-trigger sweep (cache = 10% of RAM):")
    print(f"  {'trigger':>8} {'hit%':>6} {'readaheads':>10} "
          f"{'median us':>10} {'p90 us':>8}")
    for trigger in (2, 3, 5, 10**9):
        m = run_workload(0.10, sequential_trigger=trigger)
        label = "off" if trigger > 100 else str(trigger)
        print(f"  {label:>8} {m['hit_pct']:6.1f} {m['read_aheads']:10d} "
              f"{m['median_us']:10.1f} {m['p90_us']:8.0f}")

    print("\n(larger caches lift hit ratio until the working set fits."
          "\n the trigger sweep barely moves the needle because most files"
          "\n fit inside the initial 64 KB prefetch — the paper's own"
          "\n finding that only 8% of read sequences needed more than one"
          "\n read-ahead action, §9.1)")


if __name__ == "__main__":
    main()
