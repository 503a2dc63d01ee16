"""Ablation — the lazy writer's scan cadence (§9.2).

The lazy writer scans once per second, writing an eighth of each file's
dirty pages, and ages pending closes ~1.5 s.  This bench varies the scan
interval and measures what the paper's observations depend on it: the
cleanup-to-close gap for written files (1-4 s in the paper), and the
amount of data the temporary-file optimisation saves (§6.3: files deleted
before the writer gets to them never hit the disk).
"""

import numpy as np

import repro.nt.cache.lazywriter as lazywriter_module
from repro.common.clock import TICKS_PER_SECOND

from benchmarks.conftest import print_header, print_row, run_mini_study


def _run(scan_seconds: float, seed: int = 31):
    original = lazywriter_module.LAZY_WRITE_SCAN_INTERVAL_TICKS
    lazywriter_module.LAZY_WRITE_SCAN_INTERVAL_TICKS = \
        int(scan_seconds * TICKS_PER_SECOND)
    try:
        result, wh = run_mini_study(seed=seed, n_machines=1, seconds=45,
                                    scale=0.08)
        from repro.analysis.opens import analyze_opens
        opens = analyze_opens(wh)
        gap = (float(np.median(opens.close_gap_written))
               / TICKS_PER_SECOND if opens.close_gap_written.size
               else float("nan"))
        counters = next(iter(result.perf.values()))["counters"]
        never_written = (counters.get("cc.dirty_discarded_on_delete", 0)
                         + counters.get("cc.dirty_discarded_on_cleanup", 0))
        flushed = counters.get("cc.flush.pages", 0) \
            + counters.get("lw.pages_written", 0)
        return gap, never_written, flushed
    finally:
        lazywriter_module.LAZY_WRITE_SCAN_INTERVAL_TICKS = original


def test_ablation_lazy_writer_cadence(benchmark):
    gap_1s, saved_1s, flushed_1s = benchmark(_run, 1.0)
    gap_5s, saved_5s, flushed_5s = _run(5.0)
    print_header("Ablation: lazy-writer scan interval (§9.2)")
    print_row("close gap, 1 s scans", "1-4 s", f"{gap_1s:.2f} s")
    print_row("close gap, 5 s scans", "grows", f"{gap_5s:.2f} s")
    print_row("dirty pages never written, 1 s scans", "-", str(saved_1s))
    print_row("dirty pages never written, 5 s scans", "grows",
              str(saved_5s))
    print_row("pages flushed, 1 s scans", "-", str(flushed_1s))
    print_row("pages flushed, 5 s scans", "shrinks", str(flushed_5s))
    # Slower scans delay closes and widen the deletion-beats-write window.
    if not (np.isnan(gap_1s) or np.isnan(gap_5s)):
        assert gap_5s > gap_1s
    assert saved_5s >= saved_1s
