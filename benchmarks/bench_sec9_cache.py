"""§9 — cache manager: read-ahead and write-behind effectiveness."""

import numpy as np

from repro.analysis.cache import analyze_cache

from benchmarks.conftest import print_header, print_row


def test_sec9_cache(benchmark, study, warehouse):
    cache = benchmark(analyze_cache, warehouse, study.perf)
    print_header("Section 9: the cache manager")
    print_row("reads served from the cache", "60%",
              f"{cache.read_cache_hit_pct:.0f}%")
    print_row("open-for-read needing one prefetch", "92%",
              f"{cache.single_prefetch_sufficient_pct:.0f}%")
    print_row("read sessions with a single IO", "31%",
              f"{cache.single_read_session_pct:.0f}%")
    print_row("multi-read sequential reads < 4 KB", "40%",
              f"{cache.reads_under_4k_pct:.0f}%")
    print_row("multi-read sequential reads < 64 KB", "92%",
              f"{cache.reads_under_64k_pct:.0f}%")
    print_row("sequential-only flag on seq reads", "5%",
              f"{cache.sequential_only_of_seq_reads_pct:.1f}%")
    print_row("  of those, file < read-ahead unit", "99%",
              f"{cache.seq_only_smaller_than_readahead_pct:.0f}%")
    print_row("read caching disabled at open", "0.2%",
              f"{cache.read_cache_disabled_pct:.2f}%")
    print_row("write caching disabled/through", "1.4%",
              f"{cache.write_cache_disabled_pct:.1f}%")
    print_row("uncached opens from system processes", "76%",
              f"{cache.uncached_from_system_pct:.0f}%")
    print_row("writers using explicit flushes", "4%",
              f"{cache.flush_user_pct:.1f}%")
    print_row("  of those, flush after every write", "87%",
              f"{cache.flush_after_each_write_pct:.0f}%")
    if cache.lazy_write_burst_sizes.size:
        bursts = cache.lazy_write_burst_sizes
        print_row("lazy-write burst size (median)", "2-8 requests",
                  f"{np.median(bursts):.0f}")
        print_row("lazy-write request size max", "<= 64 KB",
                  f"{cache.lazy_write_sizes.max() / 1024:.0f} KB")

    # Shape assertions.
    assert cache.single_prefetch_sufficient_pct > 75
    assert cache.read_cache_disabled_pct < 5
    assert cache.lazy_write_sizes.size == 0 or \
        cache.lazy_write_sizes.max() <= 65536
    if not np.isnan(cache.flush_after_each_write_pct):
        assert cache.flush_after_each_write_pct > 50
