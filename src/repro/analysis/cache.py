"""Cache-manager analysis (§9): read-ahead and write-behind effectiveness.

Combines trace-derived measurements (prefetch sufficiency, single-read
sessions, lazy-write burst structure, flush behaviour, cache-option usage)
with the simulator's perf counters (hit ratio), exactly as the paper
combined trace analysis with targeted follow-up measurements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, TYPE_CHECKING

import numpy as np

from repro.common.clock import TICKS_PER_SECOND
from repro.common.flags import CreateOptions
from repro.nt.cache.cachemanager import BOOSTED_READ_AHEAD, PAGE_SIZE
from repro.nt.tracing.records import TraceEventKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.warehouse import TraceWarehouse


@dataclass
class CacheAnalysis:
    """The §9 measurements."""

    # Read caching.
    read_cache_hit_pct: float = float("nan")        # 60% in the paper
    single_prefetch_sufficient_pct: float = float("nan")   # 92%
    single_read_session_pct: float = float("nan")   # 31%
    reads_under_4k_pct: float = float("nan")        # 40%
    reads_under_64k_pct: float = float("nan")       # 92%
    # Sequential-only option usage (§9.1).
    sequential_only_of_seq_reads_pct: float = float("nan")  # 5%
    seq_only_smaller_than_readahead_pct: float = float("nan")  # 99%
    seq_only_smaller_than_page_pct: float = float("nan")    # 80%
    # Caching disabled (§9 / §9.2).
    read_cache_disabled_pct: float = float("nan")   # 0.2%
    write_cache_disabled_pct: float = float("nan")  # 1.4%
    uncached_from_system_pct: float = float("nan")  # 76%
    # Flush behaviour (§9.2).
    flush_user_pct: float = float("nan")            # 4%
    flush_after_each_write_pct: float = float("nan")  # 87%
    # Lazy-writer burst structure (§9.2: groups of 2–8 requests).
    lazy_write_burst_sizes: np.ndarray = field(
        default_factory=lambda: np.array([]))
    lazy_write_sizes: np.ndarray = field(default_factory=lambda: np.array([]))


def analyze_cache(wh: "TraceWarehouse",
                  perf: Optional[Mapping[str, Mapping]] = None
                  ) -> CacheAnalysis:
    """Compute §9's cache statistics; the hit ratio needs ``perf``, the
    study's per-machine perf snapshots (``StudyResult.perf``)."""
    result = CacheAnalysis()
    instances = [s for s in wh.instances if not s.open_failed]

    # Hit ratio from the copy-read perf counters when available.
    if perf:
        counters = [snap.get("counters", {}) for snap in perf.values()]
        hits = sum(c.get("cc.copy_read.hits", 0) for c in counters)
        misses = sum(c.get("cc.copy_read.misses", 0) for c in counters)
        if hits + misses:
            result.read_cache_hit_pct = 100.0 * hits / (hits + misses)

    # Prefetch sufficiency: open-for-read sessions needing <=1 paging read.
    read_sessions = [s for s in instances
                     if s.n_reads > 0 and not s.image_access]
    if read_sessions:
        sufficient = sum(1 for s in read_sessions
                         if s.n_paging_read_irps <= 1)
        result.single_prefetch_sufficient_pct = \
            100.0 * sufficient / len(read_sessions)
        single = sum(1 for s in read_sessions if s.n_reads == 1)
        result.single_read_session_pct = 100.0 * single / len(read_sessions)

    # Read request size structure among multi-read sequential sessions.
    seq_reads = [s for s in read_sessions
                 if s.n_reads > 1 and s.access_pattern() != "random"]
    if seq_reads:
        sizes = np.asarray([op.returned for s in seq_reads
                            for op in s.ops if op.is_read], dtype=float)
        if sizes.size:
            result.reads_under_4k_pct = 100.0 * float(np.mean(sizes < 4096))
            result.reads_under_64k_pct = 100.0 * float(np.mean(sizes < 65536))
        seq_only = [s for s in seq_reads
                    if s.options & CreateOptions.SEQUENTIAL_ONLY]
        result.sequential_only_of_seq_reads_pct = \
            100.0 * len(seq_only) / len(seq_reads)
        if seq_only:
            small_ra = sum(1 for s in seq_only
                           if s.file_size_max < BOOSTED_READ_AHEAD)
            small_page = sum(1 for s in seq_only
                             if s.file_size_max < PAGE_SIZE)
            result.seq_only_smaller_than_readahead_pct = \
                100.0 * small_ra / len(seq_only)
            result.seq_only_smaller_than_page_pct = \
                100.0 * small_page / len(seq_only)

    # Cache-disabled opens.
    data_sessions = [s for s in instances if s.has_data]
    if data_sessions:
        uncached = [s for s in data_sessions
                    if s.options & CreateOptions.NO_INTERMEDIATE_BUFFERING]
        rw_sessions = [s for s in data_sessions if s.n_reads > 0]
        if rw_sessions:
            result.read_cache_disabled_pct = 100.0 * sum(
                1 for s in rw_sessions
                if s.options & CreateOptions.NO_INTERMEDIATE_BUFFERING
            ) / len(rw_sessions)
        writers = [s for s in data_sessions if s.n_writes > 0]
        if writers:
            disabled = [s for s in writers
                        if (s.options & CreateOptions.NO_INTERMEDIATE_BUFFERING)
                        or (s.options & CreateOptions.WRITE_THROUGH)]
            result.write_cache_disabled_pct = \
                100.0 * len(disabled) / len(writers)
            flush_users = [s for s in writers if s.n_flushes > 0]
            result.flush_user_pct = 100.0 * len(flush_users) / len(writers)
            if flush_users:
                eager = sum(1 for s in flush_users
                            if s.n_flushes >= max(1, s.n_writes))
                result.flush_after_each_write_pct = \
                    100.0 * eager / len(flush_users)
        if uncached:
            system_like = sum(
                1 for s in uncached
                if s.process_name in ("system", "services.exe"))
            result.uncached_from_system_pct = \
                100.0 * system_like / len(uncached)

    # Lazy-writer burst structure: background paging writes grouped by
    # one-second scan windows per machine.
    paging_writes = (wh.mask_kind(TraceEventKind.IRP_WRITE)
                     & wh.mask_paging
                     & ((wh.irp_flags & 0x40) == 0))  # asynchronous only
    if paging_writes.any():
        t = wh.t_start[paging_writes]
        m = wh.machine_idx[paging_writes]
        sizes = wh.length[paging_writes]
        bursts: list[int] = []
        for machine in np.unique(m):
            times = np.sort(t[m == machine])
            window = np.floor_divide(times, TICKS_PER_SECOND)
            _, counts = np.unique(window, return_counts=True)
            bursts.extend(int(c) for c in counts)
        result.lazy_write_burst_sizes = np.asarray(bursts, dtype=float)
        result.lazy_write_sizes = sizes.astype(float)
    return result
