"""Tests for the cache manager: copy interface, read-ahead, purge, LRU,
and cache-state invariants (property-based)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.flags import CreateDisposition, FileAccess
from repro.common.status import NtStatus
from repro.nt.cache.cachemanager import (
    BOOSTED_READ_AHEAD,
    DEFAULT_READ_AHEAD,
    PAGE_SIZE,
    page_span,
)
from repro.nt.cache.readahead import (
    ReadAheadPredictor,
    SEQUENTIAL_RUN_TRIGGER,
    fuzzy_sequential,
)
from repro.nt.system import Machine, MachineConfig
from repro.nt.fs.volume import Volume

from tests.conftest import make_file


class TestPageSpan:
    def test_single_page(self):
        assert list(page_span(0, 100)) == [0]

    def test_exact_page(self):
        assert list(page_span(0, PAGE_SIZE)) == [0]

    def test_straddling(self):
        assert list(page_span(PAGE_SIZE - 1, 2)) == [0, 1]

    def test_empty(self):
        assert list(page_span(100, 0)) == []

    @given(st.integers(min_value=0, max_value=1 << 30),
           st.integers(min_value=1, max_value=1 << 20))
    @settings(max_examples=50)
    def test_covers_endpoints(self, offset, length):
        pages = page_span(offset, length)
        assert pages[0] == offset // PAGE_SIZE
        assert pages[-1] == (offset + length - 1) // PAGE_SIZE


class TestFuzzySequential:
    def test_exact_continuation(self):
        assert fuzzy_sequential(4096, 4096)

    def test_small_gap_allowed(self):
        # The cache manager masks the lowest 7 bits (§9.1).
        assert fuzzy_sequential(4096, 4096 + 127)

    def test_large_gap_rejected(self):
        assert not fuzzy_sequential(4096, 4096 + 128)

    def test_backwards_rejected(self):
        assert not fuzzy_sequential(8192, 0)


class TestPredictor:
    def test_triggers_on_third_sequential(self):
        p = ReadAheadPredictor()
        assert not p.observe(0, 4096)
        assert not p.observe(4096, 4096)
        assert p.observe(8192, 4096)

    def test_random_access_never_triggers(self):
        p = ReadAheadPredictor()
        offsets = [0, 100_000, 50_000, 200_000, 10_000, 300_000]
        assert not any(p.observe(off, 4096) for off in offsets)

    def test_run_reset_on_jump(self):
        p = ReadAheadPredictor()
        p.observe(0, 4096)
        p.observe(4096, 4096)
        assert not p.observe(500_000, 4096)  # run resets
        assert not p.observe(504_096, 4096)
        assert p.observe(508_192, 4096)

    def test_trigger_constant(self):
        assert SEQUENTIAL_RUN_TRIGGER == 3


@pytest.fixture
def cached_file(machine, process, make_file_on):
    """An open, cache-initialised 256 KB file."""
    make_file_on(r"\data.bin", 256 * 1024)
    w = machine.win32
    _s, handle = w.create_file(
        process, r"C:\data.bin",
        access=FileAccess.GENERIC_READ | FileAccess.GENERIC_WRITE,
        disposition=CreateDisposition.OPEN)
    w.read_file(process, handle, 4096)
    fo = w.file_object(process, handle)
    return machine, process, handle, fo


class TestCopyRead:
    def test_granularity_boost_for_big_files(self, cached_file):
        _m, _p, _h, fo = cached_file
        assert fo.node.cache_map.read_ahead_granularity == BOOSTED_READ_AHEAD

    def test_small_file_default_granularity(self, machine, process,
                                            make_file_on):
        make_file_on(r"\tiny.txt", 512)
        w = machine.win32
        _s, h = w.create_file(process, r"C:\tiny.txt")
        w.read_file(process, h, 512)
        fo = w.file_object(process, h)
        assert fo.node.cache_map.read_ahead_granularity == DEFAULT_READ_AHEAD

    def test_prefetch_loads_granularity(self, cached_file):
        _m, _p, _h, fo = cached_file
        # The first 4 KB read prefetched a full 64 KB.
        expected = BOOSTED_READ_AHEAD // PAGE_SIZE
        assert len(fo.node.cache_map.pages) >= expected

    def test_sequential_reads_trigger_read_ahead(self, cached_file):
        machine, process, handle, fo = cached_file
        for _ in range(20):
            machine.win32.read_file(process, handle, 4096)
        assert machine.perf.value("cc.readahead.issued") >= 1

    def test_read_past_eof(self, cached_file):
        machine, process, handle, fo = cached_file
        status, got = machine.win32.read_file(process, handle, 4096,
                                              offset=10 << 20)
        assert status == NtStatus.END_OF_FILE

    def test_pages_subset_of_file(self, cached_file):
        machine, process, handle, fo = cached_file
        for offset in (0, 100_000, 200_000, 250_000):
            machine.win32.read_file(process, handle, 8192, offset=offset)
        cmap = fo.node.cache_map
        max_page = (fo.node.size + PAGE_SIZE - 1) // PAGE_SIZE
        assert all(0 <= p < max_page for p in cmap.pages)
        assert cmap.dirty <= cmap.pages


class TestCopyWrite:
    def test_append_needs_no_fault(self, machine, process):
        w = machine.win32
        _s, h = w.create_file(process, r"C:\log.bin",
                              access=FileAccess.GENERIC_WRITE,
                              disposition=CreateDisposition.CREATE)
        reads_before = machine.perf.value("mm.page_ins")
        for _ in range(8):
            w.write_file(process, h, 4096)
        assert machine.perf.value("mm.page_ins") == reads_before

    def test_partial_overwrite_faults_boundary(self, machine, process,
                                               make_file_on):
        make_file_on(r"\f.bin", 64 * 1024)
        w = machine.win32
        _s, h = w.create_file(process, r"C:\f.bin",
                              access=FileAccess.GENERIC_WRITE,
                              disposition=CreateDisposition.OPEN)
        reads_before = machine.perf.value("mm.page_ins")
        # A 100-byte write in the middle of existing data.
        w.write_file(process, h, 100, offset=10_000)
        assert machine.perf.value("mm.page_ins") > reads_before

    def test_valid_data_length_tracks_writes(self, cached_file):
        machine, process, handle, fo = cached_file
        end = fo.node.size
        machine.win32.write_file(process, handle, 4096, offset=end)
        assert fo.node.valid_data_length == end + 4096

    def test_dirty_registered_for_lazy_writer(self, cached_file):
        machine, process, handle, fo = cached_file
        machine.win32.write_file(process, handle, 4096, offset=0)
        assert fo.node.cache_map in machine.cc.dirty_maps


class TestPurgeAndDiscard:
    def test_purge_drops_beyond_size(self, cached_file):
        machine, _p, _h, fo = cached_file
        cmap = fo.node.cache_map
        assert any(p >= 4 for p in cmap.pages)
        machine.cc.purge(fo.node, 4 * PAGE_SIZE)
        assert all(p < 4 for p in cmap.pages)

    def test_purge_counts_dirty(self, cached_file):
        machine, process, handle, fo = cached_file
        machine.win32.write_file(process, handle, 4096, offset=100_000)
        dropped = machine.cc.purge(fo.node, 0)
        assert dropped >= 1
        assert machine.perf.value("cc.dirty_purged_on_truncate") >= 1

    def test_discard_clears_map(self, cached_file):
        machine, _p, _h, fo = cached_file
        machine.cc.discard(fo.node)
        assert fo.node.cache_map is None


class TestLruEviction:
    def test_eviction_under_pressure(self):
        config = MachineConfig(name="small", seed=1, memory_mb=64,
                               cache_memory_fraction=0.001)  # ~16 pages
        m = Machine(config)
        vol = Volume("C", capacity_bytes=1 << 30)
        m.mount("C", vol)
        make_file(vol, r"\big.bin", 4 << 20)
        p = m.create_process("t.exe")
        _s, h = m.win32.create_file(p, r"C:\big.bin")
        for i in range(30):
            m.win32.read_file(p, h, 4096, offset=i * 128 * 1024)
        assert m.perf.value("cc.pages_evicted") > 0
        assert m.cc.resident_pages <= m.cc.capacity_pages + 1

    def test_dirty_pages_not_evicted(self):
        config = MachineConfig(name="small", seed=1, memory_mb=64,
                               cache_memory_fraction=0.001)
        m = Machine(config)
        vol = Volume("C", capacity_bytes=1 << 30)
        m.mount("C", vol)
        p = m.create_process("t.exe")
        _s, h = m.win32.create_file(
            p, r"C:\d.bin", access=FileAccess.GENERIC_WRITE,
            disposition=CreateDisposition.CREATE)
        for _ in range(20):
            m.win32.write_file(p, h, 4096)
        fo = m.win32.file_object(p, h)
        # All dirty pages must still be present despite pressure.
        assert fo.node.cache_map.dirty <= fo.node.cache_map.pages

    def test_capacity_validation(self, machine):
        from repro.nt.cache.cachemanager import CacheManager
        with pytest.raises(ValueError):
            CacheManager(machine, capacity_bytes=100)
