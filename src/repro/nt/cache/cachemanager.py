"""The cache manager proper: cache maps, the copy interface, purge/flush.

Caching happens at the logical file-block level (not disk blocks), through
mappings the VM manager pages in and out — so every cache miss and every
flush shows up in the trace as PagingIO-flagged requests on the same driver
stack, exactly the duplication the paper's §3.3 had to record and later
filter.  Files keep their cached pages after close (NT keeps the section),
which is what makes 60% of reads hit the cache across open sessions (§9).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, TYPE_CHECKING

from repro.common.clock import ticks_from_micros
from repro.common.flags import FileObjectFlags
from repro.common.status import NtStatus
from repro.nt.cache.readahead import ReadAheadPredictor
from repro.nt.fs.nodes import FileNode
from repro.nt.io.fileobject import FileObject

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.nt.system import Machine

PAGE_SIZE = 4096

# Standard read-ahead granularity, and the 65 KB boost FAT/NTFS apply "in
# many cases" (§9.1) — here: whenever the file is bigger than one page.
DEFAULT_READ_AHEAD = 4096
BOOSTED_READ_AHEAD = 65536

# Copy-interface CPU cost: fixed overhead plus a per-page memcpy charge,
# calibrated for a 200 MHz P6-class machine.
_COPY_BASE_MICROS = 3.0
_COPY_PER_PAGE_MICROS = 9.0

# Gap between cleanup and the cache manager releasing its reference for a
# clean (no dirty data) file: the paper observes close following cleanup
# within a few microseconds in the read-cached case (§8.1).
_CLEAN_RELEASE_DELAY_MICROS = 5.0


def page_span(offset: int, length: int) -> range:
    """Pages covering the byte range [offset, offset+length)."""
    if length <= 0:
        return range(0)
    return range(offset // PAGE_SIZE, (offset + length - 1) // PAGE_SIZE + 1)


class PrivateCacheMap:
    """Per-file-object cache state: the read-ahead predictor lives here.

    Its existence on a file object is what tells the I/O manager the FastIO
    path can be attempted (§10).
    """

    __slots__ = ("predictor",)

    def __init__(self) -> None:
        self.predictor = ReadAheadPredictor()


class SharedCacheMap:
    """Per-file cache state: which pages are resident and which are dirty.

    Survives the last close — cached data stays until memory pressure or a
    purge — so re-opens hit the cache.
    """

    __slots__ = ("node", "owners", "paging_fo", "pages", "dirty", "ra_pages",
                 "read_ahead_granularity", "written_pending_eof",
                 "pending_close", "map_id")

    def __init__(self, node: FileNode, granularity: int,
                 map_id: int = 0) -> None:
        self.node = node
        # Sequential per-machine id, allocated by the cache manager.  Used
        # as the map's key in the page LRU: keying by id(self) would make
        # the key depend on process memory layout, and determinism demands
        # that nothing observable derives from object identity.
        self.map_id = map_id
        # File objects that currently have caching initialised, by fo_id.
        self.owners: dict[int, FileObject] = {}
        # The file object the VM manager uses for paging I/O on this file.
        self.paging_fo: Optional[FileObject] = None
        self.pages: set[int] = set()
        self.dirty: set[int] = set()
        # Pages brought in by asynchronous read-ahead that no copy read has
        # touched yet (perf instrumentation: issued-vs-consumed tracking).
        self.ra_pages: set[int] = set()
        self.read_ahead_granularity = granularity
        # True after a cached write until the cache manager has issued the
        # SetEndOfFile that §8.3 says always precedes the close.
        self.written_pending_eof = False
        # Set while the lazy writer owns the deferred flush-then-close.
        self.pending_close = False

    def dirty_runs(self, max_run_bytes: int = BOOSTED_READ_AHEAD
                   ) -> list[tuple[int, int]]:
        """Contiguous dirty ranges as (offset, length), capped per run."""
        runs: list[tuple[int, int]] = []
        max_pages = max(1, max_run_bytes // PAGE_SIZE)
        start = prev = None
        for page in sorted(self.dirty):
            if start is None:
                start = prev = page
                continue
            if page == prev + 1 and (page - start) < max_pages:
                prev = page
                continue
            runs.append((start * PAGE_SIZE, (prev - start + 1) * PAGE_SIZE))
            start = prev = page
        if start is not None:
            runs.append((start * PAGE_SIZE, (prev - start + 1) * PAGE_SIZE))
        return runs


class CacheManager:
    """Cc: the system-wide file cache with an LRU page budget."""

    def __init__(self, machine: "Machine", capacity_bytes: int) -> None:
        if capacity_bytes < PAGE_SIZE:
            raise ValueError("cache capacity must hold at least one page")
        self.machine = machine
        self.capacity_pages = capacity_bytes // PAGE_SIZE
        perf = machine.perf
        self._perf_hits = perf.counter("cc.copy_read.hits")
        self._perf_misses = perf.counter("cc.copy_read.misses")
        self._perf_writes = perf.counter("cc.copy_write.calls")
        self._perf_write_bytes = perf.counter("cc.copy_write.bytes")
        self._perf_ra_issued = perf.counter("cc.readahead.issued")
        self._perf_ra_pages = perf.counter("cc.readahead.pages")
        self._perf_ra_consumed = perf.counter("cc.readahead.pages_consumed")
        self._perf_flush_pages = perf.counter("cc.flush.pages")
        self._perf_evicted = perf.counter("cc.pages_evicted")
        self._perf_maps = perf.counter("cc.cache_maps_initialized")
        self._perf_past_eof = perf.counter("cc.reads_past_eof")
        # Dirty pages dropped unwritten (§6.3), by the path that drops them.
        self._perf_drop_cleanup = perf.counter("cc.dirty_discarded_on_cleanup")
        self._perf_drop_delete = perf.counter("cc.dirty_discarded_on_delete")
        self._perf_drop_truncate = perf.counter("cc.dirty_purged_on_truncate")
        self._perf_dirty_peak = perf.gauge("cc.dirty_pages_peak")
        # Resident pages, split NT-style (§3.3) into two recency lists
        # keyed by (map_id, page):
        #   * the *standby* list holds clean pages in LRU order — the only
        #     eviction candidates, shed from the cold end in O(1);
        #   * the *modified* list holds dirty pages, which are never
        #     evicted; when a flush cleans them they re-enter the standby
        #     list at the young end (the second chance NT's modified page
        #     writer gives freshly written pages).
        # The split keeps eviction from ever scanning past dirty pages —
        # the single-list rotation scan this replaces was the simulator's
        # dominant host cost under write-heavy workloads.
        self._standby: "OrderedDict[tuple[int, int], SharedCacheMap]" = \
            OrderedDict()
        self._modified: "OrderedDict[tuple[int, int], SharedCacheMap]" = \
            OrderedDict()
        # Allocator for SharedCacheMap.map_id (1-based, never reused).
        self._next_map_id = 1
        # Maps with dirty pages, for the lazy writer's scans.  A dict used
        # as an insertion-ordered set: SharedCacheMap hashes by identity,
        # so a real set would iterate in memory-address order and the lazy
        # writer's flush order would depend on the process's allocation
        # history — the simulation must be reproducible across processes.
        self.dirty_maps: dict[SharedCacheMap, None] = {}
        # Replay mode: treat every copy access as a cache hit and stage no
        # dirty pages.  The source trace already contains the paging IRPs
        # the cache generated the first time; the replay engine injects
        # them verbatim, so regenerating fault-ins, read-aheads, flushes or
        # the trailing SetEndOfFile would double-count them.
        self.assume_resident = False
        # What-if shadow cache: an LRU residency model fed from the
        # assume_resident copy paths.  It counts the hits and misses a
        # cache of ``_overlay_pages`` pages *would* have had against the
        # replayed access stream, without generating any paging I/O (which
        # would break the exact core-count reconciliation replay promises).
        # None = disabled; install_overlay() turns it on.
        self._overlay: Optional["OrderedDict[tuple[int, int], None]"] = None
        self._overlay_pages = 0
        self._perf_overlay_hits = perf.counter("cc.whatif.read_hits")
        self._perf_overlay_misses = perf.counter("cc.whatif.read_misses")
        self._perf_overlay_evicted = perf.counter("cc.whatif.pages_evicted")

    def install_overlay(self, capacity_bytes: Optional[int] = None) -> None:
        """Enable the what-if shadow cache (replay grid cells).

        ``capacity_bytes`` defaults to this cache's own capacity; the
        whatif sweep sizes the machine's cache per grid cell and installs
        the overlay at that same size.
        """
        pages = (capacity_bytes // PAGE_SIZE if capacity_bytes is not None
                 else self.capacity_pages)
        if pages < 1:
            raise ValueError("overlay capacity must hold at least one page")
        self._overlay = OrderedDict()
        self._overlay_pages = pages

    def _overlay_access(self, map_id: int, pages, write: bool) -> None:
        """Run one copy access through the shadow cache's LRU model."""
        overlay = self._overlay
        missing = 0
        for page in pages:
            key = (map_id, page)
            if key in overlay:
                overlay.move_to_end(key)
            else:
                overlay[key] = None
                missing += 1
        if not write:
            # Hit/miss at copy-read granularity, mirroring cc.copy_read.*.
            (self._perf_overlay_misses if missing
             else self._perf_overlay_hits).add(1)
        evicted = 0
        while len(overlay) > self._overlay_pages:
            overlay.popitem(last=False)
            evicted += 1
        if evicted:
            self._perf_overlay_evicted.add(evicted)

    # ------------------------------------------------------------------ #
    # Cache map lifecycle.

    def initialize_cache_map(self, fo: FileObject) -> SharedCacheMap:
        """CcInitializeCacheMap: the FS calls this on the first read/write."""
        node = fo.node
        if node is None:
            raise ValueError("cannot cache a file object without a node")
        cmap = node.cache_map
        if cmap is None:
            granularity = (BOOSTED_READ_AHEAD if node.size > PAGE_SIZE
                           else DEFAULT_READ_AHEAD)
            cmap = SharedCacheMap(node, granularity, map_id=self._next_map_id)
            self._next_map_id += 1
            node.cache_map = cmap
        if fo.fo_id not in cmap.owners:
            cmap.owners[fo.fo_id] = fo
            fo.reference()  # Cc's reference; released at/after cleanup.
        cmap.paging_fo = fo
        fo.private_cache_map = PrivateCacheMap()
        fo.set_flag(FileObjectFlags.CACHE_SUPPORTED)
        self._perf_maps.add(1)
        return cmap

    def cleanup_file_object(self, fo: FileObject, process_id: int) -> None:
        """Handle IRP_MJ_CLEANUP: tear down the private map, release refs.

        Clean files release the Cc reference within microseconds, so the
        close IRP follows the cleanup almost immediately; files with dirty
        data are handed to the lazy writer, delaying the close by seconds
        (the two-stage close behaviour of §8.1).
        """
        fo.private_cache_map = None
        node = fo.node
        cmap = node.cache_map if node is not None else None
        if cmap is None or fo.fo_id not in cmap.owners:
            return
        del cmap.owners[fo.fo_id]
        machine = self.machine
        is_last_owner = not cmap.owners
        if is_last_owner and cmap.dirty and not node.is_temporary \
                and not node.delete_pending:
            cmap.pending_close = True
            machine.lazy_writer.request_close_flush(cmap, fo, process_id)
            return
        if not is_last_owner and cmap.paging_fo is fo:
            cmap.paging_fo = next(iter(cmap.owners.values()))
        if is_last_owner:
            if cmap.dirty:
                # Temporary or delete-pending file: unwritten data is
                # discarded rather than flushed (§6.3's persistency saving).
                self._perf_drop_cleanup.add(len(cmap.dirty))
                for page in sorted(cmap.dirty):
                    self._modified.pop((cmap.map_id, page), None)
                    cmap.pages.discard(page)
                cmap.dirty.clear()
                self.dirty_maps.pop(cmap, None)
            if cmap.written_pending_eof:
                machine.fs_services.issue_set_end_of_file(fo, node.size)
                cmap.written_pending_eof = False
        delay = ticks_from_micros(_CLEAN_RELEASE_DELAY_MICROS)
        machine.schedule(
            machine.clock.now + delay,
            lambda: machine.io.dereference_and_maybe_close(fo, process_id))

    # ------------------------------------------------------------------ #
    # Copy interface (where FastIO reads and writes land).

    def copy_read(self, fo: FileObject, offset: int, length: int
                  ) -> tuple[NtStatus, int, bool]:
        """CcCopyRead: satisfy a read from the cache, faulting misses in.

        Returns (status, bytes returned, hit).  A miss triggers a
        *synchronous* fault-in, rounded up to the read-ahead granularity —
        the single prefetch that §9 reports was sufficient for 92% of
        open-for-read sessions.  A detected sequential run triggers an
        *asynchronous* read-ahead beyond the request.
        """
        node = fo.node
        cmap = node.cache_map
        if cmap is None:
            raise RuntimeError("copy_read before cache map initialisation")
        machine = self.machine
        if offset >= node.size:
            self._perf_past_eof.add(1)
            return NtStatus.END_OF_FILE, 0, True
        returned = min(length, node.size - offset)
        pages = page_span(offset, returned)
        machine.charge_cpu(
            _COPY_BASE_MICROS + _COPY_PER_PAGE_MICROS * len(pages))
        if self.assume_resident:
            self._perf_hits.add(1)
            if self._overlay is not None:
                self._overlay_access(cmap.map_id, pages, write=False)
            return NtStatus.SUCCESS, returned, True
        missing = [p for p in pages if p not in cmap.pages]
        hit = not missing
        (self._perf_hits if hit else self._perf_misses).add(1)
        if cmap.ra_pages:
            consumed = cmap.ra_pages.intersection(pages)
            if consumed:
                cmap.ra_pages.difference_update(consumed)
                self._perf_ra_consumed.add(len(consumed))
        granularity = cmap.read_ahead_granularity
        if fo.has_flag(FileObjectFlags.SEQUENTIAL_ONLY):
            granularity *= 2  # §9.1: sequential-only doubles read-ahead.
        if missing:
            fault_start = missing[0] * PAGE_SIZE
            want_end = max(offset + returned, fault_start + granularity)
            fault_end = min(self._page_ceil(want_end),
                            self._page_ceil(node.size))
            machine.mm.page_in(cmap, fault_start, fault_end - fault_start,
                               background=False)
            self._mark_resident(cmap, fault_start, fault_end - fault_start)
        trigger = fo.private_cache_map.predictor.observe(offset, returned)
        if trigger:
            self._issue_read_ahead(cmap, fo, granularity)
        status = NtStatus.SUCCESS
        return status, returned, hit

    def copy_write(self, fo: FileObject, offset: int, length: int
                   ) -> tuple[NtStatus, int]:
        """CcCopyWrite: stage a write in the cache as dirty pages.

        Partial-page writes over existing valid data fault the page in
        first; pure appends allocate pages without reading.  The lazy
        writer carries the data to disk later (§9.2).
        """
        node = fo.node
        cmap = node.cache_map
        if cmap is None:
            raise RuntimeError("copy_write before cache map initialisation")
        machine = self.machine
        if length <= 0:
            return NtStatus.SUCCESS, 0
        pages = page_span(offset, length)
        machine.charge_cpu(
            _COPY_BASE_MICROS + _COPY_PER_PAGE_MICROS * len(pages))
        if self.assume_resident:
            node.valid_data_length = max(node.valid_data_length,
                                         offset + length)
            self._perf_writes.add(1)
            self._perf_write_bytes.add(length)
            if self._overlay is not None:
                self._overlay_access(cmap.map_id, pages, write=True)
            return NtStatus.SUCCESS, length
        # Fault in boundary pages that hold pre-existing data the write
        # does not fully cover.
        for boundary, is_start in ((pages[0], True), (pages[-1], False)):
            if boundary in cmap.pages:
                continue
            page_start = boundary * PAGE_SIZE
            covers_fully = (offset <= page_start
                            and offset + length >= page_start + PAGE_SIZE)
            has_old_data = page_start < node.valid_data_length
            if has_old_data and not covers_fully:
                machine.mm.page_in(cmap, page_start, PAGE_SIZE,
                                   background=False)
                self._mark_resident(cmap, page_start, PAGE_SIZE)
        standby = self._standby
        modified = self._modified
        map_id = cmap.map_id
        pages_set = cmap.pages
        dirty = cmap.dirty
        for page in pages:
            key = (map_id, page)
            pages_set.add(page)
            dirty.add(page)
            standby.pop(key, None)
            if key in modified:
                modified.move_to_end(key)
            else:
                modified[key] = cmap
        self.dirty_maps.setdefault(cmap)
        self._evict_if_needed()
        node.valid_data_length = max(node.valid_data_length, offset + length)
        cmap.written_pending_eof = True
        self._perf_writes.add(1)
        self._perf_write_bytes.add(length)
        if len(modified) > self._perf_dirty_peak.value:
            self._perf_dirty_peak.set(len(modified))
        return NtStatus.SUCCESS, length

    # ------------------------------------------------------------------ #
    # Flush / purge.

    def flush_file(self, node: FileNode, background: bool = False) -> int:
        """Write all dirty pages of a file to disk; returns pages flushed."""
        cmap = node.cache_map
        if cmap is None or not cmap.dirty:
            return 0
        flushed = 0
        for run_offset, run_length in cmap.dirty_runs():
            self.machine.mm.page_out(cmap, run_offset, run_length,
                                     background=background)
            flushed += len(page_span(run_offset, run_length))
        self.note_cleaned(cmap, sorted(cmap.dirty))
        self._perf_flush_pages.add(flushed)
        # Dirty pages pinned the cache above budget; now they are clean
        # the standby list can shed them.
        self._evict_if_needed()
        return flushed

    def flush_range(self, node: FileNode, offset: int, length: int) -> int:
        """Synchronously write dirty pages in a range (write-through)."""
        cmap = node.cache_map
        if cmap is None:
            return 0
        target = [p for p in page_span(offset, length) if p in cmap.dirty]
        if not target:
            return 0
        self.note_cleaned(cmap, target)
        self.machine.mm.page_out(cmap, target[0] * PAGE_SIZE,
                                 (target[-1] - target[0] + 1) * PAGE_SIZE,
                                 background=False)
        self._perf_flush_pages.add(len(target))
        self._evict_if_needed()
        return len(target)

    def purge(self, node: FileNode, new_size: int) -> int:
        """Drop cached pages beyond ``new_size`` (truncate / overwrite).

        Returns the number of *dirty* pages discarded — the paper found
        unwritten data still in the cache in 23% of overwrite cases (§6.3).
        """
        cmap = node.cache_map
        if cmap is None:
            return 0
        first_gone = self._page_ceil(new_size) // PAGE_SIZE
        doomed = [p for p in sorted(cmap.pages) if p >= first_gone]
        dirty_dropped = 0
        for page in doomed:
            cmap.pages.discard(page)
            cmap.ra_pages.discard(page)
            key = (cmap.map_id, page)
            if page in cmap.dirty:
                cmap.dirty.discard(page)
                dirty_dropped += 1
                self._modified.pop(key, None)
            else:
                self._standby.pop(key, None)
        if dirty_dropped:
            self._perf_drop_truncate.add(dirty_dropped)
        if not cmap.dirty:
            self.dirty_maps.pop(cmap, None)
        return dirty_dropped

    def discard(self, node: FileNode) -> int:
        """Drop the whole cache map (file deletion); returns dirty dropped."""
        cmap = node.cache_map
        if cmap is None:
            return 0
        dirty_dropped = len(cmap.dirty)
        for page in sorted(cmap.pages):
            key = (cmap.map_id, page)
            self._standby.pop(key, None)
            self._modified.pop(key, None)
        cmap.pages.clear()
        cmap.dirty.clear()
        cmap.ra_pages.clear()
        self.dirty_maps.pop(cmap, None)
        if dirty_dropped:
            self._perf_drop_delete.add(dirty_dropped)
        node.cache_map = None
        return dirty_dropped

    # ------------------------------------------------------------------ #
    # Internals.

    @staticmethod
    def _page_ceil(nbytes: int) -> int:
        return (nbytes + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)

    def _mark_resident(self, cmap: SharedCacheMap, offset: int,
                       length: int) -> None:
        standby = self._standby
        modified = self._modified
        map_id = cmap.map_id
        pages_set = cmap.pages
        dirty = cmap.dirty
        for page in page_span(offset, length):
            key = (map_id, page)
            pages_set.add(page)
            # A fault-in range rounded up to the read-ahead granularity can
            # cover pages that are already resident and dirty; those take
            # their recency on the modified list.
            if page in dirty:
                if key in modified:
                    modified.move_to_end(key)
                else:
                    modified[key] = cmap
            elif key in standby:
                standby.move_to_end(key)
            else:
                standby[key] = cmap
        self._evict_if_needed()

    def _issue_read_ahead(self, cmap: SharedCacheMap, fo: FileObject,
                          granularity: int) -> None:
        node = cmap.node
        ra_start = self._page_ceil(fo.private_cache_map.predictor.last_read_end)
        if ra_start >= node.size:
            return
        ra_end = min(ra_start + granularity, self._page_ceil(node.size))
        wanted = [p for p in page_span(ra_start, ra_end - ra_start)
                  if p not in cmap.pages]
        if not wanted:
            return
        # Asynchronous: the application is not waiting for this data.
        # The span scope re-attributes the induced paging I/O from the
        # requesting read to the read-ahead predictor.
        spans = self.machine.spans
        span = spans.begin_read_ahead() if spans.enabled else None
        self.machine.mm.page_in(cmap, wanted[0] * PAGE_SIZE,
                                (wanted[-1] - wanted[0] + 1) * PAGE_SIZE,
                                background=True)
        if span is not None:
            spans.end(span)
        self._mark_resident(cmap, wanted[0] * PAGE_SIZE,
                            (wanted[-1] - wanted[0] + 1) * PAGE_SIZE)
        self._perf_ra_issued.add(1)
        self._perf_ra_pages.add(len(wanted))
        cmap.ra_pages.update(wanted)

    def note_cleaned(self, cmap: SharedCacheMap, pages) -> None:
        """Move flushed pages off the dirty set onto the standby list.

        The young-end placement is the second chance NT's modified page
        writer gives freshly written pages; callers pass ``pages`` in
        ascending page order so the placement is deterministic.
        """
        standby = self._standby
        modified = self._modified
        dirty = cmap.dirty
        map_id = cmap.map_id
        for page in pages:
            dirty.discard(page)
            key = (map_id, page)
            entry = modified.pop(key, None)
            if entry is not None:
                standby[key] = entry
        if not dirty:
            self.dirty_maps.pop(cmap, None)

    def _evict_if_needed(self) -> None:
        standby = self._standby
        excess = len(standby) + len(self._modified) - self.capacity_pages
        if excess <= 0 or not standby:
            # Dirty pages alone may pin the cache above budget; they are
            # never evicted (the lazy writer cleans them first).
            return
        evicted = 0
        popitem = standby.popitem
        while excess > 0 and standby:
            (_map_id, page), cmap = popitem(last=False)
            cmap.pages.discard(page)
            cmap.ra_pages.discard(page)
            excess -= 1
            evicted += 1
        self._perf_evicted.add(evicted)

    def shed_excess(self) -> None:
        """Evict down to budget (for callers that just cleaned pages)."""
        self._evict_if_needed()

    @property
    def resident_pages(self) -> int:
        """Pages currently held in the cache (for tests and introspection)."""
        return len(self._standby) + len(self._modified)
