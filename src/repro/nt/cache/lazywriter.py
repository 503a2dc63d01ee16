"""The lazy writer (§9.2).

Worker threads scan the cache every second and write a *portion* of the
dirty pages to disk — an eighth per scan, in bursts of contiguous runs of
up to 64 KB, which is exactly the burst signature the paper observed
("groups of 2–8 requests, with sizes of one or more pages up to 65 KB").
The lazy writer also owns the deferred close of written files: flush all
dirty data, issue the SetEndOfFile the paper saw before every such close
(§8.3), then release the cache manager's reference so the close IRP goes
down 1–4 seconds after the cleanup (§8.1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.clock import TICKS_PER_SECOND
from repro.nt.cache.cachemanager import SharedCacheMap, page_span
from repro.nt.flight.profiler import BIN_LAZY_WRITER
from repro.nt.io.fileobject import FileObject

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.nt.system import Machine

LAZY_WRITE_SCAN_INTERVAL_TICKS = TICKS_PER_SECOND

# Fraction of a file's dirty pages written per scan (1/8, as in NT).
_DIRTY_FRACTION_PER_SCAN = 8


class LazyWriter:
    """Periodic write-behind of dirty cache pages."""

    def __init__(self, machine: "Machine") -> None:
        self.machine = machine
        perf = machine.perf
        self._perf_scans = perf.counter("lw.scans")
        self._perf_flush_runs = perf.counter("lw.flush_runs")
        self._perf_pages = perf.counter("lw.pages_written")
        self._perf_bytes = perf.counter("lw.bytes_written")
        self._perf_deferred = perf.counter("lw.deferred_closes")
        # (cache map, file object to release, process id, enqueued time)
        # awaiting flush-then-close.  Entries age before they are flushed,
        # modelling NT's write-behind delay: the close follows the cleanup
        # by 1-4 seconds (§8.1), and files deleted in the meantime never
        # get written at all (§6.3's persistency saving).
        self._pending_close: list[
            tuple[SharedCacheMap, FileObject, int, int]] = []

    def start(self) -> None:
        """Schedule the first scan one interval from now."""
        self.machine.schedule(
            self.machine.clock.now + LAZY_WRITE_SCAN_INTERVAL_TICKS, self.scan)

    # Minimum age before a pending-close flush is performed.
    CLOSE_FLUSH_AGE_TICKS = TICKS_PER_SECOND * 3 // 2

    def request_close_flush(self, cmap: SharedCacheMap, fo: FileObject,
                            process_id: int) -> None:
        """Defer a close until the file's dirty data reaches disk."""
        self._pending_close.append((cmap, fo, process_id,
                                    self.machine.clock.now))

    # ------------------------------------------------------------------ #

    def scan(self) -> None:
        """One lazy-writer pass; reschedules itself."""
        machine = self.machine
        profiler = machine.profiler
        prof_on = profiler.enabled
        if prof_on:
            profiler.enter(BIN_LAZY_WRITER)
        try:
            self._perf_scans.add(1)
            self._complete_pending_closes()
            for cmap in list(machine.cc.dirty_maps):
                if cmap.pending_close or not cmap.dirty:
                    continue
                if cmap.node.is_temporary:
                    # The temporary attribute keeps the lazy writer's hands
                    # off the file's pages (§6.3).
                    continue
                if cmap.paging_fo is None or cmap.paging_fo.closed:
                    # No file object left to write through; data is stranded
                    # until a new open re-initialises caching.
                    continue
                self._write_portion(cmap)
        finally:
            if prof_on:
                profiler.exit()
        machine.schedule(machine.clock.now + LAZY_WRITE_SCAN_INTERVAL_TICKS,
                         self.scan)

    # ------------------------------------------------------------------ #

    def _complete_pending_closes(self) -> None:
        machine = self.machine
        now = machine.clock.now
        still_waiting = []
        pending, self._pending_close = self._pending_close, []
        for entry in pending:
            cmap, fo, process_id, enqueued_at = entry
            if now - enqueued_at < self.CLOSE_FLUSH_AGE_TICKS:
                still_waiting.append(entry)
                continue
            # Runs from the scan timer with no open span, so this scope
            # opens as a LAZY_WRITER-caused root: the flush, SetEndOfFile
            # and close all attribute to write-behind, not the user.
            spans = machine.spans
            span = spans.begin_lazy_writer() if spans.enabled else None
            deleted = cmap.node.parent is None  # unlinked while we waited
            if not deleted:
                machine.cc.flush_file(cmap.node, background=True)
                if cmap.written_pending_eof:
                    machine.fs_services.issue_set_end_of_file(
                        fo, cmap.node.size)
            cmap.written_pending_eof = False
            cmap.pending_close = False
            machine.io.dereference_and_maybe_close(fo, process_id)
            if span is not None:
                spans.end(span)
            self._perf_deferred.add(1)
        self._pending_close.extend(still_waiting)

    def _write_portion(self, cmap: SharedCacheMap) -> None:
        machine = self.machine
        spans = machine.spans
        span = spans.begin_lazy_writer() if spans.enabled else None
        quota = max(1, len(cmap.dirty) // _DIRTY_FRACTION_PER_SCAN)
        written = 0
        for run_offset, run_length in cmap.dirty_runs():
            if written >= quota:
                break
            pages = [p for p in page_span(run_offset, run_length)
                     if p in cmap.dirty]
            if not pages:
                continue
            machine.mm.page_out(cmap, run_offset, run_length, background=True)
            machine.cc.note_cleaned(cmap, pages)
            written += len(pages)
            self._perf_flush_runs.add(1)
            self._perf_bytes.add(run_length)
        machine.cc.shed_excess()
        if span is not None:
            spans.end(span)
        self._perf_pages.add(written)
