"""The VM manager (Mm).

Two system services lean on memory-mapped files (§3.3): executable and DLL
loading, and the cache manager, whose cache is a set of file mappings that
page-fault their data in.  Both produce IRPs with the PagingIO header bit
down the same driver stacks that regular requests use — which is why the
paper's trace driver recorded them all and filtered duplicates at analysis
time, and why this simulator does the same.

Image sections stay resident after their process exits (NT keeps code pages
for fast restart), which the paper calls out as the reason exec-based
accounting cannot just count exec() sizes.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING

from repro.common.flags import IrpFlags
from repro.common.status import NtStatus
from repro.nt.cache.cachemanager import PAGE_SIZE, SharedCacheMap
from repro.nt.io.fastio import FastIoOp
from repro.nt.io.fileobject import FileObject
from repro.nt.io.irp import Irp, IrpMajor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.nt.system import Machine

# Paging transfers are split into chunks of at most 64 KB, matching both NT
# and the burst sizes the paper reports for lazy-writer activity.
MAX_PAGING_TRANSFER = 65536

_FAULT_CPU_MICROS = 8.0


class VmManager:
    """Issues paging I/O and manages image-section residency."""

    def __init__(self, machine: "Machine", image_budget_bytes: int) -> None:
        self.machine = machine
        perf = machine.perf
        self._perf_page_ins = perf.counter("mm.page_ins")
        self._perf_page_outs = perf.counter("mm.page_outs")
        # Paging IRPs: the §3.3 duplicate requests the trace later filters.
        self._perf_paging_irps = perf.counter("mm.paging_irps")
        self._perf_paging_bytes = perf.counter("mm.paging_bytes")
        self._perf_image_cold = perf.counter("mm.image_cold_loads")
        self._perf_image_warm = perf.counter("mm.image_warm_loads")
        # Image paging reads, counted even when the read fails (a cold
        # load counts only once the image is resident).
        self._perf_image_page_ins = perf.counter("mm.image_page_ins")
        self._perf_images_evicted = perf.counter("mm.images_evicted")
        # Resident image sections: (volume label, lower path) -> size bytes.
        self._resident_images: "OrderedDict[tuple[str, str], int]" = OrderedDict()
        self._image_budget = image_budget_bytes
        self._image_bytes = 0

    # ------------------------------------------------------------------ #
    # Paging I/O on behalf of the cache manager.

    def page_in(self, cmap: SharedCacheMap, offset: int, length: int,
                background: bool) -> NtStatus:
        """Fault cached data in: paging READ IRPs down the stack."""
        fo = cmap.paging_fo
        if fo is None:
            raise RuntimeError("cache map has no paging file object")
        return self._paging_transfer(IrpMajor.READ, fo, offset, length,
                                     background)

    def page_out(self, cmap: SharedCacheMap, offset: int, length: int,
                 background: bool) -> NtStatus:
        """Write dirty cached data out: paging WRITE IRPs.

        Background (lazy-writer / mapped-page-writer) flushes bracket the
        transfer with the AcquireForModWrite / ReleaseForModWrite FastIO
        calls the file system requires for synchronisation.
        """
        fo = cmap.paging_fo
        if fo is None:
            raise RuntimeError("cache map has no paging file object")
        if background:
            self._mod_write_bracket(fo, FastIoOp.ACQUIRE_FOR_MOD_WRITE)
        status = self._paging_transfer(IrpMajor.WRITE, fo, offset, length,
                                       background)
        if background:
            self._mod_write_bracket(fo, FastIoOp.RELEASE_FOR_MOD_WRITE)
        return status

    # ------------------------------------------------------------------ #
    # Image sections (executables and DLLs).

    def is_image_resident(self, fo: FileObject) -> bool:
        """True when the image's code pages are still in memory."""
        return self._image_key(fo) in self._resident_images

    def map_image(self, fo: FileObject, process_id: int) -> NtStatus:
        """Create (or reuse) an image section for an executable or DLL.

        A cold image is paged in through SYNCHRONOUS_PAGING_IO reads of up
        to 64 KB; a resident one costs almost nothing — the fast-restart
        optimisation of §3.3.
        """
        self._fastio_notify(fo, FastIoOp.ACQUIRE_FILE_FOR_NT_CREATE_SECTION,
                            process_id)
        key = self._image_key(fo)
        node = fo.node
        if node is None:
            raise ValueError("cannot map an image without an opened node")
        if key in self._resident_images:
            self._resident_images.move_to_end(key)
            self._perf_image_warm.add(1)
        else:
            size = max(PAGE_SIZE, node.size)
            status = self._paging_transfer(
                IrpMajor.READ, fo, 0, size, background=False, image=True)
            if status.is_error:
                self._fastio_notify(
                    fo, FastIoOp.RELEASE_FILE_FOR_NT_CREATE_SECTION, process_id)
                return status
            self._resident_images[key] = size
            self._image_bytes += size
            self._evict_images_if_needed()
            self._perf_image_cold.add(1)
        self._fastio_notify(fo, FastIoOp.RELEASE_FILE_FOR_NT_CREATE_SECTION,
                            process_id)
        return NtStatus.SUCCESS

    def evict_image(self, volume_label: str, path: str) -> None:
        """Drop a resident image (file overwritten or deleted)."""
        key = (volume_label, path.lower())
        size = self._resident_images.pop(key, None)
        if size is not None:
            self._image_bytes -= size

    # ------------------------------------------------------------------ #
    # Data-file mapped views (scientific applications, §6.1).

    def fault_view(self, fo: FileObject, offset: int, length: int) -> NtStatus:
        """Demand-fault a region of a mapped data file (no cache map)."""
        return self._paging_transfer(IrpMajor.READ, fo, offset, length,
                                     background=False)

    # ------------------------------------------------------------------ #
    # Internals.

    def _paging_transfer(self, major: IrpMajor, fo: FileObject, offset: int,
                         length: int, background: bool,
                         image: bool = False) -> NtStatus:
        machine = self.machine
        flags = IrpFlags.PAGING_IO
        if not background:
            flags |= IrpFlags.SYNCHRONOUS_PAGING_IO
        machine.charge_cpu(_FAULT_CPU_MICROS)
        # Mm scope: user-initiated work reaching here becomes PAGING;
        # read-ahead / lazy-writer callers keep their cause.
        spans = machine.spans
        span = spans.begin_paging() if spans.enabled else None
        status = NtStatus.SUCCESS
        chunk_offset = offset
        end = offset + length
        while chunk_offset < end:
            chunk = min(MAX_PAGING_TRANSFER, end - chunk_offset)
            irp = Irp(major, fo, process_id=0, flags=flags,
                      offset=chunk_offset, length=chunk)
            status = machine.io.send_irp(irp, background=background)
            self._perf_paging_irps.add(1)
            self._perf_paging_bytes.add(chunk)
            if status.is_error:
                break
            chunk_offset += chunk
        if span is not None:
            spans.end(span, status)
        (self._perf_page_ins if major == IrpMajor.READ
         else self._perf_page_outs).add(1)
        if image:
            self._perf_image_page_ins.add(1)
        return status

    def _mod_write_bracket(self, fo: FileObject, op: FastIoOp) -> None:
        self._fastio_notify(fo, op, process_id=0)

    def _fastio_notify(self, fo: FileObject, op: FastIoOp,
                       process_id: int) -> None:
        irp_like = Irp(IrpMajor.DEVICE_CONTROL, fo, process_id)
        self.machine.io.try_fastio(op, irp_like)

    @staticmethod
    def _image_key(fo: FileObject) -> tuple[str, str]:
        return (fo.volume.label, fo.path.lower())

    def _evict_images_if_needed(self) -> None:
        while self._image_bytes > self._image_budget and len(self._resident_images) > 1:
            _, size = self._resident_images.popitem(last=False)
            self._image_bytes -= size
            self._perf_images_evicted.add(1)
