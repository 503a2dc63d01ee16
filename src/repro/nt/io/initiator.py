"""The replay initiator: re-issues archived trace records as live requests.

Where the synthetic applications of :mod:`repro.workload.apps` *generate*
requests, the initiator *reconstructs* them: each archived
:class:`~repro.nt.tracing.records.TraceRecord` is inverted back into the
IRP or FastIO call that produced it and re-driven through the I/O manager
of a fresh machine, so the trace filter on the replay machine records a
second-generation trace that the fidelity analysis can diff against the
source.

Reconstruction rules (the interesting inversions):

* ``IRP_FSCTL_MOUNT_VOLUME`` records are *not* injected — the replay
  machine's own mount sequence regenerates them one-for-one, so the
  initiator only maps the archived file-object id onto the machine's
  long-lived volume handle.
* ``IRP_CREATE`` allocates a fresh file object named by the archived
  :class:`~repro.nt.tracing.records.NameRecord`.  When the source opened
  a path that does not exist on the replay volume (created before the
  snapshot horizon, or renamed during the source run — rename targets are
  not recorded), the node is pre-created untraced and counted.
* ``SET_INFORMATION`` records carry their argument in the record's
  ``length`` field (the filter logs ``set_size`` there) and the
  information class in ``info``; both are restored.
* ``CLEANUP``/``CLOSE`` are injected as raw IRPs with the bookkeeping the
  I/O manager's ``cleanup()`` would do applied manually — the handle
  reference is never dropped, so the replay machine cannot emit a
  spurious autonomous CLOSE on top of the injected one.
* PagingIO-flagged records are injected verbatim with their flags; the
  replay machine's cache runs in ``assume_resident`` mode and its lazy
  writer is quiesced, so the only paging traffic in the second-generation
  trace is the injected first-generation traffic.

Every record the initiator cannot re-issue is counted in the
:class:`ReplayOutcome` with a reason — never dropped silently — and every
re-issued record whose completion status or transfer count differs from
the archive is counted as a divergence.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional, TYPE_CHECKING

from repro.common.flags import (
    CreateDisposition,
    CreateOptions,
    FileAttributes,
    IrpFlags,
)
from repro.nt.fs.nodes import DirectoryNode, Node
from repro.nt.fs.path import split_path
from repro.nt.fs.volume import Volume
from repro.nt.io.fastio import FastIoOp
from repro.nt.io.fileobject import FileObject
from repro.nt.io.irp import Irp, IrpMajor
from repro.nt.tracing.collector import TraceCollector
from repro.nt.tracing.records import (
    TraceEventKind,
    TraceRecord,
    fastio_op_for_kind,
    irp_for_kind,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.nt.system import Machine

# NT severity convention: success and informational statuses are below
# 0xC0000000; archived status values are raw ints.
_STATUS_ERROR_FLOOR = 0xC0000000

# CreateResult.CREATED (repro.nt.fs.driver) — imported by value to avoid
# a cycle: the driver imports nothing from here, but keeping the io layer
# free of fs.driver imports preserves the existing layering.
_CREATE_RESULT_CREATED = 2

# FastIO ops that land in the cache manager's copy interface and need a
# cache map initialised before injection (the source machine initialised
# it on its first IRP-path transfer; replay order preserves that, but a
# divergence-tolerant replay forces it rather than dropping the record).
_FASTIO_DATA_OPS = frozenset({
    FastIoOp.CHECK_IF_POSSIBLE, FastIoOp.READ, FastIoOp.WRITE,
    FastIoOp.MDL_READ,
})
# FastIO ops whose handler declines when the file object has no node.
_FASTIO_NODE_OPS = frozenset({
    FastIoOp.QUERY_BASIC_INFO, FastIoOp.QUERY_STANDARD_INFO,
    FastIoOp.QUERY_NETWORK_OPEN_INFO, FastIoOp.QUERY_OPEN,
})


class ReplayOutcome:
    """Per-machine accounting of what replay did with each source record.

    Everything is a plain count keyed by event-kind name so the outcome
    serialises to JSON and crosses process boundaries untouched.
    """

    def __init__(self, machine_name: str, mode: str) -> None:
        self.machine_name = machine_name
        self.mode = mode
        self.source_records = 0
        # kind name -> records re-issued through the dispatch paths.
        self.injected: Counter = Counter()
        # kind name -> records regenerated by the machine itself (mounts).
        self.reconstructed: Counter = Counter()
        # kind name -> {reason -> count} for records that could not be
        # re-issued; the fidelity report surfaces these, never drops them.
        self.skipped: dict[str, Counter] = {}
        # kind name -> completions whose status differed from the archive.
        self.status_divergences: Counter = Counter()
        # kind name -> completions whose transfer count differed.
        self.returned_divergences: Counter = Counter()
        self.nodes_precreated = 0
        self.forced_bindings = 0

    # ------------------------------------------------------------------ #

    @property
    def replayed_records(self) -> int:
        return (sum(self.injected.values())
                + sum(self.reconstructed.values()))

    @property
    def skipped_records(self) -> int:
        return sum(sum(reasons.values()) for reasons in self.skipped.values())

    @property
    def total_divergences(self) -> int:
        return (sum(self.status_divergences.values())
                + sum(self.returned_divergences.values()))

    def skip(self, kind_name: str, reason: str) -> None:
        self.skipped.setdefault(kind_name, Counter())[reason] += 1

    def to_dict(self) -> dict:
        return {
            "machine_name": self.machine_name,
            "mode": self.mode,
            "source_records": self.source_records,
            "injected": dict(sorted(self.injected.items())),
            "reconstructed": dict(sorted(self.reconstructed.items())),
            "skipped": {kind: dict(sorted(reasons.items()))
                        for kind, reasons in sorted(self.skipped.items())},
            "status_divergences":
                dict(sorted(self.status_divergences.items())),
            "returned_divergences":
                dict(sorted(self.returned_divergences.items())),
            "nodes_precreated": self.nodes_precreated,
            "forced_bindings": self.forced_bindings,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ReplayOutcome":
        outcome = cls(payload["machine_name"], payload["mode"])
        outcome.source_records = payload["source_records"]
        outcome.injected = Counter(payload["injected"])
        outcome.reconstructed = Counter(payload["reconstructed"])
        outcome.skipped = {kind: Counter(reasons)
                           for kind, reasons in payload["skipped"].items()}
        outcome.status_divergences = Counter(payload["status_divergences"])
        outcome.returned_divergences = Counter(payload["returned_divergences"])
        outcome.nodes_precreated = payload["nodes_precreated"]
        outcome.forced_bindings = payload["forced_bindings"]
        return outcome


class ReplayInitiator:
    """Drives archived trace records through a replay machine's I/O paths."""

    def __init__(self, machine: "Machine", source: TraceCollector,
                 mode: str = "closed") -> None:
        self.machine = machine
        self.outcome = ReplayOutcome(source.machine_name, mode)
        # Source fo_id -> the replay machine's file object.
        self._fo_map: dict[int, FileObject] = {}
        # Source fo_id -> its name record (path + volume identity).
        self._names = {n.fo_id: n for n in source.name_records}
        self._volumes: dict[str, Volume] = {
            v.label: v for v in machine.io.volumes}
        perf = machine.perf
        self._perf_injected = perf.counter("replay.records_injected")
        self._perf_skipped = perf.counter("replay.records_skipped")
        self._perf_status_div = perf.counter("replay.status_divergences")
        self._perf_returned_div = perf.counter("replay.returned_divergences")
        self._perf_precreated = perf.counter("replay.nodes_precreated")
        self._perf_forced = perf.counter("replay.forced_bindings")

    # ------------------------------------------------------------------ #
    # Entry point.

    def inject(self, rec: TraceRecord) -> None:
        """Re-issue one archived record against the replay machine."""
        self.outcome.source_records += 1
        kind = TraceEventKind(rec.kind)
        if kind == TraceEventKind.IRP_FSCTL_MOUNT_VOLUME:
            self._map_mount(rec, kind)
            return
        if kind == TraceEventKind.IRP_CREATE:
            self._inject_create(rec, kind)
            return
        fo = self._fo_map.get(rec.fo_id)
        if fo is None:
            self._skip(kind, "no file object mapping")
            return
        if kind.is_fastio:
            self._inject_fastio(rec, kind, fo)
        else:
            self._inject_irp(rec, kind, fo)

    # ------------------------------------------------------------------ #
    # Per-shape injection.

    def _map_mount(self, rec: TraceRecord, kind: TraceEventKind) -> None:
        """Mount records are regenerated by Machine.mount, not injected."""
        name = self._names.get(rec.fo_id)
        volume = self._volumes.get(name.volume_label) if name else None
        if volume is None:
            self._skip(kind, "unknown volume")
            return
        self._fo_map[rec.fo_id] = self.machine.volume_handle(volume)
        self.outcome.reconstructed[kind.name] += 1

    def _inject_create(self, rec: TraceRecord, kind: TraceEventKind) -> None:
        name = self._names.get(rec.fo_id)
        if name is None:
            self._skip(kind, "no name record")
            return
        volume = self._volumes.get(name.volume_label)
        if volume is None:
            self._skip(kind, "unknown volume")
            return
        machine = self.machine
        source_ok = rec.status < _STATUS_ERROR_FLOOR
        if (source_ok and rec.returned != _CREATE_RESULT_CREATED
                and volume.resolve(name.path) is None):
            # The source opened a node this tree lacks: born before the
            # snapshot, or re-opened under a name a (unrecorded) rename
            # produced.  Pre-create it untraced so the open replays.
            self._precreate(volume, name.path, rec)
        fo = machine.io.allocate_file_object(name.path, volume, rec.pid)
        self._fo_map[rec.fo_id] = fo
        irp = Irp(IrpMajor.CREATE, fo, rec.pid, flags=IrpFlags(rec.irp_flags))
        irp.create_path = name.path
        irp.create_disposition = CreateDisposition(rec.disposition)
        irp.create_options = CreateOptions(rec.options)
        irp.create_attributes = FileAttributes(rec.attributes)
        machine.io.send_irp(irp)
        self._finish(kind, rec, int(irp.status), irp.returned)

    def _inject_irp(self, rec: TraceRecord, kind: TraceEventKind,
                    fo: FileObject) -> None:
        machine = self.machine
        major, minor = irp_for_kind(kind)
        irp = Irp(major, fo, rec.pid, minor=minor,
                  flags=IrpFlags(rec.irp_flags))
        if major in (IrpMajor.READ, IrpMajor.WRITE, IrpMajor.LOCK_CONTROL):
            irp.offset = rec.offset
            irp.length = rec.length
            self._ensure_node(fo, rec, want_directory=False)
        elif major == IrpMajor.SET_INFORMATION:
            # The filter records set_size in the length field and the
            # information class in info; invert both.
            irp.information_class = rec.info
            irp.set_size = rec.length
            self._ensure_node(fo, rec, want_directory=False)
        elif major == IrpMajor.QUERY_INFORMATION:
            irp.information_class = rec.info
            self._ensure_node(fo, rec, want_directory=False)
        elif major == IrpMajor.DIRECTORY_CONTROL:
            irp.length = rec.length
            irp.control_code = rec.info
            self._ensure_node(fo, rec, want_directory=True)
        elif major == IrpMajor.FILE_SYSTEM_CONTROL:
            irp.control_code = rec.info
        elif major == IrpMajor.FLUSH_BUFFERS:
            self._ensure_node(fo, rec, want_directory=False)
        machine.io.send_irp(irp)
        if major == IrpMajor.CLEANUP:
            # The I/O manager's cleanup() would also drop the handle
            # reference; replay must not, or the scheduled Cc release
            # would drive the count to zero and emit an autonomous CLOSE
            # on top of the injected one.
            fo.cleanup_done = True
        elif major == IrpMajor.CLOSE:
            fo.closed = True
        self._finish(kind, rec, int(irp.status), irp.returned)

    def _inject_fastio(self, rec: TraceRecord, kind: TraceEventKind,
                       fo: FileObject) -> None:
        machine = self.machine
        op = fastio_op_for_kind(kind)
        if op in _FASTIO_DATA_OPS:
            # The handler declines (and the record would be silently
            # dropped) without a node and a cache map; force both.
            if not self._ensure_node(fo, rec, want_directory=False):
                self._skip(kind, "unresolvable file object")
                return
            if fo.node.is_directory:
                self._skip(kind, "directory file object")
                return
            if fo.private_cache_map is None:
                machine.cc.initialize_cache_map(fo)
        elif op in _FASTIO_NODE_OPS:
            if not self._ensure_node(fo, rec, want_directory=False):
                self._skip(kind, "unresolvable file object")
                return
        irp_like = Irp(
            IrpMajor.WRITE if op == FastIoOp.WRITE else IrpMajor.READ,
            fo, rec.pid, offset=rec.offset, length=rec.length)
        result = machine.io.try_fastio(op, irp_like)
        if not result.handled:
            # Declined at replay: the filter never records declined calls,
            # so this source record has no second-generation counterpart.
            self._skip(kind, "declined at replay")
            return
        self._finish(kind, rec, int(result.status), result.returned)

    # ------------------------------------------------------------------ #
    # Node reconstruction.

    def _precreate(self, volume: Volume, path: str,
                   rec: TraceRecord) -> None:
        """Create the node (and parent chain) an archived open expects."""
        node = self._build_node(
            volume, path,
            want_directory=bool(rec.options & CreateOptions.DIRECTORY_FILE),
            size=rec.file_size)
        if node is not None:
            self.outcome.nodes_precreated += 1
            self._perf_precreated.add(1)

    def _build_node(self, volume: Volume, path: str, want_directory: bool,
                    size: int) -> Optional[Node]:
        parts = split_path(path)
        if not parts:
            return None
        now = self.machine.clock.now
        parent: Node = volume.root
        for component in parts[:-1]:
            if not isinstance(parent, DirectoryNode):
                return None
            child = parent.lookup(component)
            if child is None:
                child = volume.create_directory(
                    parent, component, FileAttributes.DIRECTORY, now)
            parent = child
        if not isinstance(parent, DirectoryNode):
            return None
        leaf = parts[-1]
        if parent.lookup(leaf) is not None:
            return parent.lookup(leaf)
        if want_directory:
            return volume.create_directory(
                parent, leaf, FileAttributes.DIRECTORY, now)
        node = volume.create_file(parent, leaf, FileAttributes.NORMAL, now)
        if size > 0:
            volume.set_file_size(node, size, now)
            node.valid_data_length = size
        return node

    def _ensure_node(self, fo: FileObject, rec: TraceRecord,
                     want_directory: bool) -> bool:
        """Bind a node to a file object whose replay create failed.

        The IRP handlers complete node-less requests with an error status
        (still recorded), but FastIO handlers *decline* them, dropping the
        record — so data operations force a binding and count it.
        """
        if fo.node is not None:
            return True
        node = fo.volume.resolve(fo.path)
        if node is None:
            node = self._build_node(fo.volume, fo.path, want_directory,
                                    size=rec.file_size)
        if node is None:
            return False
        fo.node = node
        fo.is_directory_open = node.is_directory
        self.outcome.forced_bindings += 1
        self._perf_forced.add(1)
        return True

    # ------------------------------------------------------------------ #
    # Accounting.

    def _skip(self, kind: TraceEventKind, reason: str) -> None:
        self.outcome.skip(kind.name, reason)
        self._perf_skipped.add(1)

    def _finish(self, kind: TraceEventKind, rec: TraceRecord,
                status: int, returned: int) -> None:
        self.outcome.injected[kind.name] += 1
        self._perf_injected.add(1)
        if status != rec.status:
            self.outcome.status_divergences[kind.name] += 1
            self._perf_status_div.add(1)
        if returned != rec.returned:
            self.outcome.returned_divergences[kind.name] += 1
            self._perf_returned_div.add(1)
