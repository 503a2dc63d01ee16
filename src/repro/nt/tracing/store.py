"""On-disk trace storage.

The paper's collection servers stored incoming event streams "in
compressed formats for later retrieval" and one of the study's goals was
a data collection available for public inspection.  This module gives the
simulated collectors the same property: a compact binary format (packed
little-endian records, zlib-compressed) that round-trips a
:class:`~repro.nt.tracing.collector.TraceCollector` through a single
file, so studies can be archived and re-analysed without re-simulation.

The record section is the collector's staged columnar blocks, packed
verbatim (:mod:`repro.nt.tracing.fastbuf`) and decoded back into one
staged block; records become :class:`TraceRecord` dataclasses only when
analysis asks.  The span section is packed and decoded the same way,
straight from and into the collector's staged span log.  Each section
has one reader, shared by the whole-file decoder and the streaming
readers, and damage raises ``ValueError`` naming the file: a truncated
or overlong payload, a record kind outside the 54 event kinds, or a span
log that breaks the tracer's invariants (unique span ids, each parent an
earlier span, a known cause).

The incremental reader itself — :func:`inflate` over compressed chunks,
:class:`PayloadReader` over what it yields, and :func:`read_str` — also
decodes the flight recorder's ``.ntmetrics`` sections
(:mod:`repro.nt.flight.log`), so both compressed formats share one
end-of-stream check and one file-naming UTF-8 decode.
"""

from __future__ import annotations

import io
import struct
import zlib
from array import array
from pathlib import Path
from typing import BinaryIO, Union

import numpy as np

from repro.nt.tracing.collector import TraceCollector
from repro.nt.tracing.fastbuf import (
    RECORD_FIELDS,
    RECORD_STRUCT,
    pack_block,
    unpack_block,
)
from repro.nt.tracing.records import (
    N_EVENT_KINDS,
    RECORD_COLUMNS,
    NameRecord,
    TraceRecord,
)
from repro.nt.tracing.snapshot import SnapshotRecord
from repro.nt.tracing.spans import (
    SPAN_FIELDS,
    SPAN_STRUCT,
    SpanCause,
    SpanRecord,
)

# Header layout: 7-byte magic prefix, one ASCII-digit format version byte,
# then a little-endian u64 payload length.  The original format spelled the
# whole 8 bytes "NTTRACE1"; treating the trailing digit as a version byte
# keeps every v1 archive readable while giving the format room to evolve:
# v2 added the version byte itself (payload unchanged), v3 appends the
# causal span log (repro.nt.tracing.spans) after the snapshot section.
# Writers emit v3 only when the collector actually holds spans, so a study
# run without ``--spans`` still produces byte-identical v2 archives.
_MAGIC_PREFIX = b"NTTRACE"
_HEADER_LEN = len(_MAGIC_PREFIX) + 1 + 8
STORE_FORMAT_VERSION = 3
_SPANLESS_FORMAT_VERSION = 2
SUPPORTED_FORMAT_VERSIONS = (1, 2, 3)
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_NAME = struct.Struct("<qq?q")  # fo_id, pid, volume_is_remote, t
_PROCESS = struct.Struct("<q?")  # pid, interactive
_SNAP = struct.Struct("<?5q3q")  # is_dir + size/time fields + counts/depth
# Compressed bytes fed to the inflater at a time.
INFLATE_CHUNK = 1 << 16
# Trace records decoded per read when streaming a record section.
_STREAM_BATCH = 1 << 12
_KIND = RECORD_COLUMNS.index("kind")
_SPAN_ID, _PARENT_ID, _CAUSE = (
    SpanRecord.__slots__.index(name)
    for name in ("span_id", "parent_id", "cause"))


def _write_str(buf: BinaryIO, text: str) -> None:
    raw = text.encode("utf-8")
    buf.write(_U32.pack(len(raw)))
    buf.write(raw)


def pack_collector(collector: TraceCollector) -> bytes:
    """Serialise a collector to the packed binary record format.

    This is the archive's payload (before compression) and the form in
    which a collector pickles (``TraceCollector.__reduce__``), so it is
    also what the machine driver's worker processes send back
    (:mod:`repro.workload.parallel`).
    """
    buf = io.BytesIO()
    _write_str(buf, collector.machine_name)
    # Trace records: the staged columnar blocks, packed directly (on
    # little-endian hosts a straight memory copy).
    buf.write(_U64.pack(len(collector)))
    for block in collector.blocks:
        buf.write(pack_block(block))
    # Name records.
    buf.write(_U64.pack(len(collector.name_records)))
    for n in collector.name_records:
        buf.write(_NAME.pack(n.fo_id, n.pid, n.volume_is_remote, n.t))
        _write_str(buf, n.path)
        _write_str(buf, n.volume_label)
    # Processes.
    buf.write(_U64.pack(len(collector.process_names)))
    for pid, name in collector.process_names.items():
        buf.write(_PROCESS.pack(
            pid, collector.process_interactive.get(pid, False)))
        _write_str(buf, name)
    # Snapshots.
    buf.write(_U64.pack(len(collector.snapshots)))
    for label, when, records in collector.snapshots:
        _write_str(buf, label)
        buf.write(struct.pack("<qQ", when, len(records)))
        for s in records:
            buf.write(_SNAP.pack(
                s.is_directory, s.size, s.creation_time, s.last_write_time,
                s.last_access_time, s.depth, s.n_files, s.n_subdirectories,
                0))
            _write_str(buf, s.path)
            _write_str(buf, s.extension)
    # Causal spans (format v3), packed straight from the staged log.  The
    # section is *omitted* when the log is empty rather than written with
    # a zero count, so a spans-disabled collector packs byte-for-byte like
    # a v2 one — the differential guarantee the parallel transport and
    # archive tests rely on.
    if collector.n_spans:
        buf.write(_U64.pack(collector.n_spans))
        buf.write(pack_block(collector.span_log, SPAN_STRUCT))
    return buf.getvalue()


# --------------------------------------------------------------------- #
# Decoding.  Every section is read through a PayloadReader, whether the
# payload sits decompressed in memory or is inflated chunk by chunk from a
# file.

class PayloadReader:
    """Exact-length reads over a payload arriving in chunks.

    Reads slice an immutable buffer at a cursor; the unread tail is joined
    with the next chunks only when a read runs past the buffer's end.  A
    read past the end of the payload raises ``ValueError`` naming
    ``source``.
    """

    def __init__(self, source, chunks) -> None:
        self.source = source
        self._chunks = iter(chunks)
        self._buf = b""
        self._pos = 0

    def _fill(self, n: int) -> bool:
        """Buffer at least ``n`` unread bytes; False if the payload ends."""
        parts = [self._buf[self._pos:]]
        have = len(parts[0])
        while have < n:
            chunk = next(self._chunks, None)
            if chunk is None:
                break
            parts.append(chunk)
            have += len(chunk)
        self._buf = b"".join(parts)
        self._pos = 0
        return have >= n

    def at_end(self) -> bool:
        return self._pos == len(self._buf) and not self._fill(1)

    def read(self, n: int) -> bytes:
        pos = self._pos
        end = pos + n
        if end > len(self._buf):
            if not self._fill(n):
                raise ValueError(
                    f"{self.source}: payload ends mid-record "
                    f"(wanted {n} bytes, {len(self._buf)} left)")
            pos, end = 0, n
        self._pos = end
        return self._buf[pos:end]


def inflate(source, chunks):
    """Decompress one zlib stream fed as compressed ``chunks``, yielding
    output as it is produced.  A corrupt stream, one that ends before its
    trailer, or bytes after its end raise ``ValueError`` naming
    ``source``."""
    decomp = zlib.decompressobj()
    try:
        for chunk in chunks:
            yield decomp.decompress(chunk)
        yield decomp.flush()
    except zlib.error as exc:
        raise ValueError(f"{source}: corrupt compressed payload: {exc}") \
            from None
    if not decomp.eof:
        raise ValueError(f"{source}: corrupt compressed payload: "
                         f"incomplete or truncated stream")
    if decomp.unused_data:
        raise ValueError(f"{source}: corrupt compressed payload: "
                         f"{len(decomp.unused_data)} stray bytes after "
                         f"the end of the stream")


def _payload_chunks(payload: bytes):
    """An in-memory compressed payload in INFLATE_CHUNK slices."""
    view = memoryview(payload)
    for pos in range(0, len(view), INFLATE_CHUNK):
        yield view[pos:pos + INFLATE_CHUNK]


def _read_u64(reader: PayloadReader) -> int:
    return _U64.unpack(reader.read(8))[0]


def decode_utf8(source, raw: bytes) -> str:
    """``raw`` as UTF-8; undecodable bytes raise ``ValueError`` naming
    ``source``."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{source}: corrupt string: {exc}") from None


def read_str(reader: PayloadReader) -> str:
    """A u32-length-prefixed UTF-8 string (see :func:`decode_utf8`)."""
    return decode_utf8(reader.source,
                       reader.read(_U32.unpack(reader.read(4))[0]))


def _check_kinds(source, kinds: np.ndarray) -> None:
    """Refuse record kinds outside the event-kind range (one array pass)."""
    bad = (kinds < 0) | (kinds >= N_EVENT_KINDS)
    if bad.any():
        raise ValueError(
            f"{source}: record kind {kinds[bad][0]} is not one of the "
            f"{N_EVENT_KINDS} trace event kinds")


def _read_record_block(reader: PayloadReader, n_records: int) -> array:
    """The next ``n_records`` records as one checked staged block."""
    block = unpack_block(reader.read(n_records * RECORD_STRUCT.size))
    _check_kinds(reader.source,
                 np.frombuffer(block, dtype=np.int64)[_KIND::RECORD_FIELDS])
    return block


def _read_span_log(reader: PayloadReader) -> array:
    """The span section as a staged log, checked against the tracer's
    invariants: span ids are unique, each ``parent_id`` is 0 (a root) or
    below the span's own id, and each cause is a :class:`SpanCause`.  The
    analyses walk parent chains, so a cycle must never get past here."""
    n_spans = _read_u64(reader)
    log = unpack_block(reader.read(n_spans * SPAN_STRUCT.size), SPAN_STRUCT)
    rows = np.frombuffer(log, dtype=np.int64).reshape(-1, SPAN_FIELDS)
    ids, parents, causes = rows[:, _SPAN_ID], rows[:, _PARENT_ID], \
        rows[:, _CAUSE]
    bad = (parents < 0) | (parents >= ids)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise ValueError(
            f"{reader.source}: span {ids[i]} names parent {parents[i]}, "
            f"which is neither 0 nor an id below its own")
    sorted_ids = np.sort(ids)
    repeated = sorted_ids[1:][sorted_ids[1:] == sorted_ids[:-1]]
    if len(repeated):
        raise ValueError(
            f"{reader.source}: span id {repeated[0]} appears more than once")
    bad = (causes < 0) | (causes >= len(SpanCause))
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise ValueError(
            f"{reader.source}: span {ids[i]} has unknown cause {causes[i]}")
    return log


def _read_prologue(reader: PayloadReader) -> tuple[str, int]:
    """(machine name, trace record count): the payload's first section."""
    name = read_str(reader)
    return name, _read_u64(reader)


def _read_names(reader: PayloadReader) -> list[NameRecord]:
    names = []
    for _ in range(_read_u64(reader)):
        fo_id, pid, is_remote, t = _NAME.unpack(reader.read(_NAME.size))
        path = read_str(reader)
        label = read_str(reader)
        names.append(NameRecord(
            fo_id=fo_id, path=path, volume_label=label,
            volume_is_remote=is_remote, pid=pid, t=t))
    return names


def _read_processes(reader: PayloadReader) -> tuple[dict, dict]:
    """(pid -> image name, pid -> interactive)."""
    process_names: dict[int, str] = {}
    process_interactive: dict[int, bool] = {}
    for _ in range(_read_u64(reader)):
        pid, interactive = _PROCESS.unpack(reader.read(_PROCESS.size))
        process_names[pid] = read_str(reader)
        process_interactive[pid] = interactive
    return process_names, process_interactive


def _read_snapshots(reader: PayloadReader):
    """[(volume label, when, snapshot records)]."""
    snapshots = []
    for _ in range(_read_u64(reader)):
        label = read_str(reader)
        when, n_recs = struct.unpack("<qQ", reader.read(16))
        records = []
        for _ in range(n_recs):
            (is_dir, size, creation, last_write, last_access, depth,
             n_files, n_subdirs, _pad) = _SNAP.unpack(reader.read(_SNAP.size))
            path = read_str(reader)
            ext = read_str(reader)
            records.append(SnapshotRecord(
                is_directory=is_dir, path=path, extension=ext, depth=depth,
                size=size, creation_time=creation,
                last_write_time=last_write, last_access_time=last_access,
                n_files=n_files, n_subdirectories=n_subdirs))
        snapshots.append((label, when, records))
    return snapshots


def _unpack(reader: PayloadReader) -> TraceCollector:
    """Decode a whole payload; the record section becomes one staged block.

    Damage — a payload that ends early, or stray bytes after the last
    section — raises ``ValueError`` naming the reader's source.
    """
    name, n_records = _read_prologue(reader)
    collector = TraceCollector(name)
    if n_records:
        collector.receive_block(_read_record_block(reader, n_records))
    collector.name_records.extend(_read_names(reader))
    process_names, process_interactive = _read_processes(reader)
    collector.process_names.update(process_names)
    collector.process_interactive.update(process_interactive)
    collector.snapshots.extend(_read_snapshots(reader))
    # Optional trailing span section: v1/v2 payloads end exactly after the
    # snapshots, so any remaining bytes are the v3 span log.
    if not reader.at_end():
        collector.span_log.extend(_read_span_log(reader))
        if not reader.at_end():
            raise ValueError(
                f"{reader.source}: stray bytes after the span log")
    return collector


def unpack_collector(raw: bytes) -> TraceCollector:
    """Rebuild a collector from :func:`pack_collector` bytes."""
    return _unpack(PayloadReader("packed collector", [raw]))


def save_collector(collector: TraceCollector,
                   path: Union[str, Path]) -> int:
    """Write a collector to disk; returns the compressed byte count.

    A collector with spans writes the current format (v3); one without
    writes v2, keeping spans-disabled archives byte-identical to the
    pre-span writer's output.
    """
    version = (STORE_FORMAT_VERSION if collector.n_spans
               else _SPANLESS_FORMAT_VERSION)
    payload = zlib.compress(pack_collector(collector), level=6)
    data = (_MAGIC_PREFIX + b"%d" % version
            + struct.pack("<Q", len(payload)) + payload)
    Path(path).write_bytes(data)
    return len(data)


def _parse_store(path, data: bytes) -> tuple[int, bytes]:
    """Validate a store file's header; returns (version, compressed payload).

    Every corruption mode raises ``ValueError`` naming the file: a foreign
    or truncated header, an unknown format version, and — the case that
    previously slipped through as a bare ``struct.error`` deep inside
    :func:`unpack_collector` — a payload shorter (truncated copy) or longer
    (concatenation damage) than the length the header declares.
    """
    if len(data) < _HEADER_LEN:
        raise ValueError(
            f"{path}: truncated trace store header "
            f"({len(data)} bytes, need {_HEADER_LEN})")
    if data[:len(_MAGIC_PREFIX)] != _MAGIC_PREFIX:
        raise ValueError(f"{path}: not a trace store file")
    version_byte = data[len(_MAGIC_PREFIX):len(_MAGIC_PREFIX) + 1]
    if not version_byte.isdigit():
        raise ValueError(f"{path}: not a trace store file")
    version = int(version_byte)
    if version not in SUPPORTED_FORMAT_VERSIONS:
        raise ValueError(
            f"{path}: unsupported trace store format version {version} "
            f"(supported: {', '.join(map(str, SUPPORTED_FORMAT_VERSIONS))})")
    (length,) = struct.unpack(
        "<Q", data[len(_MAGIC_PREFIX) + 1:_HEADER_LEN])
    actual = len(data) - _HEADER_LEN
    if actual < length:
        raise ValueError(
            f"{path}: truncated payload — header declares {length} "
            f"compressed bytes but the file holds {actual}")
    if actual > length:
        raise ValueError(
            f"{path}: {actual - length} trailing bytes after the declared "
            f"{length}-byte payload")
    return version, data[_HEADER_LEN:]


def load_collector(path: Union[str, Path]) -> TraceCollector:
    """Read a collector written by :func:`save_collector` (any version)."""
    data = Path(path).read_bytes()
    _version, payload = _parse_store(path, data)
    return _unpack(PayloadReader(path,
                                 inflate(path, _payload_chunks(payload))))


def read_store_header(path: Union[str, Path]) -> tuple[int, str, int]:
    """(format version, machine name, record count) of a store file."""
    stream = StoreStream(path)
    return stream.version, stream.machine_name, stream.n_records


def iter_trace_records(path: Union[str, Path], kinds=None):
    """Stream a store file's trace records without building the collector.

    Decompresses incrementally and yields one :class:`TraceRecord` at a
    time, so a multi-gigabyte archive can be scanned record by record
    holding only the compressed bytes plus one batch of packed records in
    memory.  Name records, processes, and snapshots are not materialised.
    Replay and its fidelity report no longer use it: they decode each
    archive once and read its staged record rows in place.

    ``kinds`` is an optional predicate pushdown: an iterable of
    :class:`TraceEventKind`/int values.  Records of any other kind are
    skipped at the store layer before a :class:`TraceRecord` is built —
    equivalent to filtering the unfiltered stream, just cheaper.
    """
    yield from StoreStream(path).records(kinds)


class StoreStream:
    """One-pass streaming reader over every section of a store file.

    The streaming analysis folds (:mod:`repro.analysis.streaming`) need
    more than :func:`iter_trace_records` exposes — the name records and
    the process table that follow the record section — without ever
    materialising the collector.  Usage::

        stream = StoreStream(path)
        block = stream.record_block()   # or: for record in stream.records()
        names, process_names, process_interactive = stream.tail_sections()

    The records must be read before ``tail_sections()``: the payload is
    decompressed strictly forward.  ``records()`` holds one batch of
    packed records in memory at a time; :meth:`record_block` decodes the
    whole section into one staged block and builds no record objects.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        data = self.path.read_bytes()
        self.version, payload = _parse_store(path, data)
        self._reader = PayloadReader(
            path, inflate(path, _payload_chunks(payload)))
        self.machine_name, self.n_records = _read_prologue(self._reader)
        self._records_left = self.n_records

    def records(self, kinds=None):
        """Yield the trace records; supports the same ``kinds`` pushdown
        as :func:`iter_trace_records`."""
        wanted = None if kinds is None else frozenset(int(k) for k in kinds)
        while self._records_left:
            batch = min(self._records_left, _STREAM_BATCH)
            raw = self._reader.read(batch * RECORD_STRUCT.size)
            self._records_left -= batch
            _check_kinds(self.path, np.frombuffer(raw, dtype="<i8")[
                _KIND::RECORD_FIELDS])
            for fields in RECORD_STRUCT.iter_unpack(raw):
                if wanted is None or fields[0] in wanted:
                    yield TraceRecord(*fields)

    def record_block(self) -> array:
        """The unread records as one staged ``array('q')`` block, in the
        collector's columnar layout (:mod:`repro.nt.tracing.fastbuf`)."""
        n, self._records_left = self._records_left, 0
        return _read_record_block(self._reader, n)

    def tail_sections(self):
        """(name records, process names, process interactivity) after the
        record section.  Snapshots and spans are left unread."""
        if self._records_left:
            raise ValueError(
                f"{self.path}: records() must be exhausted before "
                f"tail_sections() ({self._records_left} records unread)")
        names = _read_names(self._reader)
        return (names, *_read_processes(self._reader))


def save_study(collectors, directory: Union[str, Path]) -> list[Path]:
    """Write one file per collector into a directory; returns the paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for collector in collectors:
        path = directory / f"{collector.machine_name}.nttrace"
        save_collector(collector, path)
        paths.append(path)
    return paths


def study_paths(directory: Union[str, Path]) -> list[Path]:
    """The ``.nttrace`` files of an archived study, sorted by name.

    Raises ``FileNotFoundError`` when the directory does not exist and
    ``ValueError`` when it holds no trace files — downstream code treats a
    silently-empty list as a zero-machine study, which hides typos.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(
            f"trace archive directory {directory} does not exist")
    paths = sorted(directory.glob("*.nttrace"))
    if not paths:
        raise ValueError(f"no .nttrace files found in {directory}")
    return paths


def load_study(directory: Union[str, Path]) -> list[TraceCollector]:
    """Read every trace store file in a directory, sorted by name.

    Raises ``FileNotFoundError`` / ``ValueError`` for a missing or empty
    directory (see :func:`study_paths`).
    """
    return [load_collector(p) for p in study_paths(directory)]
