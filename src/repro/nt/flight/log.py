r"""The ``.ntmetrics`` flight-recorder log format.

A study archived with ``--metrics`` carries a ``metrics.ntmetrics``
sidecar next to its ``.nttrace`` files: every perf series of every
machine, sampled at a fixed simulated-time interval.  Layout::

    NTMETRIC <version:1 ascii digit> <n_sections:u32>
    section := <name_len:u32> <machine name utf-8>
               <interval_ticks:u64> <n_samples:u64>
               <compressed_len:u64> <zlib frame stream>

The frame stream is delta-encoded so long idle stretches compress to
almost nothing:

* ``DEFINE``  — ``u8 tag=1, u8 kind, u32 series_id, u32 len, name`` —
  emitted the first time a series changes; ids are assigned in
  first-change order, which derives only from simulated events, so the
  stream is deterministic and merges order-stably across workers.
* ``SAMPLE``  — ``u8 tag=2, u64 t_end, u32 n_entries`` then per entry
  ``u32 series_id`` + a kind-specific payload: counters carry the
  *delta* since the previous sample, gauges the current value,
  histograms ``(d_count, d_sum_ticks, max_ticks)`` with a cumulative
  max.  Empty intervals still emit a zero-entry ``SAMPLE`` so idle
  periods are explicit, not inferred.
* ``END``     — ``u8 tag=3, u64 n_samples`` — redundancy check against
  the section header, so truncated streams are detected.

Each section's frame stream decodes through the trace store's reader
(:func:`repro.nt.tracing.store.inflate` fed the section's compressed
bytes in chunks from the file, and a
:class:`~repro.nt.tracing.store.PayloadReader` over its output), so
neither side is ever materialised whole, a stream that ends before its
zlib trailer is refused, and every malformed-input error — undecodable
section and series names included — is a :class:`ValueError` naming the
offending file.  This module is on the analysis read-side whitelist
(verifier rule L501): it depends only on the standard library and the
trace store's decoder, never on live kernel state.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Iterator

from repro.nt.tracing.store import (
    INFLATE_CHUNK,
    PayloadReader,
    decode_utf8,
    inflate,
    read_str,
)

MAGIC = b"NTMETRIC"
VERSION = 1

# The sidecar's file name inside a trace archive directory.
METRICS_FILENAME = "metrics.ntmetrics"

# The default sampling interval of the --metrics CLI paths: one second,
# the granularity of the paper's figure 8 arrival-count analysis.
DEFAULT_METRICS_INTERVAL_SECONDS = 1.0

# Series kinds (the DEFINE frame's ``kind`` byte).
KIND_COUNTER = 0
KIND_GAUGE = 1
KIND_HISTOGRAM = 2

# Frame tags.
FRAME_DEFINE = 1
FRAME_SAMPLE = 2
FRAME_END = 3

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_DEFINE = struct.Struct("<BBI")     # tag, kind, series_id
_SAMPLE = struct.Struct("<BQI")     # tag, t_end, n_entries
_END = struct.Struct("<BQ")         # tag, n_samples
_ENTRY_SCALAR = struct.Struct("<Iq")        # series_id, value/delta
_ENTRY_HIST = struct.Struct("<Iqqq")        # series_id, dcount, dsum, max

_COMPRESS_LEVEL = 6


@dataclass(frozen=True)
class MetricsSection:
    """One machine's finished frame stream, ready to write or pickle."""

    machine_name: str
    interval_ticks: int
    n_samples: int
    frames: bytes


@dataclass(frozen=True)
class SectionInfo:
    """Header of one section, read before its frame stream."""

    machine_name: str
    interval_ticks: int
    n_samples: int


class IntervalSample:
    """One decoded SAMPLE frame: the deltas that landed in one interval."""

    __slots__ = ("t_end", "counters", "gauges", "histograms")

    def __init__(self, t_end: int) -> None:
        self.t_end = t_end
        # name -> delta since the previous sample.
        self.counters: dict[str, int] = {}
        # name -> value at the sample point.
        self.gauges: dict[str, int] = {}
        # name -> (d_count, d_sum_ticks, max_ticks so far).
        self.histograms: dict[str, tuple[int, int, int]] = {}

    @property
    def n_entries(self) -> int:
        return len(self.counters) + len(self.gauges) + len(self.histograms)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"IntervalSample(t_end={self.t_end}, "
                f"entries={self.n_entries})")


# --------------------------------------------------------------------- #
# Frame encoding (the recorder's append side).

def encode_define(kind: int, series_id: int, name: str) -> bytes:
    payload = name.encode("utf-8")
    return (_DEFINE.pack(FRAME_DEFINE, kind, series_id)
            + _U32.pack(len(payload)) + payload)


def encode_sample_head(t_end: int, n_entries: int) -> bytes:
    return _SAMPLE.pack(FRAME_SAMPLE, t_end, n_entries)


def encode_scalar_entry(series_id: int, value: int) -> bytes:
    return _ENTRY_SCALAR.pack(series_id, value)


def encode_histogram_entry(series_id: int, d_count: int, d_sum_ticks: int,
                           max_ticks: int) -> bytes:
    return _ENTRY_HIST.pack(series_id, d_count, d_sum_ticks, max_ticks)


def encode_end(n_samples: int) -> bytes:
    return _END.pack(FRAME_END, n_samples)


# --------------------------------------------------------------------- #
# Writing.

def write_metrics_log(sections, path) -> int:
    """Write machine sections (already in machine order) to ``path``.

    Each section's frame stream is compressed independently, so a reader
    can skip to any machine without inflating the ones before it.
    Returns the number of bytes written.
    """
    blob = bytearray()
    blob += MAGIC
    blob += str(VERSION).encode("ascii")
    sections = list(sections)
    blob += _U32.pack(len(sections))
    for section in sections:
        name = section.machine_name.encode("utf-8")
        compressed = zlib.compress(section.frames, _COMPRESS_LEVEL)
        blob += _U32.pack(len(name))
        blob += name
        blob += _U64.pack(section.interval_ticks)
        blob += _U64.pack(section.n_samples)
        blob += _U64.pack(len(compressed))
        blob += compressed
    with open(path, "wb") as fh:
        fh.write(blob)
    return len(blob)


# --------------------------------------------------------------------- #
# Reading.

def _section_chunks(fh, compressed_len: int, path):
    """The next ``compressed_len`` bytes of ``fh``, INFLATE_CHUNK at a
    time; a file that ends first raises ``ValueError`` naming it."""
    remaining = compressed_len
    while remaining:
        chunk = fh.read(min(INFLATE_CHUNK, remaining))
        if not chunk:
            raise ValueError(
                f"{path}: truncated section (compressed payload ends early)")
        remaining -= len(chunk)
        yield chunk


def _read_file_header(fh, path) -> int:
    head = fh.read(len(MAGIC) + 1)
    if len(head) < len(MAGIC) + 1 or head[:len(MAGIC)] != MAGIC:
        raise ValueError(f"{path}: not a .ntmetrics file (bad magic)")
    version = head[len(MAGIC):]
    if not version.isdigit():
        raise ValueError(f"{path}: corrupt version byte {version!r}")
    if int(version) != VERSION:
        raise ValueError(
            f"{path}: unsupported .ntmetrics version {int(version)} "
            f"(reader supports {VERSION})")
    raw = fh.read(_U32.size)
    if len(raw) < _U32.size:
        raise ValueError(f"{path}: truncated header")
    return _U32.unpack(raw)[0]


def _read_section_header(fh, path) -> tuple[SectionInfo, int]:
    raw = fh.read(_U32.size)
    if len(raw) < _U32.size:
        raise ValueError(f"{path}: truncated section header")
    name_len = _U32.unpack(raw)[0]
    name = fh.read(name_len)
    if len(name) < name_len:
        raise ValueError(f"{path}: truncated section name")
    tail = fh.read(_U64.size * 3)
    if len(tail) < _U64.size * 3:
        raise ValueError(f"{path}: truncated section header")
    interval_ticks, n_samples, compressed_len = struct.unpack("<QQQ", tail)
    if interval_ticks <= 0:
        raise ValueError(
            f"{path}: section {name.decode('utf-8', 'replace')!r} has "
            f"non-positive interval {interval_ticks}")
    return (SectionInfo(machine_name=decode_utf8(path, name),
                        interval_ticks=interval_ticks,
                        n_samples=n_samples),
            compressed_len)


def _iter_section_samples(reader: PayloadReader, info: SectionInfo, path
                          ) -> Iterator[IntervalSample]:
    series: dict[int, tuple[int, str]] = {}
    seen = 0
    while True:
        tag = reader.read(1)[0]
        if tag == FRAME_DEFINE:
            kind = reader.read(1)[0]
            if kind not in (KIND_COUNTER, KIND_GAUGE, KIND_HISTOGRAM):
                raise ValueError(
                    f"{path}: unknown series kind {kind} in section "
                    f"{info.machine_name!r}")
            series_id = _U32.unpack(reader.read(_U32.size))[0]
            name = read_str(reader)
            if series_id in series:
                raise ValueError(
                    f"{path}: series id {series_id} defined twice in "
                    f"section {info.machine_name!r}")
            series[series_id] = (kind, name)
        elif tag == FRAME_SAMPLE:
            rest = reader.read(_SAMPLE.size - 1)
            t_end, n_entries = struct.unpack("<QI", rest)
            sample = IntervalSample(t_end)
            for _ in range(n_entries):
                series_id = _U32.unpack(reader.read(_U32.size))[0]
                defined = series.get(series_id)
                if defined is None:
                    raise ValueError(
                        f"{path}: sample references undefined series id "
                        f"{series_id} in section {info.machine_name!r}")
                kind, name = defined
                if kind == KIND_HISTOGRAM:
                    d_count, d_sum, max_ticks = struct.unpack(
                        "<qqq", reader.read(24))
                    sample.histograms[name] = (d_count, d_sum, max_ticks)
                else:
                    value = struct.unpack("<q", reader.read(8))[0]
                    if kind == KIND_COUNTER:
                        sample.counters[name] = value
                    else:
                        sample.gauges[name] = value
            seen += 1
            yield sample
        elif tag == FRAME_END:
            declared = _U64.unpack(reader.read(_U64.size))[0]
            if declared != seen or declared != info.n_samples:
                raise ValueError(
                    f"{path}: section {info.machine_name!r} sample count "
                    f"mismatch (header {info.n_samples}, stream end "
                    f"{declared}, decoded {seen})")
            if not reader.at_end():
                raise ValueError(
                    f"{path}: trailing frames after END in section "
                    f"{info.machine_name!r}")
            return
        else:
            raise ValueError(
                f"{path}: unknown frame tag {tag} in section "
                f"{info.machine_name!r}")


def iter_samples(path) -> Iterator[tuple[str, int, IntervalSample]]:
    """Stream every sample: yields ``(machine, interval_ticks, sample)``.

    Sections appear in file (machine) order and samples in time order;
    memory use is bounded by one frame, never the whole log.
    """
    with open(path, "rb") as fh:
        n_sections = _read_file_header(fh, path)
        for _ in range(n_sections):
            info, compressed_len = _read_section_header(fh, path)
            reader = PayloadReader(path, inflate(
                path, _section_chunks(fh, compressed_len, path)))
            for sample in _iter_section_samples(reader, info, path):
                yield info.machine_name, info.interval_ticks, sample
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after last section")
