"""Trace record staging: the §3.2 record buffers, held columnar.

The paper's driver kept three 3,000-record buffers, flushing a full buffer
to the collection server while the next one filled.  An idle system filled
a buffer in an hour; a loaded one in 3–5 seconds.  The simulator keeps the
same capacity, flush-on-full, and end-of-run drain (and counts flushes in
``trace.buffer_flushes``) so the capacity maths of the paper can be
tested, while "flushing" hands the block to the in-process collector.
That hand-off always completes at once, so one filling block models the
paper's "overflow never occurred during our tracing runs" case.

No per-event object exists on the way: each record is 15 signed 64-bit
fields appended flat into an ``array('q')`` block.  Flushed blocks stay
staged in the collector, the only form in which it holds records: the
store encoder packs them (:func:`pack_block`), and
:func:`records_from_block` builds :class:`TraceRecord` dataclasses from a
block only when a caller asks for them.  On a little-endian host a
block's ``tobytes()`` is byte for byte the concatenation of the
archive's ``<15q`` record structs, so packing is a memory copy and
decoding (:func:`unpack_block`) its inverse; elsewhere both fall back to
per-row struct packing.  The causal span log
(:mod:`repro.nt.tracing.spans`) is staged and packed the same way, with
its own ``<11q`` row struct.
"""

from __future__ import annotations

import struct
import sys
from array import array
from typing import Callable, List

from repro.nt.tracing.records import TraceRecord

# Records per buffer (§3.2).
BUFFER_CAPACITY = 3000

# Fields per trace record, in records.TraceRecord order, and the store's
# packed little-endian layout of one record.
RECORD_FIELDS = 15
RECORD_STRUCT = struct.Struct("<15q")

# array('q').tobytes() equals the concatenated '<15q' packs only on a
# little-endian host with 8-byte array items; anywhere else pack_block
# and unpack_block fall back to per-row struct packing.
NATIVE_FAST_PACK = sys.byteorder == "little" and array("q").itemsize == 8


def pack_block(block: array, row: struct.Struct = RECORD_STRUCT) -> bytes:
    """Encode one staged block as packed ``row`` structs (the store's
    record bytes by default; ``row`` is all little-endian int64 fields)."""
    if NATIVE_FAST_PACK:
        return block.tobytes()
    n_fields = row.size // 8
    out = bytearray()
    for i in range(0, len(block), n_fields):
        out += row.pack(*block[i:i + n_fields])
    return bytes(out)


def unpack_block(raw: bytes, row: struct.Struct = RECORD_STRUCT) -> array:
    """Decode a whole number of packed ``row`` structs into a block."""
    block = array("q")
    if NATIVE_FAST_PACK:
        block.frombytes(raw)
    else:
        for fields in row.iter_unpack(raw):
            block.extend(fields)
    return block


def records_from_block(block: array) -> List[TraceRecord]:
    """Materialise a staged block into dataclass records."""
    # zip over one shared iterator deals the flat fields out in rows.
    fields = iter(block)
    return [TraceRecord(*row) for row in zip(*[fields] * RECORD_FIELDS)]


class FastRecordBuffer:
    """Fixed-capacity columnar record staging feeding a flush callback.

    :meth:`append_row` takes a record's 15 fields as a tuple of ints.
    ``records_seen``, ``rotations`` (full-block flushes) and
    ``active_fill`` count what passed through.
    """

    __slots__ = ("capacity", "_flush", "_buf", "_capacity_fields",
                 "rotations", "records_seen")

    def __init__(self, flush: Callable[[array], None],
                 capacity: int = BUFFER_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self._flush = flush
        self.capacity = capacity
        self._capacity_fields = capacity * RECORD_FIELDS
        self._buf = array("q")
        self.rotations = 0
        self.records_seen = 0

    @property
    def active_fill(self) -> int:
        """Records in the currently-filling block."""
        return len(self._buf) // RECORD_FIELDS

    def append_row(self, row: tuple) -> None:
        """Store one record's fields, flushing on a full block."""
        buf = self._buf
        buf.extend(row)
        self.records_seen += 1
        if len(buf) >= self._capacity_fields:
            self.rotations += 1
            self._buf = array("q")
            self._flush(buf)

    def drain(self) -> None:
        """Flush whatever remains (end of a tracing run)."""
        if self._buf:
            buf = self._buf
            self._buf = array("q")
            self._flush(buf)
