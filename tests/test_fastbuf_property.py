"""Property tests for the columnar record buffer.

Hypothesis-free: each property runs against many seeded-random record
sequences (``random.Random(seed)``), so a failure reproduces exactly
from the parametrised seed.  The property under test is always the same
one the archive format depends on: a record stream staged through
:class:`FastRecordBuffer` packs to exactly the bytes of an independent
reference — ``struct.pack("<15q", ...)`` per record — and decodes to
exactly ``TraceRecord(*row)`` per record.
"""

from __future__ import annotations

import random
import struct
from array import array

import pytest

from repro.nt.tracing import fastbuf
from repro.nt.tracing.collector import TraceCollector
from repro.nt.tracing.fastbuf import (
    BUFFER_CAPACITY,
    RECORD_FIELDS,
    FastRecordBuffer,
    pack_block,
    records_from_block,
    unpack_block,
)
from repro.nt.tracing.records import N_EVENT_KINDS, TraceRecord
from repro.nt.tracing.spans import SPAN_FIELDS, SPAN_STRUCT
from repro.nt.tracing.store import (
    iter_trace_records,
    load_collector,
    pack_collector,
    save_study,
)

_I64_MIN = -(2 ** 63)
_I64_MAX = 2 ** 63 - 1
_EDGE_VALUES = (_I64_MIN, _I64_MAX, 0, -1, 1, 2 ** 32, -(2 ** 32))


def _random_row(rng: random.Random) -> tuple:
    """One record's 15 fields: mixed magnitudes, signs, and extremes."""
    fields = []
    for _ in range(RECORD_FIELDS):
        r = rng.random()
        if r < 0.15:
            fields.append(rng.choice(_EDGE_VALUES))
        elif r < 0.3:
            fields.append(rng.randrange(_I64_MIN, _I64_MAX + 1))
        else:
            fields.append(rng.randrange(0, 2 ** 32))
    return tuple(fields)


def _archivable_row(rng: random.Random) -> tuple:
    """A random row whose kind is one of the event kinds, which every
    store decoder checks; the other 14 fields are as random as ever."""
    return (rng.randrange(N_EVENT_KINDS), *_random_row(rng)[1:])


def _buffered(rows, capacity):
    """Stage ``rows`` through a buffer; returns (collector, buffer)."""
    collector = TraceCollector("m00")
    buf = FastRecordBuffer(collector.receive_block, capacity=capacity)
    for row in rows:
        buf.append_row(row)
    return collector, buf


def _reference_payload(rows) -> bytes:
    """pack_collector's bytes for a records-only collector named m00,
    built from the format definition rather than the encoder."""
    return (struct.pack("<I", 3) + b"m00" + struct.pack("<Q", len(rows))
            + b"".join(struct.pack("<15q", *row) for row in rows)
            + struct.pack("<3Q", 0, 0, 0))  # names, processes, snapshots


@pytest.mark.parametrize("seed", range(10))
def test_random_streams_round_trip_identically(seed):
    rng = random.Random(seed)
    capacity = rng.randrange(1, 48)
    n = rng.randrange(0, capacity * 5)
    rows = [_random_row(rng) for _ in range(n)]
    collector, buf = _buffered(rows, capacity)
    # Pre-drain statistics (perf.json depends on these).
    assert buf.records_seen == n
    assert buf.rotations == n // capacity
    assert buf.active_fill == n % capacity
    buf.drain()
    assert len(collector) == n
    assert pack_collector(collector) == _reference_payload(rows)
    # Materialisation yields exactly the reference dataclasses.
    assert collector.records == [TraceRecord(*row) for row in rows]


@pytest.mark.parametrize("seed", range(5))
def test_archive_round_trip_through_store(seed, tmp_path):
    """fastbuf -> store encoder -> both store decoders == dataclasses."""
    rng = random.Random(100 + seed)
    rows = [_archivable_row(rng) for _ in range(rng.randrange(1, 400))]
    collector, buf = _buffered(rows, capacity=64)
    buf.drain()
    (path,) = save_study([collector], tmp_path)
    expected = [TraceRecord(*row) for row in rows]
    assert list(iter_trace_records(path)) == expected
    loaded = load_collector(path)
    assert len(loaded) == len(rows)
    assert pack_collector(loaded) == _reference_payload(rows)
    assert loaded.records == expected


@pytest.mark.parametrize("n", (0, 1, BUFFER_CAPACITY - 1, BUFFER_CAPACITY,
                               BUFFER_CAPACITY + 1, 2 * BUFFER_CAPACITY,
                               2 * BUFFER_CAPACITY + 1))
def test_flush_boundaries_at_default_capacity(n):
    """Around the 3,000-record block boundary, blocks flush when full."""
    rng = random.Random(n)
    rows = [_random_row(rng) for _ in range(n)]
    collector, buf = _buffered(rows, BUFFER_CAPACITY)
    assert buf.rotations == n // BUFFER_CAPACITY
    assert buf.active_fill == n % BUFFER_CAPACITY
    assert [len(b) for b in collector.blocks] == \
        [BUFFER_CAPACITY * RECORD_FIELDS] * (n // BUFFER_CAPACITY)
    buf.drain()
    assert pack_collector(collector) == _reference_payload(rows)


def test_empty_buffer_edges():
    """Draining an empty buffer flushes nothing, twice in a row."""
    flushed = []
    fbuf = FastRecordBuffer(flushed.append, capacity=4)
    fbuf.drain()
    fbuf.drain()
    assert flushed == []
    # A drain mid-block flushes the partial block and resets the staging.
    row = tuple(range(RECORD_FIELDS))
    fbuf.append_row(row)
    fbuf.drain()
    fbuf.drain()
    assert len(flushed) == 1 and fbuf.active_fill == 0


@pytest.mark.parametrize("seed", range(5))
def test_pack_block_matches_struct_packing(seed, monkeypatch):
    """The little-endian memory-copy path and the per-row fallback both
    equal explicit packing, and unpack_block inverts pack_block."""
    rng = random.Random(200 + seed)
    rows = [_random_row(rng) for _ in range(rng.randrange(1, 50))]
    block = array("q")
    for row in rows:
        block.extend(row)
    explicit = b"".join(struct.pack("<15q", *row) for row in rows)
    for native in (fastbuf.NATIVE_FAST_PACK, False):
        monkeypatch.setattr(fastbuf, "NATIVE_FAST_PACK", native)
        assert pack_block(block) == explicit
        assert unpack_block(explicit) == block
    assert records_from_block(block) == [TraceRecord(*row) for row in rows]


@pytest.mark.parametrize("seed", range(3))
def test_pack_block_by_span_struct(seed, monkeypatch):
    """The same two paths pack and decode span-log rows by SPAN_STRUCT."""
    rng = random.Random(300 + seed)
    rows = [_random_row(rng)[:SPAN_FIELDS]
            for _ in range(rng.randrange(1, 50))]
    log = array("q")
    for row in rows:
        log.extend(row)
    explicit = b"".join(struct.pack("<11q", *row) for row in rows)
    for native in (fastbuf.NATIVE_FAST_PACK, False):
        monkeypatch.setattr(fastbuf, "NATIVE_FAST_PACK", native)
        assert pack_block(log, SPAN_STRUCT) == explicit
        assert unpack_block(explicit, SPAN_STRUCT) == log
