"""Trace store format versioning and corruption handling.

The store header is ``NTTRACE`` + one ASCII version digit + a u64 LE
compressed-payload length.  Writers emit version 2 for span-less
collectors (byte-identical to the pre-span writer) and version 3 when a
causal span log is present; readers accept 1–3 (the v1/v2 payload
encoding is identical — v3 appends the span section).  Every corruption
mode must raise ``ValueError`` naming the offending file.
"""

from __future__ import annotations

import random
import re
import struct
import zlib
from array import array

import pytest

from repro.cli import main as cli_main
from repro.nt.tracing.collector import TraceCollector
from repro.nt.tracing.records import N_EVENT_KINDS, NameRecord
from repro.nt.tracing.spans import SPAN_RECORDED
from repro.nt.tracing.store import (STORE_FORMAT_VERSION,
                                    SUPPORTED_FORMAT_VERSIONS,
                                    StoreStream, iter_trace_records,
                                    load_collector, load_study,
                                    pack_collector, read_store_header,
                                    save_collector, study_paths)

from tests.conftest import collector_state


def _collector(n_records: int = 5) -> TraceCollector:
    collector = TraceCollector("m00-versioned")
    collector.register_process(8, "winword.exe", True)
    collector.receive_name(NameRecord(
        fo_id=1, path="\\docs\\report.doc", volume_label="m00-C",
        volume_is_remote=False, pid=8, t=0))
    if n_records:
        # kind, fo_id, pid, t_start, t_end, status, irp_flags, offset,
        # length, returned, file_size, disposition, options, attributes,
        # info.
        collector.receive_block(array("q", [
            field for i in range(n_records)
            for field in (3, 1, 8, i * 100, i * 100 + 50, 0, 0, i * 4096,
                          4096, 4096, 65536, 0, 0, 0, 0)]))
    return collector


def _spanned_collector() -> TraceCollector:
    collector = _collector()
    for i, rec in enumerate(collector.records, start=1):
        # One root span row per record, in SpanRecord field order.
        collector.span_log.extend((
            i, 0, i, 0, rec.kind, 0, rec.t_start, rec.t_end, rec.length,
            rec.status, SPAN_RECORDED))
    return collector


def _v1_bytes(collector: TraceCollector) -> bytes:
    """A version-1 archive, byte-for-byte what the v1 writer produced."""
    payload = zlib.compress(pack_collector(collector), level=6)
    return b"NTTRACE1" + struct.pack("<Q", len(payload)) + payload


class TestVersioning:
    def test_spanless_collector_writes_version_2(self, tmp_path):
        # The byte-identity guarantee: without spans, output matches the
        # pre-span (v2) writer exactly, version byte included.
        path = tmp_path / "m.nttrace"
        save_collector(_collector(), path)
        raw = path.read_bytes()
        assert raw.startswith(b"NTTRACE2")
        version, machine_name, n_records = read_store_header(path)
        assert version == 2
        assert machine_name == "m00-versioned"
        assert n_records == 5

    def test_spanned_collector_writes_current_version(self, tmp_path):
        path = tmp_path / "m.nttrace"
        save_collector(_spanned_collector(), path)
        raw = path.read_bytes()
        assert raw.startswith(b"NTTRACE%d" % STORE_FORMAT_VERSION)
        assert read_store_header(path)[0] == STORE_FORMAT_VERSION == 3

    def test_v3_round_trips_span_log(self, tmp_path):
        collector = _spanned_collector()
        path = tmp_path / "m.nttrace"
        save_collector(collector, path)
        loaded = load_collector(path)
        assert collector_state(loaded) == collector_state(collector)
        assert loaded.span_records == collector.span_records

    def test_reads_version_1_archives(self, tmp_path):
        # Cross-version round-trip: a v1 file (pre-version-byte era,
        # magic "NTTRACE1") loads identically to its v2 rewrite.
        collector = _collector()
        v1_path = tmp_path / "v1.nttrace"
        v1_path.write_bytes(_v1_bytes(collector))
        v2_path = tmp_path / "v2.nttrace"
        save_collector(collector, v2_path)

        assert read_store_header(v1_path)[0] == 1
        loaded_v1 = load_collector(v1_path)
        loaded_v2 = load_collector(v2_path)
        assert collector_state(loaded_v1) == collector_state(loaded_v2)
        assert collector_state(loaded_v1) == collector_state(collector)

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "future.nttrace"
        data = bytearray(_v1_bytes(_collector()))
        data[7:8] = b"9"
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match=r"unsupported.*version 9"):
            load_collector(path)
        assert 9 not in SUPPORTED_FORMAT_VERSIONS

    def test_iter_trace_records_equivalent_across_versions(self, tmp_path):
        collector = _collector()
        v1_path = tmp_path / "v1.nttrace"
        v1_path.write_bytes(_v1_bytes(collector))
        v2_path = tmp_path / "v2.nttrace"
        save_collector(collector, v2_path)
        assert list(iter_trace_records(v1_path)) == \
            list(iter_trace_records(v2_path)) == collector.records


class TestChunkedDecode:
    def test_records_straddling_inflate_chunks_decode_exactly(self, tmp_path):
        # Incompressible fields make the compressed payload span several
        # of the streaming decoder's input chunks, so records and strings
        # straddle chunk boundaries at arbitrary offsets.  The kind stays
        # a valid event kind, which every decoder checks.
        rng = random.Random(7)
        collector = _collector(n_records=0)
        collector.receive_block(array("q", [
            field for _ in range(4_000)
            for field in (rng.randrange(N_EVENT_KINDS),
                          *(rng.randrange(-2 ** 63, 2 ** 63)
                            for _ in range(14)))]))
        for i in range(300):
            collector.receive_name(NameRecord(
                fo_id=i, path="\\" + "".join(
                    rng.choice("abcdefgh") for _ in range(rng.randrange(60))),
                volume_label="m00-C", volume_is_remote=bool(i % 2), pid=8,
                t=i))
        path = tmp_path / "chunked.nttrace"
        assert save_collector(collector, path) > 3 * (1 << 16)
        expected = collector_state(collector)
        assert collector_state(load_collector(path)) == expected
        stream = StoreStream(path)
        assert list(stream.records()) == collector.records
        names, process_names, interactive = stream.tail_sections()
        assert names == collector.name_records
        assert process_names == collector.process_names
        assert interactive == collector.process_interactive


class TestCorruption:
    @pytest.fixture
    def saved(self, tmp_path):
        path = tmp_path / "m.nttrace"
        save_collector(_collector(), path)
        return path

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "not-a-trace.nttrace"
        path.write_bytes(b"PNG\x89 definitely not a trace store file")
        with pytest.raises(ValueError, match="not a trace store file"):
            load_collector(path)

    def test_truncated_header_names_file(self, tmp_path):
        path = tmp_path / "stub.nttrace"
        path.write_bytes(b"NTTRACE2\x00")
        with pytest.raises(ValueError, match="truncated trace store header"):
            load_collector(path)
        assert path.name in _raises_message(path)

    def test_truncated_payload_names_file_and_lengths(self, saved):
        data = saved.read_bytes()
        saved.write_bytes(data[:-10])
        with pytest.raises(ValueError,
                           match=r"truncated payload.*declares \d+ "
                                 r"compressed bytes"):
            load_collector(saved)

    def test_trailing_bytes_rejected(self, saved):
        saved.write_bytes(saved.read_bytes() + b"extra")
        with pytest.raises(ValueError, match="5 trailing bytes"):
            load_collector(saved)

    def test_corrupt_zlib_payload_rejected(self, saved):
        data = bytearray(saved.read_bytes())
        data[16:24] = b"\xff" * 8
        saved.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="corrupt compressed payload"):
            load_collector(saved)

    def test_truncated_zlib_stream_rejected(self, tmp_path):
        # A compressed stream cut before its checksum, under a header
        # whose length matches what is left.
        payload = zlib.compress(pack_collector(_collector()), level=6)[:-4]
        path = tmp_path / "cut.nttrace"
        path.write_bytes(b"NTTRACE2" + struct.pack("<Q", len(payload))
                         + payload)
        with pytest.raises(ValueError, match="corrupt compressed payload"):
            load_collector(path)

    def test_streaming_reader_rejects_mid_record_end(self, tmp_path):
        # A payload that decompresses fine but ends inside the trace
        # record array: re-wrap a truncated packed body in a valid header.
        collector = _collector()
        packed = pack_collector(collector)
        record_size = struct.calcsize("<15q")
        records_start = 4 + len(collector.machine_name.encode()) + 8
        cut = records_start + 4 * record_size + record_size // 2
        payload = zlib.compress(packed[:cut], level=6)
        path = tmp_path / "short.nttrace"
        path.write_bytes(b"NTTRACE2" + struct.pack("<Q", len(payload))
                         + payload)
        with pytest.raises(ValueError, match="payload ends mid-record"):
            list(iter_trace_records(path))

    def test_every_truncated_payload_names_file(self, tmp_path):
        # A packed body cut at any byte, re-wrapped in a valid header:
        # every decoder raises ValueError naming the file, never a bare
        # struct.error.  The span-less payload ends with the snapshot
        # count, so every proper prefix is damaged.
        packed = pack_collector(_collector())
        snapshots_start = len(packed) - 8
        path = tmp_path / "short.nttrace"
        named = re.escape(str(path))
        for cut in range(len(packed)):
            _write_payload(path, packed[:cut])
            with pytest.raises(ValueError, match=named):
                load_collector(path)
            if cut < snapshots_start:
                with pytest.raises(ValueError, match=named):
                    stream = StoreStream(path)
                    list(stream.records())
                    stream.tail_sections()

    @pytest.mark.parametrize("n_stray", range(1, 8))
    def test_stray_bytes_after_snapshots_name_file(self, tmp_path, n_stray):
        # Too few bytes to be a span count.
        path = tmp_path / "stray.nttrace"
        _write_payload(path, pack_collector(_collector()) + b"\x01" * n_stray)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_collector(path)

    def test_corrupt_string_names_file(self, tmp_path):
        # The machine name's first byte becomes invalid UTF-8.
        packed = bytearray(pack_collector(_collector()))
        packed[4] = 0xFF
        path = tmp_path / "badname.nttrace"
        _write_payload(path, bytes(packed))
        named = re.escape(str(path)) + ".*corrupt string"
        for decode in (load_collector, read_store_header):
            with pytest.raises(ValueError, match=named):
                decode(path)

    def test_stray_bytes_after_the_zlib_stream_fail_repro_report(
            self, tmp_path, capsys):
        # Junk after the end of the compressed stream, inside a header
        # length raised to match: every record still inflates, but the
        # file is not what the writer wrote.
        directory = tmp_path / "traces"
        directory.mkdir()
        path = directory / "m.nttrace"
        payload = zlib.compress(pack_collector(_collector()), level=6) \
            + b"\x00" * 8
        path.write_bytes(b"NTTRACE2" + struct.pack("<Q", len(payload))
                         + payload)
        message = (f"{path}: corrupt compressed payload: 8 stray bytes "
                   f"after the end of the stream")
        with pytest.raises(ValueError, match=re.escape(message)):
            load_collector(path)
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["report", str(directory)])
        assert exit_info.value.code == message
        assert capsys.readouterr().out == ""

    def test_stray_bytes_after_span_log_name_file(self, tmp_path):
        path = tmp_path / "stray.nttrace"
        _write_payload(path, pack_collector(_spanned_collector()) + b"\x01")
        with pytest.raises(ValueError,
                           match=re.escape(str(path)) + ".*stray bytes"):
            load_collector(path)


def _write_payload(path, packed: bytes) -> None:
    """Wrap a packed collector body in a valid v2 header."""
    payload = zlib.compress(packed, level=6)
    path.write_bytes(b"NTTRACE2" + struct.pack("<Q", len(payload)) + payload)


def _raises_message(path) -> str:
    try:
        load_collector(path)
    except ValueError as exc:
        return str(exc)
    raise AssertionError("expected ValueError")


class TestStudyDirectories:
    def test_missing_directory_raises_file_not_found(self, tmp_path):
        missing = tmp_path / "never-created"
        with pytest.raises(FileNotFoundError, match="does not exist"):
            load_study(missing)
        with pytest.raises(FileNotFoundError, match=str(missing)):
            study_paths(missing)

    def test_empty_directory_names_path(self, tmp_path):
        with pytest.raises(ValueError, match="no .nttrace files"):
            load_study(tmp_path)
        with pytest.raises(ValueError, match=str(tmp_path)):
            study_paths(tmp_path)

    def test_study_paths_sorted(self, tmp_path):
        for name in ("m02-server", "m00-walkup", "m01-personal"):
            collector = TraceCollector(name)
            save_collector(collector, tmp_path / f"{name}.nttrace")
        assert [p.stem for p in study_paths(tmp_path)] == \
            ["m00-walkup", "m01-personal", "m02-server"]


class TestOutOfRangeKinds:
    """A record kind outside the 54 event kinds is refused, naming the
    file, by every decoder that yields record rows and so by every
    command that reads an archive."""

    @pytest.fixture(params=[99, -1])
    def archive(self, request, tmp_path):
        collector = _collector()
        collector.receive_block(array("q", (
            request.param, 1, 8, 600, 650, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)))
        directory = tmp_path / "traces"
        directory.mkdir()
        path = directory / f"{collector.machine_name}.nttrace"
        save_collector(collector, path)
        return path, request.param

    def test_decoders_name_the_file(self, archive):
        path, kind = archive
        message = re.escape(f"{path}: record kind {kind} is not one of "
                            f"the {N_EVENT_KINDS} trace event kinds")
        with pytest.raises(ValueError, match=message):
            load_collector(path)
        with pytest.raises(ValueError, match=message):
            StoreStream(path).record_block()
        with pytest.raises(ValueError, match=message):
            list(iter_trace_records(path))

    @pytest.mark.parametrize("argv", [
        ["report", "{traces}"],
        ["report", "{traces}", "--streaming"],
        ["replay", "--traces", "{traces}"],
        ["whatif", "--traces", "{traces}", "--grid", "devices=ssd"],
    ], ids=["report", "report-streaming", "replay", "whatif"])
    def test_command_exits_naming_the_file(self, archive, argv, capsys):
        path, kind = archive
        with pytest.raises(SystemExit) as exit_info:
            cli_main([arg.format(traces=path.parent) for arg in argv])
        assert exit_info.value.code == (
            f"{path}: record kind {kind} is not one of the "
            f"{N_EVENT_KINDS} trace event kinds")
        assert capsys.readouterr().out == ""
