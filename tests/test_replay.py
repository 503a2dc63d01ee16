"""The replay engine's contracts.

Three layers of guarantee, mirroring the serial-vs-parallel differential
harness in ``test_parallel_study.py``:

* **Fidelity** — a closed-loop replay of an archived study reproduces the
  source's per-kind record counts exactly for the core data path (create,
  read, write on both dispatch paths, cleanup, close), and anything it
  cannot re-issue is flagged in the outcome with a reason, never dropped
  silently.
* **Determinism** — replaying the same archive twice produces
  byte-identical second-generation archives, and the ``--workers``
  process-pool fan-out produces the same bytes as the serial loop.
* **Plumbing** — open-loop mode honors archived start times, the CLI
  round-trips a study through ``repro replay``, and malformed inputs
  fail with named errors.

The fidelity summary is built from record columns; the per-record
summary it replaced is kept below as the reference, and generated and
hand-picked traces must give the reference's summary field by field.
``repro replay`` decodes each source file once and builds no record
objects.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import StudyConfig, run_study
from repro.analysis.fidelity import (CORE_KINDS, TraceStats, fidelity_report,
                                     machine_fidelity)
from repro.analysis.warehouse import block_rows, record_rows
from repro.cli import main as cli_main
from repro.nt.tracing import collector as collector_module
from repro.nt.tracing import fastbuf, store
from repro.nt.tracing.collector import TraceCollector
from repro.nt.tracing.records import (N_EVENT_KINDS, TraceEventKind,
                                      TraceRecord)
from repro.nt.tracing.store import (
    StoreStream,
    iter_trace_records,
    load_collector,
    pack_collector,
    save_study,
    study_paths)
from repro.replay import ReplayConfig, replay_archive, replay_collector

K = TraceEventKind


def _study_archive(tmp_path_factory, seed: int = 5):
    """A small two-machine study saved as a .nttrace archive."""
    result = run_study(StudyConfig(
        n_machines=2, duration_seconds=20.0, seed=seed, content_scale=0.05))
    directory = tmp_path_factory.mktemp(f"replay-archive-{seed}")
    save_study(result.collectors, directory)
    return result, directory


@pytest.fixture(scope="module")
def archived_study(tmp_path_factory):
    return _study_archive(tmp_path_factory)


@pytest.fixture(scope="module")
def closed_replay(archived_study):
    _result, directory = archived_study
    return replay_archive(directory, ReplayConfig(mode="closed", seed=5))


class TestClosedLoopFidelity:
    def test_record_counts_match_exactly(self, archived_study, closed_replay):
        result, _directory = archived_study
        assert len(closed_replay.machines) == len(result.collectors)
        for source, machine in zip(result.collectors, closed_replay.machines):
            assert machine.name == source.machine_name
            assert len(machine.collector.records) == len(source.records)

    def test_core_kind_counts_exact(self, archived_study, closed_replay):
        result, _directory = archived_study
        pairs = [(m.name, src, m.collector, m.outcome.to_dict())
                 for src, m in zip(result.collectors, closed_replay.machines)]
        report = fidelity_report(pairs, mode="closed")
        assert report.all_core_match
        for fidelity in report.machines:
            assert fidelity.core_mismatches == {}
            # Not just equal-and-zero: the study must actually exercise
            # the whole core path for the exactness claim to mean much.
            for kind in CORE_KINDS:
                assert fidelity.source.kind_counts[kind] > 0, kind

    def test_every_kind_count_matches(self, archived_study, closed_replay):
        # Stronger than the core-path gate: with the replay machine fully
        # quiesced, *every* kind's count should reproduce.
        result, _directory = archived_study
        for source, machine in zip(result.collectors, closed_replay.machines):
            fidelity = machine_fidelity(machine.name, source,
                                        machine.collector)
            assert fidelity.kind_deltas == {}

    def test_size_distributions_identical(self, archived_study,
                                          closed_replay):
        result, _directory = archived_study
        for source, machine in zip(result.collectors, closed_replay.machines):
            fidelity = machine_fidelity(machine.name, source,
                                        machine.collector)
            assert fidelity.read_size_ks == 0.0
            assert fidelity.write_size_ks == 0.0
            assert fidelity.source.sequential_fraction == \
                pytest.approx(fidelity.replayed.sequential_fraction)

    def test_nothing_skipped(self, closed_replay):
        assert closed_replay.total_skipped == 0
        for machine in closed_replay.machines:
            assert machine.outcome.skipped == {}
            assert machine.outcome.source_records == \
                machine.outcome.replayed_records

    def test_replay_perf_counters(self, closed_replay):
        for machine in closed_replay.machines:
            counters = machine.perf["counters"]
            assert counters["replay.records_injected"] == \
                sum(machine.outcome.injected.values())
            gauges = machine.perf["gauges"]
            assert gauges["replay.divergence.skipped"] == 0


class TestOpenLoop:
    def test_open_loop_completes_with_same_counts(self, archived_study):
        result, directory = archived_study
        replay = replay_archive(directory, ReplayConfig(mode="open", seed=5))
        for source, machine in zip(result.collectors, replay.machines):
            assert len(machine.collector.records) == len(source.records)

    def test_open_loop_honors_recorded_start_times(self, archived_study):
        # In open-loop mode a record never starts before its archived
        # t_start; closed-loop compresses idle time so it finishes sooner.
        result, directory = archived_study
        open_rep = replay_archive(directory, ReplayConfig(mode="open",
                                                          seed=5))
        closed_rep = replay_archive(directory, ReplayConfig(mode="closed",
                                                            seed=5))
        for source, opened, closed in zip(
                result.collectors, open_rep.machines, closed_rep.machines):
            last_source = max(rec.t_start for rec in source.records)
            last_open = max(rec.t_end for rec in opened.collector.records)
            last_closed = max(rec.t_end for rec in closed.collector.records)
            assert last_open >= last_source
            assert last_closed < last_open


class TestDeterminism:
    def test_replay_twice_byte_identical(self, archived_study, closed_replay,
                                         tmp_path):
        _result, directory = archived_study
        again = replay_archive(directory, ReplayConfig(mode="closed", seed=5))
        for first, second in zip(closed_replay.machines, again.machines):
            assert pack_collector(first.collector) == \
                pack_collector(second.collector)
            assert first.outcome.to_dict() == second.outcome.to_dict()
            assert first.perf == second.perf
        # And the archives those collectors save are byte-identical too.
        save_study([m.collector for m in again.machines], tmp_path)
        for machine, path in zip(closed_replay.machines,
                                 study_paths(tmp_path)):
            saved = pack_collector(load_collector(path))
            assert saved == pack_collector(machine.collector)

    def test_serial_and_parallel_byte_identical(self, archived_study,
                                                closed_replay):
        _result, directory = archived_study
        parallel = replay_archive(
            directory, ReplayConfig(mode="closed", seed=5, workers=2))
        for serial_m, parallel_m in zip(closed_replay.machines,
                                        parallel.machines):
            assert pack_collector(serial_m.collector) == \
                pack_collector(parallel_m.collector)
            assert serial_m.outcome.to_dict() == parallel_m.outcome.to_dict()
            assert serial_m.perf == parallel_m.perf


class TestUnreplayableRecords:
    def _record(self, kind: TraceEventKind, fo_id: int) -> tuple:
        # kind, fo_id, pid, t_start, t_end, then ten zero-or-one fields.
        return (int(kind), fo_id, 8, 0, 10, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0)

    def test_orphan_records_flagged_not_dropped(self):
        # A CREATE with no name record, and a READ on a never-created file
        # object, cannot be reconstructed; both must be accounted for.
        source = TraceCollector("m00-orphans")
        source.receive_block(array("q", [
            *self._record(TraceEventKind.IRP_CREATE, fo_id=100),
            *self._record(TraceEventKind.IRP_READ, fo_id=200),
        ]))
        machine = replay_collector(source)
        outcome = machine.outcome
        assert outcome.source_records == 2
        assert outcome.replayed_records == 0
        assert outcome.skipped["IRP_CREATE"]["no name record"] == 1
        assert outcome.skipped["IRP_READ"]["no file object mapping"] == 1
        report = fidelity_report(
            [(machine.name, source, machine.collector, outcome.to_dict())],
            mode="closed")
        assert not report.all_core_match
        assert report.total_skipped == 2
        assert "unreplayable IRP_CREATE: 1 (no name record)" in \
            report.format()

    @pytest.mark.parametrize("kind", [-1, -N_EVENT_KINDS, N_EVENT_KINDS, 99])
    def test_out_of_range_kind_raises_without_wrapping(self, kind):
        # An in-memory source skips the decoders' kind check; injection
        # refuses the kind instead of indexing a dispatch table with it.
        source = TraceCollector("m00-bad-kind")
        source.receive_block(array("q", _row(kind)))
        with pytest.raises(ValueError,
                           match=f"^{kind} is not a valid TraceEventKind$"):
            replay_collector(source)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="replay mode"):
            ReplayConfig(mode="sideways")


class TestReplayCli:
    def test_replay_command_round_trip(self, archived_study, tmp_path,
                                       capsys):
        _result, directory = archived_study
        fidelity_path = tmp_path / "fidelity.json"
        out_dir = tmp_path / "second-gen"
        code = cli_main(["replay", "--traces", str(directory),
                         "--mode", "closed", "--seed", "5",
                         "--out", str(out_dir),
                         "--fidelity-json", str(fidelity_path)])
        assert code == 0
        captured = capsys.readouterr()
        assert "all core per-kind counts match" in captured.out
        doc = json.loads(fidelity_path.read_text())
        assert doc["format"] == "nt-replay-fidelity-1"
        assert doc["all_core_match"] is True
        assert doc["total_skipped"] == 0
        assert doc["core_kinds"] == list(CORE_KINDS)
        # The second-generation archive loads and matches record counts.
        for src_path, gen_path in zip(study_paths(directory),
                                      study_paths(out_dir)):
            n_source = sum(1 for _ in iter_trace_records(src_path))
            n_replayed = sum(1 for _ in iter_trace_records(gen_path))
            assert n_replayed == n_source

    def test_missing_archive_exits_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="does not exist"):
            cli_main(["replay", "--traces", str(tmp_path / "nope")])

    def test_empty_archive_exits_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="no .nttrace files"):
            cli_main(["replay", "--traces", str(tmp_path)])


# --------------------------------------------------------------------- #
# Reading each source once.

def _count_calls(monkeypatch, fn) -> Counter:
    """Route every ``repro`` module's binding of ``fn`` through a wrapper
    that counts calls by first argument."""
    calls: Counter = Counter()

    def counting(path, *args, **kwargs):
        calls[str(path)] += 1
        return fn(path, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counting)
    return calls


def forbid_record_objects(monkeypatch) -> Counter:
    """Make building record objects fail, and count archive decodes."""
    def refuse(*_args, **_kwargs):
        raise AssertionError("replay built TraceRecord objects")

    monkeypatch.setattr(fastbuf, "records_from_block", refuse)
    monkeypatch.setattr(collector_module, "records_from_block", refuse)
    monkeypatch.setattr(StoreStream, "records", refuse)
    return _count_calls(monkeypatch, store.load_collector)


class TestReadOnce:
    def test_replay_cli_decodes_each_source_once(self, archived_study,
                                                  tmp_path, monkeypatch):
        _result, directory = archived_study
        fidelity_path = tmp_path / "fidelity.json"
        loads = forbid_record_objects(monkeypatch)
        code = cli_main(["replay", "--traces", str(directory),
                         "--seed", "5", "--out", str(tmp_path / "gen"),
                         "--fidelity-json", str(fidelity_path)])
        assert code == 0
        assert loads == Counter(str(p) for p in study_paths(directory))
        doc = json.loads(fidelity_path.read_text())
        assert doc["all_core_match"] is True
        for machine in doc["machines"]:
            assert machine["source"] == machine["replayed"]


# --------------------------------------------------------------------- #
# The columnar summary against the record-at-a-time reference.

_READ_KINDS = (K.IRP_READ, K.FASTIO_READ)
_WRITE_KINDS = (K.IRP_WRITE, K.FASTIO_WRITE)


def reference_stats(records) -> TraceStats:
    """The summary as one pass over TraceRecords once built it."""
    stats = TraceStats()
    # fo_id -> next sequential offset, for run detection.
    cursors: dict[int, int] = {}
    # fo_id -> CREATE t_start, consumed by the matching CLOSE.
    open_at: dict[int, int] = {}
    for rec in records:
        stats.n_records += 1
        kind = TraceEventKind(rec.kind)
        stats.kind_counts[kind.name] += 1
        if kind == K.IRP_CREATE:
            open_at[rec.fo_id] = rec.t_start
            cursors[rec.fo_id] = 0
        elif kind == K.IRP_CLOSE:
            started = open_at.pop(rec.fo_id, None)
            if started is not None:
                stats.open_durations.append(rec.t_end - started)
        elif kind in _READ_KINDS or kind in _WRITE_KINDS:
            if kind in _READ_KINDS:
                stats.read_sizes.append(rec.length)
                if rec.is_paging:
                    stats.paging_reads += 1
                if kind == K.FASTIO_READ:
                    stats.fastio_reads += 1
                else:
                    stats.irp_reads += 1
            else:
                stats.write_sizes.append(rec.length)
            stats.total_transfers += 1
            if cursors.get(rec.fo_id) == rec.offset:
                stats.sequential_transfers += 1
            cursors[rec.fo_id] = rec.offset + rec.length
    return stats


def _row(kind, fo_id=1, t_start=0, duration=10, irp_flags=0, offset=0,
         length=512) -> tuple:
    return (int(kind), fo_id, 8, t_start, t_start + duration, 0, irp_flags,
            offset, length, length, 4096, 1, 0, 0, 0)


def _collector(rows, split_at: int = 0) -> TraceCollector:
    """A collector holding ``rows`` staged in two blocks, the second
    starting at row ``split_at`` (an empty part adds no block)."""
    collector = TraceCollector("m00-oracle")
    for part in (rows[:split_at], rows[split_at:]):
        if part:
            collector.receive_block(array("q", (f for row in part
                                                for f in row)))
    return collector


def _plain(value) -> bool:
    if isinstance(value, (list, Counter)):
        items = value.values() if isinstance(value, Counter) else value
        return all(type(item) is int for item in items)
    return type(value) is int


def check_stats(rows, split_at: int = 0) -> TraceStats:
    """The columnar summary of ``rows`` equals the reference's field by
    field, holds only plain Python values, and leaves the collector's
    staged blocks as they were."""
    want = reference_stats(TraceRecord(*row) for row in rows)
    collector = _collector(rows, split_at)
    blocks = [array("q", block) for block in collector.blocks]
    got = machine_fidelity("m00-oracle", collector, collector).source
    assert vars(got) == vars(want)
    assert all(_plain(value) for value in vars(got).values()), vars(got)
    json.dumps(got.to_dict())
    assert list(collector.blocks) == blocks
    return got


OFFSETS = (0, 512, 1024, 4096)
rows_strategy = st.lists(st.builds(
    _row,
    kind=st.sampled_from((K.IRP_CREATE, K.IRP_CLOSE, K.IRP_CLOSE,
                          K.IRP_READ, K.IRP_WRITE, K.FASTIO_READ,
                          K.FASTIO_WRITE, K.IRP_CLEANUP,
                          K.IRP_QUERY_INFORMATION)),
    fo_id=st.integers(0, 4),
    t_start=st.integers(0, 10**9),
    duration=st.integers(0, 10**6),
    irp_flags=st.sampled_from((0, 0x2, 0x40, 0x42, 0x400)),
    # Few offsets and lengths, so sequential runs are common.
    offset=st.one_of(st.sampled_from(OFFSETS), st.integers(0, 2**40)),
    length=st.one_of(st.sampled_from((0, 512)), st.integers(0, 2**24))),
    max_size=60)
traces = rows_strategy.flatmap(
    lambda rows: st.tuples(st.just(rows), st.integers(0, len(rows))))


@settings(max_examples=80, deadline=None)
@given(trace=traces)
@example(trace=([], 0))
def test_columnar_stats_match_record_at_a_time_reference(trace):
    rows, split_at = trace
    check_stats(rows, split_at)


class TestTraceStats:
    def test_streaming_matches_in_memory(self, archived_study):
        # The summary of an archive's record block, decoded whole, must
        # equal the reference over the store's streaming iterator.
        result, directory = archived_study
        for source, path in zip(result.collectors, study_paths(directory)):
            decoded = TraceStats.from_rows(
                block_rows(StoreStream(path).record_block()))
            streamed = reference_stats(iter_trace_records(path))
            assert vars(decoded) == vars(streamed)
            assert decoded.to_dict() == \
                TraceStats.from_rows(record_rows(source)).to_dict()

    def test_detects_count_mismatch(self):
        rec = _row(K.IRP_READ, length=4096)
        fidelity = machine_fidelity("m", _collector([rec, rec]),
                                    _collector([rec]))
        assert not fidelity.core_match
        assert fidelity.core_mismatches == {"IRP_READ": -1}
        assert fidelity.count_delta("IRP_READ") == -1

    def test_second_create_before_close(self):
        # The second CREATE restarts the open; the CLOSE ends that one.
        stats = check_stats([_row(K.IRP_CREATE, t_start=0),
                             _row(K.IRP_CREATE, t_start=100),
                             _row(K.IRP_CLOSE, t_start=200, duration=5)])
        assert stats.open_durations == [105]

    def test_close_without_create(self):
        stats = check_stats([_row(K.IRP_CLOSE, fo_id=3),
                             _row(K.IRP_CREATE, fo_id=4, t_start=50),
                             _row(K.IRP_CLOSE, fo_id=4, t_start=60)])
        assert stats.open_durations == [20]

    def test_double_close(self):
        stats = check_stats([_row(K.IRP_CREATE, t_start=0),
                             _row(K.IRP_CLOSE, t_start=30),
                             _row(K.IRP_CLOSE, t_start=90)])
        assert stats.open_durations == [40]

    def test_transfers_before_any_create(self):
        # No cursor yet, so even a transfer at offset 0 is not sequential;
        # the one that follows it on is.
        stats = check_stats([_row(K.IRP_READ, offset=0, length=512),
                             _row(K.IRP_READ, offset=512, length=512),
                             _row(K.IRP_CREATE),
                             _row(K.IRP_WRITE, offset=0, length=100)])
        assert (stats.sequential_transfers, stats.total_transfers) == (2, 3)

    def test_zero_length_transfers(self):
        stats = check_stats([_row(K.IRP_CREATE),
                             _row(K.FASTIO_READ, offset=0, length=0),
                             _row(K.FASTIO_READ, offset=0, length=0),
                             _row(K.IRP_WRITE, offset=0, length=0)])
        assert stats.sequential_transfers == 3
        assert stats.read_sizes == [0, 0] and stats.write_sizes == [0]

    @pytest.mark.parametrize("flag", [0x02, 0x40])
    def test_each_paging_bit_alone(self, flag):
        stats = check_stats([_row(K.IRP_READ, irp_flags=flag),
                             _row(K.IRP_READ, irp_flags=0x400),
                             _row(K.IRP_WRITE, irp_flags=flag)])
        assert stats.paging_reads == 1
        assert stats.paging_read_fraction == 0.5

    def test_interleaved_file_objects(self):
        rows = [_row(K.IRP_CREATE, fo_id=1, t_start=0),
                _row(K.IRP_CREATE, fo_id=2, t_start=1),
                _row(K.IRP_READ, fo_id=1, offset=0, length=512),
                _row(K.IRP_READ, fo_id=2, offset=4096, length=512),
                _row(K.IRP_READ, fo_id=1, offset=512, length=512),
                _row(K.IRP_READ, fo_id=2, offset=0, length=512),
                _row(K.IRP_CLOSE, fo_id=2, t_start=70, duration=0),
                _row(K.IRP_CLOSE, fo_id=1, t_start=80, duration=0)]
        stats = check_stats(rows)
        assert stats.sequential_transfers == 2
        # Reported in CLOSE order, not file-object order.
        assert stats.open_durations == [69, 80]

    def test_empty_trace(self):
        stats = check_stats([])
        assert stats.n_records == 0
        assert stats.to_dict()["kind_counts"] == {}
        assert stats.sequential_fraction != stats.sequential_fraction

    def test_unknown_kind_raises(self):
        rows = np.array([_row(K.IRP_CREATE), _row(99)], dtype=np.int64)
        with pytest.raises(ValueError, match="99"):
            TraceStats.from_rows(rows)
        with pytest.raises(ValueError, match="99"):
            reference_stats(TraceRecord(*row) for row in rows.tolist())
