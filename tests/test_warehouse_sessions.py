"""Tests for the warehouse (fact table) and instance reconstruction."""

from array import array
from unittest import mock

import numpy as np

from repro.analysis.warehouse import TraceWarehouse, pack_id
from repro.nt.tracing.collector import TraceCollector
from repro.nt.tracing.records import TraceEventKind
from repro.nt.tracing.store import load_study, save_study


def _columns_from_records(collectors):
    """The fact table built record by record from dataclass records."""
    cols = {name: [] for name in TraceWarehouse.COLUMNS}
    for midx, collector in enumerate(collectors):
        for r in collector.records:
            cols["machine_idx"].append(midx)
            for name in TraceWarehouse.COLUMNS[1:]:
                value = getattr(r, name)
                if name in ("fo_id", "pid"):
                    value = pack_id(midx, value)
                cols[name].append(value)
    return {name: np.array(values, dtype=np.int64)
            for name, values in cols.items()}


def _assert_columns_equal(wh, expected):
    for name in TraceWarehouse.COLUMNS:
        column = getattr(wh, name)
        assert column.dtype == np.int64, name
        assert column.flags["C_CONTIGUOUS"], name
        assert np.array_equal(column, expected[name]), name


class TestWarehouse:
    def test_row_count_matches_collectors(self, small_study,
                                          small_warehouse):
        assert small_warehouse.n_records == small_study.total_records

    def test_columns_aligned(self, small_warehouse):
        wh = small_warehouse
        for name in wh.COLUMNS:
            assert getattr(wh, name).shape == (wh.n_records,)

    def test_timestamps_ordered(self, small_warehouse):
        wh = small_warehouse
        assert np.all(wh.t_end >= wh.t_start)

    def test_machine_indices_valid(self, small_warehouse):
        wh = small_warehouse
        assert wh.machine_idx.min() >= 0
        assert wh.machine_idx.max() < len(wh.machine_names)

    def test_pack_id_disjoint(self):
        assert pack_id(0, 5) != pack_id(1, 5)
        assert pack_id(2, 1) > pack_id(1, 10**8)

    def test_file_dimension_populated(self, small_warehouse):
        wh = small_warehouse
        assert wh.files
        sample = next(iter(wh.files.values()))
        assert sample.path.startswith("\\")

    def test_process_dimension_populated(self, small_warehouse):
        wh = small_warehouse
        names = {p.name for p in wh.processes.values()}
        assert "explorer.exe" in names

    def test_masks_partition_paths(self, small_warehouse):
        wh = small_warehouse
        fastio = wh.mask_fastio
        reads = wh.mask_reads
        # FastIO reads are in both; IRP reads only in reads.
        assert (reads & fastio).sum() > 0
        assert (reads & ~fastio).sum() > 0

    def test_durations_positive(self, small_warehouse):
        wh = small_warehouse
        d = wh.durations_micros(wh.mask_reads)
        assert np.all(d >= 0)

    def test_kind_mask(self, small_warehouse):
        wh = small_warehouse
        m = wh.mask_kind(TraceEventKind.IRP_CREATE)
        assert m.sum() > 0
        assert np.all(wh.kind[m] == int(TraceEventKind.IRP_CREATE))


class TestRecordColumns:
    """The fact table reads staged record blocks in place; it must equal
    the table built record by record from the same records."""

    def test_archive_blocks_equal_record_by_record(self, small_study,
                                                   tmp_path):
        save_study(small_study.collectors, tmp_path)
        staged = load_study(tmp_path)
        # Building the table builds no dataclass records.
        with mock.patch("repro.nt.tracing.collector.records_from_block",
                        side_effect=AssertionError("built a record")):
            wh = TraceWarehouse(staged)
        _assert_columns_equal(wh, _columns_from_records(load_study(tmp_path)))
        assert wh.n_records == small_study.total_records

    def test_blocks_and_an_empty_collector_keep_order(self):
        def block(first, count):
            return array("q", [first + i * 100 + f
                               for i in range(count) for f in range(15)])

        early = TraceCollector("early")
        early.receive_block(block(1, 2))
        early.receive_block(block(1_000, 3))
        staged = TraceCollector("staged")
        staged.receive_block(block(5_000, 4))
        collectors = [staged, TraceCollector("empty"), early]
        wh = TraceWarehouse(collectors)
        assert wh.machine_idx.tolist() == [0] * 4 + [2] * 5
        assert wh.kind.tolist() == (
            [5_000 + i * 100 for i in range(4)]
            + [1 + i * 100 for i in range(2)]
            + [1_000 + i * 100 for i in range(3)])
        _assert_columns_equal(wh, _columns_from_records(collectors))

    def test_empty_warehouse(self):
        wh = TraceWarehouse([])
        assert wh.n_records == 0
        for name in TraceWarehouse.COLUMNS:
            assert getattr(wh, name).shape == (0,)


class TestInstances:
    def test_cached_on_warehouse(self, small_warehouse):
        assert small_warehouse.instances is small_warehouse.instances

    def test_every_instance_has_create(self, small_warehouse):
        for inst in small_warehouse.instances:
            assert inst.open_t >= 0

    def test_successful_instances_have_lifecycle(self, small_warehouse):
        done = [s for s in small_warehouse.instances
                if not s.open_failed and s.cleanup_t >= 0]
        assert done
        for inst in done[:200]:
            assert inst.cleanup_t >= inst.open_t
            if inst.close_t >= 0:
                assert inst.close_t >= inst.cleanup_t

    def test_failed_opens_have_no_ops(self, small_warehouse):
        failed = [s for s in small_warehouse.instances if s.open_failed]
        assert failed
        assert all(not s.ops for s in failed)

    def test_usage_classification_consistent(self, small_warehouse):
        for inst in small_warehouse.instances:
            if inst.usage == "read-only":
                assert inst.n_reads > 0 and inst.n_writes == 0
            elif inst.usage == "write-only":
                assert inst.n_writes > 0 and inst.n_reads == 0
            elif inst.usage == "read-write":
                assert inst.n_reads > 0 and inst.n_writes > 0

    def test_bytes_match_ops(self, small_warehouse):
        for inst in small_warehouse.instances[:300]:
            assert inst.bytes_read == sum(op.returned for op in inst.ops
                                          if op.is_read)
            assert inst.bytes_written == sum(op.returned for op in inst.ops
                                             if not op.is_read)

    def test_paging_duplicates_filtered(self, small_warehouse):
        # Instances with direct data ops must have no paging ops kept.
        for inst in small_warehouse.instances:
            direct = [op for op in inst.ops if not op.is_paging]
            if direct:
                assert all(not op.is_paging for op in inst.ops)

    def test_image_access_instances_exist(self, small_warehouse):
        images = [s for s in small_warehouse.instances if s.image_access]
        assert images
        for inst in images[:50]:
            assert all(op.is_paging for op in inst.ops)

    def test_fastio_counts_consistent(self, small_warehouse):
        for inst in small_warehouse.instances[:300]:
            assert inst.n_fastio_reads <= inst.n_reads
            assert inst.n_fastio_writes <= inst.n_writes

    def test_session_duration_nonnegative(self, small_warehouse):
        assert all(s.session_duration >= 0
                   for s in small_warehouse.instances)

    def test_access_patterns_valid(self, small_warehouse):
        valid = {"whole", "sequential", "random", "none"}
        assert all(s.access_pattern() in valid
                   for s in small_warehouse.instances[:500])

    def test_sequential_runs_sum_to_bytes(self, small_warehouse):
        for inst in small_warehouse.instances[:300]:
            runs = inst.sequential_runs(reads=True)
            assert sum(runs) == inst.bytes_read

    def test_instances_sorted_by_machine_and_time(self, small_warehouse):
        insts = small_warehouse.instances
        keys = [(s.machine_idx, s.open_t) for s in insts]
        assert keys == sorted(keys)


class TestAccessPatternClassifier:
    def _instance_with_ops(self, ops, size):
        from repro.analysis.sessions import DataOp, Instance
        inst = Instance(
            fo_id=1, machine_idx=0, pid=1, process_name="t",
            interactive=False, path="\\f", extension="", volume_label="C",
            is_remote=False, open_t=0, open_status=0, open_duration=1,
            create_disposition=1, create_result=1, options=0, attributes=0)
        inst.file_size_max = size
        for i, (offset, length, is_read) in enumerate(ops):
            inst.ops.append(DataOp(t=i, is_read=is_read, offset=offset,
                                   returned=length, is_fastio=False,
                                   duration=1, is_paging=False))
            if is_read:
                inst.n_reads += 1
                inst.bytes_read += length
            else:
                inst.n_writes += 1
                inst.bytes_written += length
        return inst

    def test_whole_file(self):
        inst = self._instance_with_ops(
            [(0, 4096, True), (4096, 4096, True)], size=8192)
        assert inst.access_pattern() == "whole"

    def test_partial_sequential(self):
        inst = self._instance_with_ops(
            [(4096, 4096, True), (8192, 4096, True)], size=100_000)
        assert inst.access_pattern() == "sequential"

    def test_random(self):
        inst = self._instance_with_ops(
            [(0, 4096, True), (50_000, 4096, True)], size=100_000)
        assert inst.access_pattern() == "random"

    def test_fuzzy_gap_still_sequential(self):
        # 1000 and 1020 share the same 7-bit-masked block (896), so the
        # 20-byte gap is forgiven; a gap crossing the 128-byte boundary
        # is not.
        inst = self._instance_with_ops(
            [(0, 1000, True), (1020, 1000, True)], size=100_000)
        assert inst.access_pattern() in ("sequential", "whole")
        crossing = self._instance_with_ops(
            [(0, 1000, True), (1100, 1000, True)], size=100_000)
        assert crossing.access_pattern() == "random"

    def test_runs_split_on_jump(self):
        inst = self._instance_with_ops(
            [(0, 4096, True), (4096, 4096, True), (50_000, 4096, True)],
            size=100_000)
        runs = inst.sequential_runs(reads=True)
        assert sorted(runs) == [4096, 8192]
