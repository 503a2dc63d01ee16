"""The what-if sweep engine and the storage layer's replay contracts.

Three layers, mirroring ``test_replay.py``:

* **Grid plumbing** — spec parsing, cell enumeration, CLI errors; a bad
  cache size is refused before anything replays.
* **Determinism** — the same sweep twice is byte-identical, and the
  ``--workers`` process-pool fan-out produces the same report bytes as
  the serial loop (which also pins down per-device queue ordering:
  queue state is rebuilt identically wherever the machine replays).  A
  serial sweep decodes each source file once and builds no record
  objects.
* **Physics** — swapping the device personality moves request latency
  and the critical path's device share without changing a single
  operation count, and the machine without a storage layer keeps the
  seed code path: no device below the FSD, no storage counters, and
  byte-identical archives run-to-run.
"""

from __future__ import annotations

import enum
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro import StudyConfig, run_study
from repro.cli import main as cli_main
from repro.common.flags import (
    CreateDisposition,
    CreateOptions,
    FileAttributes,
    IrpFlags,
)
from repro.nt.fs.volume import Volume
from repro.nt.io.fastio import FastIoOp
from repro.nt.system import Machine, MachineConfig
from repro.nt.tracing.records import TraceEventKind
from repro.nt.tracing.spans import SpanRecord
from repro.nt.tracing.store import pack_collector, save_study, study_paths
from repro.replay import ReplayConfig, replay_archive
from repro.replay.whatif import (
    GridCell,
    grid_cells,
    parse_grid,
    whatif_sweep,
)
from tests.test_replay import forbid_record_objects

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    """A small two-machine study saved as a .nttrace archive."""
    result = run_study(StudyConfig(
        n_machines=2, duration_seconds=15.0, seed=11, content_scale=0.05))
    directory = tmp_path_factory.mktemp("whatif-archive")
    save_study(result.collectors, directory)
    return directory


class TestGridParsing:
    def test_parses_the_documented_spec(self):
        grid = parse_grid("devices=hdd_ide,ssd×cache_mb=4,16,64")
        assert grid == {"devices": ["hdd_ide", "ssd"],
                        "cache_mb": [4.0, 16.0, 64.0]}

    def test_ascii_separators_accepted(self):
        assert (parse_grid("devices=ssd*cache_mb=8")
                == parse_grid("devices=ssd;cache_mb=8")
                == {"devices": ["ssd"], "cache_mb": [8.0]})

    def test_single_dimension_leaves_other_axis_default(self):
        cells = grid_cells(parse_grid("devices=hdd_ide,hdd_scsi"))
        assert cells == [GridCell("hdd_ide", None),
                         GridCell("hdd_scsi", None)]

    def test_cells_are_devices_major_in_spec_order(self):
        cells = grid_cells(parse_grid("devices=ssd,hdd_ide×cache_mb=16,4"))
        assert [c.label for c in cells] == [
            "ssd+cache16mb", "ssd+cache4mb",
            "hdd_ide+cache16mb", "hdd_ide+cache4mb"]

    def test_unknown_device_rejected(self):
        with pytest.raises(ValueError, match="unknown storage personality"):
            parse_grid("devices=floppy")

    def test_unknown_dimension_rejected(self):
        with pytest.raises(ValueError, match="bad grid dimension"):
            parse_grid("disks=ssd")

    def test_duplicate_and_empty_rejected(self):
        with pytest.raises(ValueError, match="twice"):
            parse_grid("devices=ssd;devices=hdd_ide")
        with pytest.raises(ValueError, match="empty grid"):
            parse_grid(" ; ")
        with pytest.raises(ValueError, match="no values"):
            parse_grid("devices=")

    @pytest.mark.parametrize(
        "size", ["abc", "inf", "-inf", "nan", "1e400", "0", "-1", "-0"])
    def test_bad_cache_size_rejected_before_any_cell(self, size):
        # Non-numeric, non-finite and non-positive sizes: the whole spec
        # is refused, so the good 4 MB cell never replays first.
        with pytest.raises(ValueError, match=f"bad cache_mb value '{size}'"):
            parse_grid(f"devices=ssd×cache_mb=4,{size}")
        with pytest.raises(ValueError, match=f"bad cache_mb value '{size}'"):
            parse_grid(f"cache_mb={size}")


class TestSweep:
    GRID = "devices=hdd_ide,ssd×cache_mb=0.25,64"

    @pytest.fixture(scope="class")
    def report(self, archive):
        return whatif_sweep(archive, parse_grid(self.GRID),
                            ReplayConfig(seed=11))

    def test_serial_sweep_decodes_each_source_once(self, archive, report,
                                                   monkeypatch):
        # Every cell replays the same decoded sources, read in place.
        loads = forbid_record_objects(monkeypatch)
        again = whatif_sweep(archive, parse_grid(self.GRID),
                             ReplayConfig(seed=11))
        assert loads == Counter(str(p) for p in study_paths(archive))
        assert again.to_dict() == report.to_dict()

    def test_sweep_builds_no_span_record_or_kind_enum(self, archive, report,
                                                     monkeypatch):
        # Spans stay staged int64 rows and record kinds stay ints, so no
        # cell builds a SpanRecord or any of the enums injection once
        # built for every replayed record; rebuilding each cell's volume
        # trees keeps node attributes plain ints.
        def refuse(*_args, **_kwargs):
            raise AssertionError("the sweep built a SpanRecord")

        forbidden = (TraceEventKind, IrpFlags, FastIoOp, CreateDisposition,
                     CreateOptions, FileAttributes)
        construct = enum.EnumType.__call__

        def guarded(cls, *args, **kwargs):
            if cls in forbidden:
                raise AssertionError(f"the sweep built a {cls.__name__}")
            return construct(cls, *args, **kwargs)

        monkeypatch.setattr(SpanRecord, "__init__", refuse)
        monkeypatch.setattr(enum.EnumType, "__call__", guarded)
        again = whatif_sweep(archive, parse_grid(self.GRID),
                             ReplayConfig(seed=11))
        monkeypatch.undo()
        assert again.to_dict() == report.to_dict()

    def test_core_counts_exact_in_every_cell(self, report):
        assert report.all_core_match
        assert [c["label"] for c in report.cells] == [
            "hdd_ide+cache0.25mb", "hdd_ide+cache64mb",
            "ssd+cache0.25mb", "ssd+cache64mb"]
        counts = {c["replayed_records"] for c in report.cells}
        assert len(counts) == 1  # devices move time, never operations

    def test_device_swap_moves_latency_and_critical_path(self, report):
        by_label = {c["label"]: c for c in report.cells}
        hdd = by_label["hdd_ide+cache64mb"]
        ssd = by_label["ssd+cache64mb"]
        hdd_read = hdd["latency_bands"]["io.irp.latency.read"]
        ssd_read = ssd["latency_bands"]["io.irp.latency.read"]
        assert hdd_read["count"] == ssd_read["count"]
        assert hdd_read["mean_micros"] > ssd_read["mean_micros"]
        # The movement is attributed to the device share of the path.
        hdd_rows = {r["kind"]: r for r in hdd["critical_path"]["kinds"]}
        ssd_rows = {r["kind"]: r for r in ssd["critical_path"]["kinds"]}
        assert (hdd_rows["IRP_READ"]["mean_device_micros"]
                > ssd_rows["IRP_READ"]["mean_device_micros"] > 0)
        assert hdd["storage"]["busy_ticks"] > ssd["storage"]["busy_ticks"]
        assert hdd["storage"]["requests"] == ssd["storage"]["requests"] > 0

    def test_cache_axis_moves_hit_rate(self, report):
        by_label = {c["label"]: c for c in report.cells}
        small = by_label["ssd+cache0.25mb"]["cache"]
        large = by_label["ssd+cache64mb"]["cache"]
        assert small["pages_evicted"] > 0 == large["pages_evicted"]
        assert small["hit_rate"] < large["hit_rate"]

    def test_report_round_trips_as_json(self, report):
        doc = json.loads(json.dumps(report.to_dict(), sort_keys=True))
        assert doc["format"] == "nt-whatif-1"
        assert doc["all_core_match"] is True
        assert len(doc["deterministic"]["cells"]) == 4
        text = report.format()
        assert "closed-loop core counts: exact in every cell" in text


class TestDeterminism:
    GRID = "devices=hdd_ide,ssd"

    def _report_bytes(self, archive, workers) -> bytes:
        report = whatif_sweep(archive, parse_grid(self.GRID),
                              ReplayConfig(seed=11, workers=workers))
        return json.dumps(report.to_dict(), sort_keys=True).encode()

    def test_rerun_is_byte_identical(self, archive):
        assert (self._report_bytes(archive, None)
                == self._report_bytes(archive, None))

    def test_workers_fanout_is_byte_identical_to_serial(self, archive):
        assert (self._report_bytes(archive, None)
                == self._report_bytes(archive, 2))



class TestSeedPathParity:
    @staticmethod
    def _mounted(config: MachineConfig) -> Machine:
        machine = Machine(config)
        machine.mount("C", Volume("C", Volume.NTFS,
                                  capacity_bytes=2 * 1024**3))
        return machine

    def test_no_storage_means_no_device_below_the_fsd(self):
        machine = self._mounted(MachineConfig(name="bare", seed=3))
        filter_device = machine.io.stack_for(machine.drives["C"])
        fs_device = filter_device.lower
        assert fs_device.lower is None
        assert machine._storage is None
        snapshot = machine.perf.snapshot()
        assert not any(name.startswith("storage.")
                       for name in snapshot["counters"])

    def test_storage_machine_attaches_below_local_volumes_only(self):
        machine = self._mounted(MachineConfig(name="dev", seed=3,
                                              storage="hdd_ide"))
        filter_device = machine.io.stack_for(machine.drives["C"])
        storage_device = filter_device.lower.lower
        assert storage_device is not None
        assert storage_device.driver is machine._storage
        assert storage_device.lower is None

    def test_unknown_personality_rejected(self):
        with pytest.raises(ValueError, match="unknown storage personality"):
            Machine(MachineConfig(name="bad", seed=3, storage="tape"))

    def test_storage_free_replay_is_byte_stable(self, archive):
        # With the device layer disabled the replay runs the legacy
        # inline pricing — the exact seed path — and stays deterministic.
        first = replay_archive(archive, ReplayConfig(seed=11))
        second = replay_archive(archive, ReplayConfig(seed=11))
        for a, b in zip(first.machines, second.machines):
            assert (pack_collector(a.collector)
                    == pack_collector(b.collector))
            assert not any(name.startswith("storage.")
                           for name in a.perf.get("counters", {}))


class TestCli:
    def test_whatif_command_round_trip(self, archive, tmp_path, capsys):
        out = tmp_path / "whatif.json"
        status = cli_main([
            "whatif", "--traces", str(archive),
            "--grid", "devices=ssd", "--seed", "11",
            "--json", str(out)])
        assert status == 0
        doc = json.loads(out.read_text())
        assert doc["all_core_match"] is True
        assert [c["label"] for c in doc["cells"]] == ["ssd"]
        assert "What-if sweep" in capsys.readouterr().out

    def test_bad_grid_fails_with_named_error(self, archive):
        with pytest.raises(SystemExit, match="unknown storage personality"):
            cli_main(["whatif", "--traces", str(archive),
                      "--grid", "devices=zip_drive"])

    @pytest.mark.parametrize("workers", [[], ["--workers", "2"]],
                             ids=["serial", "workers2"])
    def test_infinite_cache_size_exits_without_traceback(self, archive,
                                                         workers):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "whatif", "--traces",
             str(archive), "--grid", "cache_mb=inf", *workers],
            cwd=REPO_ROOT, capture_output=True, text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"})
        assert proc.returncode != 0
        assert "bad cache_mb value 'inf'" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""
