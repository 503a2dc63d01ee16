"""The streaming campaign engine and the ``repro study`` CLI.

Covers the campaign determinism contract (serial ≡ parallel, run-to-run
byte-identical artifacts), the ``nt-study-1`` artifact round-trip through
``repro report``, the ``BENCH_study`` baseline format, and the
tracemalloc memory gate.
"""

from __future__ import annotations

import json

import pytest

from repro import StudyConfig
from repro.cli import main as cli_main
from repro.workload.campaign import (
    CampaignConsole,
    bench_payload,
    load_study_artifact,
    run_campaign,
    study_artifact_bytes,
)

SMALL = dict(n_machines=3, duration_seconds=15.0, seed=5,
             content_scale=0.05)

# Sketch sha256 of SMALL at seeds 5 (SMALL itself), 6 and 7, recorded with
# the record-at-a-time fold that preceded the columnar one.  The other
# campaign checks compare two runs of the same fold; these do not.
GOLDEN_CAMPAIGN_SHA256 = {
    5: "605ae3e5de002d938e656902e09a7a4382b5041aa84391faef7c49d3e3d4dd99",
    6: "88c90b99e3c6385a31585422236d50e929c909f55daa86bdc47f74e98360b8d6",
    7: "4c99798dea91c05e663d6e1cb132cb5fc02e0e6c989a03110d70ec99946ef046",
}


@pytest.fixture(scope="module")
def small_campaign():
    return run_campaign(StudyConfig(**SMALL))


class TestCampaignEngine:
    def test_rerun_is_byte_identical(self, small_campaign):
        again = run_campaign(StudyConfig(**SMALL))
        assert study_artifact_bytes(again) == \
            study_artifact_bytes(small_campaign)

    def test_parallel_matches_serial(self, small_campaign):
        parallel = run_campaign(StudyConfig(workers=2, **SMALL))
        assert study_artifact_bytes(parallel) == \
            study_artifact_bytes(small_campaign)
        assert parallel.machine_rows == small_campaign.machine_rows

    def test_sketch_matches_study_fold(self, small_campaign):
        # The campaign's fold-as-you-go sketch equals folding the full
        # study result after the fact.
        from repro import run_study
        from repro.analysis.streaming import sketch_from_study
        reference = sketch_from_study(run_study(StudyConfig(**SMALL)))
        assert small_campaign.sketch.canonical_bytes() == \
            reference.canonical_bytes()

    def test_golden_sketch_digest(self, small_campaign):
        assert small_campaign.sketch.sha256() == \
            GOLDEN_CAMPAIGN_SHA256[SMALL["seed"]]

    @pytest.mark.parametrize("seed", [6, 7])
    def test_golden_sketch_digest_other_seeds(self, seed):
        config = StudyConfig(**{**SMALL, "seed": seed})
        assert run_campaign(config).sketch.sha256() == \
            GOLDEN_CAMPAIGN_SHA256[seed]

    def test_machine_rows_carry_watermarks(self, small_campaign):
        assert len(small_campaign.machine_rows) == SMALL["n_machines"]
        for row in small_campaign.machine_rows:
            assert set(row) == {"index", "name", "category", "records",
                                "queue_depth_peak", "dirty_pages_peak"}
            assert row["records"] > 0
            # Every machine writes through the cache manager, so the
            # dirty-page watermark gauge must have moved.
            assert row["dirty_pages_peak"] > 0

    def test_console_counts_folds(self, small_campaign, capsys):
        console = CampaignConsole(SMALL["n_machines"], quiet=True)
        run_campaign(StudyConfig(**SMALL), console)
        assert console.n_folded == SMALL["n_machines"]
        assert console.records_folded == small_campaign.total_records
        folded = [e for e in console.events
                  if e["event"] == "machine-folded"]
        assert [e["index"] for e in folded] == list(range(3))

    def test_artifact_round_trip(self, small_campaign, tmp_path):
        path = tmp_path / "study.json"
        path.write_bytes(study_artifact_bytes(small_campaign))
        doc, sketch = load_study_artifact(path)
        assert doc["format"] == "nt-study-1"
        assert doc["study"]["machines"] == SMALL["n_machines"]
        assert sketch.canonical_bytes() == \
            small_campaign.sketch.canonical_bytes()

    def test_artifact_rejects_other_documents(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": "nt-perf-1"}))
        with pytest.raises(ValueError, match="nt-study-1"):
            load_study_artifact(path)

    @pytest.mark.parametrize("mutate", [
        lambda rec: rec["latency"]["irp-read"].update(bucket_counts=[1, 2]),
        lambda rec: rec["latency"]["irp-write"].update(
            count=rec["latency"]["irp-write"]["count"] + 1),
        lambda rec: rec["req_size"]["fastio-read"].update(
            w=rec["req_size"]["fastio-read"]["w"] + 1),
    ], ids=["short-histogram", "histogram-sum", "digest-weight"])
    def test_artifact_rejects_malformed_sketch(self, small_campaign,
                                               tmp_path, mutate, capsys):
        doc = json.loads(study_artifact_bytes(small_campaign))
        mutate(doc["sketch"]["records"])
        path = tmp_path / "study.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="study.json: malformed"):
            load_study_artifact(path)
        with pytest.raises(SystemExit, match="cannot read"):
            cli_main(["report", str(path)])

    def test_bench_payload_shape(self, small_campaign):
        payload = bench_payload(small_campaign, workers=None,
                                wall_seconds=2.0, peak_traced_mb=12.5)
        assert payload["format"] == "nt-study-bench-1"
        det = payload["deterministic"]
        assert det["machines"] == SMALL["n_machines"]
        assert det["records"] == small_campaign.total_records
        assert det["sketch_sha256"] == small_campaign.sketch.sha256()
        # Wall-clock and memory stay outside the deterministic block.
        assert "wall_seconds" not in det
        assert payload["wall_seconds"] == 2.0
        assert payload["records_per_second"] == \
            small_campaign.total_records / 2.0
        assert payload["peak_traced_mb"] == 12.5


class TestStudyCli:
    def test_study_writes_artifact_and_bench(self, tmp_path, capsys):
        rc = cli_main([
            "study", "--machines", "2", "--seconds", "10", "--seed", "5",
            "--scale", "0.05", "--quiet", "--out", str(tmp_path / "study"),
            "--bench-json", str(tmp_path / "bench.json"),
            "--max-peak-mb", "512"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "campaign: 2 machines" in out
        assert "peak traced memory" in out
        doc, sketch = load_study_artifact(tmp_path / "study" / "study.json")
        assert sketch.n_machines == 2
        bench = json.loads((tmp_path / "bench.json").read_text())
        assert bench["format"] == "nt-study-bench-1"
        assert bench["deterministic"]["sketch_sha256"] == sketch.sha256()

    def test_bench_json_alone_runs_untraced(self, tmp_path, capsys,
                                            monkeypatch):
        import tracemalloc

        def refuse():
            raise AssertionError("--bench-json alone started tracemalloc")

        monkeypatch.setattr(tracemalloc, "start", refuse)
        rc = cli_main([
            "study", "--machines", "1", "--seconds", "8", "--seed", "5",
            "--scale", "0.05", "--quiet",
            "--bench-json", str(tmp_path / "bench.json")])
        assert rc == 0
        assert "peak traced memory" not in capsys.readouterr().out
        bench = json.loads((tmp_path / "bench.json").read_text())
        assert bench["peak_traced_mb"] is None
        assert bench["records_per_second"] > 0

    def test_console_done_line_is_last(self, capsys):
        rc = cli_main([
            "study", "--machines", "2", "--seconds", "8", "--seed", "5",
            "--scale", "0.05"])
        assert rc == 0
        lines = capsys.readouterr().err.splitlines()
        assert [line[:9] for line in lines] == \
            ["[study   ", "[study   ", "[study do"]
        assert lines[-1].startswith("[study done] 2 machines")

    def test_memory_gate_failure(self, tmp_path, capsys):
        rc = cli_main([
            "study", "--machines", "1", "--seconds", "8", "--seed", "5",
            "--scale", "0.05", "--quiet", "--max-peak-mb", "0.001"])
        assert rc == 1
        assert "MEMORY GATE" in capsys.readouterr().err

    def test_reconcile_flag(self, capsys):
        rc = cli_main([
            "study", "--machines", "1", "--seconds", "8", "--seed", "5",
            "--scale", "0.05", "--quiet", "--reconcile"])
        assert rc == 0
        assert "matches the materialized warehouse exactly" in \
            capsys.readouterr().out

    def test_report_reads_artifact(self, tmp_path, capsys):
        cli_main(["study", "--machines", "2", "--seconds", "10",
                  "--seed", "5", "--scale", "0.05", "--quiet",
                  "--out", str(tmp_path / "study")])
        capsys.readouterr()
        rc = cli_main(["report", str(tmp_path / "study")])
        assert rc == 0
        captured = capsys.readouterr()
        assert "nt-study-1 artifact" in captured.err
        assert "Streaming study sketch" in captured.out
        assert "table 3" in captured.out

    def test_report_streaming_reconcile_archive(self, tmp_path, capsys):
        rc = cli_main(["run", "--machines", "2", "--seconds", "10",
                       "--seed", "5", "--scale", "0.05",
                       "--out", str(tmp_path / "traces")])
        assert rc == 0
        capsys.readouterr()
        rc = cli_main(["report", str(tmp_path / "traces"),
                       "--streaming", "--reconcile"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "matches the materialized warehouse exactly" in captured.out

    def test_report_reconcile_needs_streaming(self, tmp_path, capsys):
        rc = cli_main(["run", "--machines", "2", "--seconds", "10",
                       "--seed", "5", "--scale", "0.05",
                       "--out", str(tmp_path / "traces")])
        assert rc == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["report", str(tmp_path / "traces"), "--reconcile"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert "--reconcile needs --streaming" in captured.err
        assert captured.out == ""

    def test_report_reconcile_refuses_study_artifact(self, tmp_path, capsys):
        rc = cli_main(["study", "--machines", "2", "--seconds", "10",
                       "--seed", "5", "--scale", "0.05", "--quiet",
                       "--out", str(tmp_path / "study")])
        assert rc == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["report", str(tmp_path / "study"), "--streaming",
                      "--reconcile"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert "--reconcile" in captured.err
        assert "nt-study-1 artifact" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        "study --machines 2 --seconds -5",
        "study --machines 1 --weeks -1",
        "study --machines 1 --seconds inf",
        "study --machines 1 --seconds nan",
        "study --machines 1 --scale 0",
        "study --machines 0",
        "run --machines 1 --seconds 0",
        "run --machines 1 --scale 1.5",
        "run --machines -2",
        "perf --machines 0",
        "perf --machines 1 --seconds 1e400",
        "perf --machines 1 --scale nan",
        # Finite, but past the int64 tick horizon.
        "run --machines 1 --seconds 1e302",
        "study --machines 1 --seconds 1e302",
        "study --machines 1 --weeks 1e300",
        "perf --machines 1 --seconds 1e302",
        # The memory budget is a finite size above zero.
        "study --machines 1 --seconds 1 --max-peak-mb nan",
        "study --machines 1 --seconds 1 --max-peak-mb 0",
        "study --machines 1 --seconds 1 --max-peak-mb -3",
    ])
    def test_bad_fleet_shape_is_a_usage_error(self, argv, capsys):
        # The last flag of each case is the bad one.
        *_, flag, value = argv.split()
        with pytest.raises(SystemExit) as exit_info:
            cli_main(argv.split())
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: " in err
        assert f"'{value}'" in err

    def test_figures_streaming(self, tmp_path, capsys):
        cli_main(["run", "--machines", "2", "--seconds", "10",
                  "--seed", "5", "--scale", "0.05",
                  "--out", str(tmp_path / "traces")])
        capsys.readouterr()
        rc = cli_main(["figures", str(tmp_path / "traces"), "--streaming",
                       "--out", str(tmp_path / "figs")])
        assert rc == 0
        written = {p.name for p in sorted((tmp_path / "figs").glob("*.csv"))}
        assert "fig13_latency.csv" in written
        assert "fig14_request_size.csv" in written
