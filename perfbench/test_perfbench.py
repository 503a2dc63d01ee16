"""Self-tests of the benchmark, on shrunken inputs.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json

import pytest
import run

WORKLOADS = ("campaign", "whatif", "report")
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture()
def small(monkeypatch, tmp_path):
    """Tiny input shapes and a private work directory."""
    workloads = run._load_program()
    monkeypatch.setitem(workloads.CAMPAIGN_SHAPE, "machines", 3)
    monkeypatch.setitem(workloads.CAMPAIGN_SHAPE, "seconds", 4.0)
    monkeypatch.setitem(workloads.ARCHIVE_SHAPE, "machines", 2)
    monkeypatch.setitem(workloads.ARCHIVE_SHAPE, "seconds", 15.0)
    monkeypatch.setattr(workloads, "WHATIF_GRID", "devices=ssd×cache_mb=4")
    monkeypatch.setattr(run, "WORK_DIR", tmp_path / "work")
    return workloads


def _run(capsys, *argv) -> tuple[int, dict]:
    status = run.main(list(argv))
    lines = capsys.readouterr().out.strip().splitlines()
    return status, json.loads(lines[-1])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_small_run_emits_every_named_metric_with_its_unit(
        small, capsys, workload, trace):
    status, result = _run(capsys, "--workload", workload, "--seed", "5",
                          "--seconds", "0.1", "--trace", str(trace))
    assert status == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} \
        == {entry["name"]: entry["unit"] for entry in declared}
    if not trace:
        assert all(entry["value"] > 0
                   for entry in result["metrics"].values())


def test_digest_gate_fails_when_the_stored_digest_is_perturbed(
        small, capsys, monkeypatch, tmp_path):
    workload = small.WORKLOADS["report"]
    digest = workload.run(workload.prepare(7, tmp_path / "ref")).digest
    digests = tmp_path / "digests.json"
    monkeypatch.setattr(run, "DIGESTS", digests)
    argv = ("--workload", "report", "--seed", "7", "--seconds", "0.1")

    digests.write_text(json.dumps(
        {"report": {"shape": workload.shape(), "seeds": {"7": digest}}}))
    status, result = _run(capsys, *argv)
    assert status == 0 and result["correct"] is True

    perturbed = ("0" if digest[0] != "0" else "1") + digest[1:]
    digests.write_text(json.dumps(
        {"report": {"shape": workload.shape(), "seeds": {"7": perturbed}}}))
    status, result = _run(capsys, *argv)
    assert status == 1
    assert result["correct"] is False and result["metrics"] == {}


def test_self_times_and_unattributed_add_up_to_traced_wall(small, tmp_path):
    import layers
    import tracer as tracing

    workload = small.WORKLOADS["campaign"]
    inputs = workload.prepare(3, tmp_path)
    plain = workload.run(inputs)
    tracer = tracing.LayerTracer(layers.BINS)
    tracer.install()
    try:
        with tracer.root():
            traced = workload.run(inputs)
    finally:
        tracer.uninstall()
    assert traced.digest == plain.digest
    profile = tracer.profile()
    total = sum(entry["self_s"] for entry in profile["bins"].values()) \
        + profile["unattributed_s"]
    assert total == pytest.approx(profile["wall_s"], rel=1e-9, abs=1e-9)
    assert profile["unattributed_s"] < 0.1 * profile["wall_s"]
    assert profile["bins"]["nt.fs"]["calls"] > 0


def test_uninstall_restores_every_wrapped_function(small):
    import layers
    import tracer as tracing
    from repro.nt.tracing.driver import TraceFilterDriver
    from repro.workload import study, users

    before = (users.build_machine, study.build_machine,
              TraceFilterDriver.__dict__["dispatch"])
    tracer = tracing.LayerTracer(layers.BINS)
    tracer.install()
    assert study.build_machine is not before[1]
    tracer.uninstall()
    assert (users.build_machine, study.build_machine,
            TraceFilterDriver.__dict__["dispatch"]) == before


def test_traced_run_keeps_the_batched_fast_path(small):
    """The FSD's own dispatch/fastio stay unwrapped, and a machine built
    under the tracer still binds the precomputed handler tables."""
    import layers
    import tracer as tracing
    from repro.nt.fs.driver import FileSystemDriver
    from repro.workload.users import build_machine

    wrapped = {pair for _name, targets in layers.BINS
               for target in targets for pair in tracing.resolve(target)}
    assert not wrapped & {(FileSystemDriver, "dispatch"),
                          (FileSystemDriver, "fastio")}
    tracer = tracing.LayerTracer(layers.BINS)
    tracer.install()
    try:
        built = build_machine("m00-personal", "personal", 1,
                              content_scale=0.05)
    finally:
        tracer.uninstall()
    machine = built.machine
    local = [machine.io.stack_for(volume).driver
             for volume in machine.drives.values()]
    assert local
    assert all(f._fs_irp_handlers is not None for f in local)


def test_no_program_exits_nonzero_without_a_result(capsys, monkeypatch,
                                                   tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    status = run.main(["--workload", "campaign", "--seed", "1",
                       "--seconds", "1"])
    assert status != 0
    assert capsys.readouterr().out == ""
