"""Self-check: the shipped tree verifies clean against its own baseline.

This is the verifier's reason to exist — if ``src/repro`` stops passing
its own rules, either the code regressed or a new suppression needs a
written justification.  Also exercises the CLI surface end to end
(exit codes, path errors, --rules) the way CI runs it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from repro.verifier import load_baseline, verify_paths
from repro.verifier.rules_flow import SIM_SCOPE

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_TREE = REPO_ROOT / "src" / "repro"
BASELINE = REPO_ROOT / "verifier_baseline.toml"


def test_source_tree_is_clean_against_baseline():
    suppressions = load_baseline(BASELINE)
    report = verify_paths([SRC_TREE], suppressions, root=REPO_ROOT)
    assert report.clean, "\n".join(f.format() for f in report.findings) or (
        "stale suppressions: %r" % (report.stale,))
    assert report.n_files > 50


def test_f601_fires_on_a_sim_scope_clock_read(tmp_path):
    # Positive control: the tree itself has no clock read for F601 to
    # find, so a wiring regression that silently dropped F601 would look
    # identical to a clean tree.  Plant one where the baseline used to
    # excuse the campaign console's ETA and check the real baseline lets
    # it through.
    package = tmp_path / "src" / "repro" / "workload"
    package.mkdir(parents=True)
    for directory in (package.parent, package):
        (directory / "__init__.py").write_text("")
    (package / "campaign.py").write_text(
        "import time\n\n\n"
        "class CampaignConsole:\n"
        "    def machine_folded(self):\n"
        "        return time.perf_counter()\n")
    report = verify_paths([package.parent], load_baseline(BASELINE),
                          root=tmp_path)
    assert [(f.path, f.rule) for f in report.findings] == \
        [("src/repro/workload/campaign.py", "F601")]
    assert "CampaignConsole.machine_folded" in report.findings[0].message
    assert not report.suppressed


def test_baseline_excuses_no_clock_read_in_the_simulation_scope():
    # Host time is read only in repro.cli, around the simulation, so no
    # F601 entry may excuse a module in the simulation scope.
    scope = tuple(f"src/{package.replace('.', '/')}/"
                  for package in SIM_SCOPE)
    assert not [s.path for s in load_baseline(BASELINE)
                if s.rule == "F601" and s.path.startswith(scope)]


def test_tests_and_benchmarks_verify_clean_too():
    # Satellite coverage: nondeterministic listing/sorting in the test
    # and benchmark harnesses has cost debugging time before; hold the
    # support code, the examples and perfbench to the same determinism
    # bar as the simulator.  perfbench times itself with
    # time.perf_counter() (at module level too): host timers are legal
    # outside the simulation scope.
    suppressions = load_baseline(BASELINE)
    report = verify_paths(
        [SRC_TREE, REPO_ROOT / "tests", REPO_ROOT / "benchmarks",
         REPO_ROOT / "examples", REPO_ROOT / "perfbench"],
        suppressions, root=REPO_ROOT)
    assert report.clean, "\n".join(f.format() for f in report.findings)


def test_every_suppression_is_justified_and_live():
    suppressions = load_baseline(BASELINE)
    assert suppressions, "baseline should document the known exceptions"
    for sup in suppressions:
        assert len(sup.justification) > 20, sup
    report = verify_paths([SRC_TREE], suppressions, root=REPO_ROOT)
    assert not report.stale, [s.path for s in report.stale]


def _run_cli(*args: str, cwd: Path = REPO_ROOT):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", "verify", *args],
        cwd=cwd, env=env, capture_output=True, text=True)


def test_cli_default_invocation_exits_zero():
    proc = _run_cli()
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "verified" in proc.stderr


def test_cli_exits_one_on_findings(tmp_path):
    bad = tmp_path / "repro" / "nt" / "bad.py"
    bad.parent.mkdir(parents=True)
    for d in (tmp_path / "repro", bad.parent):
        (d / "__init__.py").write_text("")
    bad.write_text("import time\n\ndef now():\n    return time.time()\n")
    proc = _run_cli(str(bad), "--baseline", str(tmp_path / "absent.toml"))
    assert proc.returncode == 1
    assert "F601" in proc.stdout


def test_cli_names_missing_path():
    proc = _run_cli("no/such/tree")
    assert proc.returncode != 0
    assert "no/such/tree" in proc.stderr


def test_cli_rules_catalog_lists_every_family():
    proc = _run_cli("--rules")
    assert proc.returncode == 0
    for rule in ("D103", "D202", "P301", "L501", "T401",
                 "F601", "F602", "U801", "U802"):
        assert rule in proc.stdout


def test_cli_cache_and_bench_json(tmp_path):
    cache = tmp_path / "cache.json"
    bench = tmp_path / "bench.json"
    cold = _run_cli(str(SRC_TREE), "--cache", str(cache))
    assert cold.returncode == 0, cold.stdout + cold.stderr
    assert "miss" in cold.stderr
    warm = _run_cli(str(SRC_TREE), "--cache", str(cache),
                    "--bench-json", str(bench))
    assert warm.returncode == 0, warm.stdout + warm.stderr
    import json
    doc = json.loads(bench.read_text())
    assert doc["format"] == "nt-verifier-bench-1"
    assert doc["deterministic"]["findings"] == 0
    assert doc["cache"]["misses"] == 0
    assert doc["cache"]["hits"] == doc["deterministic"]["files"]
    assert set(doc["rules_runtime"]) >= {
        "check_determinism", "check_flow", "check_exhaustiveness"}
