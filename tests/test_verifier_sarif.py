"""SARIF 2.1.0 export: structure, suppression carry-through, validator.

The export is what CI uploads for inline PR annotation, so the tests
pin the exact contract: kept findings are ``error`` results, baseline-
suppressed findings ride along as ``note`` results with an ``external``
suppression carrying the justification text, and the emitted document
passes the structural validator that CI also runs.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.verifier import (
    load_baseline,
    to_sarif,
    validate_sarif,
    verify_paths,
    write_sarif,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def _report(tmp_path: Path, files: dict, baseline: str = ""):
    root = tmp_path / "tree"
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        parent = path.parent
        while parent != root:
            init = parent / "__init__.py"
            if not init.exists():
                init.write_text("")
            parent = parent.parent
        path.write_text(textwrap.dedent(source))
    suppressions = []
    if baseline:
        baseline_path = tmp_path / "baseline.toml"
        baseline_path.write_text(textwrap.dedent(baseline))
        suppressions = load_baseline(baseline_path)
    return verify_paths([root], suppressions, root=tmp_path), suppressions


BAD = {"repro/nt/bad.py": """\
    import time

    def stamp():
        return time.time()
    """}


def test_export_shape_and_validator(tmp_path):
    report, suppressions = _report(tmp_path, BAD)
    doc = to_sarif(report, suppressions)
    assert validate_sarif(doc) == []
    run = doc["runs"][0]
    assert doc["version"] == "2.1.0"
    assert run["tool"]["driver"]["name"] == "repro-verify"
    rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert {"D103", "D202", "F601", "F602", "U801", "U802"} <= rule_ids
    errors = [r for r in run["results"] if r["level"] == "error"]
    assert errors
    for result in errors:
        assert result["suppressions"] == []
        loc = result["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"].endswith("bad.py")
        assert loc["region"]["startLine"] >= 1


def test_suppressed_findings_carry_justification(tmp_path):
    report, suppressions = _report(tmp_path, BAD, baseline="""\
        [[suppression]]
        rule = "F601"
        path = "tree/repro/nt/bad.py"
        match = "stamp"
        justification = "test-only telemetry read"
        """)
    assert report.clean
    doc = to_sarif(report, suppressions)
    assert validate_sarif(doc) == []
    noted = [r for r in doc["runs"][0]["results"]
             if r["suppressions"]]
    assert noted
    for result in noted:
        assert result["level"] == "note"
        assert result["suppressions"][0]["kind"] == "external"
        assert result["suppressions"][0]["justification"] \
            == "test-only telemetry read"


def test_write_sarif_round_trips(tmp_path):
    report, suppressions = _report(tmp_path, BAD)
    out = tmp_path / "out" / "verify.sarif"
    write_sarif(report, out, suppressions)
    doc = json.loads(out.read_text())
    assert validate_sarif(doc) == []


def test_validator_rejects_malformed_documents():
    assert validate_sarif([]) != []
    assert validate_sarif({"version": "2.0.0", "runs": []}) != []
    ok_result = {
        "ruleId": "F601", "level": "error",
        "message": {"text": "x"},
        "locations": [{"physicalLocation": {
            "artifactLocation": {"uri": "a.py"},
            "region": {"startLine": 3}}}],
    }
    base = {
        "$schema": "s", "version": "2.1.0",
        "runs": [{"tool": {"driver": {"name": "t", "rules": [
            {"id": "F601"}]}}, "results": [ok_result]}],
    }
    assert validate_sarif(base) == []

    import copy
    for mutate in (
        lambda d: d["runs"][0]["results"][0].pop("message"),
        lambda d: d["runs"][0]["results"][0].update(level="fatal"),
        lambda d: d["runs"][0]["results"][0].update(ruleId="NOPE"),
        lambda d: d["runs"][0]["results"][0]["locations"][0]
            ["physicalLocation"]["region"].update(startLine=0),
        lambda d: d["runs"][0]["results"][0].update(
            suppressions=[{"kind": "mystery"}]),
        lambda d: d["runs"][0]["tool"]["driver"].pop("name"),
    ):
        doc = copy.deepcopy(base)
        mutate(doc)
        assert validate_sarif(doc) != [], mutate


def test_cli_sarif_export_on_the_real_tree(tmp_path):
    out = tmp_path / "verify.sarif"
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "verify", "src/repro",
         "--sarif", str(out)],
        cwd=REPO_ROOT, capture_output=True, text=True,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin",
             "PYTHONHASHSEED": "0"})
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads(out.read_text())
    assert validate_sarif(doc) == []
    results = doc["runs"][0]["results"]
    # the real tree is clean, so every result is a suppressed note
    assert all(r["suppressions"] for r in results)
