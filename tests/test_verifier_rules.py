"""Per-rule unit tests for the static verifier.

Every rule family (D/P/L/T, and F601's direct sources) gets at least
one seeded bad-code fixture that must be caught and one clean fixture
that must pass, per the Driver-Verifier discipline: a rule that never
fires and a rule that always fires are equally useless.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.verifier import (
    BaselineError,
    collect_files,
    load_modules,
    parse_baseline,
    run_rules,
    verify_paths,
)
from repro.verifier.baseline import apply_baseline
from repro.verifier.rules import MODULE_RULES, TREE_RULES


def _write_tree(root: Path, files: dict) -> Path:
    """Materialise ``{relpath: source}`` with full __init__.py chains."""
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
    return root


def _findings_for(tmp_path: Path, files: dict):
    root = _write_tree(tmp_path / "tree", files)
    index = load_modules(collect_files([root]), root=tmp_path)
    return run_rules(index, MODULE_RULES, TREE_RULES)


def _rules_of(findings):
    return {f.rule for f in findings}


# --------------------------------------------------------------------- #
# Wall-clock and entropy sources.  These fixtures were D101's and D102's;
# F601 catches each of them now, and the tests keep their original IDs.


def test_d101_catches_wall_clock_and_entropy(tmp_path):
    findings = _findings_for(tmp_path, {"repro/nt/bad.py": """\
        import time
        import uuid
        import os

        def stamp():
            return time.time(), uuid.uuid4(), os.urandom(8)
        """})
    assert len([f for f in findings if f.rule == "F601"]) == 3


def test_d101_allows_monotonic_timers(tmp_path):
    # Outside the simulation scope a host timer is legal; inside it, any
    # time.* call is an F601 finding
    # (test_verifier_flow.py::test_f601_catches_direct_source_in_sim_scope).
    findings = _findings_for(tmp_path, {"repro/analysis/ok.py": """\
        import time

        def elapsed(t0):
            return time.perf_counter() - t0
        """})
    assert _rules_of(findings) == set()


def test_d101_catches_global_random_even_renamed(tmp_path):
    findings = _findings_for(tmp_path, {"repro/nt/bad.py": """\
        import numpy as np
        from random import randint

        def roll():
            return randint(1, 6) + np.random.random()
        """})
    assert len([f for f in findings if f.rule == "F601"]) == 2


def test_d102_catches_unseeded_rng(tmp_path):
    findings = _findings_for(tmp_path, {"repro/nt/bad.py": """\
        import numpy as np
        from random import Random

        UNSEEDED = np.random.default_rng()
        ALSO_BAD = Random()
        """})
    hits = [f for f in findings if f.rule == "F601"]
    assert len(hits) == 2
    assert all("without a seed" in f.message for f in hits)


def test_d102_allows_seeded_rng(tmp_path):
    findings = _findings_for(tmp_path, {"repro/nt/ok.py": """\
        import numpy as np

        RNG = np.random.default_rng(1998)
        """})
    assert _rules_of(findings) == set()


def test_d103_catches_unsorted_listing(tmp_path):
    findings = _findings_for(tmp_path, {"repro/anywhere.py": """\
        import os
        from pathlib import Path

        def scan(d):
            for name in os.listdir(d):
                yield name
            return list(Path(d).glob("*.nttrace"))
        """})
    assert len([f for f in findings if f.rule == "D103"]) == 2


def test_d103_allows_sorted_listing(tmp_path):
    findings = _findings_for(tmp_path, {"repro/anywhere.py": """\
        import os

        def scan(d):
            return sorted(os.listdir(d))
        """})
    assert "D103" not in _rules_of(findings)


def test_d103_catches_every_listing_spelling(tmp_path):
    findings = _findings_for(tmp_path, {"repro/anywhere.py": """\
        import glob
        import os
        from glob import iglob
        from pathlib import Path

        def scan(d):
            a = list(os.scandir(d))
            b = [r for r, _dirs, _files in os.walk(d)]
            c = glob.glob(d + "/*.py")
            e = list(iglob(d + "/*.py"))
            f = list(Path(d).iterdir())
            g = list(Path(d).rglob("*.py"))
            return a, b, c, e, f, g
        """})
    assert len([f for f in findings if f.rule == "D103"]) == 6


def test_d103_allows_sorted_spellings_and_ast_walk(tmp_path):
    findings = _findings_for(tmp_path, {"repro/anywhere.py": """\
        import ast
        import glob
        import os
        from pathlib import Path

        def scan(d, tree):
            a = sorted(os.scandir(d), key=lambda e: e.name)
            c = sorted(glob.glob(d + "/*.py"))
            f = sorted(Path(d).rglob("*.py"))
            # not a directory listing: deterministic AST traversal
            nodes = [n for n in ast.walk(tree)]
            return a, c, f, nodes
        """})
    assert "D103" not in _rules_of(findings)


def test_d202_catches_set_iteration(tmp_path):
    findings = _findings_for(tmp_path, {"repro/nt/bad.py": """\
        class Tracker:
            def __init__(self):
                self.pages = set()

            def drain(self):
                return [p for p in self.pages]
            """})
    assert "D202" in _rules_of(findings)


def test_d202_covers_the_replay_package(tmp_path):
    # repro.replay is in the flow rules' simulation scope, so the
    # determinism rules check it too.
    findings = _findings_for(tmp_path, {"repro/replay/bad.py": """\
        def labels(names):
            seen = set(names)
            return [name for name in seen]
            """})
    d202 = [f for f in findings if f.rule == "D202"]
    assert len(d202) == 1
    assert d202[0].path.endswith("repro/replay/bad.py")


def test_d202_allows_sorted_set_iteration(tmp_path):
    findings = _findings_for(tmp_path, {"repro/nt/ok.py": """\
        class Tracker:
            def __init__(self):
                self.pages = set()

            def drain(self):
                return [p for p in sorted(self.pages)]

            def size(self):
                return len(self.pages)
            """})
    assert "D202" not in _rules_of(findings)


# --------------------------------------------------------------------- #
# P-rules.


def test_p301_catches_leaked_packet(tmp_path):
    findings = _findings_for(tmp_path, {"repro/nt/bad.py": """\
        def handle(self, irp, device) -> NtStatus:
            if irp.length > 0:
                return irp.complete(0)
            return 0
        """})
    assert "P301" in _rules_of(findings)


def test_p302_catches_double_completion(tmp_path):
    findings = _findings_for(tmp_path, {"repro/nt/bad.py": """\
        def handle(self, irp, device) -> NtStatus:
            irp.complete(0)
            return self.forward_irp(irp, device)
        """})
    assert "P302" in _rules_of(findings)


def test_p_rules_accept_well_formed_handlers(tmp_path):
    findings = _findings_for(tmp_path, {"repro/nt/ok.py": """\
        from repro.nt.tracing.records import kind_for_irp

        def dispatch(self, irp, device) -> NtStatus:
            handler = self._TABLE.get(irp.major)
            if handler is None:
                return irp.complete(1)
            return handler(self, irp, device)

        def _read(self, irp, device) -> NtStatus:
            kind_for_irp(irp)
            if irp.length == 0:
                return irp.complete(0)
            return self.forward_irp(irp, device)
        """})
    assert _rules_of(findings) == set()


def test_p_rules_exempt_raising_paths(tmp_path):
    findings = _findings_for(tmp_path, {"repro/nt/ok.py": """\
        def handle(self, irp, device) -> NtStatus:
            if irp.file_object is None:
                raise ValueError("no file object")
            return irp.complete(0)
        """})
    assert _rules_of(findings) == set()


# --------------------------------------------------------------------- #
# L-rules.


def test_l501_catches_analysis_reaching_into_kernel(tmp_path):
    findings = _findings_for(tmp_path, {"repro/analysis/bad.py": """\
        from repro.nt.cache.cachemanager import CacheManager
        """})
    assert "L501" in _rules_of(findings)


def test_l501_allows_tracing_read_side(tmp_path):
    findings = _findings_for(tmp_path, {"repro/analysis/ok.py": """\
        from repro.nt.tracing.records import TraceEventKind
        from repro.nt.tracing.store import load_study
        """})
    assert "L501" not in _rules_of(findings)


def test_l501_allows_flight_log_decoder(tmp_path):
    # The .ntmetrics decoder is read-side: pure stdlib framing over what
    # the flight recorder archived, no live kernel state.
    findings = _findings_for(tmp_path, {"repro/analysis/ok.py": """\
        from repro.nt.flight.log import iter_samples
        """})
    assert "L501" not in _rules_of(findings)


def test_l501_still_catches_flight_recorder_import(tmp_path):
    # Only the log decoder is whitelisted — the recorder is live kernel
    # state and stays off-limits to analysis code.
    findings = _findings_for(tmp_path, {"repro/analysis/bad.py": """\
        from repro.nt.flight.recorder import FlightRecorder
        """})
    assert "L501" in _rules_of(findings)


def test_l501_exempts_type_checking_imports(tmp_path):
    findings = _findings_for(tmp_path, {"repro/analysis/ok.py": """\
        from typing import TYPE_CHECKING

        if TYPE_CHECKING:
            from repro.nt.io.irp import Irp
        """})
    assert "L501" not in _rules_of(findings)


def test_l502_catches_kernel_importing_upper_layer(tmp_path):
    findings = _findings_for(tmp_path, {"repro/nt/bad.py": """\
        def run():
            from repro.workload.study import StudyConfig
            return StudyConfig
        """})
    assert "L502" in _rules_of(findings)


def test_l503_catches_common_importing_upward(tmp_path):
    findings = _findings_for(tmp_path, {"repro/common/bad.py": """\
        from repro.nt.io.irp import Irp
        """})
    assert "L503" in _rules_of(findings)


# --------------------------------------------------------------------- #
# T-rules.


_ENUM_FIXTURE = {
    "repro/nt/io/irp.py": """\
        import enum

        class IrpMajor(enum.IntEnum):
            CREATE = 0
            READ = 3
        """,
    "repro/nt/io/fastio.py": """\
        import enum

        class FastIoOp(enum.IntEnum):
            READ = 1
            WRITE = 2
        """,
}


def test_t401_catches_untraced_major(tmp_path):
    files = dict(_ENUM_FIXTURE)
    files["repro/nt/tracing/records.py"] = """\
        from repro.nt.io.irp import IrpMajor

        _IRP_KIND_BY_MAJOR = {
            IrpMajor.CREATE: 100,
        }
        """
    findings = _findings_for(tmp_path, files)
    t401 = [f for f in findings if f.rule == "T401"]
    assert len(t401) == 1 and "IrpMajor.READ" in t401[0].message


def test_t402_accepts_whole_enum_comprehension(tmp_path):
    files = dict(_ENUM_FIXTURE)
    files["repro/nt/tracing/records.py"] = """\
        from repro.nt.io.fastio import FastIoOp

        _FASTIO_KIND_BY_OP = {op: 200 + int(op) for op in FastIoOp}
        """
    findings = _findings_for(tmp_path, files)
    assert "T402" not in _rules_of(findings)


def test_t404_catches_unhandled_fastio_op(tmp_path):
    files = dict(_ENUM_FIXTURE)
    files["repro/nt/fs/driver.py"] = """\
        from repro.nt.io.fastio import FastIoOp

        class FileSystemDriver:
            _FASTIO_HANDLERS = {
                FastIoOp.READ: None,
            }
        """
    findings = _findings_for(tmp_path, files)
    t404 = [f for f in findings if f.rule == "T404"]
    assert len(t404) == 1 and "FastIoOp.WRITE" in t404[0].message


def test_t405_catches_dead_span_cause(tmp_path):
    findings = _findings_for(tmp_path, {
        "repro/nt/tracing/spans.py": """\
            import enum

            class SpanCause(enum.IntEnum):
                USER = 0
                GHOST = 1
            """,
        "repro/nt/io/iomanager.py": """\
            from repro.nt.tracing.spans import SpanCause

            DEFAULT = SpanCause.USER
            """,
    })
    t405 = [f for f in findings if f.rule == "T405"]
    assert len(t405) == 1 and "GHOST" in t405[0].message


_STORAGE_ENUM_FIXTURE = {
    "repro/nt/storage/devices.py": """\
        import enum

        class StorageKind(enum.IntEnum):
            HDD = 0
            SSD = 1

        PERSONALITIES = {
            "hdd_ide": StorageKind.HDD,
        }
        """,
}


def test_t406_catches_unserviced_storage_kind(tmp_path):
    files = dict(_STORAGE_ENUM_FIXTURE)
    files["repro/nt/storage/driver.py"] = """\
        from repro.nt.storage.devices import StorageKind

        _SERVICE_HANDLERS = {
            StorageKind.HDD: None,
        }
        """
    findings = _findings_for(tmp_path, files)
    t406 = [f for f in findings if f.rule == "T406"]
    assert len(t406) == 1 and "StorageKind.SSD" in t406[0].message


def test_t407_catches_unmountable_storage_kind(tmp_path):
    findings = _findings_for(tmp_path, dict(_STORAGE_ENUM_FIXTURE))
    t407 = [f for f in findings if f.rule == "T407"]
    assert len(t407) == 1 and "StorageKind.SSD" in t407[0].message


def test_storage_rules_quiet_on_real_tree():
    # The live registry and handler table must cover every kind.
    from repro.nt.storage.devices import PERSONALITIES, StorageKind
    from repro.nt.storage.driver import _SERVICE_HANDLERS

    assert set(_SERVICE_HANDLERS) == set(StorageKind)
    assert ({p.kind for p in PERSONALITIES.values()} == set(StorageKind))


# --------------------------------------------------------------------- #
# Engine path handling and baselines.


def test_collect_files_rejects_missing_path(tmp_path):
    with pytest.raises(FileNotFoundError, match="no/such"):
        collect_files([tmp_path / "no" / "such"])


def test_collect_files_rejects_empty_directory(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(ValueError, match="no Python files"):
        collect_files([empty])


def test_load_modules_rejects_two_modules_with_one_name(tmp_path):
    # A script outside any package is named by its stem, and the tree
    # rules key functions by qualified name: two run.py files would
    # share one name, and one file's findings could be lost.
    for folder in ("examples", "perfbench"):
        (tmp_path / folder).mkdir()
        (tmp_path / folder / "run.py").write_text(
            "import time\n\nSTART = time.time()\n")
    paths = [tmp_path / "examples", tmp_path / "perfbench"]
    with pytest.raises(ValueError, match="two modules named run"):
        load_modules(collect_files(paths))
    with pytest.raises(SystemExit, match="two modules named run"):
        cli_main(["verify", *map(str, paths)])


def test_verify_paths_applies_baseline(tmp_path):
    root = _write_tree(tmp_path / "tree", {"repro/nt/bad.py": """\
        import time

        def stamp():
            return time.time()
        """})
    suppressions = parse_baseline("""\
        [[suppression]]
        rule = "F601"
        path = "tree/repro/nt/bad.py"
        match = "time.time"
        justification = "fixture: the clock read is intentional here"
        """)
    report = verify_paths([root], suppressions, root=tmp_path)
    assert report.clean
    assert len(report.suppressed) == 1


def test_baseline_rejects_missing_justification():
    with pytest.raises(BaselineError, match="justification"):
        parse_baseline("""\
            [[suppression]]
            rule = "F601"
            path = "x.py"
            match = "time.time"
            """)


def test_baseline_rejects_unknown_keys():
    with pytest.raises(BaselineError, match="unknown key"):
        parse_baseline("""\
            [[suppression]]
            rule = "F601"
            paths = "x.py"
            """)


def test_stale_suppressions_fail_the_run(tmp_path):
    root = _write_tree(tmp_path / "tree", {"repro/nt/ok.py": "X = 1\n"})
    suppressions = parse_baseline("""\
        [[suppression]]
        rule = "F601"
        path = "tree/repro/nt/ok.py"
        match = "time.time"
        justification = "stale: nothing here anymore"
        """)
    report = verify_paths([root], suppressions, root=tmp_path)
    assert not report.findings
    assert len(report.stale) == 1
    assert not report.clean


def test_suppression_for_an_unverified_file_is_not_stale(tmp_path):
    # Verifying part of the tree judges only the entries for files that
    # part holds: an entry for a file outside it is neither used nor
    # stale, and one for a verified file that covers nothing still is.
    root = _write_tree(tmp_path / "tree", {
        "repro/nt/ok.py": "X = 1\n",
        "repro/common/ok.py": "Y = 1\n",
    })
    suppressions = parse_baseline("""\
        [[suppression]]
        rule = "F601"
        path = "tree/repro/nt/ok.py"
        match = "time.time"
        justification = "fixture: judged only when repro/nt is verified"
        """)
    part = verify_paths([root / "repro" / "common"], suppressions,
                        root=tmp_path)
    assert part.clean and not part.stale and not part.suppressed
    whole = verify_paths([root], suppressions, root=tmp_path)
    assert len(whole.stale) == 1 and not whole.clean


def test_suppression_for_a_missing_file_under_a_verified_root_is_stale(
        tmp_path):
    # An entry for a file that was deleted, renamed or mistyped still
    # fails a run over the directory that would hold it; a run over a
    # sibling directory does not judge it.
    root = _write_tree(tmp_path / "tree", {
        "repro/nt/ok.py": "X = 1\n",
        "repro/common/ok.py": "Y = 1\n",
    })
    suppressions = parse_baseline("""\
        [[suppression]]
        rule = "F601"
        path = "tree/repro/nt/gone.py"
        match = "time.time"
        justification = "fixture: the file it excused is gone"
        """)
    for verified in (root, root / "repro", root / "repro" / "nt"):
        report = verify_paths([verified], suppressions, root=tmp_path)
        assert len(report.stale) == 1 and not report.clean, verified
    # Run from elsewhere, the display paths are absolute; the entry's
    # leading parts still place it under the verified directory.
    away = verify_paths([root], suppressions, root=tmp_path / "elsewhere")
    assert away.stale and not away.clean
    part = verify_paths([root / "repro" / "common"], suppressions,
                        root=tmp_path)
    assert part.clean and not part.stale


def test_verify_part_of_the_tree_against_the_committed_baseline(capsys):
    # Every committed entry names a file outside repro/common.
    repo = Path(__file__).resolve().parents[1]
    assert cli_main(["verify", str(repo / "src" / "repro" / "common"),
                     "--baseline", str(repo / "verifier_baseline.toml")]) == 0
    assert "stale suppression" not in capsys.readouterr().err


def test_apply_baseline_is_order_stable():
    from repro.verifier import Finding

    findings = [Finding("b.py", 2, "F601", "x"), Finding("a.py", 1, "F601", "x")]
    kept, quieted, stale = apply_baseline(findings, [], ["a.py", "b.py"])
    assert kept == sorted(findings)
    assert quieted == [] and stale == []
