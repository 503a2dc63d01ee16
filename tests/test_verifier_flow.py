"""Catch/clean fixtures for the interprocedural flow rules (F601/F602).

F601 must report every direct wall-clock or entropy source, in any
verified module, and convict a sim-scope function that reaches one
through *any* call chain — including chains through helper modules
outside the simulation packages — while staying quiet for seeded,
derived-from-the-seed code and for host timers outside the simulation
scope.  F602 must catch the two bug shapes this repository has actually
shipped (the identity-hashed ``dirty_maps`` set from PR 2 and the
``id()``-keyed LRU from PR 5) and ``id()`` keys that escape their dict,
and stay quiet for value-semantics containers and probed registries.
The fixture matrix at the end runs every rule, so each determinism
hazard is shown to have exactly one rule.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.verifier import collect_files, load_modules, run_rules
from repro.verifier.flow import analyze
from repro.verifier.rules import MODULE_RULES, TREE_RULES


def _index(tmp_path: Path, files: dict):
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
    return load_modules(collect_files([root]), root=tmp_path)


def _analyze(tmp_path: Path, files: dict):
    return analyze(_index(tmp_path, files))


def _rules(findings):
    return {f.rule for f in findings}


# --------------------------------------------------------------------- #
# F601: transitive wall-clock/entropy taint.


def test_f601_catches_direct_source_in_sim_scope(tmp_path):
    findings = _analyze(tmp_path, {"repro/nt/bad.py": """\
        import time

        def tick():
            return time.perf_counter()
        """})
    hits = [f for f in findings if f.rule == "F601"]
    assert len(hits) == 1
    assert "time.perf_counter" in hits[0].message
    assert "repro.nt.bad.tick" in hits[0].message


def test_f601_catches_transitive_chain_through_helper_module(tmp_path):
    # The helper's host timer is legal where it is written; reached from
    # the simulation scope, it convicts the sim-scope caller.
    findings = _analyze(tmp_path, {
        "repro/common/hostutil.py": """\
            import time

            def wall_stamp():
                return time.perf_counter()
            """,
        "repro/nt/engine.py": """\
            from repro.common.hostutil import wall_stamp

            def advance(state):
                state.t = wall_stamp()
            """,
    })
    hits = [f for f in findings if f.rule == "F601"]
    assert len(hits) == 1
    assert "repro.nt.engine.advance" in hits[0].message
    assert "wall_stamp" in hits[0].message
    assert "time.perf_counter" in hits[0].message


def test_f601_reports_at_earliest_sim_frame_only(tmp_path):
    # helper is itself sim-scope: the root frame gets the finding, the
    # callers of the already-convicted helper stay quiet.
    findings = _analyze(tmp_path, {
        "repro/nt/helpers.py": """\
            import time

            def stamp():
                return time.time()
            """,
        "repro/nt/engine.py": """\
            from repro.nt.helpers import stamp

            def advance(state):
                state.t = stamp()
            """,
    })
    hits = [f for f in findings if f.rule == "F601"]
    assert len(hits) == 1
    assert "repro.nt.helpers.stamp" in hits[0].message


def test_f601_catches_unseeded_rng_and_uuid(tmp_path):
    findings = _analyze(tmp_path, {"repro/workload/bad.py": """\
        import random
        import uuid

        def label():
            return uuid.uuid4()

        def gen():
            return random.Random()
        """})
    hits = [f for f in findings if f.rule == "F601"]
    assert len(hits) == 2


def test_f601_clean_for_seeded_simulation(tmp_path):
    findings = _analyze(tmp_path, {"repro/nt/ok.py": """\
        import random

        def build(seed):
            rng = random.Random(seed)
            return rng.random()

        def advance(clock, ticks):
            clock.advance(ticks)
        """})
    assert "F601" not in _rules(findings)


def test_f601_ignores_sources_outside_sim_scope(tmp_path):
    # Outside repro.nt, repro.workload and repro.replay only a direct
    # source is a finding: host timers stay legal, and a caller that
    # reaches a source through a helper is not convicted (the helper's
    # own call is).
    findings = _analyze(tmp_path, {
        "repro/common/hostutil.py": """\
            import time

            def wall_stamp():
                return time.time()
            """,
        "repro/analysis/report.py": """\
            import time
            from repro.common.hostutil import wall_stamp

            def stamp():
                return time.perf_counter(), wall_stamp()
            """,
    })
    assert [(f.path, f.line) for f in findings if f.rule == "F601"] == [
        ("tree/repro/common/hostutil.py", 4)]


def test_f601_reads_every_scope_of_a_module(tmp_path):
    # Each call is reported where it is written: in a class body (import
    # time), a default argument, a lambda, and a property getter that
    # shares its qualified name with its setter.
    findings = _analyze(tmp_path, {"repro/nt/scopes.py": """\
        import random
        import time

        class Jitter:
            SPREAD = random.random()

            def draw(self, at=time.time()):
                return at

            @property
            def now(self):
                return time.time()

            @now.setter
            def now(self, value):
                self.value = value

        LATER = lambda: time.monotonic()
        """})
    assert sorted(f.line for f in findings if f.rule == "F601") == [
        5, 7, 12, 18]


# --------------------------------------------------------------------- #
# F602: identity flow into iterated/ordered/serialized containers.


def test_f602_catches_the_dirty_maps_bug_shape(tmp_path):
    # The PR-2 bug, reconstructed: control areas with default
    # object.__hash__ collected in a set by one method, iterated by
    # another — flush order then varies across processes.
    findings = _analyze(tmp_path, {"repro/nt/cache/cc.py": """\
        class ControlArea:
            def __init__(self, name):
                self.name = name

        class CacheManager:
            def __init__(self):
                self.dirty_maps = set()

            def mark_dirty(self, cmap: ControlArea):
                self.dirty_maps.add(cmap)

            def lazy_writer_scan(self):
                for cmap in self.dirty_maps:
                    yield cmap.name
        """})
    hits = [f for f in findings if f.rule == "F602"]
    assert len(hits) == 1
    assert "dirty_maps" in hits[0].message
    assert "identity" in hits[0].message


def test_f602_catches_id_keys_ordered_across_functions(tmp_path):
    # The PR-5 bug shape: id() keys stored by one method, sorted by
    # another — sort order is address order.
    findings = _analyze(tmp_path, {"repro/nt/cache/lru.py": """\
        class Lru:
            def __init__(self):
                self.order = {}

            def touch(self, obj, tick):
                self.order[id(obj)] = tick

            def eviction_order(self):
                return sorted(self.order)
        """})
    hits = [f for f in findings if f.rule == "F602"]
    assert len(hits) == 1
    assert "id()" in hits[0].message


def test_f602_tracks_id_through_a_returning_helper(tmp_path):
    findings = _analyze(tmp_path, {"repro/nt/handles.py": """\
        def make_key(obj):
            return id(obj)

        class Table:
            def __init__(self):
                self.keys = {}

            def insert(self, obj):
                self.keys[make_key(obj)] = obj

            def dump(self):
                return sorted(self.keys)
        """})
    hits = [f for f in findings if f.rule == "F602"]
    assert len(hits) == 1


def test_f602_clean_for_value_semantics_dataclass(tmp_path):
    findings = _analyze(tmp_path, {"repro/nt/ok.py": """\
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class FileKey:
            volume: int
            index: int

        class Tracker:
            def __init__(self):
                self.seen = set()

            def note(self, key: FileKey):
                self.seen.add(key)

            def ordered(self):
                return sorted(self.seen)
        """})
    assert "F602" not in _rules(findings)


def test_f602_clean_for_class_defining_hash(tmp_path):
    findings = _analyze(tmp_path, {"repro/nt/ok.py": """\
        class Vpb:
            def __init__(self, serial):
                self.serial = serial

            def __hash__(self):
                return self.serial

            def __eq__(self, other):
                return self.serial == other.serial

        class Mounts:
            def __init__(self):
                self.live = set()

            def add(self, vpb: Vpb):
                self.live.add(vpb)

            def walk(self):
                for vpb in self.live:
                    yield vpb.serial
        """})
    assert "F602" not in _rules(findings)


def test_f602_catches_id_keys_that_escape(tmp_path):
    # An id()-keyed dict is a hazard once its keys leave it: iterating
    # the dict, its keys or its items hands them on.  Iterating its
    # values and probing it do not.
    findings = _analyze(tmp_path, {"repro/nt/watch.py": """\
        class Registry:
            def __init__(self):
                self.by_id = {}

            def register(self, obj):
                self.by_id[id(obj)] = obj

            def walk(self):
                for key in self.by_id:
                    yield key

            def snapshot(self):
                return list(self.by_id), tuple(self.by_id)

            def key_list(self):
                return [k for k in self.by_id.keys()]

            def pairs(self):
                return [k for k, _v in self.by_id.items()]

            def live(self):
                return [v for v in self.by_id.values()]

            def forget(self, obj):
                self.by_id.pop(id(obj), None)
                return id(obj) in self.by_id
        """})
    hits = [f for f in findings if f.rule == "F602"]
    assert sorted(f.line for f in hits) == [9, 13, 16, 19]
    assert all("id()-derived keys" in f.message for f in hits)


def test_f602_sees_keys_escape_through_wrappers(tmp_path):
    # enumerate/zip/reversed/set/frozenset and star-unpacking iterate
    # what they are given, so they hand id() keys on as a for loop does.
    findings = _analyze(tmp_path, {"repro/nt/watch.py": """\
        class Registry:
            def __init__(self):
                self.by_id = {}

            def register(self, obj):
                self.by_id.setdefault(id(obj), []).append(obj)

            def numbered(self):
                return [i for i, _k in enumerate(self.by_id)]

            def paired(self, names):
                return dict(zip(names, self.by_id))

            def backwards(self):
                return reversed(self.by_id)

            def as_sets(self):
                return set(self.by_id), frozenset(self.by_id)

            def unpacked(self):
                return [*self.by_id]
        """})
    hits = [f for f in findings if f.rule == "F602"]
    assert sorted(f.line for f in hits) == [9, 12, 15, 18, 21]


def test_f602_walks_a_getter_that_its_setter_shadows(tmp_path):
    # A property's getter and setter share one qualified name; the
    # getter's body must still be read.
    findings = _analyze(tmp_path, {"repro/nt/watch.py": """\
        class Registry:
            def __init__(self):
                self.by_id = {}

            def register(self, obj):
                self.by_id[id(obj)] = obj

            @property
            def keys(self):
                return sorted(self.by_id)

            @keys.setter
            def keys(self, value):
                self.value = value
        """})
    assert [(f.rule, f.line) for f in findings] == [("F602", 10)]


def test_f602_allows_identity_dict_probed_not_iterated(tmp_path):
    # The sanctioned pattern from system.py: identity keys are fine
    # while the container is only probed by the same live object.
    findings = _analyze(tmp_path, {"repro/nt/ok.py": """\
        class Registry:
            def __init__(self):
                self.watches = {}

            def register(self, obj, cb):
                self.watches[id(obj)] = cb

            def lookup(self, obj):
                return self.watches.get(id(obj))
        """})
    assert "F602" not in _rules(findings)


# --------------------------------------------------------------------- #
# The fixture matrix: every rule runs, and each determinism hazard is
# caught by exactly one of them (or, where nothing escapes, by none).

_MATRIX = [
    ("numpy-global-in-nt-function", "repro/nt/bad.py", """\
        import numpy as np

        def draw():
            return np.random.random()
        """, {"F601"}),
    ("random-in-nt-class-body", "repro/nt/bad.py", """\
        import random

        class Jitter:
            SPREAD = random.random()
        """, {"F601"}),
    ("random-at-nt-module-level", "repro/nt/bad.py", """\
        import random

        SPREAD = random.random()
        """, {"F601"}),
    ("time-in-analysis-function", "repro/analysis/bad.py", """\
        import time

        def stamp():
            return time.time()
        """, {"F601"}),
    ("unseeded-rng-in-analysis", "repro/analysis/bad.py", """\
        import numpy as np

        def make():
            return np.random.default_rng()
        """, {"F601"}),
    ("random-in-tests-function", "tests/test_bad.py", """\
        import random

        def test_roll():
            assert random.random() < 1.0
        """, {"F601"}),
    ("time-in-nt-function", "repro/nt/bad.py", """\
        import time

        def stamp():
            return time.time()
        """, {"F601"}),
    ("id-keys-iterated-in-nt", "repro/nt/bad.py", """\
        class Table:
            def __init__(self):
                self.t = {}

            def add(self, o):
                self.t[id(o)] = o

            def dump(self):
                return list(self.t)
        """, {"F602"}),
    ("setdefault-id-keys-iterated-in-nt", "repro/nt/bad.py", """\
        class Table:
            def __init__(self):
                self.t = {}

            def add(self, o):
                self.t.setdefault(id(o), []).append(o)

            def dump(self):
                return list(self.t)
        """, {"F602"}),
    ("id-keys-enumerated-in-nt", "repro/nt/bad.py", """\
        class Table:
            def __init__(self):
                self.t = {}

            def add(self, o):
                self.t[id(o)] = o

            def dump(self):
                return [i for i, _k in enumerate(self.t)]
        """, {"F602"}),
    ("id-values-listed-then-iterated-in-nt", "repro/nt/bad.py", """\
        class Table:
            def __init__(self):
                self.l = []

            def add(self, o):
                self.l.append(id(o))

            def dump(self):
                return [x for x in self.l]
        """, {"F602"}),
    ("id-keys-only-probed-in-nt", "repro/nt/ok.py", """\
        class Watches:
            def __init__(self):
                self.t = {}

            def arm(self, o, callback):
                self.t.setdefault(id(o), []).append(callback)

            def fire(self, o):
                return self.t.pop(id(o), None)

            def armed(self, o):
                return id(o) in self.t
        """, set()),
    ("perf-counter-in-cli", "repro/cli.py", """\
        import time

        def main():
            return time.perf_counter()
        """, set()),
]


@pytest.mark.parametrize("path, source, expected",
                         [row[1:] for row in _MATRIX],
                         ids=[row[0] for row in _MATRIX])
def test_fixture_matrix(tmp_path, path, source, expected):
    findings = run_rules(_index(tmp_path, {path: source}),
                         MODULE_RULES, TREE_RULES)
    assert [f.rule for f in findings] == sorted(expected), findings
