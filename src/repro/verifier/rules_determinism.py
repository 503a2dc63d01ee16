"""D-rules: determinism.

Simulation output must be a pure function of the seed, so the simulator
tree may not observe wall clocks, entropy pools, or any ordering that
depends on process memory layout:

* **D101** — banned wall-clock/entropy calls (``time.time``,
  ``datetime.now``, module-level ``random.*``, legacy ``numpy.random``
  globals, ``uuid.uuid1/4``, ``os.urandom``, ``secrets.*``).  The
  monotonic timers (``time.perf_counter`` etc.) stay legal: telemetry
  measures the host, never the simulation.
* **D102** — RNG constructed without a seed (``Random()``,
  ``default_rng()``): all randomness must derive from the study seed.
* **D201** — ``id(...)`` in the simulation scope
  (``repro.nt``/``repro.workload``/``repro.replay``, the flow rules'
  ``SIM_SCOPE``): identity is process memory layout, so ``id()``-keyed
  dicts order differently across worker processes (the PR 2
  ``dirty_maps`` bug class).
* **D202** — iteration over a ``set``-typed local/attribute in the
  simulation scope outside ``sorted(...)``: sets of objects iterate in
  identity-hash order, and sets of strings in per-process salted-hash
  order.
* **D103** — ``os.listdir``/``Path.iterdir``/``glob`` results consumed
  without ``sorted(...)``: directory order is filesystem-dependent.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.verifier.astutil import (
    import_aliases,
    parent_map,
    resolve_call_name,
)
from repro.verifier.engine import ModuleInfo
from repro.verifier.findings import Finding
from repro.verifier.rules_flow import in_sim_scope

# --------------------------------------------------------------------- #
# D101/D102: wall clock and entropy sources.

_BANNED_CALLS = {
    "time.time": "wall-clock read",
    "time.time_ns": "wall-clock read",
    "datetime.datetime.now": "wall-clock read",
    "datetime.datetime.utcnow": "wall-clock read",
    "datetime.datetime.today": "wall-clock read",
    "datetime.date.today": "wall-clock read",
    "uuid.uuid1": "entropy/host-derived identifier",
    "uuid.uuid4": "entropy-derived identifier",
    "os.urandom": "entropy read",
    "os.getrandom": "entropy read",
    "random.SystemRandom": "entropy-backed RNG",
}

# Constructors that are fine *when seeded*.
_SEEDED_CONSTRUCTORS = {
    "random.Random",
    "numpy.random.default_rng",
    "numpy.random.RandomState",
    "numpy.random.SeedSequence",
}

# numpy.random callables that are not the shared global-state RNG.
_NUMPY_RANDOM_OK = {
    "default_rng", "Generator", "RandomState", "SeedSequence",
    "BitGenerator", "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64",
}


def _check_banned_calls(module: ModuleInfo) -> Iterator[Finding]:
    aliases = import_aliases(module.tree)
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        name = resolve_call_name(node.func, aliases)
        if name is None:
            continue
        if name in _BANNED_CALLS:
            yield Finding(module.display_path, node.lineno, "D101",
                          f"call to {name} ({_BANNED_CALLS[name]}); "
                          "simulation state must derive from the seed")
            continue
        if name.startswith("secrets."):
            yield Finding(module.display_path, node.lineno, "D101",
                          f"call to {name} (entropy source)")
            continue
        if name in _SEEDED_CONSTRUCTORS:
            if not node.args and not any(
                    kw.arg in ("seed", "x") for kw in node.keywords):
                yield Finding(module.display_path, node.lineno, "D102",
                              f"{name}() constructed without a seed")
            continue
        if name.startswith("random.") and name.count(".") == 1:
            yield Finding(module.display_path, node.lineno, "D101",
                          f"call to {name} (module-level global RNG); "
                          "use a seeded random.Random instance")
            continue
        if (name.startswith("numpy.random.")
                and name.rsplit(".", 1)[1] not in _NUMPY_RANDOM_OK):
            yield Finding(module.display_path, node.lineno, "D101",
                          f"call to {name} (legacy numpy global RNG); "
                          "use numpy.random.default_rng(seed)")


# --------------------------------------------------------------------- #
# D103: unsorted directory listings.

_LISTING_CALLS = {"os.listdir", "os.scandir", "os.walk",
                  "glob.glob", "glob.iglob"}
_LISTING_METHODS = {"iterdir", "glob", "rglob"}


def _check_directory_listings(module: ModuleInfo) -> Iterator[Finding]:
    aliases = import_aliases(module.tree)
    parents = parent_map(module.tree)
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        name = resolve_call_name(node.func, aliases)
        is_listing = name in _LISTING_CALLS or (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _LISTING_METHODS)
        if not is_listing:
            continue
        parent = parents.get(node)
        if (isinstance(parent, ast.Call)
                and isinstance(parent.func, ast.Name)
                and parent.func.id == "sorted"
                and parent.args and parent.args[0] is node):
            continue
        label = name or node.func.attr  # type: ignore[union-attr]
        yield Finding(module.display_path, node.lineno, "D103",
                      f"{label}(...) result used without sorted(); "
                      "directory order is filesystem-dependent")


# --------------------------------------------------------------------- #
# D201/D202: identity keys and set iteration in the simulation scope.

def _check_identity_keys(module: ModuleInfo) -> Iterator[Finding]:
    if not in_sim_scope(module.name):
        return
    for node in ast.walk(module.tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "id"):
            yield Finding(module.display_path, node.lineno, "D201",
                          "id(...) derives a value from process memory "
                          "layout; id()-keyed maps order differently "
                          "across processes (the dirty_maps bug class)")


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset"))


def _is_set_annotation(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value.strip()
    else:
        try:
            text = ast.unparse(node)
        except Exception:  # pragma: no cover - malformed annotation
            return False
    head = text.split("[", 1)[0].strip()
    return head in ("set", "Set", "frozenset", "FrozenSet",
                    "typing.Set", "typing.FrozenSet")


def _collect_set_bindings(tree: ast.AST) -> "tuple[Set[str], Set[str]]":
    """(attribute names, local names) bound to set values in ``tree``."""
    attrs: Set[str] = set()
    names: Set[str] = set()

    def record(target: ast.expr, is_set: bool) -> None:
        if not is_set:
            return
        if isinstance(target, ast.Attribute):
            attrs.add(target.attr)
        elif isinstance(target, ast.Name):
            names.add(target.id)

    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                record(target, _is_set_expr(node.value))
        elif isinstance(node, ast.AnnAssign):
            is_set = _is_set_annotation(node.annotation) or (
                node.value is not None and _is_set_expr(node.value))
            record(node.target, is_set)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            if _is_set_annotation(node.annotation):
                names.add(node.arg)
    return attrs, names


# Iteration contexts that materialize set order.
_ORDER_SINKS = {"list", "tuple", "enumerate", "iter", "reversed"}


def _check_set_iteration(module: ModuleInfo) -> Iterator[Finding]:
    if not in_sim_scope(module.name):
        return
    set_attrs, set_names = _collect_set_bindings(module.tree)

    def is_set_valued(node: ast.expr) -> bool:
        if _is_set_expr(node):
            return True
        if isinstance(node, ast.Name):
            return node.id in set_names
        if isinstance(node, ast.Attribute):
            return node.attr in set_attrs
        return False

    def flag(node: ast.expr, context: str) -> Iterator[Finding]:
        if is_set_valued(node):
            label = ast.unparse(node)
            yield Finding(module.display_path, node.lineno, "D202",
                          f"iteration over set-typed {label!r} {context}; "
                          "wrap in sorted() — sets of objects iterate in "
                          "identity-hash order")

    for node in ast.walk(module.tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield from flag(node.iter, "in a for loop")
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            for gen in node.generators:
                yield from flag(gen.iter, "in a comprehension")
        elif isinstance(node, ast.Call):
            if (isinstance(node.func, ast.Name)
                    and node.func.id in _ORDER_SINKS and node.args):
                yield from flag(node.args[0], f"via {node.func.id}()")
            elif (isinstance(node.func, ast.Attribute)
                    and node.func.attr == "join" and node.args):
                yield from flag(node.args[0], "via str.join()")


def check_determinism(module: ModuleInfo) -> Iterator[Finding]:
    """All D-rules for one module."""
    yield from _check_banned_calls(module)
    yield from _check_directory_listings(module)
    yield from _check_identity_keys(module)
    yield from _check_set_iteration(module)
