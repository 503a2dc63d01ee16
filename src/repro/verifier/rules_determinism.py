"""D-rules: orderings that depend on the host.

Simulation output must be a pure function of the seed.  Wall-clock,
entropy and ``id()``-derived values are the flow rules' job (F601 and
F602 in :mod:`repro.verifier.rules_flow`); the D-rules catch the two
orderings the host imposes where a collection is walked:

* **D103** — ``os.listdir``/``Path.iterdir``/``glob`` results consumed
  without ``sorted(...)``: directory order is filesystem-dependent.
* **D202** — iteration over a ``set``-typed local/attribute in the
  simulation scope (``repro.nt``/``repro.workload``/``repro.replay``,
  the flow rules' ``SIM_SCOPE``) outside ``sorted(...)``: sets of
  objects iterate in identity-hash order, and sets of strings in
  per-process salted-hash order.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.verifier.astutil import import_aliases, resolve_call_name
from repro.verifier.engine import ModuleInfo
from repro.verifier.findings import Finding
from repro.verifier.rules_flow import in_sim_scope

# --------------------------------------------------------------------- #
# D103: unsorted directory listings.

_LISTING_CALLS = {"os.listdir", "os.scandir", "os.walk",
                  "glob.glob", "glob.iglob"}
_LISTING_METHODS = {"iterdir", "glob", "rglob"}


def _check_directory_listings(module: ModuleInfo) -> Iterator[Finding]:
    aliases = import_aliases(module.tree)
    # ast.walk visits a call before its arguments, so a listing passed
    # straight to sorted() is recorded here before the walk reaches it.
    sorted_args: Set[ast.AST] = set()
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        if (isinstance(node.func, ast.Name) and node.func.id == "sorted"
                and node.args):
            sorted_args.add(node.args[0])
        name = resolve_call_name(node.func, aliases)
        is_listing = name in _LISTING_CALLS or (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _LISTING_METHODS)
        if not is_listing or node in sorted_args:
            continue
        label = name or node.func.attr  # type: ignore[union-attr]
        yield Finding(module.display_path, node.lineno, "D103",
                      f"{label}(...) result used without sorted(); "
                      "directory order is filesystem-dependent")


# --------------------------------------------------------------------- #
# D202: set iteration in the simulation scope.

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
    yield from _check_directory_listings(module)
    yield from _check_set_iteration(module)
