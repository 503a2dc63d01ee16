"""U-rules: the unit lattice.

Every headline number this reproduction publishes is an exact integer
tick or byte count; the only floats allowed near the simulation are
ratios and host-side telemetry.  These rules run an abstract
interpretation over the unit lattice

    {ticks, bytes, wall_seconds, ratio, unknown}

seeded from the project's naming conventions (``*_ticks``, ``*_bytes``,
``*_seconds``, ``*_ratio``/``*_fraction``/``*_scale``, ``nbytes``, the
``TICKS_PER_*`` conversion constants and the ``X_from_Y`` conversion
functions in :mod:`repro.common.clock`) and propagated through
assignments, returns, and call arguments:

* **U801** — two *different* known quantities (ticks, bytes, seconds)
  meet in an additive operation or comparison, or a call passes a value
  of one known quantity into a parameter named for another, without an
  explicit conversion (multiplying or dividing by a conversion constant,
  or calling a ``ticks_from_*``/``*_from_ticks`` function).
* **U802** — a float-producing expression (true division, ``float()``,
  a float literal factor, a ``time.*`` read) flows into tick-valued
  state — a ``*_ticks`` assignment target, a tick-named parameter, or
  the return value of a ``*_ticks`` function — inside the
  exact-arithmetic layers (``repro.nt.storage``, ``repro.nt.cache``,
  ``repro.common.clock``).  Wrapping in ``int(...)``/``round(...)`` or
  going through a ``ticks_from_*`` conversion sanitizes.

Both rules are seeded by convention, so they are only as strong as the
project's naming discipline — which the review bar already enforces;
the rules make it machine-checked.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Optional, Tuple

from repro.verifier.astutil import resolve_call_name
from repro.verifier.callgraph import (
    GraphBuilder,
    _FunctionScope,
    _iter_scope_nodes,
    _resolve_target,
    is_external,
)
from repro.verifier.engine import ModuleInfo
from repro.verifier.findings import Finding

TICKS = "ticks"
BYTES = "bytes"
SECONDS = "wall_seconds"
RATIO = "ratio"
UNKNOWN = "unknown"

QUANTITIES = (TICKS, BYTES, SECONDS)

# The exact-arithmetic layers where float contamination of tick state
# is a correctness bug, not a style issue.
EXACT_MODULES = ("repro.nt.storage", "repro.nt.cache", "repro.common.clock")

_SUFFIX_UNITS = {
    "ticks": TICKS, "tick": TICKS,
    "bytes": BYTES,
    "seconds": SECONDS, "secs": SECONDS,
    "ratio": RATIO, "fraction": RATIO, "scale": RATIO,
}
_WHOLE_NAME_UNITS = {"nbytes": BYTES, "ticks": TICKS, "nticks": TICKS}

_CONVERSION_CONSTANT = re.compile(r"^TICKS_PER_[A-Z]+$")
_CONVERSION_FUNCTION = re.compile(r"^([a-z]+)_from_([a-z]+)$")
_SANITIZERS = {"int", "round"}
_TOKEN_FOR_UNIT = {"ticks": TICKS, "seconds": SECONDS, "secs": SECONDS,
                   "bytes": BYTES, "millis": UNKNOWN, "micros": UNKNOWN}


def unit_of_name(name: str) -> str:
    """Unit a bare identifier advertises through its suffix."""
    bare = name.rsplit(".", 1)[-1]
    if bare in _WHOLE_NAME_UNITS:
        return _WHOLE_NAME_UNITS[bare]
    token = bare.rsplit("_", 1)[-1].lower()
    return _SUFFIX_UNITS.get(token, UNKNOWN)


def return_unit_of_callee(name: str) -> str:
    """Unit a function's *name* promises for its return value."""
    bare = name.rsplit(".", 1)[-1]
    match = _CONVERSION_FUNCTION.match(bare)
    if match:
        return _TOKEN_FOR_UNIT.get(match.group(1), UNKNOWN)
    return unit_of_name(bare)


def is_conversion_call(name: Optional[str]) -> bool:
    return name is not None and bool(
        _CONVERSION_FUNCTION.match(name.rsplit(".", 1)[-1]))


class _UnitChecker:
    """Abstract interpretation of one function over the unit lattice."""

    def __init__(self, module: ModuleInfo, fn, builder: GraphBuilder,
                 findings: List[Finding]) -> None:
        self.module = module
        self.fn = fn
        self.builder = builder
        self.findings = findings
        self.aliases = builder.table.aliases.get(module.name, {})
        self.local_functions = builder.local_functions(module.name)
        self.scope = _FunctionScope(fn, builder.table)
        self.exact = module.name.startswith(EXACT_MODULES)
        self.env: Dict[str, str] = {}
        self.floaty: Dict[str, bool] = {}
        for param in fn.params:
            unit = unit_of_name(param)
            if unit != UNKNOWN:
                self.env[param] = unit

    # -- lattice ------------------------------------------------------ #

    def unit_of(self, expr: ast.expr) -> str:
        if isinstance(expr, ast.Name):
            if expr.id in self.env:
                return self.env[expr.id]
            if _CONVERSION_CONSTANT.match(expr.id):
                return UNKNOWN  # handled structurally in _binop_unit
            return unit_of_name(expr.id)
        if isinstance(expr, ast.Attribute):
            name = resolve_call_name(expr, self.aliases) or expr.attr
            if _CONVERSION_CONSTANT.match(name.rsplit(".", 1)[-1]):
                return UNKNOWN
            return unit_of_name(expr.attr)
        if isinstance(expr, ast.Call):
            name = resolve_call_name(expr.func, self.aliases)
            if name is not None:
                bare = name.rsplit(".", 1)[-1]
                if bare in _SANITIZERS and expr.args:
                    return self.unit_of(expr.args[0])
                return return_unit_of_callee(name)
            return UNKNOWN
        if isinstance(expr, ast.BinOp):
            return self._binop_unit(expr)
        if isinstance(expr, ast.UnaryOp):
            return self.unit_of(expr.operand)
        if isinstance(expr, ast.IfExp):
            then = self.unit_of(expr.body)
            return then if then != UNKNOWN else self.unit_of(expr.orelse)
        return UNKNOWN

    def _conversion_constant_name(self, expr: ast.expr) -> Optional[str]:
        if isinstance(expr, ast.Name) and _CONVERSION_CONSTANT.match(
                expr.id):
            return expr.id
        if isinstance(expr, ast.Attribute) and _CONVERSION_CONSTANT.match(
                expr.attr):
            return expr.attr
        return None

    def _binop_unit(self, expr: ast.BinOp) -> str:
        left = self.unit_of(expr.left)
        right = self.unit_of(expr.right)
        lconv = self._conversion_constant_name(expr.left)
        rconv = self._conversion_constant_name(expr.right)
        if isinstance(expr.op, (ast.Add, ast.Sub)):
            self._check_mix(expr, left, right, "arithmetic")
            return left if left != UNKNOWN else right
        if isinstance(expr.op, ast.Mult):
            # seconds * TICKS_PER_SECOND -> ticks (explicit conversion).
            if lconv or rconv:
                return TICKS
            if left == RATIO:
                return right
            if right == RATIO:
                return left
            if left != UNKNOWN and right != UNKNOWN:
                return UNKNOWN  # u*u — squared quantity, out of lattice
            return left if left != UNKNOWN else right
        if isinstance(expr.op, (ast.Div, ast.FloorDiv)):
            if rconv:
                # ticks / TICKS_PER_SECOND -> the named denominator unit.
                token = rconv.rsplit("_", 1)[-1].lower() + "s"
                return _TOKEN_FOR_UNIT.get(token, UNKNOWN)
            if left != UNKNOWN and left == right:
                return RATIO
            if right == UNKNOWN:
                return left
            return UNKNOWN
        if isinstance(expr.op, ast.Mod):
            return left
        return UNKNOWN

    def _check_mix(self, node: ast.AST, left: str, right: str,
                   context: str) -> None:
        if (left in QUANTITIES and right in QUANTITIES
                and left != right):
            self.findings.append(Finding(
                self.module.display_path, node.lineno, "U801",
                f"{left} and {right} mixed in {context} without an "
                "explicit conversion constant "
                f"(in {self.fn.qualname})"))

    # -- float contamination ------------------------------------------ #

    def is_floaty(self, expr: ast.expr) -> bool:
        if isinstance(expr, ast.Constant):
            return isinstance(expr.value, float)
        if isinstance(expr, ast.Name):
            return self.floaty.get(expr.id, False)
        if isinstance(expr, ast.BinOp):
            if isinstance(expr.op, ast.Div):
                return True
            if isinstance(expr.op, (ast.FloorDiv, ast.Mod)):
                return False
            return self.is_floaty(expr.left) or self.is_floaty(expr.right)
        if isinstance(expr, ast.UnaryOp):
            return self.is_floaty(expr.operand)
        if isinstance(expr, ast.IfExp):
            return self.is_floaty(expr.body) or self.is_floaty(expr.orelse)
        if isinstance(expr, ast.Call):
            name = resolve_call_name(expr.func, self.aliases)
            if name is None:
                return False
            bare = name.rsplit(".", 1)[-1]
            if bare in _SANITIZERS or bare in ("floor", "ceil", "len"):
                return False
            if is_conversion_call(name):
                # X_from_Y conversions to ticks return exact ints.
                return return_unit_of_callee(name) != TICKS
            if bare == "float" or name.startswith("time."):
                return True
            if bare in ("min", "max") and expr.args:
                return any(self.is_floaty(a) for a in expr.args)
            return False
        return False

    # -- walk ---------------------------------------------------------- #

    def run(self) -> None:
        nodes = list(_iter_scope_nodes(self.fn))
        for _ in range(2):
            for node in nodes:
                if isinstance(node, ast.Assign):
                    self._bind(node.targets, node.value)
                elif isinstance(node, ast.AnnAssign) and node.value:
                    self._bind([node.target], node.value)
        return_unit = return_unit_of_callee(self.fn.name)
        for node in nodes:
            if isinstance(node, (ast.BinOp, ast.Compare)):
                self._visit_arith(node)
            elif isinstance(node, ast.Call):
                self._visit_call(node)
            elif isinstance(node, ast.Assign):
                self._visit_assign(node.targets, node.value, node.lineno)
            elif isinstance(node, ast.AnnAssign) and node.value:
                self._visit_assign([node.target], node.value, node.lineno)
            elif isinstance(node, ast.AugAssign):
                self._visit_aug(node)
            elif isinstance(node, ast.Return) and node.value is not None:
                if (self.exact and return_unit == TICKS
                        and self.is_floaty(node.value)):
                    self.findings.append(Finding(
                        self.module.display_path, node.lineno, "U802",
                        "float-valued expression returned from "
                        f"tick-valued {self.fn.qualname}; exact layers "
                        "must keep integer ticks (wrap in int(round()) "
                        "or use a ticks_from_* conversion)"))

    def _bind(self, targets, value: ast.expr) -> None:
        unit = self.unit_of(value)
        floaty = self.is_floaty(value)
        for target in targets:
            if isinstance(target, ast.Name):
                named = unit_of_name(target.id)
                if named == UNKNOWN and unit != UNKNOWN:
                    self.env[target.id] = unit
                self.floaty[target.id] = floaty

    def _visit_arith(self, node) -> None:
        if isinstance(node, ast.Compare) and len(node.comparators) == 1:
            if not isinstance(node.ops[0], (ast.Lt, ast.LtE, ast.Gt,
                                            ast.GtE)):
                return
            left = self.unit_of(node.left)
            right = self.unit_of(node.comparators[0])
            self._check_mix(node, left, right, "a comparison")
        # Additive BinOp mixing is reported by unit_of/_binop_unit when
        # the enclosing statement evaluates it; evaluate directly so
        # bare expressions are covered exactly once.
        elif isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Add, ast.Sub)):
            self._check_mix(node, self.unit_of(node.left),
                            self.unit_of(node.right), "arithmetic")

    def _visit_call(self, call: ast.Call) -> None:
        name = resolve_call_name(call.func, self.aliases)
        if is_conversion_call(name):
            return  # explicit conversions accept any unit
        target = _resolve_target(
            self.builder.table, self.module.name, self.fn, call.func,
            self.scope, self.aliases, self.local_functions)
        if target is None or is_external(target):
            return
        callee = self.builder.table.functions.get(target)
        if callee is None:
            return
        offset = 1 if callee.is_method else 0
        pairs: List[Tuple[str, ast.expr]] = []
        for i, arg in enumerate(call.args):
            index = i + offset
            if index < len(callee.params):
                pairs.append((callee.params[index], arg))
        for kw in call.keywords:
            if kw.arg is not None and kw.arg in callee.params:
                pairs.append((kw.arg, kw.value))
        for param, arg in pairs:
            param_unit = unit_of_name(param)
            arg_unit = self.unit_of(arg)
            if (param_unit in QUANTITIES and arg_unit in QUANTITIES
                    and param_unit != arg_unit):
                self.findings.append(Finding(
                    self.module.display_path, call.lineno, "U801",
                    f"{arg_unit} value passed to {param_unit} parameter "
                    f"{param!r} of {target} without an explicit "
                    "conversion"))
            if (self.exact and param_unit == TICKS
                    and self.is_floaty(arg)):
                self.findings.append(Finding(
                    self.module.display_path, call.lineno, "U802",
                    "float-valued expression passed to tick-valued "
                    f"parameter {param!r} of {target}; exact layers "
                    "must keep integer ticks"))

    def _visit_assign(self, targets, value: ast.expr,
                      lineno: int) -> None:
        if not self.exact or not self.is_floaty(value):
            return
        for target in targets:
            name = None
            if isinstance(target, ast.Name):
                name = target.id
            elif isinstance(target, ast.Attribute):
                name = target.attr
            if name is not None and unit_of_name(name) == TICKS:
                self.findings.append(Finding(
                    self.module.display_path, lineno, "U802",
                    f"float-valued expression assigned to tick-valued "
                    f"{name!r} in {self.fn.qualname}; exact layers must "
                    "keep integer ticks (wrap in int(round()))"))

    def _visit_aug(self, node: ast.AugAssign) -> None:
        target_name = None
        if isinstance(node.target, ast.Name):
            target_name = node.target.id
        elif isinstance(node.target, ast.Attribute):
            target_name = node.target.attr
        if target_name is None:
            return
        target_unit = self.env.get(target_name, unit_of_name(target_name))
        if isinstance(node.op, (ast.Add, ast.Sub)):
            self._check_mix(node, target_unit, self.unit_of(node.value),
                            "arithmetic")
        if (self.exact and target_unit == TICKS
                and self.is_floaty(node.value)):
            self.findings.append(Finding(
                self.module.display_path, node.lineno, "U802",
                f"float-valued expression folded into tick-valued "
                f"{target_name!r} in {self.fn.qualname}; exact layers "
                "must keep integer ticks"))


def unit_findings(module: ModuleInfo,
                  builder: GraphBuilder) -> List[Finding]:
    """All U801/U802 findings for one module."""
    if not module.name.startswith("repro."):
        return []
    findings: List[Finding] = []
    for fn in builder.by_module.get(module.name, []):
        _UnitChecker(module, fn, builder, findings).run()
    return sorted(set(findings))
