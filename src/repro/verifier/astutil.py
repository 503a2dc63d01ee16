"""Small AST helpers shared by the verifier rules (stdlib ``ast`` only)."""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Map local binding → fully-qualified name for module-level imports.

    ``import numpy as np`` → ``{"np": "numpy"}``;
    ``from time import time`` → ``{"time": "time.time"}``;
    ``from numpy import random as npr`` → ``{"npr": "numpy.random"}``.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                aliases[bound] = target
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                aliases[bound] = f"{node.module}.{alias.name}"
    return aliases


def resolve_call_name(func: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Qualified name of a called object, resolved through import aliases."""
    name = dotted_name(func)
    if name is None:
        return None
    head, _, rest = name.partition(".")
    head = aliases.get(head, head)
    return f"{head}.{rest}" if rest else head


def enum_member_names(tree: ast.Module, class_name: str) -> Set[str]:
    """Uppercase member names assigned in the class body of ``class_name``."""
    members: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            for stmt in node.body:
                targets: List[ast.expr] = []
                if isinstance(stmt, ast.Assign):
                    targets = stmt.targets
                elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                    targets = [stmt.target]
                for target in targets:
                    if isinstance(target, ast.Name) and target.id.isupper():
                        members.add(target.id)
    return members


def find_assignment(tree: ast.Module, name: str) -> Optional[ast.expr]:
    """The value expression assigned to module/class-level ``name``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    return node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if isinstance(node.target, ast.Name) and node.target.id == name:
                return node.value
    return None


def attribute_refs(tree: ast.AST, base: str,
                   skip_class_body: Optional[str] = None) -> Set[str]:
    """Attribute names referenced as ``base.X`` anywhere in ``tree``.

    ``skip_class_body`` excludes references inside that class definition
    (so an enum's own body does not count as a use of its members).
    """
    refs: Set[str] = set()
    skipped: Set[ast.AST] = set()
    if skip_class_body is not None:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == skip_class_body:
                skipped.update(ast.walk(node))
    for node in ast.walk(tree):
        if node in skipped:
            continue
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == base):
            refs.add(node.attr)
    return refs


def _is_type_checking_test(test: ast.expr) -> bool:
    name = dotted_name(test)
    return name in ("TYPE_CHECKING", "typing.TYPE_CHECKING")


def iter_imports(tree: ast.Module) -> Iterator[Tuple[ast.stmt, str, bool]]:
    """Yield ``(node, imported_module, in_type_checking)`` for every import.

    For ``from pkg import name`` the imported module is ``pkg`` (the
    bound names may be submodules or attributes; rules that care resolve
    further).  Imports nested inside functions are included — a
    function-level import is still a runtime dependency.
    """
    def visit(stmts: List[ast.stmt], guarded: bool) -> Iterator[
            Tuple[ast.stmt, str, bool]]:
        for stmt in stmts:
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    yield stmt, alias.name, guarded
            elif isinstance(stmt, ast.ImportFrom):
                if stmt.module and not stmt.level:
                    yield stmt, stmt.module, guarded
            elif isinstance(stmt, ast.If):
                inner = guarded or _is_type_checking_test(stmt.test)
                yield from visit(stmt.body, inner)
                yield from visit(stmt.orelse, guarded)
            else:
                for field in ("body", "orelse", "finalbody", "handlers"):
                    value = getattr(stmt, field, None)
                    if not value:
                        continue
                    if field == "handlers":
                        for handler in value:
                            yield from visit(handler.body, guarded)
                    else:
                        yield from visit(value, guarded)

    yield from visit(tree.body, False)
