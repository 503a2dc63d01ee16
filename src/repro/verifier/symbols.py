"""Project-wide symbol table for the interprocedural verifier rules.

The flow rules (F6xx) and unit rules (U8xx) need to see *across* files:
which functions exist, which class defines which methods, whether a
class customises ``__hash__``, and what each function's parameters are
called.  :func:`build_symbols` walks a
:class:`~repro.verifier.engine.ModuleIndex` once and produces that view
(stdlib :mod:`ast` only, like the rest of the verifier).

Qualified names follow the runtime convention:
``repro.nt.io.iomanager.IoManager._dispatch`` for a method,
``repro.workload.study.run_study`` for a module function, and
``repro.workload.study.run_study.mark`` for a function nested inside
another.  The table is a value object — building it never imports the
analysed code.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.verifier.astutil import import_aliases
from repro.verifier.engine import ModuleIndex, ModuleInfo

MODULE_BODY = "<module>"


@dataclass
class FunctionSymbol:
    """One function or method definition."""

    qualname: str                 # repro.nt.x.Class.meth / repro.x.fn
    module: str                   # dotted module name
    name: str                     # bare name
    lineno: int
    class_qualname: Optional[str]  # owning class, if a method
    params: List[str]             # positional-or-keyword names, incl. self
    annotations: Dict[str, str]   # param name -> unparsed annotation text
    # Every def bound to this qualname, in source order: a property's
    # getter and setter share one, and both bodies run.
    nodes: List[ast.AST] = field(default_factory=list, repr=False)

    @property
    def is_method(self) -> bool:
        return self.class_qualname is not None


@dataclass
class ClassSymbol:
    """One class definition."""

    qualname: str
    module: str
    name: str
    lineno: int
    base_names: List[str]         # unparsed base expressions
    decorators: List[str] = field(default_factory=list)
    methods: Set[str] = field(default_factory=set)
    defines_hash: bool = False    # __hash__ in the class body
    defines_eq: bool = False      # __eq__ in the class body
    # attribute name -> class qualname, from ``self.x = ClassName(...)``
    # assignments and ``x: ClassName`` class-level annotations.
    attr_classes: Dict[str, str] = field(default_factory=dict)

    def uses_identity_hash(self, table: "SymbolTable") -> bool:
        """True when instances *provably* hash by identity.

        A class that defines ``__hash__`` anywhere in its project-visible
        MRO hashes by value; one that defines ``__eq__`` without
        ``__hash__`` is unhashable (so it can never silently enter a
        set).  Decorators (``@dataclass`` injects value semantics) and
        bases the table cannot resolve (``enum.IntEnum``, ``NamedTuple``)
        make the hash semantics unknowable, so — precision first — the
        class is then *not* reported as identity-hashed.
        """
        seen: Set[str] = set()
        stack = [self.qualname]
        while stack:
            qual = stack.pop()
            if qual in seen:
                continue
            seen.add(qual)
            cls = table.classes.get(qual)
            if cls is None:
                continue
            if cls.defines_hash or cls.defines_eq or cls.decorators:
                return False
            for base in cls.base_names:
                resolved = table.resolve_class(base, cls.module)
                if resolved is None:
                    if base.split("[", 1)[0].strip() != "object":
                        return False  # unknown base — unknowable hash
                else:
                    stack.append(resolved)
        return True


@dataclass
class SymbolTable:
    """Every function and class a verifier run can see."""

    functions: Dict[str, FunctionSymbol] = field(default_factory=dict)
    classes: Dict[str, ClassSymbol] = field(default_factory=dict)
    # simple class name -> sorted list of qualnames defining it
    class_names: Dict[str, List[str]] = field(default_factory=dict)
    # simple method name -> sorted list of function qualnames
    method_names: Dict[str, List[str]] = field(default_factory=dict)
    # module name -> {local binding -> fully qualified imported name}
    aliases: Dict[str, Dict[str, str]] = field(default_factory=dict)

    def resolve_class(self, name: str, module: str) -> Optional[str]:
        """Qualified name of class ``name`` as seen from ``module``.

        ``name`` may be a bare identifier, a dotted path, or an unparsed
        annotation like ``Optional[StudyTelemetry]`` — the last
        identifier segment that names a known class wins.
        """
        for ident in _annotation_identifiers(name):
            qual = self._resolve_class_ident(ident, module)
            if qual is not None:
                return qual
        return None

    def _resolve_class_ident(self, ident: str,
                             module: str) -> Optional[str]:
        # Same-module class first.
        direct = f"{module}.{ident}"
        if direct in self.classes:
            return direct
        # Through the module's import aliases.
        target = self.aliases.get(module, {}).get(ident.split(".", 1)[0])
        if target is not None:
            tail = ident.split(".", 1)[1] if "." in ident else ""
            candidate = f"{target}.{tail}" if tail else target
            if candidate in self.classes:
                return candidate
        if ident in self.classes:
            return ident
        # Unique simple name anywhere in the project.
        matches = self.class_names.get(ident.rsplit(".", 1)[-1], [])
        if len(matches) == 1:
            return matches[0]
        return None

    def resolve_method(self, class_qualname: str,
                       method: str) -> Optional[str]:
        """Find ``method`` on ``class_qualname`` or its project bases."""
        seen: Set[str] = set()
        stack = [class_qualname]
        while stack:
            qual = stack.pop(0)
            if qual in seen:
                continue
            seen.add(qual)
            cls = self.classes.get(qual)
            if cls is None:
                continue
            if method in cls.methods:
                return f"{qual}.{method}"
            for base in cls.base_names:
                resolved = self.resolve_class(base, cls.module)
                if resolved is not None:
                    stack.append(resolved)
        return None


def _annotation_identifiers(text: str) -> List[str]:
    """Dotted identifiers appearing in an annotation string, in order."""
    idents: List[str] = []
    current: List[str] = []
    for ch in text:
        if ch.isalnum() or ch in "._":
            current.append(ch)
        else:
            if current:
                idents.append("".join(current).strip("."))
            current = []
    if current:
        idents.append("".join(current).strip("."))
    # Strip typing wrappers so Optional[Foo] tries Foo first.
    wrappers = {"Optional", "Union", "List", "Dict", "Set", "Tuple",
                "Sequence", "Iterable", "Iterator", "Mapping", "Type",
                "typing", "None", "str", "int", "float", "bool", "bytes"}
    return [i for i in idents if i.split(".")[-1] not in wrappers]


def _param_info(node: ast.AST) -> Tuple[List[str], Dict[str, str]]:
    args = getattr(node, "args", None)
    if args is None:
        return [], {}
    params: List[str] = []
    annotations: Dict[str, str] = {}
    every = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    for arg in every:
        params.append(arg.arg)
        if arg.annotation is not None:
            try:
                annotations[arg.arg] = ast.unparse(arg.annotation)
            except Exception:  # pragma: no cover - malformed annotation
                pass
    return params, annotations


def build_symbols(index: ModuleIndex) -> SymbolTable:
    """Walk every module and build the project symbol table."""
    table = SymbolTable()
    for module in index.modules:
        table.aliases[module.name] = import_aliases(module.tree)
        _collect_module(module, table)
    for cls in table.classes.values():
        table.class_names.setdefault(cls.name, []).append(cls.qualname)
    for fn in table.functions.values():
        if fn.is_method:
            table.method_names.setdefault(fn.name, []).append(fn.qualname)
    for bucket in (table.class_names, table.method_names):
        for key in bucket:
            bucket[key] = sorted(bucket[key])
    return table


def _collect_module(module: ModuleInfo, table: SymbolTable) -> None:
    def visit(node: ast.AST, prefix: str,
              class_qual: Optional[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}.{child.name}"
                params, annotations = _param_info(child)
                shadowed = table.functions.get(qual)
                table.functions[qual] = FunctionSymbol(
                    qualname=qual, module=module.name, name=child.name,
                    lineno=child.lineno, class_qualname=class_qual,
                    params=params, annotations=annotations,
                    nodes=(shadowed.nodes if shadowed else []) + [child])
                if class_qual is not None:
                    table.classes[class_qual].methods.add(child.name)
                    if child.name == "__hash__":
                        table.classes[class_qual].defines_hash = True
                    if child.name == "__eq__":
                        table.classes[class_qual].defines_eq = True
                visit(child, qual, None)
            elif isinstance(child, ast.ClassDef):
                qual = f"{prefix}.{child.name}"
                bases = []
                for base in child.bases:
                    try:
                        bases.append(ast.unparse(base))
                    except Exception:  # pragma: no cover
                        pass
                decorators = []
                for deco in child.decorator_list:
                    try:
                        decorators.append(ast.unparse(deco))
                    except Exception:  # pragma: no cover
                        pass
                table.classes[qual] = ClassSymbol(
                    qualname=qual, module=module.name, name=child.name,
                    lineno=child.lineno, base_names=bases,
                    decorators=decorators)
                _collect_class_attrs(child, qual, module, table)
                visit(child, qual, qual)
            else:
                visit(child, prefix, class_qual)

    # The module body itself is a callable scope (import-time code).
    table.functions[f"{module.name}.{MODULE_BODY}"] = FunctionSymbol(
        qualname=f"{module.name}.{MODULE_BODY}", module=module.name,
        name=MODULE_BODY, lineno=1, class_qualname=None,
        params=[], annotations={}, nodes=[module.tree])
    visit(module.tree, module.name, None)


def _collect_class_attrs(cls_node: ast.ClassDef, class_qual: str,
                         module: ModuleInfo, table: SymbolTable) -> None:
    cls = table.classes[class_qual]
    for stmt in cls_node.body:
        if (isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)):
            try:
                cls.attr_classes[stmt.target.id] = ast.unparse(
                    stmt.annotation)
            except Exception:  # pragma: no cover
                pass
    for node in ast.walk(cls_node):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and isinstance(node.value, ast.Call)):
                name = _constructor_name(node.value)
                if name is not None:
                    cls.attr_classes.setdefault(target.attr, name)


def _constructor_name(call: ast.Call) -> Optional[str]:
    func = call.func
    parts: List[str] = []
    while isinstance(func, ast.Attribute):
        parts.append(func.attr)
        func = func.value
    if isinstance(func, ast.Name):
        parts.append(func.id)
        name = ".".join(reversed(parts))
        head = name.rsplit(".", 1)[-1]
        if head[:1].isupper():  # constructor-looking call
            return name
    return None
