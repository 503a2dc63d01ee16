"""Call-graph construction over the project symbol table.

The graph is deliberately CHA-lite: edges are added only where the
receiver is *knowable* without running the program, so taint findings
stay precise enough to fix rather than suppress.

Resolved call shapes:

* direct calls — ``helper()``, ``module.helper()``, resolved through
  each module's import aliases;
* method calls on ``self``/``cls`` — resolved through the class body and
  its project-visible bases;
* method calls on typed receivers — parameter annotations
  (``console: CampaignConsole``, ``Optional[StudyTelemetry]``),
  constructor locals (``q = DeviceQueue()``), and constructor-assigned
  instance attributes (``self.telemetry = StudyTelemetry(...)``);
* constructor calls — ``ClassName()`` edges to ``ClassName.__init__``;
* dispatch tables — ``TABLE = {K: handler, ...}`` at module or class
  level followed by ``TABLE[k](...)`` / ``self._handlers[k](...)``
  edges to every table value (the ``_IRP_HANDLERS`` idiom);
* callable references passed as arguments — ``forward(self._complete)``
  adds a may-call edge from the caller to ``_complete`` (the
  ``forward_irp`` delegation idiom): passing a callable hands over the
  right to invoke it.

Unresolvable receivers produce *no* edge; the flow rules document this
as the engine's known imprecision rather than guessing across every
same-named method in the project.

Strongly connected components come from an iterative Tarjan, so
recursion (direct or mutual) cannot hang the propagation passes and the
cache layer can talk about re-analysis at SCC granularity.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.verifier.astutil import resolve_call_name
from repro.verifier.engine import ModuleIndex, ModuleInfo
from repro.verifier.symbols import (
    MODULE_BODY,
    FunctionSymbol,
    SymbolTable,
    _constructor_name,
    build_symbols,
)


@dataclass(frozen=True, order=True)
class CallSite:
    """One resolved edge: ``caller`` may invoke ``callee`` at ``line``."""

    caller: str
    callee: str     # project function qualname, or "ext:<dotted.name>"
    line: int


EXTERNAL = "ext:"


def external(name: str) -> str:
    return EXTERNAL + name


def is_external(callee: str) -> bool:
    return callee.startswith(EXTERNAL)


@dataclass
class CallGraph:
    """Edges over project functions plus external leaf names."""

    table: SymbolTable
    edges: Dict[str, List[CallSite]] = field(default_factory=dict)

    def add(self, caller: str, callee: str, line: int) -> None:
        sites = self.edges.setdefault(caller, [])
        site = CallSite(caller, callee, line)
        if site not in sites:
            sites.append(site)

    def callees(self, qualname: str) -> List[CallSite]:
        return self.edges.get(qualname, [])

    def finalize(self) -> None:
        for sites in self.edges.values():
            sites.sort()

    # ----------------------------------------------------------------- #
    # Strongly connected components (iterative Tarjan).

    def sccs(self) -> List[List[str]]:
        """SCCs over project-internal edges, in deterministic order."""
        nodes = sorted(self.table.functions)
        adj: Dict[str, List[str]] = {n: [] for n in nodes}
        for caller, sites in self.edges.items():
            for site in sites:
                if not is_external(site.callee) and site.callee in adj:
                    adj.setdefault(caller, []).append(site.callee)
        index: Dict[str, int] = {}
        lowlink: Dict[str, int] = {}
        on_stack: Set[str] = set()
        stack: List[str] = []
        result: List[List[str]] = []
        counter = [0]

        for root in nodes:
            if root in index:
                continue
            work: List[Tuple[str, int]] = [(root, 0)]
            while work:
                node, child_i = work[-1]
                if child_i == 0:
                    index[node] = lowlink[node] = counter[0]
                    counter[0] += 1
                    stack.append(node)
                    on_stack.add(node)
                children = adj.get(node, [])
                advanced = False
                while child_i < len(children):
                    child = children[child_i]
                    child_i += 1
                    if child not in index:
                        work[-1] = (node, child_i)
                        work.append((child, 0))
                        advanced = True
                        break
                    if child in on_stack:
                        lowlink[node] = min(lowlink[node], index[child])
                if advanced:
                    continue
                work.pop()
                if lowlink[node] == index[node]:
                    component: List[str] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    result.append(sorted(component))
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
        return result

    def scc_of(self) -> Dict[str, int]:
        """Function qualname -> index into :meth:`sccs`."""
        mapping: Dict[str, int] = {}
        for i, component in enumerate(self.sccs()):
            for member in component:
                mapping[member] = i
        return mapping


# --------------------------------------------------------------------- #
# Construction.


def _iter_scope_nodes(fn: FunctionSymbol) -> Iterable[ast.AST]:
    """Walk every def bound to ``fn`` (or the module body) without
    descending into nested defs, which are scopes of their own.

    Class bodies and lambda bodies stay in scope: a class body runs when
    its enclosing scope defines the class (import time, for a
    module-level class), and a lambda runs as part of its enclosing
    function for taint purposes.
    """
    stack = [child for def_node in fn.nodes
             for child in ast.iter_child_nodes(def_node)]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _method_ref(node: ast.AST) -> Optional[Tuple[str, str]]:
    """(receiver, attr) for a one-hop attribute like ``self._complete``."""
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)):
        return node.value.id, node.attr
    return None


class _FunctionScope:
    """Receiver typing inside one function: name -> class qualname."""

    def __init__(self, fn: FunctionSymbol, table: SymbolTable) -> None:
        self.fn = fn
        self.table = table
        self.types: Dict[str, str] = {}
        module = fn.module
        if fn.is_method and fn.params[:1]:
            self.types[fn.params[0]] = fn.class_qualname or ""
        for param, annotation in fn.annotations.items():
            resolved = table.resolve_class(annotation, module)
            if resolved is not None:
                self.types[param] = resolved
        for node in _iter_scope_nodes(fn):
            if isinstance(node, ast.Assign) and isinstance(
                    node.value, ast.Call):
                ctor = _constructor_name(node.value)
                if ctor is None:
                    continue
                resolved = table.resolve_class(ctor, module)
                if resolved is None:
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.types[target.id] = resolved

    def class_of(self, name: str) -> Optional[str]:
        return self.types.get(name)


def _collect_dispatch_tables(index: ModuleIndex,
                             table: SymbolTable) -> Dict[str, List[ast.expr]]:
    """Map table reference keys to the callable value expressions.

    Keys: ``module:NAME`` for module-level tables, ``ClassQual:NAME``
    for class-level and ``self.NAME`` constructor-assigned tables.
    """
    tables: Dict[str, List[ast.expr]] = {}

    def record(key: str, value: ast.expr) -> None:
        if isinstance(value, ast.Dict):
            tables.setdefault(key, []).extend(
                v for v in value.values if v is not None)
        elif isinstance(value, (ast.List, ast.Tuple)):
            tables.setdefault(key, []).extend(value.elts)

    for module in index.modules:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        record(f"{module.name}:{target.id}", node.value)
                    elif (isinstance(target, ast.Attribute)
                          and isinstance(target.value, ast.Name)
                          and target.value.id == "self"):
                        record(f"{module.name}:self.{target.attr}",
                               node.value)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    record(f"{module.name}:{node.target.id}", node.value)
    return tables


class GraphBuilder:
    """Per-module edge extraction sharing one project symbol table.

    The cache layer re-extracts only changed files, so edge extraction
    must be callable one module at a time; whole-program context (the
    symbol table, dispatch tables) is rebuilt every run — it is cheap —
    while the per-module walk is the cacheable cost.
    """

    def __init__(self, index: ModuleIndex,
                 table: Optional[SymbolTable] = None) -> None:
        self.index = index
        self.table = table or build_symbols(index)
        self.dispatch = _collect_dispatch_tables(index, self.table)
        self.by_module: Dict[str, List[FunctionSymbol]] = {}
        for fn in self.table.functions.values():
            self.by_module.setdefault(fn.module, []).append(fn)

    def local_functions(self, module_name: str) -> Dict[str, str]:
        return {
            fn.name: fn.qualname
            for fn in self.by_module.get(module_name, [])
            if not fn.is_method and "." not in fn.name
            and fn.name != MODULE_BODY
            and fn.qualname == f"{module_name}.{fn.name}"}

    def module_edges(self, module: ModuleInfo) -> List[CallSite]:
        """All call edges whose caller is defined in ``module``."""
        graph = CallGraph(table=self.table)
        aliases = self.table.aliases.get(module.name, {})
        local_functions = self.local_functions(module.name)
        for fn in self.by_module.get(module.name, []):
            scope = _FunctionScope(fn, self.table)
            for node in _iter_scope_nodes(fn):
                if not isinstance(node, ast.Call):
                    continue
                _resolve_call(graph, module.name, fn, node, scope,
                              aliases, local_functions, self.dispatch)
        sites: List[CallSite] = []
        for edge_sites in graph.edges.values():
            sites.extend(edge_sites)
        return sorted(sites)


def build_callgraph(index: ModuleIndex,
                    table: Optional[SymbolTable] = None) -> CallGraph:
    """Build the project call graph for ``index``."""
    builder = GraphBuilder(index, table)
    graph = CallGraph(table=builder.table)
    for module in index.modules:
        for site in builder.module_edges(module):
            graph.add(site.caller, site.callee, site.line)
    graph.finalize()
    return graph


def _resolve_target(table: SymbolTable, module_name: str,
                    fn: FunctionSymbol, expr: ast.expr,
                    scope: _FunctionScope, aliases: Dict[str, str],
                    local_functions: Dict[str, str]) -> Optional[str]:
    """Resolve a callable-valued expression to an edge target."""
    if isinstance(expr, ast.Name):
        name = expr.id
        # Nested function defined in this (or an enclosing) scope.
        nested = f"{fn.qualname}.{name}"
        if nested in table.functions:
            return nested
        if name in local_functions:
            return local_functions[name]
        # A class name: calling it runs __init__.
        cls = table.resolve_class(name, module_name) if (
            name[:1].isupper()) else None
        if cls is not None:
            init = table.resolve_method(cls, "__init__")
            return init if init is not None else cls + ".__init__"
        resolved = resolve_call_name(expr, aliases)
        if resolved is None or resolved == name:
            # Unknown bare name (builtin or unresolved) — externalize
            # builtins so source matching still sees e.g. ``id``.
            return external(name)
        # Imported function: project-internal if we know it.
        if resolved in table.functions:
            return resolved
        return external(resolved)
    ref = _method_ref(expr)
    if ref is not None:
        receiver, attr = ref
        receiver_cls = scope.class_of(receiver)
        if receiver_cls is None and receiver in ("self", "cls") \
                and fn.class_qualname:
            receiver_cls = fn.class_qualname
        if receiver_cls:
            method = table.resolve_method(receiver_cls, attr)
            if method is not None:
                return method
            # Constructor-assigned attribute holding a known class?
            cls_sym = table.classes.get(receiver_cls)
            if cls_sym is not None and attr in cls_sym.attr_classes:
                return None  # attribute value, not a method — no edge
            return None
        # module.attr through an import alias.
        resolved = resolve_call_name(expr, aliases)
        if resolved is not None:
            head = resolved.rsplit(".", 1)[0]
            if resolved in table.functions:
                return resolved
            cls = table.resolve_class(head, module_name)
            if cls is not None:
                method = table.resolve_method(cls, resolved.rsplit(
                    ".", 1)[-1])
                if method is not None:
                    return method
            if aliases.get(expr.value.id) is not None or \
                    expr.value.id in ("os", "time", "random", "uuid",
                                      "secrets", "json", "pickle"):
                return external(resolved)
        return None
    if isinstance(expr, ast.Attribute):
        # Deeper chains: receiver typed via self.<attr> class map.
        inner = _method_ref(expr.value)
        if inner is not None and inner[0] in ("self", "cls") \
                and fn.class_qualname:
            cls_sym = table.classes.get(fn.class_qualname)
            if cls_sym is not None:
                attr_cls = cls_sym.attr_classes.get(inner[1])
                if attr_cls is not None:
                    resolved_cls = table.resolve_class(
                        attr_cls, module_name)
                    if resolved_cls is not None:
                        return table.resolve_method(
                            resolved_cls, expr.attr)
        resolved = resolve_call_name(expr, aliases)
        if resolved is not None and resolved in table.functions:
            return resolved
        if resolved is not None:
            head = resolved.split(".", 1)[0]
            if head in ("os", "time", "random", "uuid", "secrets",
                        "datetime", "json", "pickle", "numpy"):
                return external(resolved)
    return None


def _resolve_call(graph: CallGraph, module_name: str, fn: FunctionSymbol,
                  call: ast.Call, scope: _FunctionScope,
                  aliases: Dict[str, str],
                  local_functions: Dict[str, str],
                  dispatch: Dict[str, List[ast.expr]]) -> None:
    line = call.lineno
    func = call.func
    # Dispatch-table invocation: TABLE[k](...) / self._handlers[k](...).
    if isinstance(func, ast.Subscript):
        keys: List[str] = []
        if isinstance(func.value, ast.Name):
            keys.append(f"{module_name}:{func.value.id}")
        ref = _method_ref(func.value)
        if ref is not None and ref[0] in ("self", "cls"):
            keys.append(f"{module_name}:self.{ref[1]}")
        for key in keys:
            for value in dispatch.get(key, []):
                target = _resolve_target(graph.table, module_name, fn,
                                         value, scope, aliases,
                                         local_functions)
                if target is not None:
                    graph.add(fn.qualname, target, line)
        return
    target = _resolve_target(graph.table, module_name, fn, func, scope,
                             aliases, local_functions)
    if target is not None:
        graph.add(fn.qualname, target, line)
    # Callable references handed over as arguments (delegation idiom):
    # the callee may invoke them, so the *caller* keeps responsibility.
    for arg in list(call.args) + [kw.value for kw in call.keywords]:
        if isinstance(arg, (ast.Name, ast.Attribute)):
            passed = _resolve_target(graph.table, module_name, fn, arg,
                                     scope, aliases, local_functions)
            if passed is not None and not is_external(passed):
                graph.add(fn.qualname, passed, line)
