"""F-rules: determinism sources and identity flow.

Both real determinism bugs this project has shipped (the
identity-hashed ``cc.dirty_maps`` set, the ``id(cmap)`` LRU keys) were
*flow* bugs: the hazardous value was produced in one function and
became observable in another.  These rules run on the project call
graph (:mod:`repro.verifier.callgraph`) and track values across
function boundaries; each determinism hazard has exactly one rule:

* **F601** — a wall-clock or entropy source, classified from one table:
  ``time.time``/``time_ns``, ``datetime.now``/``utcnow``/``today``,
  ``os.urandom``/``getrandom``, ``uuid1/4``, ``SystemRandom``,
  ``secrets.*``, module-level ``random.*``, legacy ``numpy.random``
  globals, and ``Random()``/``default_rng()``/``RandomState()``/
  ``SeedSequence()`` constructed without a seed.  Every source call is
  reported where it is written, in every verified module; class bodies
  count as import-time code of their enclosing scope, as the module
  body does.  The simulation scope (``repro.nt``, ``repro.workload``,
  ``repro.replay``) is held to more: there **any** ``time.*`` call is a
  source (outside it the host timers such as ``time.perf_counter`` stay
  legal), and a function that reaches a source through a call chain is
  reported at the *earliest simulation-scope frame* — the function that
  calls a tainted helper outside the scope.  Deeper sim-scope callers
  are quiet: the root finding covers them.  Host time belongs in
  ``repro.cli``, which times the simulation from outside the scope.
* **F602** — identity-derived values (``id()`` results, instances
  hashing by default ``object.__hash__``) flowing into a container that
  is later iterated, ordered, merged, or serialized — across function
  boundaries, via instance attributes, parameters, and return values.
  A set of such values is hazardous to iterate; an ``id()``-keyed dict
  (``d[id(o)] = v``, ``d.setdefault(id(o), v)``) or a list of ``id()``
  results is hazardous once its values escape (``for k in d``,
  ``list``/``enumerate``/``zip``/``set`` and friends, ``[*d]``,
  ``.keys()``, ``.items()``), while iterating a dict's ``.values()`` or
  only probing it (``in``, ``get``, ``setdefault``, ``pop``) stays
  clean.  This is the exact shape of both shipped bugs.

Both rules are precision-first: an unresolvable receiver contributes no
edge and an unknown value no taint, so every finding is fixable rather
than suppressible noise.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.verifier.astutil import resolve_call_name
from repro.verifier.callgraph import (
    CallSite,
    GraphBuilder,
    _FunctionScope,
    _iter_scope_nodes,
    _resolve_target,
    is_external,
)
from repro.verifier.engine import ModuleInfo
from repro.verifier.findings import Finding
from repro.verifier.symbols import SymbolTable

SIM_SCOPE = ("repro.nt", "repro.workload", "repro.replay")


def in_sim_scope(qualname: str) -> bool:
    return qualname.startswith(SIM_SCOPE)


# --------------------------------------------------------------------- #
# F601 sources: the one table of wall-clock and entropy calls.

_SOURCE_CALLS = {
    "time.time": "wall-clock read",
    "time.time_ns": "wall-clock read",
    "datetime.datetime.now": "wall-clock read",
    "datetime.datetime.utcnow": "wall-clock read",
    "datetime.datetime.today": "wall-clock read",
    "datetime.date.today": "wall-clock read",
    "uuid.uuid1": "host-derived identifier",
    "uuid.uuid4": "entropy-derived identifier",
    "os.urandom": "entropy read",
    "os.getrandom": "entropy read",
    "random.SystemRandom": "entropy-backed RNG",
}

# RNG constructors that are sources only when called without a seed.
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

# Why a ``time.*`` call outside ``_SOURCE_CALLS`` is a source: a host
# timer, a source only inside the simulation scope.
_HOST_TIMER = "host clock read"


def classify_source(name: str) -> Optional[str]:
    """Why calling ``name`` reads a wall clock or entropy pool, or
    ``None``.  Unseeded RNG constructors need the call's arguments and
    are classified by :func:`direct_sources`."""
    if name in _SOURCE_CALLS:
        return _SOURCE_CALLS[name]
    if name.startswith("time.") and name.count(".") == 1:
        return _HOST_TIMER
    if name.startswith("secrets."):
        return "entropy source"
    if (name.startswith("random.") and name.count(".") == 1
            and name not in _SEEDED_CONSTRUCTORS):
        return "module-level global RNG"
    if (name.startswith("numpy.random.")
            and name.rsplit(".", 1)[1] not in _NUMPY_RANDOM_OK):
        return "legacy numpy global RNG"
    return None


def direct_sources(module: ModuleInfo, builder: GraphBuilder,
                   ) -> Dict[str, List[Tuple[str, str, int]]]:
    """Per-function ``(source_name, why, line)`` source calls in a module.

    Scans every scope in ``module`` — each function with its decorators
    and defaults, and the import-time ``<module>`` body with its class
    bodies — for calls that read a wall clock or entropy pool, including
    unseeded RNG constructors (which need the call's arguments, so graph
    edges alone cannot classify them).  Host timers are recorded in
    every module: they taint the chains that F601 follows out of the
    simulation scope.
    """
    aliases = builder.table.aliases.get(module.name, {})
    out: Dict[str, List[Tuple[str, str, int]]] = {}
    for fn in builder.by_module.get(module.name, []):
        hits: List[Tuple[str, str, int]] = []
        for node in _iter_scope_nodes(fn):
            if not isinstance(node, ast.Call):
                continue
            name = resolve_call_name(node.func, aliases)
            if name is None:
                continue
            why = classify_source(name)
            if why is None and name in _SEEDED_CONSTRUCTORS and not (
                    node.args or any(kw.arg in ("seed", "x")
                                     for kw in node.keywords)):
                why = "RNG constructed without a seed"
            if why is not None:
                hits.append((name, why, node.lineno))
        if hits:
            out[fn.qualname] = sorted(hits, key=lambda h: (h[2], h[0]))
    return out


def f601_findings(
    table: SymbolTable,
    edges: Dict[str, List[CallSite]],
    sources: Dict[str, List[Tuple[str, str, int]]],
    display_paths: Dict[str, str],
) -> Iterator[Finding]:
    """Report every direct source call, and sim-scope functions that
    reach a source through a call chain.

    ``tainted_ext(f)`` means ``f`` reaches a source through a chain that
    never passes through another sim-scope function — those chains are
    the ones no other finding covers.
    """
    # Fixpoint over out-of-scope functions (handles cycles).
    tainted_ext: Set[str] = {
        fn for fn in sources if not in_sim_scope(fn)}
    changed = True
    while changed:
        changed = False
        for caller, sites in edges.items():
            if in_sim_scope(caller) or caller in tainted_ext:
                continue
            for site in sites:
                if (not is_external(site.callee)
                        and site.callee in tainted_ext):
                    tainted_ext.add(caller)
                    changed = True
                    break

    def chain_to_source(start: str) -> List[str]:
        """Shortest path start -> ... -> source through tainted_ext."""
        queue: List[Tuple[str, List[str]]] = [(start, [start])]
        seen = {start}
        while queue:
            node, path = queue.pop(0)
            if node in sources:
                name, why, _line = sources[node][0]
                return path + [name]
            for site in edges.get(node, []):
                callee = site.callee
                if is_external(callee) or callee in seen:
                    continue
                if callee in tainted_ext and not in_sim_scope(callee):
                    seen.add(callee)
                    queue.append((callee, path + [callee]))
        return [start]  # pragma: no cover - tainted implies a path

    for fn_qual in sorted(table.functions):
        path = display_paths.get(table.functions[fn_qual].module)
        if path is None:  # pragma: no cover - module outside the run
            continue
        sim = in_sim_scope(fn_qual)
        direct = [hit for hit in sources.get(fn_qual, [])
                  if sim or hit[1] != _HOST_TIMER]
        for name, why, line in direct:
            yield Finding(
                path, line, "F601",
                f"{fn_qual} reaches wall-clock/entropy source {name} "
                f"({why}); simulation state must derive from the seed"
                + (" (time the simulation from repro.cli)" if sim else ""))
        if direct or not sim:
            continue
        for site in edges.get(fn_qual, []):
            callee = site.callee
            if is_external(callee) or in_sim_scope(callee):
                continue
            if callee in tainted_ext:
                chain = chain_to_source(callee)
                yield Finding(
                    path, site.line, "F601",
                    f"{fn_qual} transitively reaches wall-clock/entropy "
                    f"source via {' -> '.join([fn_qual] + chain)}; "
                    "simulation state must derive from the seed")
                break


# --------------------------------------------------------------------- #
# F602: identity flow into ordered/serialized containers.
#
# Value statuses are small serializable tuples:
#   ("id",)                 -- an id() result
#   ("call", qual)          -- return value of a project function
#   ("param", i)            -- the i-th parameter of this function
#   ("obj", class_qual)     -- instance of a known project class
#   ("attr", cls, name)     -- value of self.<name> on class ``cls``
# Containers are ("attr", class_qual, name) or ("local", fn_qual, name).

Status = Tuple
ContainerRef = Tuple[str, str, str]

_SET_CTORS = {"set", "frozenset"}
_ORDER_CALLS = {"sorted", "min", "max"}
# Builtins that iterate their first argument (``zip`` iterates each).
_ITERATE_CALLS = {"list", "tuple", "iter", "enumerate", "reversed",
                  "set", "frozenset"}
_SERIALIZE_CALLS = {"json.dump", "json.dumps", "pickle.dump",
                    "pickle.dumps", "marshal.dump", "marshal.dumps",
                    "repr", "str"}


class ModuleFlowFacts:
    """Serializable F602/U-rule facts for one module."""

    def __init__(self) -> None:
        # container -> kind ("set" | "dict" | "list")
        self.container_kinds: Dict[ContainerRef, str] = {}
        # (container, value_status, line, insert_kind, fn_qual)
        self.inserts: List[Tuple] = []
        # (container, sink_kind, line, fn_qual)
        self.sinks: List[Tuple] = []
        # (dst_container, src_container, line, fn_qual) for update/|=
        self.merges: List[Tuple] = []
        # fn_qual -> list of return statuses
        self.returns: Dict[str, List[Status]] = {}
        # (callee_qual, arg_index, status, line, caller_qual)
        self.call_args: List[Tuple] = []
        # (class_qual, attr, status, line, fn_qual)
        self.attr_stores: List[Tuple] = []

    def to_doc(self) -> dict:
        return {
            "container_kinds": [
                [list(ref), kind]
                for ref, kind in sorted(self.container_kinds.items())],
            "inserts": [[list(c), list(s), ln, k, f]
                        for c, s, ln, k, f in self.inserts],
            "sinks": [[list(c), k, ln, f] for c, k, ln, f in self.sinks],
            "merges": [[list(d), list(s), ln, f]
                       for d, s, ln, f in self.merges],
            "returns": {fn: [list(s) for s in statuses]
                        for fn, statuses in sorted(self.returns.items())},
            "call_args": [[callee, i, list(s), ln, f]
                          for callee, i, s, ln, f in self.call_args],
            "attr_stores": [[c, a, list(s), ln, f]
                            for c, a, s, ln, f in self.attr_stores],
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "ModuleFlowFacts":
        facts = cls()
        facts.container_kinds = {
            tuple(ref): kind for ref, kind in doc["container_kinds"]}
        facts.inserts = [(tuple(c), tuple(s), ln, k, f)
                         for c, s, ln, k, f in doc["inserts"]]
        facts.sinks = [(tuple(c), k, ln, f) for c, k, ln, f in doc["sinks"]]
        facts.merges = [(tuple(d), tuple(s), ln, f)
                        for d, s, ln, f in doc["merges"]]
        facts.returns = {fn: [tuple(s) for s in statuses]
                         for fn, statuses in doc["returns"].items()}
        facts.call_args = [(callee, i, tuple(s), ln, f)
                           for callee, i, s, ln, f in doc["call_args"]]
        facts.attr_stores = [(c, a, tuple(s), ln, f)
                             for c, a, s, ln, f in doc["attr_stores"]]
        return facts


class _FunctionFlowExtractor:
    """Walks one function and records F602 facts."""

    def __init__(self, module: ModuleInfo, fn, builder: GraphBuilder,
                 facts: ModuleFlowFacts) -> None:
        self.module = module
        self.fn = fn
        self.builder = builder
        self.facts = facts
        self.aliases = builder.table.aliases.get(module.name, {})
        self.local_functions = builder.local_functions(module.name)
        self.scope = _FunctionScope(fn, builder.table)
        self.env: Dict[str, Status] = {}
        for i, param in enumerate(fn.params):
            cls = self.scope.types.get(param)
            if cls is not None and i == 0 and fn.is_method:
                continue  # self/cls — not a flowing value
            if cls is not None:
                self.env[param] = ("obj", cls)
            else:
                self.env[param] = ("param", i)

    # -- expression status ------------------------------------------- #

    def status(self, expr: ast.expr) -> Optional[Status]:
        if isinstance(expr, ast.Name):
            return self.env.get(expr.id)
        if (isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id in ("self", "cls")
                and self.fn.class_qualname):
            return ("attr", self.fn.class_qualname, expr.attr)
        if isinstance(expr, ast.Call):
            return self.call_status(expr)
        return None

    def call_status(self, call: ast.Call) -> Optional[Status]:
        func = call.func
        if isinstance(func, ast.Name) and func.id == "id":
            return ("id",)
        target = _resolve_target(
            self.builder.table, self.module.name, self.fn, func,
            self.scope, self.aliases, self.local_functions)
        if target is None:
            return None
        if is_external(target):
            return None
        if target.endswith(".__init__"):
            return ("obj", target[: -len(".__init__")])
        return ("call", target)

    def container_of(self, expr: ast.expr) -> Optional[ContainerRef]:
        if isinstance(expr, ast.Name):
            return ("local", self.fn.qualname, expr.id)
        if (isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id in ("self", "cls")
                and self.fn.class_qualname):
            return ("attr", self.fn.class_qualname, expr.attr)
        return None

    # -- statement walk ---------------------------------------------- #

    def run(self) -> None:
        nodes = list(_iter_scope_nodes(self.fn))
        # Two passes so names assigned later in the body still resolve:
        # the env is an over-approximation joined across program points.
        for _ in range(2):
            for node in nodes:
                if isinstance(node, ast.Assign):
                    self._assign(node.targets, node.value)
                elif isinstance(node, ast.AnnAssign) and node.value:
                    self._assign([node.target], node.value)
        for node in nodes:
            if isinstance(node, ast.Assign):
                self._record_assign(node.targets, node.value, node.lineno)
            elif isinstance(node, ast.AnnAssign) and node.value:
                self._record_assign([node.target], node.value, node.lineno)
            elif isinstance(node, ast.AugAssign):
                self._aug_assign(node)
            elif isinstance(node, ast.Call):
                self._call(node)
            elif isinstance(node, ast.Return) and node.value is not None:
                status = self.status(node.value)
                if status is not None:
                    self.facts.returns.setdefault(
                        self.fn.qualname, []).append(status)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                self._sink(node.iter, "iterated", node.lineno)
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.GeneratorExp, ast.DictComp)):
                for gen in node.generators:
                    self._sink(gen.iter, "iterated", node.lineno)
            elif (isinstance(node, ast.Starred)
                  and isinstance(node.ctx, ast.Load)):
                self._sink(node.value, "iterated", node.lineno)

    def _assign(self, targets: Sequence[ast.expr],
                value: ast.expr) -> None:
        status = self.status(value)
        for target in targets:
            if isinstance(target, ast.Name) and status is not None:
                self.env[target.id] = status

    def _container_kind_of_value(self, value: ast.expr) -> Optional[str]:
        if isinstance(value, (ast.Set, ast.SetComp)):
            return "set"
        if isinstance(value, (ast.Dict, ast.DictComp)):
            return "dict"
        if isinstance(value, (ast.List, ast.ListComp)):
            return "list"
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
            if value.func.id in _SET_CTORS:
                return "set"
            if value.func.id == "dict":
                return "dict"
            if value.func.id == "list":
                return "list"
        return None

    def _record_assign(self, targets: Sequence[ast.expr],
                       value: ast.expr, lineno: int) -> None:
        kind = self._container_kind_of_value(value)
        for target in targets:
            container = self.container_of(target)
            if container is not None and kind is not None:
                self.facts.container_kinds.setdefault(container, kind)
                if isinstance(value, ast.Set):
                    for elt in value.elts:
                        status = self.status(elt)
                        if status is not None:
                            self.facts.inserts.append(
                                (container, status, lineno, "set-add",
                                 self.fn.qualname))
            # d[k] = v  — dict keyed by k.
            if isinstance(target, ast.Subscript):
                key_container = self.container_of(target.value)
                if key_container is not None:
                    status = self.status(target.slice)
                    if status is not None:
                        self.facts.container_kinds.setdefault(
                            key_container, "dict")
                        self.facts.inserts.append(
                            (key_container, status, lineno, "dict-key",
                             self.fn.qualname))
            # self.attr = <status>  — attribute value store.
            if (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in ("self", "cls")
                    and self.fn.class_qualname):
                status = self.status(value)
                if status is not None and status[0] != "attr":
                    self.facts.attr_stores.append(
                        (self.fn.class_qualname, target.attr, status,
                         lineno, self.fn.qualname))

    def _aug_assign(self, node: ast.AugAssign) -> None:
        if not isinstance(node.op, (ast.BitOr, ast.Add)):
            return
        dst = self.container_of(node.target)
        src = self.container_of(node.value)
        if dst is not None and src is not None:
            self.facts.merges.append(
                (dst, src, node.lineno, self.fn.qualname))

    def _call(self, call: ast.Call) -> None:
        func = call.func
        lineno = call.lineno
        # Method-shaped container operations.
        if isinstance(func, ast.Attribute):
            container = self.container_of(func.value)
            if container is not None:
                if func.attr == "add" and call.args:
                    status = self.status(call.args[0])
                    self.facts.container_kinds.setdefault(container, "set")
                    if status is not None:
                        self.facts.inserts.append(
                            (container, status, lineno, "set-add",
                             self.fn.qualname))
                    return
                if func.attr == "setdefault" and call.args:
                    status = self.status(call.args[0])
                    if status is not None:
                        self.facts.container_kinds.setdefault(
                            container, "dict")
                        self.facts.inserts.append(
                            (container, status, lineno, "dict-key",
                             self.fn.qualname))
                    return
                if func.attr == "append" and call.args:
                    status = self.status(call.args[0])
                    if status is not None:
                        self.facts.inserts.append(
                            (container, status, lineno, "list-append",
                             self.fn.qualname))
                    return
                if func.attr == "update" and call.args:
                    src = self.container_of(call.args[0])
                    if src is not None:
                        self.facts.merges.append(
                            (container, src, lineno, self.fn.qualname))
                    return
        # Ordering / serialization sinks.
        name = resolve_call_name(func, self.aliases)
        if name in _ORDER_CALLS and call.args:
            self._sink(call.args[0], "ordered", lineno)
        elif name in _SERIALIZE_CALLS and call.args:
            for arg in call.args:
                self._sink(arg, "serialized", lineno)
        elif isinstance(func, ast.Name) and func.id == "zip":
            for arg in call.args:
                self._sink(arg, "iterated", lineno)
        elif (isinstance(func, ast.Name) and func.id in _ITERATE_CALLS
              and call.args):
            self._sink(call.args[0], "iterated", lineno)
        # Identity-relevant arguments crossing a call boundary.
        target = self.call_status(call)
        callee = target[1] if target is not None and \
            target[0] == "call" else None
        if callee is None and target is not None and target[0] == "obj":
            callee = target[1] + ".__init__"
        if callee is not None:
            for i, arg in enumerate(call.args):
                status = self.status(arg)
                if status is not None and status[0] in ("id", "obj",
                                                        "call", "attr"):
                    self.facts.call_args.append(
                        (callee, i, status, lineno, self.fn.qualname))

    def _sink(self, expr: ast.expr, kind: str, lineno: int) -> None:
        # sorted(x.keys()) / sorted(d.items()) see through the accessor;
        # iterating d.values() exposes no key.
        if (isinstance(expr, ast.Call)
                and isinstance(expr.func, ast.Attribute)
                and expr.func.attr in ("keys", "items", "values")):
            if expr.func.attr == "values" and kind == "iterated":
                return
            expr = expr.func.value
        container = self.container_of(expr)
        if container is not None:
            self.facts.sinks.append(
                (container, kind, lineno, self.fn.qualname))


def extract_flow_facts(module: ModuleInfo,
                       builder: GraphBuilder) -> ModuleFlowFacts:
    """All F602 facts for one module."""
    facts = ModuleFlowFacts()
    for fn in builder.by_module.get(module.name, []):
        _FunctionFlowExtractor(module, fn, builder, facts).run()
    return facts


def f602_findings(
    table: SymbolTable,
    all_facts: Dict[str, ModuleFlowFacts],
    display_paths: Dict[str, str],
) -> Iterator[Finding]:
    """Resolve cross-module facts and report identity-flow violations."""
    # 1. Which functions return identity-derived values (fixpoint).
    returns_id: Set[str] = set()
    ret_deps: Dict[str, List[str]] = {}
    for facts in all_facts.values():
        for fn, statuses in facts.returns.items():
            for status in statuses:
                if status[0] == "id":
                    returns_id.add(fn)
                elif status[0] == "call":
                    ret_deps.setdefault(fn, []).append(status[1])
    changed = True
    while changed:
        changed = False
        for fn, deps in ret_deps.items():
            if fn not in returns_id and any(d in returns_id for d in deps):
                returns_id.add(fn)
                changed = True

    # 2. Parameter facts from every call site.  Call-site argument
    # positions are 0-based over the explicit arguments; a method's
    # parameter list starts at ``self``, so shift by one.
    param_id: Set[Tuple[str, int]] = set()
    param_classes: Dict[Tuple[str, int], Set[str]] = {}
    for facts in all_facts.values():
        for callee, i, status, _line, _caller in facts.call_args:
            target = table.functions.get(callee)
            index = i + 1 if target is not None and target.is_method else i
            if status[0] == "id" or (
                    status[0] == "call" and status[1] in returns_id):
                param_id.add((callee, index))
            elif status[0] == "obj":
                param_classes.setdefault(
                    (callee, index), set()).add(status[1])

    def resolve(status: Status, fn_qual: str,
                depth: int = 0) -> Optional[str]:
        """Collapse a status to a taint kind: "ID", "OBJ", or None."""
        if depth > 4 or status is None:
            return None
        head = status[0]
        if head == "id":
            return "ID"
        if head == "call":
            return "ID" if status[1] in returns_id else None
        if head == "obj":
            cls = table.classes.get(status[1])
            if cls is not None and cls.uses_identity_hash(table):
                return "OBJ"
            return None
        if head == "param":
            fn = table.functions.get(fn_qual)
            index = status[1]
            if (fn_qual, index) in param_id:
                return "ID"
            classes = set(param_classes.get((fn_qual, index), set()))
            if fn is not None and index < len(fn.params):
                annotation = fn.annotations.get(fn.params[index])
                if annotation is not None:
                    resolved_cls = table.resolve_class(annotation,
                                                       fn.module)
                    if resolved_cls is not None:
                        classes.add(resolved_cls)
            for cls_qual in sorted(classes):
                cls = table.classes.get(cls_qual)
                if cls is not None and cls.uses_identity_hash(table):
                    return "OBJ"
            return None
        if head == "attr":
            return attr_taint.get((status[1], status[2]))
        return None

    # 3. Attribute value taint (one round is enough for store->read).
    attr_taint: Dict[Tuple[str, str], str] = {}
    for _ in range(2):
        for facts in all_facts.values():
            for cls, attr, status, _line, fn_qual in facts.attr_stores:
                kind = resolve(status, fn_qual)
                if kind is not None:
                    attr_taint[(cls, attr)] = kind

    # 4. Container taint from inserts, then merge propagation.
    taint: Dict[ContainerRef, Tuple[str, str, int, str]] = {}
    kinds: Dict[ContainerRef, str] = {}
    for facts in all_facts.values():
        kinds.update(facts.container_kinds)
    for facts in all_facts.values():
        for container, status, line, insert_kind, fn_qual in facts.inserts:
            value_taint = resolve(status, fn_qual)
            if value_taint is None:
                continue
            ckind = kinds.get(container,
                              "set" if insert_kind == "set-add" else
                              "dict" if insert_kind == "dict-key" else
                              "list")
            # Sets hash elements; dicts/lists only carry raw id() ints.
            if value_taint == "OBJ" and ckind != "set":
                continue
            taint.setdefault(container,
                             (value_taint, fn_qual, line, insert_kind))
    for _ in range(2):
        for facts in all_facts.values():
            for dst, src, _line, fn_qual in facts.merges:
                if src in taint and dst not in taint:
                    taint[dst] = taint[src]
                    kinds.setdefault(dst, kinds.get(src, "set"))

    # 5. Findings at sinks over tainted containers.
    emitted: Set[Tuple] = set()
    for module_name in sorted(all_facts):
        facts = all_facts[module_name]
        path = display_paths.get(module_name)
        if path is None:  # pragma: no cover
            continue
        for container, sink_kind, line, fn_qual in facts.sinks:
            info = taint.get(container)
            if info is None:
                continue
            value_taint, insert_fn, insert_line, _ik = info
            ckind = kinds.get(container, "set")
            # A dict or list only ever holds raw id() ints (see the
            # inserts above): iterating, ordering or serializing one
            # hands the addresses on.  A set of identity-hashed objects
            # is hazardous to iterate.
            if value_taint == "OBJ" and sink_kind != "iterated":
                continue  # sorted() imposes value order on objects
            what = ("elements hashed by object identity"
                    if value_taint == "OBJ" else "id()-derived keys"
                    if ckind == "dict" else "id()-derived values")
            label = (f"{container[1]}.{container[2]}"
                     if container[0] == "attr"
                     else f"{container[2]} in {container[1]}")
            key = (path, line, container, sink_kind)
            if key in emitted:
                continue
            emitted.add(key)
            yield Finding(
                path, line, "F602",
                f"{ckind} {label} holds {what} (inserted in {insert_fn}) "
                f"and is {sink_kind} in {fn_qual}; identity varies "
                "across processes (the dirty_maps bug class)")
