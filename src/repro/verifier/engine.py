"""The verifier engine: file collection, parsing, and rule dispatch.

The engine walks the requested paths, parses every ``.py`` file with the
stdlib :mod:`ast` module, derives each file's dotted module name from
its package structure (walking up through ``__init__.py`` files), and
hands the resulting :class:`ModuleInfo` set to two kinds of rules:

* **module rules** run once per file (determinism, protocol, layering);
* **tree rules** run once over the whole module set (the exhaustiveness
  cross-checks, which relate enum definitions in one file to handler
  tables in another).

Rules yield :class:`~repro.verifier.findings.Finding` objects; the
engine sorts them and applies the suppression baseline.  The engine
itself never prints — the CLI owns presentation and exit codes.
"""

from __future__ import annotations

import ast
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Sequence

from repro.verifier.baseline import Suppression, apply_baseline
from repro.verifier.findings import Finding


@dataclass
class ModuleInfo:
    """One parsed source file plus the context rules need."""

    path: Path          # on-disk location
    display_path: str   # forward-slash path used in findings
    name: str           # dotted module name, e.g. "repro.nt.io.irp"
    tree: ast.Module
    source: str

    def lines(self) -> List[str]:
        return self.source.splitlines()


@dataclass
class ModuleIndex:
    """The full module set a verifier run sees, keyed by dotted name."""

    modules: List[ModuleInfo]
    by_name: Dict[str, ModuleInfo] = field(init=False)

    def __post_init__(self) -> None:
        self.by_name = {m.name: m for m in self.modules}

    def get(self, name: str) -> "ModuleInfo | None":
        return self.by_name.get(name)


ModuleRule = Callable[[ModuleInfo], Iterable[Finding]]
TreeRule = Callable[[ModuleIndex], Iterable[Finding]]


def module_name_for(path: Path) -> str:
    """Dotted module name derived from the ``__init__.py`` chain.

    ``src/repro/nt/io/irp.py`` → ``repro.nt.io.irp``; a file outside any
    package is just its stem.
    """
    path = path.resolve()
    parts = [path.stem] if path.name != "__init__.py" else []
    package = path.parent
    while (package / "__init__.py").exists():
        parts.insert(0, package.name)
        package = package.parent
    return ".".join(parts) if parts else path.stem


def collect_files(paths: Sequence[Path]) -> List[Path]:
    """Expand paths to the sorted list of ``.py`` files underneath.

    Raises :class:`FileNotFoundError` for a path that does not exist and
    :class:`ValueError` for a directory containing no Python files, so a
    typo'd path can never produce a silently-clean run.
    """
    files: List[Path] = []
    for path in paths:
        if not path.exists():
            raise FileNotFoundError(
                f"verify path {path} does not exist")
        if path.is_dir():
            found = [p for p in sorted(path.rglob("*.py")) if p.is_file()]
            if not found:
                raise ValueError(
                    f"verify path {path} contains no Python files")
            files.extend(found)
        elif path.suffix == ".py":
            files.append(path)
        else:
            raise ValueError(
                f"verify path {path} is not a Python file or directory")
    # De-duplicate while keeping the sorted-per-argument order stable.
    seen = {}
    for f in files:
        seen.setdefault(f.resolve(), f)
    return list(seen.values())


def display_path(path: Path, root: "Path | None" = None) -> str:
    """``path`` as findings show it: forward slashes, relative to ``root``
    (defaults to the current working directory), absolute outside it."""
    resolved = path.resolve()
    try:
        return resolved.relative_to((root or Path.cwd()).resolve()).as_posix()
    except ValueError:
        return resolved.as_posix()


def load_modules(files: Sequence[Path], root: "Path | None" = None,
                 ) -> ModuleIndex:
    """Parse files into a :class:`ModuleIndex`, with display paths
    anchored at ``root`` (see :func:`display_path`).

    Raises :class:`ValueError` for two files with one module name (two
    ``run.py`` scripts outside any package): the tree rules key
    functions and summaries by qualified name, so one file's findings
    would be lost or reported under the other's path.
    """
    modules: List[ModuleInfo] = []
    by_name: Dict[str, Path] = {}
    for file in files:
        source = file.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(file))
        except SyntaxError as exc:
            raise ValueError(f"verify cannot parse {file}: {exc}") from exc
        name = module_name_for(file)
        if name in by_name:
            raise ValueError(
                f"verify sees two modules named {name}: {by_name[name]} "
                f"and {file}; verify them in separate runs")
        by_name[name] = file
        modules.append(ModuleInfo(
            path=file, display_path=display_path(file, root),
            name=name, tree=tree, source=source))
    return ModuleIndex(modules=modules)


@dataclass
class VerifyContext:
    """Run-scoped state shared between the engine and context-aware rules.

    ``cache_path`` points the flow rules at their content-hash summary
    cache; ``cache_stats`` is filled in by the flow rule when a cache is
    in play.  ``timings`` maps rule function name to wall seconds spent
    — host-side telemetry only, never part of findings.
    """

    cache_path: "Path | None" = None
    cache_stats: object = None
    timings: Dict[str, float] = field(default_factory=dict)


def run_rules(index: ModuleIndex,
              module_rules: Sequence[ModuleRule],
              tree_rules: Sequence[TreeRule],
              context: "VerifyContext | None" = None) -> List[Finding]:
    """Run every rule over the index and return sorted findings.

    Rules carrying a truthy ``wants_context`` attribute are called with
    ``(index, context)``; every other rule keeps the plain signature.
    Per-rule wall time accumulates into ``context.timings``.
    """
    findings: List[Finding] = []
    timings = context.timings if context is not None else {}
    for rule in module_rules:
        started = time.perf_counter()
        for module in index.modules:
            findings.extend(rule(module))
        timings[rule.__name__] = (timings.get(rule.__name__, 0.0)
                                  + time.perf_counter() - started)
    for rule in tree_rules:
        started = time.perf_counter()
        if getattr(rule, "wants_context", False):
            findings.extend(rule(index, context))
        else:
            findings.extend(rule(index))
        timings[rule.__name__] = (timings.get(rule.__name__, 0.0)
                                  + time.perf_counter() - started)
    return sorted(set(findings))


@dataclass
class VerifyReport:
    """Outcome of one verifier run, before presentation."""

    findings: List[Finding]        # unsuppressed — these fail the run
    suppressed: List[Finding]      # covered by the baseline
    stale: List[Suppression]       # entries under a verified path that
                                   # covered nothing
    n_files: int
    timings: Dict[str, float] = field(default_factory=dict)
    cache_stats: object = None     # astcache.CacheStats when caching

    @property
    def clean(self) -> bool:
        return not self.findings and not self.stale


def verify_paths(paths: Sequence[Path],
                 suppressions: "List[Suppression] | None" = None,
                 root: "Path | None" = None,
                 cache_path: "Path | None" = None) -> VerifyReport:
    """Collect, parse, and check ``paths`` against the full rule set."""
    from repro.verifier.rules import MODULE_RULES, TREE_RULES

    files = collect_files(paths)
    index = load_modules(files, root=root)
    context = VerifyContext(cache_path=cache_path)
    findings = run_rules(index, MODULE_RULES, TREE_RULES, context)
    kept, quieted, stale = apply_baseline(
        findings, suppressions or [],
        [display_path(path, root) for path in paths]
        + [module.display_path for module in index.modules])
    return VerifyReport(findings=kept, suppressed=quieted, stale=stale,
                        n_files=len(files), timings=context.timings,
                        cache_stats=context.cache_stats)
