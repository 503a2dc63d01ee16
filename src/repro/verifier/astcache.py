"""Content-hash cache for per-module flow summaries.

Interprocedural analysis is the only verifier pass whose cost grows with
the whole program rather than one file, so it is the only pass worth
caching.  The cache stores, per module, the *facts* the flow rules
extract (call edges, determinism sources, identity-flow facts, unit
findings) — never the findings themselves, because findings depend on
every other module's facts.  Global propagation (taint fixpoints, SCC
condensation) is cheap and reruns on every verify.

Soundness: a per-module summary depends on the module's own source
*and* on the project interface it resolves calls against (function
signatures, class bases, method sets, import aliases).  Each entry is
therefore keyed by the pair ``(file_sha, symbols_sha)`` where
``symbols_sha`` digests the whole-project interface.  Editing a function
body invalidates only that file; editing any signature or class shape
invalidates everything — conservative, but never wrong.

The cache file is plain JSON, safe to delete at any time, and versioned
so rule changes start from scratch instead of replaying stale facts.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional

from repro.verifier.symbols import SymbolTable

# Bump whenever the shape of cached facts or the extraction rules
# change; old caches are then ignored wholesale.
CACHE_VERSION = 2


@dataclass
class CacheStats:
    """Hit/miss accounting for one verify run."""

    hits: int = 0
    misses: int = 0
    loaded: bool = False  # a cache file existed and was readable

    @property
    def total(self) -> int:
        return self.hits + self.misses


def file_digest(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def symbols_digest(table: SymbolTable) -> str:
    """Digest of the project interface cross-module facts depend on.

    Function bodies are deliberately excluded: a body edit must not
    invalidate *other* modules' summaries, only its own (via
    ``file_digest``).
    """
    doc = {
        "functions": {
            qual: [fn.module, fn.class_qualname, fn.params,
                   sorted(fn.annotations.items())]
            for qual, fn in sorted(table.functions.items())},
        "classes": {
            qual: [cls.module, cls.base_names, cls.decorators,
                   sorted(cls.methods), cls.defines_hash,
                   cls.defines_eq, sorted(cls.attr_classes.items())]
            for qual, cls in sorted(table.classes.items())},
        "aliases": {
            mod: sorted(aliases.items())
            for mod, aliases in sorted(table.aliases.items())},
    }
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class FlowCache:
    """Per-module summary store keyed by ``(file_sha, symbols_sha)``."""

    path: Optional[Path] = None
    entries: Dict[str, dict] = field(default_factory=dict)
    stats: CacheStats = field(default_factory=CacheStats)
    _dirty: bool = False

    @classmethod
    def load(cls, path: Optional[Path]) -> "FlowCache":
        cache = cls(path=path)
        if path is None or not path.exists():
            return cache
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return cache  # unreadable cache == no cache
        if doc.get("version") != CACHE_VERSION:
            return cache
        entries = doc.get("modules")
        if isinstance(entries, dict):
            cache.entries = entries
            cache.stats.loaded = True
        return cache

    def get(self, module_name: str, file_sha: str,
            symbols_sha: str) -> Optional[dict]:
        entry = self.entries.get(module_name)
        if (entry is not None and entry.get("file_sha") == file_sha
                and entry.get("symbols_sha") == symbols_sha):
            self.stats.hits += 1
            return entry["summary"]
        self.stats.misses += 1
        return None

    def put(self, module_name: str, file_sha: str, symbols_sha: str,
            summary: dict) -> None:
        self.entries[module_name] = {
            "file_sha": file_sha,
            "symbols_sha": symbols_sha,
            "summary": summary,
        }
        self._dirty = True

    def save(self) -> None:
        if self.path is None or not self._dirty:
            return
        doc = {"version": CACHE_VERSION, "modules": self.entries}
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(
            json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n",
            encoding="utf-8")
