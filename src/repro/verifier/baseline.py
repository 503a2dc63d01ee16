"""Suppression baselines for the verifier.

A baseline is a TOML file of ``[[suppression]]`` tables.  Each entry
names the rule, the file, a substring the finding's message must
contain, and a one-line justification — there are no blanket ignores:

.. code-block:: toml

    [[suppression]]
    rule = "L501"
    path = "src/repro/analysis/cache.py"
    match = "repro.nt.cache.cachemanager"
    justification = "mirrors two read-only Cc policy constants ..."

The parser handles exactly this subset of TOML (array-of-tables headers
and double-quoted string assignments) so the verifier works on every
supported interpreter without depending on ``tomllib`` (3.11+) or any
third-party parser.

The engine treats a stale entry — one under a verified path that
suppressed nothing — as an error, so the baseline can only shrink unless
a justified entry is added alongside the code it excuses.  An entry for
a file that was deleted, renamed or mistyped under a verified directory
is stale; an entry outside every verified path is neither used nor
stale, so a run over part of the tree judges only that part.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Optional, Tuple

from repro.verifier.findings import Finding

_REQUIRED_KEYS = ("rule", "path", "match", "justification")


class BaselineError(ValueError):
    """The baseline file is malformed or an entry is incomplete."""


def _ends_with(path: str, suffix: str) -> bool:
    """True when ``suffix`` is ``path`` or its trailing ``/``-parts."""
    return path == suffix or path.endswith("/" + suffix)


@dataclass(frozen=True)
class Suppression:
    """One justified exemption from a rule."""

    rule: str
    path: str           # forward-slash path suffix the finding must match
    match: str          # substring of the finding message
    justification: str  # why this violation is acceptable

    def names(self, path: str) -> bool:
        """True when ``path`` is this entry's file."""
        return _ends_with(path.replace("\\", "/"),
                          self.path.replace("\\", "/"))

    def judged_by(self, path: str) -> bool:
        """True when verifying ``path`` (a file or directory display
        path) judges this entry: ``path`` is its file or holds it.  The
        entry's path is a suffix, so ``path`` holds it when ``path`` ends
        with one of its leading parts (``src/repro`` holds
        ``src/repro/nt/x.py``, and so does ``/abs/src/repro``)."""
        got = path.replace("\\", "/").rstrip("/")
        if got in ("", "."):
            return True
        parts = self.path.replace("\\", "/").split("/")
        return any(_ends_with(got, "/".join(parts[:n]))
                   for n in range(1, len(parts) + 1))

    def covers(self, finding: Finding) -> bool:
        return (finding.rule == self.rule
                and self.match in finding.message
                and self.names(finding.path))


def _parse_value(raw: str, lineno: int, source: str) -> str:
    raw = raw.strip()
    if len(raw) < 2 or raw[0] != '"' or raw[-1] != '"':
        raise BaselineError(
            f"{source}:{lineno}: expected a double-quoted string value")
    body = raw[1:-1]
    # The only escapes the format needs: \" and \\.
    return body.replace('\\"', '"').replace("\\\\", "\\")


def parse_baseline(text: str, source: str = "<baseline>") -> List[Suppression]:
    """Parse baseline text into suppressions, validating every entry."""
    entries: List[dict] = []
    current: Optional[dict] = None
    current_line = 0
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if line == "[[suppression]]":
            if current is not None:
                entries.append(current)
            current = {}
            current_line = lineno
            continue
        if line.startswith("["):
            raise BaselineError(
                f"{source}:{lineno}: unsupported table {line!r} "
                "(only [[suppression]] entries are allowed)")
        if "=" not in line:
            raise BaselineError(
                f"{source}:{lineno}: expected 'key = \"value\"'")
        if current is None:
            raise BaselineError(
                f"{source}:{lineno}: assignment outside a "
                "[[suppression]] entry")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _REQUIRED_KEYS:
            raise BaselineError(
                f"{source}:{lineno}: unknown key {key!r} "
                f"(expected one of {', '.join(_REQUIRED_KEYS)})")
        if key in current:
            raise BaselineError(
                f"{source}:{lineno}: duplicate key {key!r} in entry")
        current[key] = _parse_value(value, lineno, source)
        current["_line"] = current.get("_line", current_line)
    if current is not None:
        entries.append(current)

    suppressions: List[Suppression] = []
    for entry in entries:
        for key in _REQUIRED_KEYS:
            if not entry.get(key, "").strip():
                raise BaselineError(
                    f"{source}: [[suppression]] entry is missing a "
                    f"non-empty {key!r} (every suppression must be "
                    "justified)")
        suppressions.append(Suppression(
            rule=entry["rule"], path=entry["path"],
            match=entry["match"], justification=entry["justification"]))
    return suppressions


def load_baseline(path: Path) -> List[Suppression]:
    """Load suppressions from ``path``; a missing file is an empty baseline."""
    if not path.exists():
        return []
    return parse_baseline(path.read_text(encoding="utf-8"), source=str(path))


def apply_baseline(
    findings: Iterable[Finding],
    suppressions: List[Suppression],
    verified_paths: Iterable[str],
) -> Tuple[List[Finding], List[Finding], List[Suppression]]:
    """Split findings into (unsuppressed, suppressed) and report stale
    suppressions: entries that covered nothing although one of
    ``verified_paths`` (the verified arguments and files) judges them."""
    used = [False] * len(suppressions)
    kept: List[Finding] = []
    quieted: List[Finding] = []
    for finding in sorted(findings):
        hit = False
        for i, entry in enumerate(suppressions):
            if entry.covers(finding):
                used[i] = True
                hit = True
        (quieted if hit else kept).append(finding)
    paths = list(verified_paths)
    stale = [entry for i, entry in enumerate(suppressions)
             if not used[i] and any(map(entry.judged_by, paths))]
    return kept, quieted, stale
