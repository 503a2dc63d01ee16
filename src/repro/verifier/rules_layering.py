"""L-rules: import-direction layering.

The repro tree is layered like the system it models: the simulator
kernel (``repro.nt``) at the bottom, workload generation above it, and
the analysis/statistics layers strictly on the *read side* — they may
consume what the trace agent wrote, never reach into live kernel state.

* **L501** — ``repro.analysis``/``repro.stats`` importing ``repro.nt``
  outside the tracing read-side whitelist (``records``, ``store``,
  ``spans``, ``collector``, ``snapshot``, plus the flight recorder's
  ``flight.log`` decoder).  Everything an analysis needs must be
  decodable from the archive; anything else couples the paper's
  figures to simulator internals.
* **L502** — ``repro.nt`` importing an upper layer
  (``repro.workload``/``repro.analysis``/``repro.replay``/
  ``repro.cli``/``repro.verifier``): the kernel must not know who
  drives it.
* **L503** — ``repro.common`` importing any other ``repro`` package:
  common is the shared bottom layer (clock, flags, status) and must
  stay dependency-free.

``if TYPE_CHECKING:`` imports are exempt — they never execute, so they
cannot create runtime coupling.  Function-level imports are *not*
exempt; deferring an import does not change the dependency direction.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.verifier.astutil import iter_imports
from repro.verifier.engine import ModuleInfo
from repro.verifier.findings import Finding

# The tracing read side: what the trace agent archives and analysis
# decodes.  Importing a *name* from a whitelisted module is fine even
# when that name is re-exported from deeper in the kernel.
READ_SIDE_WHITELIST: Tuple[str, ...] = (
    "repro.nt.tracing.records",
    "repro.nt.tracing.store",
    "repro.nt.tracing.spans",
    "repro.nt.tracing.collector",
    "repro.nt.tracing.snapshot",
    # The .ntmetrics decoder: frame parsing over the store's reader, no
    # live kernel state.
    "repro.nt.flight.log",
)

_ANALYSIS_PREFIXES = ("repro.analysis", "repro.stats")
_NT_FORBIDDEN = ("repro.workload", "repro.analysis", "repro.replay",
                 "repro.cli", "repro.verifier")


def _prefixed(module: str, prefixes: Tuple[str, ...]) -> bool:
    return any(module == p or module.startswith(p + ".") for p in prefixes)


def check_layering(module: ModuleInfo) -> Iterator[Finding]:
    """All L-rules for one module."""
    name = module.name
    is_analysis = _prefixed(name, _ANALYSIS_PREFIXES)
    is_nt = _prefixed(name, ("repro.nt",))
    is_common = _prefixed(name, ("repro.common",))
    if not (is_analysis or is_nt or is_common):
        return
    for node, imported, guarded in iter_imports(module.tree):
        if guarded:
            continue
        if is_analysis and _prefixed(imported, ("repro.nt",)):
            if imported not in READ_SIDE_WHITELIST:
                yield Finding(
                    module.display_path, node.lineno, "L501",
                    f"{name} imports {imported}; analysis/stats may only "
                    "use the tracing read side "
                    f"({', '.join(m.rsplit('.', 1)[1] for m in READ_SIDE_WHITELIST)})")
        if is_nt and _prefixed(imported, _NT_FORBIDDEN):
            yield Finding(
                module.display_path, node.lineno, "L502",
                f"{name} imports {imported}; the simulator kernel must "
                "not depend on the layers that drive or analyse it")
        if is_common and _prefixed(imported, ("repro",)):
            if not _prefixed(imported, ("repro.common",)):
                yield Finding(
                    module.display_path, node.lineno, "L503",
                    f"{name} imports {imported}; repro.common is the "
                    "dependency-free bottom layer")
