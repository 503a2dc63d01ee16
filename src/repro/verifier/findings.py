"""Findings: what a verifier rule reports.

A finding is one violation at one source location.  Findings are value
objects — hashable, ordered by location — so rule output is stable and
the engine can diff a run against a suppression baseline
(:mod:`repro.verifier.baseline`) deterministically.

Rule identifiers follow the Driver-Verifier-style catalog:

* ``D1xx``/``D2xx`` — determinism (unsorted directory listings, set
  iteration),
* ``P3xx`` — IRP completion protocol,
* ``L5xx`` — layering (import direction),
* ``T4xx`` — exhaustiveness cross-checks over the op enums,
* ``F6xx`` — interprocedural determinism (wall-clock/entropy sources,
  identity flow),
* ``U8xx`` — the tick/byte/seconds unit lattice.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at ``path:line``."""

    path: str       # forward-slash path, relative to the verify root
    line: int       # 1-based source line
    rule: str       # catalog id, e.g. "F601"
    message: str    # one-line human description

    def format(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"
