"""The table-1 observation summary.

Runs every per-section analysis and assembles the paper's summary-of-
observations table with measured values next to the paper's, so a single
call reports the whole reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, TYPE_CHECKING

import numpy as np

from repro.common.clock import TICKS_PER_SECOND
from repro.stats.descriptive import cdf_quantile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.warehouse import TraceWarehouse


@dataclass
class Observation:
    """One table-1 line: the paper's claim and our measured value."""

    key: str
    paper: str
    measured: float
    unit: str = "%"

    def format(self) -> str:
        if np.isnan(self.measured):
            value = "n/a"
        elif self.unit == "%":
            value = f"{self.measured:.1f}%"
        else:
            value = f"{self.measured:.3g} {self.unit}"
        return f"  {self.key:<52} paper: {self.paper:<18} measured: {value}"


@dataclass
class ObservationSummary:
    """All table-1 observations, measured from one study."""

    observations: dict[str, Observation] = field(default_factory=dict)

    def add(self, key: str, paper: str, measured: float,
            unit: str = "%") -> None:
        self.observations[key] = Observation(key, paper, measured, unit)

    def value(self, key: str) -> float:
        return self.observations[key].measured

    def format(self) -> str:
        lines = ["Table 1 — summary of observations (paper vs measured):"]
        lines.extend(o.format() for o in self.observations.values())
        return "\n".join(lines)


def summarize_observations(wh: "TraceWarehouse",
                           perf: Optional[Mapping[str, Mapping]] = None
                           ) -> ObservationSummary:
    """Measure every table-1 observation from a study's warehouse (and
    the cache hit ratio from its ``StudyResult.perf`` snapshots)."""
    from repro.analysis.cache import analyze_cache
    from repro.analysis.fastio import analyze_fastio
    from repro.analysis.lifetimes import analyze_lifetimes
    from repro.analysis.opens import analyze_opens
    from repro.analysis.patterns import (access_pattern_table,
                                         file_size_distributions)
    from repro.analysis.heavytail import analyze_heavy_tails

    summary = ObservationSummary()
    instances = [s for s in wh.instances if not s.open_failed]
    data_instances = [s for s in instances if s.has_data]

    # -- comparison with older traces ---------------------------------- #
    opens = analyze_opens(wh)
    summary.add("files open < 10ms (data sessions)", "75%",
                100.0 * opens.fraction_sessions_shorter_than(10.0, "data"))
    sizes = file_size_distributions(wh)
    x, p = sizes.combined_by_opens()
    if x.size:
        q80 = cdf_quantile(x, p, 0.80)
        summary.add("80th percentile of opened file size", "26 KB",
                    q80 / 1024.0, unit="KB")
    patterns = access_pattern_table(wh)
    ro_whole = patterns.cell("read-only", "whole").accesses_mean
    ro_seq = patterns.cell("read-only", "sequential").accesses_mean
    summary.add("read-only sequential access (whole+partial)", "~88%",
                ro_whole + ro_seq)
    lifetimes = analyze_lifetimes(wh)
    summary.add("new files deleted within 4s (all methods)", "~80%",
                100.0 * lifetimes.fraction_deleted_within(4.0))
    shares = lifetimes.method_shares()
    summary.add("deletions by overwrite/truncate", "37%", shares["overwrite"])
    summary.add("deletions by explicit delete", "62%", shares["explicit"])
    summary.add("deletions by temporary attribute", "1%", shares["temporary"])
    summary.add("overwrites within 4ms of creation", "~75%",
                100.0 * lifetimes.fraction_deleted_within(0.004, "overwrite"))
    summary.add("deleted files that could have been temporary", "25-35%",
                lifetimes.could_have_used_temporary_pct())

    # -- operational characteristics ------------------------------------ #
    summary.add("opens for control/directory operations", "74%",
                opens.control_open_share_pct)
    summary.add("open requests that fail", "12%", opens.open_failure_pct)
    summary.add("failed opens: file did not exist", "52%",
                opens.failure_not_found_pct)
    summary.add("failed opens: already existed", "31%",
                opens.failure_collision_pct)
    summary.add("read requests that fail", "0.2%", opens.read_failure_pct)
    summary.add("sessions closed within 1ms of open", "40%",
                100.0 * opens.fraction_sessions_shorter_than(1.0, "all"))
    summary.add("sessions open less than 1s", "90%",
                100.0 * float(np.mean(
                    opens.session_all <= TICKS_PER_SECOND))
                if opens.session_all.size else float("nan"))

    cache = analyze_cache(wh, perf)
    summary.add("reads served from the file cache", "60%",
                cache.read_cache_hit_pct)
    summary.add("open-for-read needing a single prefetch", "92%",
                cache.single_prefetch_sufficient_pct)
    summary.add("read sessions with a single IO", "31%",
                cache.single_read_session_pct)

    fastio = analyze_fastio(wh)
    summary.add("reads over the FastIO path", "59%",
                fastio.fastio_read_share_pct)
    summary.add("writes over the FastIO path", "96%",
                fastio.fastio_write_share_pct)

    # -- distribution characteristics ------------------------------------ #
    tails = analyze_heavy_tails(wh)
    alphas = [v.alpha for v in tails.variables.values()
              if not np.isnan(v.alpha)]
    if alphas:
        summary.add("median heavy-tail alpha across variables", "1.2-1.7",
                    float(np.median(alphas)), unit="alpha")
        summary.add("variables with infinite variance (alpha<2)", "all",
                    100.0 * tails.heavy_tailed_fraction())
    pareto_wins = [v.pareto_fits_better for v in tails.variables.values()]
    if pareto_wins:
        summary.add("variables where Pareto beats Normal fit", "all",
                    100.0 * float(np.mean(pareto_wins)))
    summary.add("accesses from processes with direct user input", "<8%",
                tails.interactive_access_pct)
    if tails.burstiness is not None and tails.burstiness.trace_iod:
        ratios = [t / max(p, 1e-9)
                  for t, p in zip(tails.burstiness.trace_iod,
                                  tails.burstiness.poisson_iod)]
        summary.add("burstiness vs Poisson (max IoD ratio across scales)",
                    ">> 1", max(ratios), unit="x")
    return summary
