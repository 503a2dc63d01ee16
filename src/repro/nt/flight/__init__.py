"""The flight recorder: streaming time-series metrics.

The paper's strongest results are temporal — burstiness (fig. 8),
self-similarity (fig. 10) and diurnal operational load (§8) — but the
perf subsystem only reports end-of-run aggregates.  This package adds the
*over-time* view:

* :mod:`repro.nt.flight.log` — the ``.ntmetrics`` sidecar format: every
  :class:`~repro.nt.perf.PerfRegistry` series sampled into fixed
  simulated-time interval buckets, delta-encoded and zlib-compressed.
* :mod:`repro.nt.flight.recorder` — the per-machine
  :class:`FlightRecorder` that produces it with bounded memory, driven by
  the machine's own timer wheel so archives stay byte-identical whether
  it is on or off.

Everything here runs on simulated time.  Host wall-clock time per layer
is measured from outside the program (``perfbench/run.py --trace 1``),
so no host clock is read on the request path.
"""

from repro.nt.flight.log import (
    DEFAULT_METRICS_INTERVAL_SECONDS,
    METRICS_FILENAME,
    IntervalSample,
    MetricsSection,
    iter_samples,
    write_metrics_log,
)
from repro.nt.flight.recorder import FlightRecorder

__all__ = [
    "DEFAULT_METRICS_INTERVAL_SECONDS",
    "METRICS_FILENAME",
    "FlightRecorder",
    "IntervalSample",
    "MetricsSection",
    "iter_samples",
    "write_metrics_log",
]
