"""The performance monitor (perfmon) subsystem.

The paper is a measurement study: Vogels instrumented the NT I/O stack and
reported per-path operation counts (the FastIO/IRP split of figures 13/14)
and cache effectiveness (§9) from online counters next to the trace
records.  This module gives the simulator the same property — a
:class:`PerfRegistry` per :class:`~repro.nt.system.Machine` holding cheap
monotonic :class:`Counter`\\ s and fixed-bucket log-scale
:class:`LatencyHistogram`\\ s, fed by instrumentation points in the
Win32 API, I/O manager, file-system driver, cache manager, lazy writer,
VM manager, redirector, storage driver and trace filter.

The registry is the machine's only counter surface and always runs: each
simulated event is counted once, by a site holding a direct reference to
its counter.  Everything is deterministic (counter values derive only
from simulated events, never wall-clock time).  The instrumentation path
is pure python; only the whole-array histogram update
(:meth:`LatencyHistogram.observe_array`) uses numpy.

The counters double as a correctness cross-check: the registry's
FastIO/IRP dispatch counts must agree with what the trace warehouse later
reconstructs from the records, which the test suite asserts.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Iterable, Mapping, Optional

import numpy as np

from repro.common.clock import TICKS_PER_MICROSECOND

# Histogram buckets are powers of two in microseconds: 1 us, 2 us, 4 us, …
# up to ~8.4 s, plus one overflow bucket.  The range brackets figure 13's
# latency bands (FastIO completions around 1–100 us, IRP completions from
# 100 us into disk-seek territory).
N_BUCKETS = 24
BUCKET_EDGES_TICKS: tuple[int, ...] = tuple(
    TICKS_PER_MICROSECOND * (1 << i) for i in range(N_BUCKETS))
BUCKET_EDGES_MICROS: tuple[int, ...] = tuple(1 << i for i in range(N_BUCKETS))
_BUCKET_EDGES_ARRAY = np.array(BUCKET_EDGES_TICKS, dtype=np.int64)


class PerfSchemaError(ValueError):
    """Snapshots disagree on a series' schema (kind or bucket layout)."""


class Counter:
    """A cheap monotonic event counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def add(self, n: int = 1) -> None:
        self.value += n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A last-value-wins metric (e.g. a replay run's divergence total).

    Unlike a :class:`Counter` it is *set*, not incremented, so a re-run of
    the producing phase overwrites rather than accumulates.
    """

    __slots__ = ("name", "value", "touched")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self.touched = False

    def set(self, value: int) -> None:
        self.value = value
        self.touched = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name}={self.value})"


class LatencyHistogram:
    """Fixed-bucket log₂-scale latency histogram over 100 ns ticks.

    ``observe`` costs one bisect over a 24-entry tuple; there is no
    per-sample allocation, so millions of completions stay cheap.
    """

    __slots__ = ("name", "bucket_counts", "count", "sum_ticks", "max_ticks")

    def __init__(self, name: str) -> None:
        self.name = name
        self.bucket_counts = [0] * (N_BUCKETS + 1)
        self.count = 0
        self.sum_ticks = 0
        self.max_ticks = 0

    def observe(self, ticks: int) -> None:
        self.bucket_counts[bisect_left(BUCKET_EDGES_TICKS, ticks)] += 1
        self.count += 1
        self.sum_ticks += ticks
        if ticks > self.max_ticks:
            self.max_ticks = ticks

    def observe_array(self, ticks: np.ndarray) -> None:
        """:meth:`observe` every value of an int64 array.

        ``searchsorted(side="left")`` over the integer edges is
        ``bisect_left``, so the buckets, count, sum and maximum are the
        integers per-value observation would give.
        """
        if not len(ticks):
            return
        counts = np.bincount(
            np.searchsorted(_BUCKET_EDGES_ARRAY, ticks, side="left"),
            minlength=N_BUCKETS + 1)
        self.bucket_counts = [have + n for have, n in
                              zip(self.bucket_counts, counts.tolist())]
        self.count += len(ticks)
        self.sum_ticks += int(ticks.sum())
        self.max_ticks = max(self.max_ticks, int(ticks.max()))

    def quantile_micros(self, q: float) -> float:
        """Upper bucket edge (µs) below which a fraction ``q`` of samples
        fall; the overflow bucket reports the true maximum."""
        if not self.count:
            return float("nan")
        need = q * self.count
        max_micros = self.max_ticks / TICKS_PER_MICROSECOND
        seen = 0
        for idx, n in enumerate(self.bucket_counts):
            seen += n
            if seen >= need:
                if idx >= N_BUCKETS:
                    break
                return min(float(BUCKET_EDGES_MICROS[idx]), max_micros)
        return max_micros

    @property
    def mean_micros(self) -> float:
        if not self.count:
            return float("nan")
        return self.sum_ticks / self.count / TICKS_PER_MICROSECOND

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "sum_ticks": self.sum_ticks,
            "max_ticks": self.max_ticks,
            "bucket_counts": list(self.bucket_counts),
        }


class PerfRegistry:
    """Per-machine counter and histogram registry.

    Instrumentation sites hold direct references to their counters and
    histograms, obtained once via :meth:`counter` / :meth:`histogram`, so
    an update costs one method call and no name lookup.
    """

    def __init__(self, machine_name: str = "") -> None:
        self.machine_name = machine_name
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, LatencyHistogram] = {}
        self._gauges: dict[str, Gauge] = {}

    # ------------------------------------------------------------------ #
    # Registration and update.

    def counter(self, name: str) -> Counter:
        """Get or create the counter called ``name``."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def histogram(self, name: str) -> LatencyHistogram:
        """Get or create the latency histogram called ``name``."""
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = LatencyHistogram(name)
        return hist

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge called ``name``."""
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def set_gauge(self, name: str, value: int) -> None:
        """Convenience setter for cold instrumentation sites."""
        self.gauge(name).set(value)

    def count(self, name: str, n: int = 1) -> None:
        """Convenience increment for cold instrumentation sites."""
        self.counter(name).add(n)

    def observe(self, name: str, ticks: int) -> None:
        """Convenience observation for cold instrumentation sites."""
        self.histogram(name).observe(ticks)

    def value(self, name: str) -> int:
        """Current value of a counter (0 if never touched)."""
        counter = self._counters.get(name)
        return counter.value if counter is not None else 0

    # ------------------------------------------------------------------ #
    # Iteration (the flight recorder's read side).

    def iter_counters(self) -> Iterable[Counter]:
        """All counters, in registration order (deterministic per seed)."""
        return self._counters.values()

    def iter_gauges(self) -> Iterable[Gauge]:
        """All gauges, in registration order."""
        return self._gauges.values()

    def iter_histograms(self) -> Iterable[LatencyHistogram]:
        """All histograms, in registration order."""
        return self._histograms.values()

    # ------------------------------------------------------------------ #
    # Snapshots.

    def snapshot(self) -> dict:
        """Plain-dict snapshot of all non-zero counters and histograms.

        Deterministic: keys are sorted and values derive only from
        simulated events, so equal seeds produce equal snapshots.
        """
        snap = {
            "counters": {name: c.value
                         for name, c in sorted(self._counters.items())
                         if c.value},
            "histograms": {name: h.to_dict()
                           for name, h in sorted(self._histograms.items())
                           if h.count},
        }
        # Gauges are a later addition; the key is omitted when none were
        # set so pre-gauge perf.json files stay byte-identical.
        gauges = {name: g.value for name, g in sorted(self._gauges.items())
                  if g.touched}
        if gauges:
            snap["gauges"] = gauges
        return snap


_KIND_SECTIONS = (("counters", "counter"), ("gauges", "gauge"),
                  ("histograms", "histogram"))


def merge_snapshots(snapshots: Iterable[Mapping]) -> dict:
    """Aggregate per-machine snapshots into one fleet-wide snapshot.

    The snapshots must agree on what each series *is*: a name appearing
    as a counter in one snapshot and a gauge or histogram in another —
    or histograms with different bucket layouts — raises
    :class:`PerfSchemaError` naming the series, rather than silently
    unioning incompatible data into one table.
    """
    counters: dict[str, int] = {}
    histograms: dict[str, dict] = {}
    gauges: dict[str, int] = {}
    kinds: dict[str, str] = {}
    for snap in snapshots:
        for section, kind in _KIND_SECTIONS:
            for name in snap.get(section, {}):
                seen = kinds.setdefault(name, kind)
                if seen != kind:
                    raise PerfSchemaError(
                        f"cannot merge perf snapshots: series {name!r} is "
                        f"a {seen} in one snapshot and a {kind} in another")
        for name, value in snap.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, value in snap.get("gauges", {}).items():
            gauges[name] = gauges.get(name, 0) + value
        for name, h in snap.get("histograms", {}).items():
            agg = histograms.get(name)
            if agg is None:
                agg = histograms[name] = {
                    "count": 0, "sum_ticks": 0, "max_ticks": 0,
                    "bucket_counts": [0] * len(h["bucket_counts"])}
            if len(h["bucket_counts"]) != len(agg["bucket_counts"]):
                raise PerfSchemaError(
                    f"cannot merge perf snapshots: histogram {name!r} has "
                    f"{len(h['bucket_counts'])} buckets in one snapshot "
                    f"and {len(agg['bucket_counts'])} in another")
            agg["count"] += h["count"]
            agg["sum_ticks"] += h["sum_ticks"]
            agg["max_ticks"] = max(agg["max_ticks"], h["max_ticks"])
            for i, n in enumerate(h["bucket_counts"]):
                agg["bucket_counts"][i] += n
    merged = {"counters": dict(sorted(counters.items())),
              "histograms": dict(sorted(histograms.items()))}
    if gauges:
        merged["gauges"] = dict(sorted(gauges.items()))
    return merged


def _hist_from_dict(name: str, d: Mapping) -> LatencyHistogram:
    hist = LatencyHistogram(name)
    hist.count = d["count"]
    hist.sum_ticks = d["sum_ticks"]
    hist.max_ticks = d["max_ticks"]
    hist.bucket_counts = list(d["bucket_counts"])
    return hist


def format_perf_table(snapshot: Mapping, title: str = "Performance monitor"
                      ) -> str:
    """Render a snapshot as a perfmon-style text table."""
    lines = [title, "=" * len(title)]
    counters = snapshot.get("counters", {})
    if counters:
        lines.append(f"  {'Counter':<52} {'Value':>12}")
        for name in sorted(counters):
            lines.append(f"  {name:<52} {counters[name]:>12,}")
    else:
        lines.append("  (no counters recorded)")
    gauges = snapshot.get("gauges", {})
    if gauges:
        lines.append("")
        lines.append(f"  {'Gauge':<52} {'Value':>12}")
        for name in sorted(gauges):
            lines.append(f"  {name:<52} {gauges[name]:>12,}")
    histograms = snapshot.get("histograms", {})
    if histograms:
        lines.append("")
        lines.append(f"  {'Latency histogram (us)':<40} {'Count':>10} "
                     f"{'Mean':>9} {'p50':>9} {'p90':>9} {'p99':>9} "
                     f"{'Max':>10}")
        for name in sorted(histograms):
            hist = _hist_from_dict(name, histograms[name])
            if not hist.count:
                # No samples: there is no latency to summarise, and a
                # rendered NaN (or a fabricated p50=0) would misread as
                # a measured value.
                lines.append(f"  {name:<40} {0:>10,} {'-':>9} {'-':>9} "
                             f"{'-':>9} {'-':>9} {'-':>10}")
                continue
            lines.append(
                f"  {name:<40} {hist.count:>10,} "
                f"{hist.mean_micros:>9.1f} "
                f"{hist.quantile_micros(0.50):>9.0f} "
                f"{hist.quantile_micros(0.90):>9.0f} "
                f"{hist.quantile_micros(0.99):>9.0f} "
                f"{hist.max_ticks / TICKS_PER_MICROSECOND:>10.0f}")
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# perf.json — the on-disk companion of a .nttrace archive.

def perf_json_bytes(perf_by_machine: Mapping[str, Mapping],
                    meta: Optional[Mapping] = None) -> bytes:
    """Serialise per-machine snapshots to canonical (byte-stable) JSON."""
    doc = {
        "format": "nt-perf-1",
        "meta": dict(meta or {}),
        "machines": {name: dict(snap)
                     for name, snap in perf_by_machine.items()},
        "aggregate": merge_snapshots(perf_by_machine.values()),
    }
    return (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode("utf-8")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_snapshot(where: str, snap) -> None:
    """Raise :class:`ValueError` unless ``snap`` is a registry snapshot."""
    sections = ([snap.get(key, {}) for key in ("counters", "gauges",
                                                "histograms")]
                if isinstance(snap, dict) else [None])
    if not all(isinstance(section, dict) for section in sections):
        raise ValueError(f"{where}: the snapshot and its counters, gauges "
                         f"and histograms must be objects")
    counters, gauges, histograms = sections
    for name, value in [*counters.items(), *gauges.items()]:
        if not _is_int(value):
            raise ValueError(f"{where}: {name!r} is not an integer")
    for name, hist in histograms.items():
        hist = hist if isinstance(hist, dict) else {}
        fields = [hist.get(key) for key in ("count", "sum_ticks",
                                            "max_ticks")]
        buckets = hist.get("bucket_counts")
        if not (isinstance(buckets, list) and len(buckets) == N_BUCKETS + 1
                and all(_is_int(n) and n >= 0 for n in fields + buckets)
                and sum(buckets) == fields[0]):
            raise ValueError(
                f"{where}: histogram {name!r} needs non-negative integer "
                f"count, sum_ticks, max_ticks and {N_BUCKETS + 1} buckets "
                f"summing to count")


def load_perf_json(path) -> dict:
    """Read a perf.json written by :func:`perf_json_bytes`.

    Raises :class:`ValueError` naming the file unless every per-machine
    snapshot is one the table, merge and OpenMetrics writers accept.
    """
    with open(path, "rb") as fh:
        doc = json.loads(fh.read().decode("utf-8"))
    if not isinstance(doc, dict) or doc.get("format") != "nt-perf-1":
        raise ValueError(f"{path}: not a perf.json file")
    machines = doc.get("machines")
    if not (isinstance(machines, dict)
            and isinstance(doc.get("meta", {}), dict)):
        raise ValueError(f"{path}: machines and meta must be objects")
    for name, snap in machines.items():
        _check_snapshot(f"{path}: machine {name!r}", snap)
    try:
        merge_snapshots(machines.values())
    except PerfSchemaError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return doc
