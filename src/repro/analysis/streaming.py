"""Streaming fleet observability: bounded-memory study aggregation.

The paper's collection servers aggregated ~190M records from 45 machines
— far more than one analysis process wants resident.  This module is the
streaming counterpart of the materialized :class:`TraceWarehouse`: a
:class:`StatsSketch` of deterministic, *mergeable* per-machine partial
aggregates (counts, byte sums, min/max, the exact log₂ latency
histograms from :mod:`repro.nt.perf`, and a deterministic mergeable
quantile digest for the figure 13/14 bands).

A fold takes one machine's trace as a single (n, 15) int64 array: a live
collector's staged record blocks read in place, or an archive's record
section decoded whole by
:meth:`~repro.nt.tracing.store.StoreStream.record_block`.  Record-level
aggregates are whole-column numpy updates; instances come from one
stable sort of the rows by (file object, start time).  No per-record
Python object is built.

Three properties carry the design:

* **Bounded memory.**  A fold holds one machine's record array and one
  batch of its event lists at a time; once the machine is folded only
  the sketch's fixed-size digests and one small integer row per machine
  remain.  Peak memory is flat in machine count.
* **Order-independent, byte-identical merges.**  Every fleet-level
  aggregate is a commutative integer accumulation (sparse bucket adds,
  min/max, keep-smallest-K samples); per-machine rows live under
  disjoint machine indices.  Serialization is canonical JSON, so any
  shard order — serial, ``--workers K``, reversed — produces the same
  bytes.  (No floats are accumulated: floats appear only at render
  time, computed from the same integers in the same order.)
* **Exact reconciliation.**  The instance semantics come from the same
  :func:`~repro.analysis.sessions.build_instance` /
  :func:`~repro.analysis.lifetimes.death_events` code the warehouse
  uses, so :func:`sketch_from_warehouse` over the materialized path
  reproduces the streaming sketch *bit for bit* at seed scale —
  :func:`reconcile_sketch` asserts it.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_right
from typing import Optional, Union, TYPE_CHECKING

import numpy as np

from repro.analysis.sessions import EVENT_FIELDS, build_instance
from repro.analysis.warehouse import RECORD_COLUMNS, block_rows, record_rows
from repro.common.clock import (
    TICKS_PER_MICROSECOND,
    TICKS_PER_MILLISECOND,
    TICKS_PER_SECOND,
)
from repro.nt.perf import (
    BUCKET_EDGES_MICROS,
    LatencyHistogram,
    N_BUCKETS,
)
from repro.nt.tracing.records import TraceEventKind, extension_of
from repro.nt.tracing.store import StoreStream, study_paths

if TYPE_CHECKING:  # pragma: no cover - typing only
    from pathlib import Path

    from repro.analysis.sessions import Instance
    from repro.analysis.warehouse import TraceWarehouse
    from repro.nt.tracing.collector import TraceCollector
    from repro.nt.tracing.records import NameRecord
    from repro.workload.study import StudyResult

SKETCH_FORMAT = "nt-sketch-1"

# The figure 13/14 request-type split (mirrors repro.analysis.fastio).
REQUEST_TYPES = ("fastio-read", "fastio-write", "irp-read", "irp-write")
_KIND_TO_RTYPE = {
    int(TraceEventKind.IRP_READ): "irp-read",
    int(TraceEventKind.IRP_WRITE): "irp-write",
    int(TraceEventKind.FASTIO_READ): "fastio-read",
    int(TraceEventKind.FASTIO_WRITE): "fastio-write",
}
_READ_KINDS = frozenset((int(TraceEventKind.IRP_READ),
                         int(TraceEventKind.FASTIO_READ)))
_KIND_CREATE = int(TraceEventKind.IRP_CREATE)

# Columns of a record row (the staged block layout), and the columns that
# make up one build_instance event.
_KIND, _FO_ID, _T_START, _T_END, _LENGTH, _RETURNED = (
    RECORD_COLUMNS.index(name) for name in
    ("kind", "fo_id", "t_start", "t_end", "length", "returned"))
_EVENT_COLUMNS = [RECORD_COLUMNS.index(name) for name in EVENT_FIELDS]
# Rows turned into build_instance event lists at a time (whole file
# objects per batch), so a machine's trace is never resident as Python
# objects all at once.
_EVENT_BATCH = 1 << 12

_USAGES = ("read-only", "write-only", "read-write")
_PATTERNS = ("whole", "sequential", "random")
_METHODS = ("overwrite", "explicit", "temporary")

# Figure 7's scatter keeps a deterministic sample: the K smallest
# (lifetime, size) pairs.  Keep-smallest-K over multisets is associative
# and commutative, so the sample too merges order-independently.
DEATH_SAMPLE_CAP = 4096


# --------------------------------------------------------------------- #
# The quantile digest.

_SUB_BITS = 3                 # 8 linear sub-buckets per power-of-two octave
_SUB = 1 << _SUB_BITS


def digest_bucket(value: int) -> int:
    """Bucket index of a non-negative integer value.

    HDR-histogram-style comb: values below 8 get exact buckets; above,
    each power-of-two octave is split into 8 linear sub-buckets, giving a
    relative error of at most 1/8 at every magnitude.  All arithmetic is
    integer (bit_length and shifts) — no libm, so the mapping is
    identical on every platform.
    """
    if value < _SUB:
        return value
    octave = value.bit_length() - 1
    sub = (value - (1 << octave)) >> (octave - _SUB_BITS)
    return ((octave - _SUB_BITS) << _SUB_BITS) + sub + _SUB


def digest_bucket_upper(index: int) -> int:
    """The largest value mapping to bucket ``index`` (the inverse comb)."""
    if index < _SUB:
        return index
    group, sub = divmod(index - _SUB, _SUB)
    octave = group + _SUB_BITS
    return (1 << octave) + ((sub + 1) << (octave - _SUB_BITS)) - 1


class Digest:
    """Deterministic mergeable quantile digest over non-negative ints.

    Sparse integer bucket weights over the :func:`digest_bucket` comb
    plus exact n/weight/min/max.  Updates and merges are commutative
    integer sums, so partial digests merge order-independently and —
    through the sketch's canonical serialization — byte-identically
    across shards, which the shard-order property tests assert.
    """

    __slots__ = ("buckets", "n", "weight", "vmin", "vmax")

    def __init__(self) -> None:
        self.buckets: dict[int, int] = {}
        self.n = 0            # samples added
        self.weight = 0       # total weight
        self.vmin = -1        # -1 = empty
        self.vmax = -1

    def add(self, value: int, weight: int = 1) -> None:
        if weight <= 0:
            return            # zero-weight samples carry no mass
        value = 0 if value < 0 else int(value)
        idx = digest_bucket(value)
        self.buckets[idx] = self.buckets.get(idx, 0) + weight
        self.n += 1
        self.weight += weight
        if self.vmin < 0 or value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value

    def add_array(self, values: np.ndarray) -> None:
        """:meth:`add` every value of an integer array with weight 1.

        The comb is applied once per distinct value, with the same integer
        arithmetic, so the digest equals value-by-value adds.
        """
        if not len(values):
            return
        distinct, counts = np.unique(values, return_counts=True)
        buckets = self.buckets
        for value, n in zip(distinct.tolist(), counts.tolist()):
            idx = digest_bucket(max(value, 0))
            buckets[idx] = buckets.get(idx, 0) + n
        self.n += len(values)
        self.weight += len(values)
        lo = max(int(distinct[0]), 0)
        hi = max(int(distinct[-1]), 0)
        if self.vmin < 0 or lo < self.vmin:
            self.vmin = lo
        if hi > self.vmax:
            self.vmax = hi

    def merge(self, other: "Digest") -> None:
        for idx, w in other.buckets.items():
            self.buckets[idx] = self.buckets.get(idx, 0) + w
        self.n += other.n
        self.weight += other.weight
        if other.vmin >= 0 and (self.vmin < 0 or other.vmin < self.vmin):
            self.vmin = other.vmin
        if other.vmax > self.vmax:
            self.vmax = other.vmax

    def cdf_points(self, scale: float = 1.0
                   ) -> tuple[np.ndarray, np.ndarray]:
        """(x, cumulative fraction) over bucket upper edges, ``x/scale``.

        The last edge is clamped to the exact maximum, the first to the
        exact minimum, so single-bucket digests render faithfully.
        """
        if not self.weight:
            return np.array([]), np.array([])
        xs: list[float] = []
        ps: list[float] = []
        cum = 0
        for idx in sorted(self.buckets):
            cum += self.buckets[idx]
            x = max(min(digest_bucket_upper(idx), self.vmax), self.vmin)
            xs.append(x / scale)
            ps.append(cum / self.weight)
        return np.asarray(xs), np.asarray(ps)

    def quantile(self, q: float) -> float:
        """Upper bucket edge below which a fraction ``q`` of weight falls,
        clamped to the observed [min, max]."""
        if not self.weight:
            return float("nan")
        need = q * self.weight
        cum = 0
        for idx in sorted(self.buckets):
            cum += self.buckets[idx]
            if cum >= need:
                return float(
                    max(min(digest_bucket_upper(idx), self.vmax),
                        self.vmin))
        return float(self.vmax)

    def llcd_points(self) -> tuple[np.ndarray, np.ndarray]:
        """Figure 10: (log10 x, log10 ccdf) over the positive support."""
        if not self.weight:
            return np.array([]), np.array([])
        xs: list[float] = []
        ys: list[float] = []
        cum = 0
        for idx in sorted(self.buckets):
            cum += self.buckets[idx]
            upper = max(min(digest_bucket_upper(idx), self.vmax), self.vmin)
            ccdf = (self.weight - cum) / self.weight
            if upper > 0 and ccdf > 0:
                xs.append(np.log10(upper))
                ys.append(np.log10(ccdf))
        return np.asarray(xs), np.asarray(ys)

    def to_dict(self) -> dict:
        return {"b": {str(k): self.buckets[k]
                      for k in sorted(self.buckets)},
                "n": self.n, "w": self.weight,
                "min": self.vmin, "max": self.vmax}

    @classmethod
    def from_dict(cls, doc: dict) -> "Digest":
        """Decode :meth:`to_dict`; ``ValueError`` unless the bucket weights
        are non-negative integers summing to ``w``."""
        d = cls()
        d.buckets = {int(k): v for k, v in doc["b"].items()}
        d.n = doc["n"]
        d.weight = doc["w"]
        d.vmin = doc["min"]
        d.vmax = doc["max"]
        weights = list(d.buckets.values())
        if (not all(isinstance(w, int) and w >= 0 for w in weights)
                or sum(weights) != d.weight):
            raise ValueError(
                f"malformed digest: its {len(weights)} bucket weights are "
                f"not non-negative integers summing to w={d.weight!r}")
        return d


# --------------------------------------------------------------------- #
# The sketch.

def _empty_usage_cells() -> dict:
    return {u: {"n": 0, "bytes": 0,
                "patterns": {p: {"n": 0, "bytes": 0} for p in _PATTERNS}}
            for u in _USAGES}


class StatsSketch:
    """Mergeable streaming aggregates for one shard of a fleet study.

    Fleet-level state: record/kind counts, time bounds, the figure 13/14
    latency histograms and request-size digests, run-length / file-size /
    open-time / lifetime / interarrival / session digests, the figure 8
    burst bins and the figure 7 keep-K death sample.  Per-machine state:
    one row of plain integers keyed by machine index (disjoint across
    shards), carrying exactly the counts the category and pattern tables
    need.
    """

    def __init__(self, burst_bin_ticks: int = TICKS_PER_SECOND) -> None:
        if burst_bin_ticks <= 0:
            raise ValueError("burst_bin_ticks must be positive")
        self.burst_bin_ticks = burst_bin_ticks
        # Record-level.
        self.n_records = 0
        self.t_min = -1
        self.t_max = -1
        self.kind_counts: dict[int, int] = {}
        self.record_bytes_read = 0
        self.record_bytes_written = 0
        self.latency = {rt: LatencyHistogram(f"sketch.{rt}")
                        for rt in REQUEST_TYPES}
        self.req_size = {rt: Digest() for rt in REQUEST_TYPES}
        self.bursts: dict[int, int] = {}
        # Instance-level.
        self.runs_files = {"read": Digest(), "write": Digest()}
        self.runs_bytes = {"read": Digest(), "write": Digest()}
        self.size_opens = {u: Digest() for u in _USAGES}
        self.size_bytes = {u: Digest() for u in _USAGES}
        self.open_time = {"all": Digest(), "local": Digest(),
                          "network": Digest()}
        self.lifetime = {m: Digest() for m in _METHODS}
        self.close_gap = {"overwrite": Digest(), "explicit": Digest()}
        self.death_size = Digest()
        self.death_lifetime = Digest()
        self.death_sample: list[tuple[int, int]] = []
        self.interarrival = {"all": Digest(), "data": Digest(),
                             "control": Digest()}
        self.session = {"all": Digest(), "data": Digest(),
                        "control": Digest()}
        self.category_sizes: dict[str, Digest] = {}
        # Per-machine rows, keyed by machine index.
        self.machines: dict[int, dict] = {}

    # -- folding ------------------------------------------------------- #

    def _fold_columns(self, kind: np.ndarray, t_start: np.ndarray,
                      t_end: np.ndarray, length: np.ndarray,
                      returned: np.ndarray) -> None:
        """Fold trace records' record-level aggregates, given as int64
        columns.

        Every aggregate is an order-independent integer sum, min or max,
        so whole-column updates give the integers a record-by-record pass
        gives.
        """
        if not len(kind):
            return
        self.n_records += len(kind)
        kinds, counts = np.unique(kind, return_counts=True)
        kinds = kinds.tolist()
        for k, n in zip(kinds, counts.tolist()):
            self.kind_counts[k] = self.kind_counts.get(k, 0) + n
        t_min = int(t_start.min())
        if self.t_min < 0 or t_min < self.t_min:
            self.t_min = t_min
        self.t_max = max(self.t_max, int(t_end.max()))
        for k in kinds:
            rtype = _KIND_TO_RTYPE.get(k)
            if rtype is None:
                continue
            mask = kind == k
            self.latency[rtype].observe_array(t_end[mask] - t_start[mask])
            self.req_size[rtype].add_array(length[mask])
            nbytes = int(returned[mask].sum())
            if k in _READ_KINDS:
                self.record_bytes_read += nbytes
            else:
                self.record_bytes_written += nbytes
        bins, counts = np.unique(
            t_start[kind == _KIND_CREATE] // self.burst_bin_ticks,
            return_counts=True)
        for b, n in zip(bins.tolist(), counts.tolist()):
            self.bursts[b] = self.bursts.get(b, 0) + n

    def _fold_instances(self, machine_idx: int, name: str, category: str,
                        n_records: int,
                        instances: list["Instance"]) -> None:
        """Fold one machine's finished instance list into the sketch.

        ``instances`` must be in (open_t, fo_id) order — the per-machine
        order the warehouse's instance table uses — so both paths walk
        identical sequences.
        """
        from repro.analysis.lifetimes import death_events

        if machine_idx in self.machines:
            raise ValueError(
                f"machine index {machine_idx} folded twice "
                f"(shards must be disjoint)")
        row = {
            "name": name, "category": category,
            "n_records": n_records, "n_instances": 0,
            "n_failed_opens": 0, "n_data": 0, "n_created": 0,
            "bytes": 0, "bytes_read": 0, "bytes_written": 0,
            "paging_view_bytes": 0,
            "usage": _empty_usage_cells(),
        }
        self.machines[machine_idx] = row
        cat_sizes = self.category_sizes.get(category)
        if cat_sizes is None:
            cat_sizes = self.category_sizes[category] = Digest()

        all_times: list[int] = []
        data_times: list[int] = []
        control_times: list[int] = []
        for inst in instances:
            row["n_instances"] += 1
            all_times.append(inst.open_t)
            if inst.open_failed:
                row["n_failed_opens"] += 1
                continue
            duration = inst.session_duration
            self.session["all"].add(duration)
            if inst.has_data:
                data_times.append(inst.open_t)
                self.session["data"].add(duration)
                self.open_time["all"].add(duration)
                if inst.is_remote:
                    self.open_time["network"].add(duration)
                else:
                    self.open_time["local"].add(duration)
                # has_data implies usage != 'none': a data instance.
                usage_cell = row["usage"][inst.usage]
                transferred = inst.bytes_transferred
                usage_cell["n"] += 1
                usage_cell["bytes"] += transferred
                pat = usage_cell["patterns"][inst.access_pattern()]
                pat["n"] += 1
                pat["bytes"] += transferred
                row["n_data"] += 1
                row["bytes"] += transferred
                row["bytes_read"] += inst.bytes_read
                row["bytes_written"] += inst.bytes_written
                if inst.image_access:
                    row["paging_view_bytes"] += inst.bytes_read
                size = max(inst.file_size_max, 0)
                self.size_opens[inst.usage].add(size)
                self.size_bytes[inst.usage].add(size, transferred)
                cat_sizes.add(size)
                for run in inst.sequential_runs(reads=True):
                    self.runs_files["read"].add(run)
                    self.runs_bytes["read"].add(run, run)
                for run in inst.sequential_runs(reads=False):
                    self.runs_files["write"].add(run)
                    self.runs_bytes["write"].add(run, run)
            else:
                control_times.append(inst.open_t)
                self.session["control"].add(duration)

        for times, purpose in ((all_times, "all"), (data_times, "data"),
                               (control_times, "control")):
            if len(times) < 2:
                continue
            times.sort()
            digest = self.interarrival[purpose]
            prev = times[0]
            for t in times[1:]:
                digest.add(t - prev)
                prev = t

        n_created, deaths = death_events(instances)
        row["n_created"] = n_created
        sample: list[tuple[int, int]] = []
        for d in deaths:
            self.lifetime[d.method].add(d.lifetime)
            if d.method in self.close_gap:
                self.close_gap[d.method].add(d.close_gap)
            self.death_size.add(d.size)
            self.death_lifetime.add(d.lifetime)
            sample.append((d.lifetime, d.size))
        sample.sort()
        self.death_sample = sorted(
            self.death_sample + sample[:DEATH_SAMPLE_CAP]
        )[:DEATH_SAMPLE_CAP]

    # -- merging ------------------------------------------------------- #

    def merge(self, other: "StatsSketch") -> None:
        """Commutative merge of a disjoint shard into this sketch."""
        if other.burst_bin_ticks != self.burst_bin_ticks:
            raise ValueError(
                f"burst bin mismatch: {self.burst_bin_ticks} vs "
                f"{other.burst_bin_ticks}")
        overlap = self.machines.keys() & other.machines.keys()
        if overlap:
            raise ValueError(
                f"shards overlap on machine indices {sorted(overlap)}")
        # Merge the histograms into fresh ones first: a bucket-layout
        # mismatch then refuses the whole merge before anything changes.
        latency = {rt: LatencyHistogram(self.latency[rt].name)
                   for rt in REQUEST_TYPES}
        for rt in REQUEST_TYPES:
            latency[rt].merge(self.latency[rt])
            latency[rt].merge(other.latency[rt])
        self.latency = latency
        self.n_records += other.n_records
        if other.t_min >= 0 and (self.t_min < 0 or other.t_min < self.t_min):
            self.t_min = other.t_min
        if other.t_max > self.t_max:
            self.t_max = other.t_max
        for kind, n in other.kind_counts.items():
            self.kind_counts[kind] = self.kind_counts.get(kind, 0) + n
        self.record_bytes_read += other.record_bytes_read
        self.record_bytes_written += other.record_bytes_written
        for rt in REQUEST_TYPES:
            self.req_size[rt].merge(other.req_size[rt])
        for b, n in other.bursts.items():
            self.bursts[b] = self.bursts.get(b, 0) + n
        for direction in ("read", "write"):
            self.runs_files[direction].merge(other.runs_files[direction])
            self.runs_bytes[direction].merge(other.runs_bytes[direction])
        for u in _USAGES:
            self.size_opens[u].merge(other.size_opens[u])
            self.size_bytes[u].merge(other.size_bytes[u])
        for k in self.open_time:
            self.open_time[k].merge(other.open_time[k])
        for m in _METHODS:
            self.lifetime[m].merge(other.lifetime[m])
        for m in self.close_gap:
            self.close_gap[m].merge(other.close_gap[m])
        self.death_size.merge(other.death_size)
        self.death_lifetime.merge(other.death_lifetime)
        self.death_sample = sorted(
            self.death_sample + other.death_sample)[:DEATH_SAMPLE_CAP]
        for k in self.interarrival:
            self.interarrival[k].merge(other.interarrival[k])
        for k in self.session:
            self.session[k].merge(other.session[k])
        for category, digest in other.category_sizes.items():
            mine = self.category_sizes.get(category)
            if mine is None:
                self.category_sizes[category] = mine = Digest()
            mine.merge(digest)
        self.machines.update(other.machines)

    # -- serialization ------------------------------------------------- #

    def to_dict(self) -> dict:
        return {
            "format": SKETCH_FORMAT,
            "burst_bin_ticks": self.burst_bin_ticks,
            "records": {
                "n": self.n_records,
                "t_min": self.t_min, "t_max": self.t_max,
                "kinds": {str(k): self.kind_counts[k]
                          for k in sorted(self.kind_counts)},
                "bytes_read": self.record_bytes_read,
                "bytes_written": self.record_bytes_written,
                "latency": {rt: self.latency[rt].to_dict()
                            for rt in REQUEST_TYPES},
                "req_size": {rt: self.req_size[rt].to_dict()
                             for rt in REQUEST_TYPES},
                "bursts": {str(b): self.bursts[b]
                           for b in sorted(self.bursts)},
            },
            "instances": {
                "runs_files": {d: self.runs_files[d].to_dict()
                               for d in ("read", "write")},
                "runs_bytes": {d: self.runs_bytes[d].to_dict()
                               for d in ("read", "write")},
                "size_opens": {u: self.size_opens[u].to_dict()
                               for u in _USAGES},
                "size_bytes": {u: self.size_bytes[u].to_dict()
                               for u in _USAGES},
                "open_time": {k: v.to_dict()
                              for k, v in self.open_time.items()},
                "lifetime": {m: self.lifetime[m].to_dict()
                             for m in _METHODS},
                "close_gap": {m: self.close_gap[m].to_dict()
                              for m in sorted(self.close_gap)},
                "death_size": self.death_size.to_dict(),
                "death_lifetime": self.death_lifetime.to_dict(),
                "death_sample": [list(p) for p in self.death_sample],
                "interarrival": {k: v.to_dict()
                                 for k, v in self.interarrival.items()},
                "session": {k: v.to_dict()
                            for k, v in self.session.items()},
            },
            "category_sizes": {c: self.category_sizes[c].to_dict()
                               for c in sorted(self.category_sizes)},
            "machines": {str(idx): self.machines[idx]
                         for idx in sorted(self.machines)},
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "StatsSketch":
        if doc.get("format") != SKETCH_FORMAT:
            raise ValueError(
                f"not a {SKETCH_FORMAT} document "
                f"(format={doc.get('format')!r})")
        sketch = cls(burst_bin_ticks=doc["burst_bin_ticks"])
        rec = doc["records"]
        sketch.n_records = rec["n"]
        sketch.t_min = rec["t_min"]
        sketch.t_max = rec["t_max"]
        sketch.kind_counts = {int(k): v for k, v in rec["kinds"].items()}
        sketch.record_bytes_read = rec["bytes_read"]
        sketch.record_bytes_written = rec["bytes_written"]
        sketch.latency = {rt: LatencyHistogram.from_dict(
                              f"sketch.{rt}", rec["latency"][rt])
                          for rt in REQUEST_TYPES}
        sketch.req_size = {rt: Digest.from_dict(rec["req_size"][rt])
                           for rt in REQUEST_TYPES}
        sketch.bursts = {int(b): n for b, n in rec["bursts"].items()}
        inst = doc["instances"]
        sketch.runs_files = {d: Digest.from_dict(inst["runs_files"][d])
                             for d in ("read", "write")}
        sketch.runs_bytes = {d: Digest.from_dict(inst["runs_bytes"][d])
                             for d in ("read", "write")}
        sketch.size_opens = {u: Digest.from_dict(inst["size_opens"][u])
                             for u in _USAGES}
        sketch.size_bytes = {u: Digest.from_dict(inst["size_bytes"][u])
                             for u in _USAGES}
        sketch.open_time = {k: Digest.from_dict(v)
                            for k, v in inst["open_time"].items()}
        sketch.lifetime = {m: Digest.from_dict(inst["lifetime"][m])
                           for m in _METHODS}
        sketch.close_gap = {m: Digest.from_dict(v)
                            for m, v in inst["close_gap"].items()}
        sketch.death_size = Digest.from_dict(inst["death_size"])
        sketch.death_lifetime = Digest.from_dict(inst["death_lifetime"])
        sketch.death_sample = [tuple(p) for p in inst["death_sample"]]
        sketch.interarrival = {k: Digest.from_dict(v)
                               for k, v in inst["interarrival"].items()}
        sketch.session = {k: Digest.from_dict(v)
                          for k, v in inst["session"].items()}
        sketch.category_sizes = {c: Digest.from_dict(v)
                                 for c, v in doc["category_sizes"].items()}
        sketch.machines = {int(idx): row
                           for idx, row in doc["machines"].items()}
        return sketch

    def canonical_bytes(self) -> bytes:
        """Canonical serialization: the byte-identity surface."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":")).encode("utf-8")

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical_bytes()).hexdigest()

    # -- convenience --------------------------------------------------- #

    @property
    def n_machines(self) -> int:
        return len(self.machines)

    @property
    def n_instances(self) -> int:
        return sum(row["n_instances"] for row in self.machines.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<StatsSketch {self.n_records} records, "
                f"{self.n_machines} machines>")


# --------------------------------------------------------------------- #
# Producers: one array fold per machine.

def _file_object_events(rows: np.ndarray):
    """Yield ``(fo_id, events)`` per file object of an (n, 15) record
    array, in fo_id order, ``events`` being :func:`build_instance` lists.

    One stable sort on (fo_id, t_start) groups the rows, so start-time
    ties keep collector append order as in the warehouse's lexsort.
    """
    if not len(rows):
        return
    order = np.lexsort((rows[:, _T_START], rows[:, _FO_ID]))
    fo_ids = rows[order, _FO_ID]
    bounds = [0, *(np.flatnonzero(fo_ids[1:] != fo_ids[:-1]) + 1).tolist(),
              len(rows)]
    n_groups = len(bounds) - 1
    first = 0
    while first < n_groups:
        base = bounds[first]
        last = max(bisect_right(bounds, base + _EVENT_BATCH) - 1, first + 1)
        events = rows[np.ix_(order[base:bounds[last]],
                             _EVENT_COLUMNS)].tolist()
        for fo_id, lo, hi in zip(fo_ids[bounds[first:last]].tolist(),
                                 bounds[first:last],
                                 bounds[first + 1:last + 1]):
            yield fo_id, events[lo - base:hi - base]
        first = last


def _fold_machine(sketch: StatsSketch, machine_idx: int, name: str,
                  category: str, rows: np.ndarray,
                  name_records: list["NameRecord"],
                  process_names: dict[int, str],
                  process_interactive: dict[int, bool]) -> None:
    """Fold one machine's trace, given as an (n, 15) int64 record array;
    each file object's events go to the shared
    :func:`~repro.analysis.sessions.build_instance`."""
    # Last name record per file object wins, as in the warehouse.
    file_info = {nr.fo_id: (nr.path, extension_of(nr.path),
                            nr.volume_label, nr.volume_is_remote)
                 for nr in name_records}

    def process_lookup(pid: int):
        pname = process_names.get(pid)
        if pname is None:
            return None
        return (pname, process_interactive.get(pid, False))

    instances: list["Instance"] = []
    for fo_id, events in _file_object_events(rows):
        inst = build_instance(machine_idx, fo_id, events,
                              file_info.get(fo_id), process_lookup)
        if inst is not None:
            instances.append(inst)
    instances.sort(key=lambda s: (s.open_t, s.fo_id))
    sketch._fold_instances(machine_idx, name, category, len(rows),
                           instances)
    sketch._fold_columns(rows[:, _KIND], rows[:, _T_START], rows[:, _T_END],
                         rows[:, _LENGTH], rows[:, _RETURNED])


def fold_collector(sketch: StatsSketch, machine_idx: int, category: str,
                   collector: "TraceCollector") -> None:
    """Fold one in-memory collector into the sketch (streaming campaign
    path: the collector is discarded right after).  Its staged record
    blocks are read in place, never materialised."""
    _fold_machine(sketch, machine_idx, collector.machine_name, category,
                  record_rows(collector), collector.name_records,
                  collector.process_names, collector.process_interactive)


def fold_store_file(sketch: StatsSketch, machine_idx: int, category: str,
                    path: Union[str, "Path"]) -> None:
    """Fold one archived ``.nttrace`` file, never materialising it."""
    stream = StoreStream(path)
    rows = block_rows(stream.record_block())
    names, process_names, process_interactive = stream.tail_sections()
    _fold_machine(sketch, machine_idx, stream.machine_name, category, rows,
                  names, process_names, process_interactive)


def sketch_from_study(result: "StudyResult",
                      burst_bin_ticks: int = TICKS_PER_SECOND
                      ) -> StatsSketch:
    """Fold a finished in-memory study, machine by machine."""
    sketch = StatsSketch(burst_bin_ticks=burst_bin_ticks)
    categories = result.machine_categories
    for midx, collector in enumerate(result.collectors):
        fold_collector(sketch, midx,
                       categories.get(collector.machine_name, "unknown"),
                       collector)
    return sketch


def sketch_from_archive(directory: Union[str, "Path"],
                        categories: Optional[dict[str, str]] = None,
                        burst_bin_ticks: int = TICKS_PER_SECOND
                        ) -> StatsSketch:
    """Fold an archived study directory, one store file at a time."""
    sketch = StatsSketch(burst_bin_ticks=burst_bin_ticks)
    categories = categories or {}
    for midx, path in enumerate(study_paths(directory)):
        category = categories.get(path.stem, "unknown")
        fold_store_file(sketch, midx, category, path)
    return sketch


def sketch_from_warehouse(wh: "TraceWarehouse",
                          burst_bin_ticks: int = TICKS_PER_SECOND
                          ) -> StatsSketch:
    """The materialized control path: the same sketch computed from the
    columnar warehouse, for exact reconciliation at seed scale."""
    sketch = StatsSketch(burst_bin_ticks=burst_bin_ticks)
    n_machines = len(wh.machine_names)
    categories = {idx: wh.machine_categories.get(name, "unknown")
                  for idx, name in enumerate(wh.machine_names)}
    # Record-level stats from the columns (rows are machine-major).
    per_machine_records = np.bincount(
        wh.machine_idx, minlength=n_machines) if wh.n_records \
        else np.zeros(n_machines, dtype=np.int64)
    sketch._fold_columns(wh.kind, wh.t_start, wh.t_end, wh.length,
                         wh.returned)
    # Instance-level stats: wh.instances is sorted by (machine, open_t),
    # so per-machine groups preserve the order the streaming fold uses.
    groups: dict[int, list] = {idx: [] for idx in range(n_machines)}
    for inst in wh.instances:
        groups[inst.machine_idx].append(inst)
    for idx, name in enumerate(wh.machine_names):
        sketch._fold_instances(idx, name, categories[idx],
                               int(per_machine_records[idx]), groups[idx])
    return sketch


# --------------------------------------------------------------------- #
# Reconciliation.

def _diff_docs(prefix: str, a, b, problems: list[str],
               limit: int = 25) -> None:
    if len(problems) >= limit:
        return
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a:
                problems.append(f"{prefix}{key}: only in warehouse sketch")
            elif key not in b:
                problems.append(f"{prefix}{key}: only in streaming sketch")
            else:
                _diff_docs(f"{prefix}{key}.", a[key], b[key], problems,
                           limit)
            if len(problems) >= limit:
                return
    elif a != b:
        problems.append(f"{prefix[:-1]}: streaming={a!r} warehouse={b!r}")


def reconcile_sketch(sketch: StatsSketch,
                     wh: "TraceWarehouse") -> list[str]:
    """Exact reconciliation: every count, byte sum, histogram bucket and
    digest bucket of the streaming sketch must equal the same sketch
    computed from the materialized warehouse.  Returns problem strings
    (empty = exact match)."""
    expected = sketch_from_warehouse(
        wh, burst_bin_ticks=sketch.burst_bin_ticks)
    problems: list[str] = []
    _diff_docs("", sketch.to_dict(), expected.to_dict(), problems)
    return problems


# --------------------------------------------------------------------- #
# Streaming tables and figure series.

class StreamingCategoryProfile:
    """Duck-typed :class:`~repro.analysis.categories.CategoryProfile`
    built from sketch rows; file-size quantiles come from the mergeable
    digest instead of a materialized sample list."""

    def __init__(self, category: str, span_ticks: int) -> None:
        self.category = category
        self.n_machines = 0
        self.n_opens = 0
        self.n_data_opens = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.paging_view_bytes = 0
        self.span_ticks = span_ticks
        self.size_digest = Digest()

    @property
    def bytes_total(self) -> int:
        return self.bytes_read + self.bytes_written

    @property
    def throughput_kbs(self) -> float:
        if self.span_ticks <= 0 or self.n_machines == 0:
            return float("nan")
        seconds = self.span_ticks / TICKS_PER_SECOND
        return self.bytes_total / 1024.0 / seconds / self.n_machines

    @property
    def median_file_size(self) -> float:
        return self.size_digest.quantile(0.5)

    @property
    def p90_file_size(self) -> float:
        return self.size_digest.quantile(0.9)


def streaming_category_profiles(sketch: StatsSketch,
                                duration_ticks: Optional[int] = None
                                ) -> dict[str, StreamingCategoryProfile]:
    """The §6.1 category table off the streaming path."""
    if duration_ticks is None:
        duration_ticks = max(sketch.t_max, 0)
    profiles: dict[str, StreamingCategoryProfile] = {}
    for idx in sorted(sketch.machines):
        row = sketch.machines[idx]
        if row["n_instances"] == 0:
            continue
        profile = profiles.get(row["category"])
        if profile is None:
            profile = profiles[row["category"]] = StreamingCategoryProfile(
                row["category"], duration_ticks)
        profile.n_machines += 1
        profile.n_opens += row["n_instances"]
        profile.n_data_opens += row["n_data"]
        profile.bytes_read += row["bytes_read"]
        profile.bytes_written += row["bytes_written"]
        profile.paging_view_bytes += row["paging_view_bytes"]
    for category, profile in profiles.items():
        digest = sketch.category_sizes.get(category)
        if digest is not None:
            profile.size_digest = digest
    return profiles


def streaming_pattern_table(sketch: StatsSketch):
    """Table 3 off the streaming path.

    Float arithmetic deliberately mirrors
    :func:`~repro.analysis.patterns.access_pattern_table` — same integer
    inputs, same operations, same order — so at seed scale the two
    tables are *equal*, not merely close.
    """
    from repro.analysis.patterns import (AccessPatternTable, PatternCell,
                                         PATTERNS, USAGES)

    samples: dict[tuple[str, str], tuple[list[float], list[float]]] = {
        (u, p): ([], []) for u in USAGES for p in PATTERNS + ("usage",)}
    n_instances = 0
    for idx in sorted(sketch.machines):
        row = sketch.machines[idx]
        total_n = row["n_data"]
        total_b = row["bytes"]
        n_instances += total_n
        if total_n == 0:
            continue
        for usage in USAGES:
            cell = row["usage"][usage]
            usage_n = cell["n"]
            usage_b = cell["bytes"]
            acc, byt = samples[(usage, "usage")]
            acc.append(100.0 * usage_n / total_n)
            byt.append(100.0 * usage_b / total_b if total_b else 0.0)
            for pattern in PATTERNS:
                pat = cell["patterns"][pattern]
                acc, byt = samples[(usage, pattern)]
                acc.append(100.0 * pat["n"] / usage_n if usage_n else 0.0)
                byt.append(100.0 * pat["bytes"] / usage_b
                           if usage_b else 0.0)
    cells = {}
    for key, (acc, byt) in samples.items():
        a = np.asarray(acc) if acc else np.array([0.0])
        b = np.asarray(byt) if byt else np.array([0.0])
        cells[key] = PatternCell(
            accesses_mean=float(a.mean()), accesses_min=float(a.min()),
            accesses_max=float(a.max()),
            bytes_mean=float(b.mean()), bytes_min=float(b.min()),
            bytes_max=float(b.max()))
    return AccessPatternTable(cells=cells, n_instances=n_instances)


def _latency_band_cdf(hist: LatencyHistogram
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Figure 13 bands from the exact log₂ histogram buckets."""
    if not hist.count:
        return np.array([]), np.array([])
    max_micros = hist.max_ticks / TICKS_PER_MICROSECOND
    xs: list[float] = []
    ps: list[float] = []
    cum = 0
    for idx, n in enumerate(hist.bucket_counts):
        if n == 0:
            continue
        cum += n
        upper = (float(BUCKET_EDGES_MICROS[idx]) if idx < N_BUCKETS
                 else max_micros)
        xs.append(min(upper, max_micros))
        ps.append(cum / hist.count)
    return np.asarray(xs), np.asarray(ps)


def _burstiness_series(sketch: StatsSketch,
                       rng: np.random.Generator) -> Optional[dict]:
    """Figure 8 off the sparse burst bins: trace index of dispersion at
    1×/10×/100× the base bin width vs a rate-matched Poisson synthesis."""
    from repro.stats.poisson import (aggregate_counts, index_of_dispersion,
                                     synthesize_poisson_arrivals)

    n_creates = sum(sketch.bursts.values())
    if n_creates < 100 or not sketch.bursts:
        return None
    base_seconds = sketch.burst_bin_ticks / TICKS_PER_SECOND
    n_base = max(sketch.bursts) + 1
    duration = n_base * base_seconds
    factors = tuple(f for f in (1, 10, 100)
                    if n_base / f >= 8)
    if not factors:
        return None
    synth = synthesize_poisson_arrivals(n_creates / duration, duration,
                                        rng)
    intervals: list[float] = []
    trace_iods: list[float] = []
    poisson_iods: list[float] = []
    for factor in factors:
        counts = [0] * ((n_base + factor - 1) // factor)
        for b, n in sketch.bursts.items():
            counts[b // factor] += n
        interval = factor * base_seconds
        intervals.append(interval)
        trace_iods.append(index_of_dispersion(counts))
        poisson_iods.append(index_of_dispersion(
            aggregate_counts(synth, interval, duration)))
    return {
        "trace_iod": (np.asarray(intervals), np.asarray(trace_iods)),
        "poisson_iod": (np.asarray(intervals), np.asarray(poisson_iods)),
    }


def streaming_figure_series(sketch: StatsSketch,
                            rng: Optional[np.random.Generator] = None
                            ) -> dict[str, dict[str, tuple]]:
    """Every paper figure as plain (x, y) series, off the sketch alone.

    Same figure keys and axis units as
    :func:`~repro.analysis.figures.figure_series`; CDF x positions come
    from digest bucket edges (≤ 1/8 relative error) while counts,
    weights and the figure 13 histogram buckets are exact.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    figures: dict[str, dict[str, tuple]] = {}

    figures["fig01_run_length_by_files"] = {
        "read_runs": sketch.runs_files["read"].cdf_points(),
        "write_runs": sketch.runs_files["write"].cdf_points(),
    }
    figures["fig02_run_length_by_bytes"] = {
        "read_runs": sketch.runs_bytes["read"].cdf_points(),
        "write_runs": sketch.runs_bytes["write"].cdf_points(),
    }
    figures["fig03_file_size_by_opens"] = {
        u: sketch.size_opens[u].cdf_points() for u in _USAGES
        if sketch.size_opens[u].n}
    figures["fig04_file_size_by_bytes"] = {
        u: sketch.size_bytes[u].cdf_points() for u in _USAGES
        if sketch.size_opens[u].n}

    fig5 = {"all": sketch.open_time["all"].cdf_points(
        scale=TICKS_PER_MILLISECOND)}
    if sketch.open_time["local"].n:
        fig5["local"] = sketch.open_time["local"].cdf_points(
            scale=TICKS_PER_MILLISECOND)
    if sketch.open_time["network"].n:
        fig5["network"] = sketch.open_time["network"].cdf_points(
            scale=TICKS_PER_MILLISECOND)
    figures["fig05_open_times"] = fig5

    figures["fig06_new_file_lifetimes"] = {
        m: sketch.lifetime[m].cdf_points(scale=TICKS_PER_SECOND)
        for m in _METHODS if sketch.lifetime[m].n}
    sample = sketch.death_sample
    figures["fig07_size_vs_lifetime"] = {
        "scatter": (np.asarray([s for _lt, s in sample], dtype=float),
                    np.asarray([lt for lt, _s in sample], dtype=float)
                    / TICKS_PER_SECOND)}

    figures["fig11_open_interarrival"] = {
        purpose: sketch.interarrival[purpose].cdf_points(
            scale=TICKS_PER_MILLISECOND)
        for purpose in ("all", "data", "control")}
    figures["fig12_session_lifetime"] = {
        population: sketch.session[population].cdf_points(
            scale=TICKS_PER_MILLISECOND)
        for population in ("all", "data", "control")}
    figures["fig10_llcd"] = {
        "open_interarrival": sketch.interarrival["all"].llcd_points()}
    bursts = _burstiness_series(sketch, rng)
    if bursts is not None:
        figures["fig08_burstiness"] = bursts

    figures["fig13_latency"] = {
        rt: _latency_band_cdf(sketch.latency[rt]) for rt in REQUEST_TYPES
        if sketch.latency[rt].count}
    figures["fig14_request_size"] = {
        rt: sketch.req_size[rt].cdf_points() for rt in REQUEST_TYPES
        if sketch.req_size[rt].n}
    return figures


def format_streaming_report(sketch: StatsSketch,
                            duration_ticks: Optional[int] = None) -> str:
    """The campaign report: summary, category table, table 3, latency
    bands — everything off the sketch."""
    from repro.analysis.categories import format_category_table

    lines = [
        f"Streaming study sketch: {sketch.n_machines} machines, "
        f"{sketch.n_records:,} records, {sketch.n_instances:,} instances",
        f"  span: {max(sketch.t_max, 0) / TICKS_PER_SECOND:.1f} s   "
        f"bytes read {sketch.record_bytes_read:,}   "
        f"written {sketch.record_bytes_written:,}",
    ]
    deaths = sum(sketch.lifetime[m].n for m in _METHODS)
    created = sum(row["n_created"] for row in sketch.machines.values())
    if created:
        lines.append(f"  new files: {created:,} created, "
                     f"{deaths:,} died in trace")
    profiles = streaming_category_profiles(sketch, duration_ticks)
    if profiles:
        lines.append("")
        lines.append("Per-category (streaming):")
        lines.append(format_category_table(profiles))
    lines.append("")
    lines.append("Access patterns (table 3, streaming):")
    lines.append(streaming_pattern_table(sketch).format())
    lines.append("")
    lines.append("Latency bands (figure 13, exact log2 buckets):")
    lines.append("%-14s %10s %12s %12s %12s" % (
        "request type", "n", "p50 us", "p90 us", "max us"))
    for rt in REQUEST_TYPES:
        hist = sketch.latency[rt]
        if not hist.count:
            continue
        lines.append(
            f"{rt:<14} {hist.count:10,d} "
            f"{hist.quantile_micros(0.5):12.1f} "
            f"{hist.quantile_micros(0.9):12.1f} "
            f"{hist.max_ticks / TICKS_PER_MICROSECOND:12.1f}")
    return "\n".join(lines)
