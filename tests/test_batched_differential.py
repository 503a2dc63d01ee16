"""Golden digests of a traced study's every artifact.

The trace filter stages each record as a columnar row and the collector
keeps rows staged until analysis asks for dataclasses
(:mod:`repro.nt.tracing.fastbuf`).  The simulator once also had a
per-event dataclass record path, and this module held the two
byte-identical; the digests both produced for these seeds are pinned
below.  Each digest hashes uncompressed bytes only — the packed
``.nttrace`` payloads, the ``perf.json`` document, each machine's flight
recorder frame stream, and the packed span log — so the values do not
depend on the zlib build.

The ``perf_json``, ``metrics`` and ``state`` digests were re-recorded when
the machine's second counter table was folded into the perf registry:
``perf.json`` gained the moved counters, the metrics log gained their
series, and ``state`` lost the table.  ``records``, ``archives`` and
``spans`` did not change.

Two comparisons keep running on the one path: ``--workers 2`` against
serial, and the runtime verifier against a plain run.  The verifier turns
off IRP reuse on a declined FastIO call, so the plain run is the only one
that exercises reuse.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro import StudyConfig, run_study
from repro.nt.perf import perf_json_bytes
from repro.nt.tracing.spans import SPAN_STRUCT, SpanRecord
from repro.nt.tracing.store import pack_collector

SEEDS = (3, 11, 23)

GOLDEN = {
    3: {
        "records": 5880,
        "archives": "d4546d3ea4fcdbedb873dc7052012f4b"
                    "63407cb7da61779d6c00b08b120f32fb",
        "perf_json": "3cef33dd6c7fb56b6efa6780aa7c0e9f"
                     "4a2bcea878d83cfedfadb876fd54fd81",
        "metrics": "1b8913d34eaa86cfe3129c4710a0d3ce"
                   "4cdf0e453ba52643ae3be4471b88d9a5",
        "spans": "a772164b06424fb94a035c52cd1ba137"
                 "1099c1048696163673be196cbd2d0aaf",
        "state": "53f0aa50c329c9a9b2f6a8e5fc2c79c4"
                 "7b57ba35b41bc6228aa3825638bc6fc8",
    },
    11: {
        "records": 10228,
        "archives": "8f3a7a7a9b35a9dd5c979e97a0d22b2b"
                    "9b9adfccbcccdae420718e4841625838",
        "perf_json": "37bd8b34dcf8f527ca4d083d6980f35d"
                     "20b5976bc293c2db7ec8e9fa4b7d15c9",
        "metrics": "241d57799525d506fb6362a2e5495e9c"
                   "2884afb100b966e712eaa81e296f7bdc",
        "spans": "e6bcf3c0ea43835bcb3b9050607e84b7"
                 "5aa1fde810dd16506096dae9a21c217d",
        "state": "53f0aa50c329c9a9b2f6a8e5fc2c79c4"
                 "7b57ba35b41bc6228aa3825638bc6fc8",
    },
    23: {
        "records": 4686,
        "archives": "59bf7d09d40306a635059fcfdf7139121"
                    "c65c3d5325e69f6fd695b6cacca7668",
        "perf_json": "670353dae61a7e1257d216707ffb7d98"
                     "f15a0555ec7cd5a19a2395da3a3b35fe",
        "metrics": "4f6f6077747cd5be1ea61d09cbc70d36"
                   "92895a42804010fef60073e87ffbbd25",
        "spans": "f7ef446d7a1615e684314c80a60469f8"
                 "18404dd679637e381e06f61460fd63fc",
        "state": "53f0aa50c329c9a9b2f6a8e5fc2c79c4"
                 "7b57ba35b41bc6228aa3825638bc6fc8",
    },
}


def _config(seed: int, **overrides) -> StudyConfig:
    base = dict(n_machines=2, duration_seconds=15.0, seed=seed,
                spans_enabled=True, metrics_interval_seconds=5.0)
    base.update(overrides)
    return StudyConfig(**base)


def _sha256(chunks) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def _digests(result) -> dict:
    """The golden digest set of one study result."""
    return {
        "records": result.total_records,
        "archives": _sha256(pack_collector(c) for c in result.collectors),
        "perf_json": _sha256([perf_json_bytes(result.perf)]),
        "metrics": _sha256(section.frames for section in result.metrics),
        "spans": _sha256(
            SPAN_STRUCT.pack(*(getattr(s, f) for f in SpanRecord.__slots__))
            for c in result.collectors for s in c.span_records),
        "state": _sha256([json.dumps({
            "machine_categories": result.machine_categories,
            "duration_ticks": result.duration_ticks,
        }, sort_keys=True).encode("utf-8")]),
    }


@pytest.fixture(scope="module", params=SEEDS)
def study(request):
    """(seed, digests of the serial study at that seed)."""
    seed = request.param
    return seed, _digests(run_study(_config(seed)))


def test_study_state_identical(study):
    seed, digests = study
    assert digests["records"] == GOLDEN[seed]["records"]
    assert digests["state"] == GOLDEN[seed]["state"]


def test_archives_byte_identical(study):
    seed, digests = study
    assert digests["archives"] == GOLDEN[seed]["archives"]


def test_perf_json_byte_identical(study):
    seed, digests = study
    assert digests["perf_json"] == GOLDEN[seed]["perf_json"]


def test_metrics_log_byte_identical(study):
    seed, digests = study
    assert digests["metrics"] == GOLDEN[seed]["metrics"]


def test_span_logs_identical_and_nonempty(study):
    seed, digests = study
    assert digests["spans"] == GOLDEN[seed]["spans"]
    assert digests["spans"] != _sha256([]), \
        "spans were enabled but no span records were produced"


def test_parallel_matches_serial():
    """Worker processes reproduce the serial study's every digest."""
    cfg = _config(SEEDS[0], workers=2)
    assert _digests(run_study(cfg)) == GOLDEN[SEEDS[0]]


def test_verifier_mode_identical():
    """The runtime IRP verifier neither breaks nor perturbs the run.

    Under the verifier a declined FastIO call retries with a fresh IRP
    (every dispatch must see a fresh packet for protocol checking)
    instead of re-using the parameter block, which must not change the
    recorded stream either.
    """
    cfg = _config(SEEDS[0], verifier_enabled=True)
    assert _digests(run_study(cfg)) == GOLDEN[SEEDS[0]]
