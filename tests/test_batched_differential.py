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
        "perf_json": "b3498f27eb99d16f510e552ce049d802"
                     "63e6dd53bd1fb979cbcdc2dcc6c1de26",
        "metrics": "811da123892b8c34c299255328fbd1a3"
                   "30342e08e8dc12663fb652f6bdff35cb",
        "spans": "a772164b06424fb94a035c52cd1ba137"
                 "1099c1048696163673be196cbd2d0aaf",
        "state": "b7b9cc5bde3d7aea197df74ba39046c8"
                 "9997614198023a7276ae3bbeba98ad9c",
    },
    11: {
        "records": 10228,
        "archives": "8f3a7a7a9b35a9dd5c979e97a0d22b2b"
                    "9b9adfccbcccdae420718e4841625838",
        "perf_json": "0abb6fac5797b75957d419ff7082dacef"
                     "67de1d45a1cdac92a86ec41b696bd8d",
        "metrics": "d71dbdb8321d556074357982b0b10216"
                   "0f0b825697a51653e6a2fb263cfdfeef",
        "spans": "e6bcf3c0ea43835bcb3b9050607e84b7"
                 "5aa1fde810dd16506096dae9a21c217d",
        "state": "75a216984774aaed21c4f110c99d89a7"
                 "d1287cff20ce6a5947fae18988a4e418",
    },
    23: {
        "records": 4686,
        "archives": "59bf7d09d40306a635059fcfdf7139121"
                    "c65c3d5325e69f6fd695b6cacca7668",
        "perf_json": "5c71e939de87d8be44ab233f012a981e"
                     "87c35828ad1c92f53d049210e5450f03",
        "metrics": "6df6bbb1e5451c58a5e87e8aa79449f4"
                   "e49d2ffb634ef66a3bccaec9b5f59010",
        "spans": "f7ef446d7a1615e684314c80a60469f8"
                 "18404dd679637e381e06f61460fd63fc",
        "state": "23c4b56468be67f8e86b24a7fd7f39cf"
                 "082a405b4aa6d49b7b7ad57fe660224f",
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
            "counters": result.counters,
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
