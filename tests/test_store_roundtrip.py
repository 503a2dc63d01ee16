"""Round-trip tests for the packed trace format.

``pack_collector``/``unpack_collector`` is both the .nttrace archive
payload and the form a collector pickles to, which is how the machine
driver's worker processes send kept collectors to the parent — so
lossiness here would silently corrupt parallel runs, not just archives.  These tests assert exact record-level equality after
a round trip, for the shared study fixture and for a study with periodic
snapshots (the snapshot path carries the most structure).
"""

from __future__ import annotations

import dataclasses

from repro import StudyConfig, run_study
from repro.nt.tracing.store import (load_collector, load_study,
                                    pack_collector, save_collector,
                                    save_study, unpack_collector)

from tests.conftest import collector_state


def _assert_collectors_equal(original, restored) -> None:
    assert collector_state(restored) == collector_state(original), \
        f"round trip lost state for {original.machine_name}"


class TestPackRoundTrip:
    def test_pack_unpack_is_identity(self, small_study):
        for collector in small_study.collectors:
            restored = unpack_collector(pack_collector(collector))
            _assert_collectors_equal(collector, restored)

    def test_pack_is_deterministic(self, small_study):
        collector = small_study.collectors[0]
        assert pack_collector(collector) == pack_collector(collector)

    def test_pickle_is_the_packed_payload(self, small_study):
        import pickle
        collector = small_study.collectors[0]
        restored = pickle.loads(pickle.dumps(collector))
        _assert_collectors_equal(collector, restored)
        assert pack_collector(restored) == pack_collector(collector)

    def test_repack_after_unpack_is_stable(self, small_study):
        # unpack → pack must converge immediately: the unpacked form
        # holds plain ints where the original holds IntEnums, and both
        # must serialise to the same bytes.
        collector = small_study.collectors[0]
        packed = pack_collector(collector)
        assert pack_collector(unpack_collector(packed)) == packed


class TestFileRoundTrip:
    def test_save_load_collector(self, small_study, tmp_path):
        collector = small_study.collectors[0]
        path = tmp_path / "one.nttrace"
        n_bytes = save_collector(collector, path)
        assert n_bytes == path.stat().st_size
        _assert_collectors_equal(collector, load_collector(path))

    def test_save_load_study(self, small_study, tmp_path):
        save_study(small_study.collectors, tmp_path)
        restored = load_study(tmp_path)
        assert [c.machine_name for c in restored] == \
            [c.machine_name for c in small_study.collectors]
        for original, loaded in zip(small_study.collectors, restored):
            _assert_collectors_equal(original, loaded)


class TestPeriodicSnapshotRoundTrip:
    def test_mid_run_walks_survive(self, tmp_path):
        result = run_study(StudyConfig(
            n_machines=2, duration_seconds=8.0, seed=23, content_scale=0.05,
            with_network_shares=False, snapshot_interval_seconds=3.0))
        for collector in result.collectors:
            # Start + end + periodic walks: the structure under test.
            assert len(collector.snapshots) > 2
            restored = unpack_collector(pack_collector(collector))
            _assert_collectors_equal(collector, restored)

    def test_parallel_transport_equals_archive_path(self):
        """Collectors kept in worker processes come back byte-exact."""
        config = StudyConfig(n_machines=2, duration_seconds=6.0, seed=31,
                             content_scale=0.05, with_network_shares=False)
        serial = run_study(config)
        parallel = run_study(dataclasses.replace(config, workers=2))
        for cs, cp in zip(serial.collectors, parallel.collectors):
            assert pack_collector(cs) == pack_collector(cp)
