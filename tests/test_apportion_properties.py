"""Property-based tests for largest-remainder category apportionment.

``_apportion`` decides how many machines of a study go to each §2 usage
category — and, since the parallel engine plans its fan-out from the same
counts, both engines depend on its invariants: counts always sum to the
fleet size, each count stays within one of its exact proportional share
(so every category whose share reaches a whole machine is represented),
and equal-weight ties resolve deterministically.
"""

from __future__ import annotations

import random

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.workload.study import (DEFAULT_CATEGORY_MIX, StudyConfig,
                                  _apportion, _assign_categories)

weights_st = st.lists(
    st.floats(min_value=1e-3, max_value=1e3,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=8)
total_st = st.integers(min_value=0, max_value=300)


def _exact_shares(weights, total):
    w = np.asarray(list(weights), dtype=float)
    w = w / w.sum()
    return w * total


class TestApportionProperties:
    @settings(max_examples=100, deadline=None)
    @given(weights=weights_st, total=total_st)
    def test_counts_sum_to_total(self, weights, total):
        counts = _apportion(weights, total)
        assert sum(counts) == total
        assert all(count >= 0 for count in counts)

    @settings(max_examples=100, deadline=None)
    @given(weights=weights_st, total=total_st)
    def test_each_count_within_one_of_exact_share(self, weights, total):
        counts = _apportion(weights, total)
        exact = _exact_shares(weights, total)
        for count, share in zip(counts, exact):
            assert np.floor(share) <= count <= np.floor(share) + 1

    @settings(max_examples=100, deadline=None)
    @given(weights=weights_st, total=total_st)
    def test_category_with_whole_share_is_represented(self, weights, total):
        """No category that earns at least one whole machine is dropped."""
        counts = _apportion(weights, total)
        exact = _exact_shares(weights, total)
        for count, share in zip(counts, exact):
            if share >= 1.0:
                assert count >= 1

    @settings(max_examples=50, deadline=None)
    @given(n_categories=st.integers(min_value=1, max_value=8),
           weight=st.floats(min_value=1e-3, max_value=1e3),
           extra=st.integers(min_value=0, max_value=50))
    def test_equal_weights_with_enough_machines_cover_everyone(
            self, n_categories, weight, extra):
        total = n_categories + extra
        counts = _apportion([weight] * n_categories, total)
        assert all(count >= 1 for count in counts)
        assert sum(counts) == total

    @settings(max_examples=100, deadline=None)
    @given(weights=weights_st, total=total_st)
    def test_deterministic(self, weights, total):
        assert _apportion(weights, total) == _apportion(weights, total)

    @settings(max_examples=100, deadline=None)
    @given(weights=weights_st, total=total_st,
           shuffle_seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_count_multiset_invariant_under_permutation(
            self, weights, total, shuffle_seed):
        """Permuting equal-weight ties never changes the count multiset.

        Which *named* category wins a tie may depend on position, but the
        sorted counts — how the fleet splits — must not depend on input
        order.
        """
        permuted = list(weights)
        random.Random(shuffle_seed).shuffle(permuted)
        assert sorted(_apportion(permuted, total)) == \
            sorted(_apportion(weights, total))


class TestAssignCategories:
    def test_grouped_in_mix_order(self):
        assigned = _assign_categories(StudyConfig(n_machines=20))
        names = [name for name, _w in DEFAULT_CATEGORY_MIX]
        order = [names.index(a) for a in assigned]
        assert order == sorted(order)
        assert len(assigned) == 20

    def test_small_fleet_keeps_ten_percent_categories(self):
        # Naive rounding would drop administrative/scientific at n=10.
        assigned = _assign_categories(StudyConfig(n_machines=10))
        assert "administrative" in assigned
        assert "scientific" in assigned
