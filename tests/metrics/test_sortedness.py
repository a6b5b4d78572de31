"""Tests for the sortedness measures, including property tests vs oracles."""

import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.metrics.sortedness import (
    error_rate_multiset,
    inversions,
    is_sorted,
    longest_nondecreasing_subsequence_length,
    rem,
    rem_ratio,
    runs,
)

pytestmark = pytest.mark.slow

short_lists = st.lists(st.integers(min_value=0, max_value=50), max_size=40)
small_lists = st.lists(st.integers(min_value=0, max_value=9), max_size=9)


def brute_force_lnds(values) -> int:
    """Exponential oracle: longest non-decreasing subsequence length."""
    best = 0
    n = len(values)
    for mask in range(1 << n):
        subseq = [values[i] for i in range(n) if mask >> i & 1]
        if all(a <= b for a, b in zip(subseq, subseq[1:])):
            best = max(best, len(subseq))
    return best


def brute_force_inversions(values) -> int:
    return sum(
        1
        for i, j in itertools.combinations(range(len(values)), 2)
        if values[i] > values[j]
    )


class TestLNDS:
    def test_empty(self):
        assert longest_nondecreasing_subsequence_length([]) == 0

    def test_sorted(self):
        assert longest_nondecreasing_subsequence_length([1, 2, 3, 4]) == 4

    def test_reverse(self):
        assert longest_nondecreasing_subsequence_length([4, 3, 2, 1]) == 1

    def test_duplicates_count(self):
        assert longest_nondecreasing_subsequence_length([2, 2, 2]) == 3

    def test_classic_example(self):
        assert (
            longest_nondecreasing_subsequence_length([3, 1, 4, 1, 5, 9, 2, 6]) == 4
        )

    @settings(max_examples=60, deadline=None)
    @given(small_lists)
    def test_matches_brute_force(self, values):
        assert longest_nondecreasing_subsequence_length(
            values
        ) == brute_force_lnds(values)


class TestRem:
    def test_sorted_is_zero(self):
        assert rem([1, 2, 2, 3]) == 0

    def test_single_misplaced_element(self):
        assert rem([1, 2, 99, 3, 4]) == 1

    def test_empty(self):
        assert rem([]) == 0
        assert rem_ratio([]) == 0.0

    def test_reverse_sorted(self):
        assert rem([5, 4, 3, 2, 1]) == 4

    def test_ratio(self):
        assert rem_ratio([1, 2, 99, 3, 4]) == pytest.approx(0.2)

    @settings(max_examples=80, deadline=None)
    @given(short_lists)
    def test_zero_iff_sorted(self, values):
        assert (rem(values) == 0) == is_sorted(values)

    @settings(max_examples=80, deadline=None)
    @given(short_lists)
    def test_bounded(self, values):
        r = rem(values)
        assert 0 <= r <= max(0, len(values) - 1)

    @settings(max_examples=50, deadline=None)
    @given(short_lists)
    def test_removing_rem_elements_leaves_sorted(self, values):
        """Rem really is achievable: there exist Rem removals that sort X."""
        r = rem(values)
        k = len(values) - r
        assert longest_nondecreasing_subsequence_length(values) == k


class TestInversions:
    def test_sorted_is_zero(self):
        assert inversions([1, 2, 3]) == 0

    def test_reverse(self):
        assert inversions([3, 2, 1]) == 3

    def test_duplicates_are_not_inversions(self):
        assert inversions([2, 2, 2]) == 0

    def test_short_inputs(self):
        assert inversions([]) == 0
        assert inversions([7]) == 0

    @settings(max_examples=80, deadline=None)
    @given(short_lists)
    def test_matches_brute_force(self, values):
        assert inversions(values) == brute_force_inversions(values)

    @settings(max_examples=50, deadline=None)
    @given(short_lists)
    def test_rem_lower_bounds_via_inv(self, values):
        """Inv = 0 iff sorted iff Rem = 0."""
        assert (inversions(values) == 0) == (rem(values) == 0)


class TestRuns:
    def test_sorted_single_run(self):
        assert runs([1, 2, 3]) == 1

    def test_empty(self):
        assert runs([]) == 0

    def test_descending(self):
        assert runs([3, 2, 1]) == 3

    def test_plateaus_stay_in_run(self):
        assert runs([1, 1, 2, 2, 1]) == 2

    @settings(max_examples=60, deadline=None)
    @given(short_lists)
    def test_bounds(self, values):
        r = runs(values)
        if values:
            assert 1 <= r <= len(values)


class TestErrorRateMultiset:
    def test_identical(self):
        assert error_rate_multiset([1, 2, 3], [3, 2, 1]) == 0.0

    def test_all_different(self):
        assert error_rate_multiset([1, 2], [3, 4]) == 1.0

    def test_partial(self):
        assert error_rate_multiset([1, 2, 3, 4], [1, 2, 9, 9]) == pytest.approx(
            0.5
        )

    def test_duplicates_respected(self):
        # Original has one 5; final has two -> one of them is an error.
        assert error_rate_multiset([5, 1], [5, 5]) == pytest.approx(0.5)

    def test_empty(self):
        assert error_rate_multiset([], []) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            error_rate_multiset([1], [1, 2])

    @settings(max_examples=60, deadline=None)
    @given(short_lists)
    def test_permutation_has_zero_error(self, values):
        assert error_rate_multiset(values, list(reversed(values))) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_counting_loop(self, data):
        """The numpy multiset intersection gives the counting loop's float,
        on lists and on ``uint32`` arrays alike."""
        n = data.draw(st.integers(min_value=0, max_value=40))
        word = st.one_of(
            st.integers(min_value=0, max_value=6),
            st.integers(min_value=0, max_value=2**32 - 1),
        )
        original = data.draw(st.lists(word, min_size=n, max_size=n))
        final = data.draw(st.lists(word, min_size=n, max_size=n))
        remaining = Counter(original)
        matched = 0
        for value in final:
            if remaining[value] > 0:
                remaining[value] -= 1
                matched += 1
        want = 1.0 - matched / len(final) if final else 0.0
        assert error_rate_multiset(original, final) == want
        assert error_rate_multiset(
            np.array(original, dtype=np.uint32),
            np.array(final, dtype=np.uint32),
        ) == want


class TestDis:
    from repro.metrics.sortedness import dis

    def test_sorted_zero(self):
        from repro.metrics.sortedness import dis

        assert dis([1, 2, 3]) == 0

    def test_reverse_maximal(self):
        from repro.metrics.sortedness import dis

        assert dis([4, 3, 2, 1]) == 3

    def test_single_far_element(self):
        from repro.metrics.sortedness import dis

        # 99 belongs at the end: displacement 4.
        assert dis([99, 1, 2, 3, 4]) == 4

    def test_short_inputs(self):
        from repro.metrics.sortedness import dis

        assert dis([]) == 0
        assert dis([5]) == 0

    @settings(max_examples=50, deadline=None)
    @given(short_lists)
    def test_bounds_and_zero_iff_sorted_modulo_ties(self, values):
        from repro.metrics.sortedness import dis

        d = dis(values)
        assert 0 <= d <= max(0, len(values) - 1)
        if is_sorted(values):
            assert d == 0


class TestExc:
    def test_sorted_zero(self):
        from repro.metrics.sortedness import exc

        assert exc([1, 2, 3]) == 0

    def test_single_swap(self):
        from repro.metrics.sortedness import exc

        assert exc([2, 1, 3]) == 1

    def test_reverse(self):
        from repro.metrics.sortedness import exc

        assert exc([4, 3, 2, 1]) == 2
        assert exc([5, 4, 3, 2, 1]) == 2

    def test_rotation_is_one_cycle(self):
        from repro.metrics.sortedness import exc

        # [2,3,4,1] is a single 4-cycle: 3 exchanges.
        assert exc([2, 3, 4, 1]) == 3

    @settings(max_examples=50, deadline=None)
    @given(short_lists)
    def test_swaps_actually_sort(self, values):
        """Exc is achievable: greedy cycle-sort uses exactly Exc swaps."""
        from repro.metrics.sortedness import exc

        expected = exc(values)
        work = list(values)
        target = sorted(
            range(len(values)), key=lambda i: (values[i], i)
        )  # stable order of original indices
        # Build target arrangement: position k should hold values[target[k]].
        swaps = 0
        placed = list(range(len(work)))  # original index at each position
        index_of = {original: pos for pos, original in enumerate(placed)}
        for k, want in enumerate(target):
            have = placed[k]
            if have == want:
                continue
            j = index_of[want]
            placed[k], placed[j] = placed[j], placed[k]
            index_of[placed[j]] = j
            index_of[placed[k]] = k
            swaps += 1
        assert swaps == expected


class TestHam:
    def test_sorted_zero(self):
        from repro.metrics.sortedness import ham

        assert ham([1, 2, 3]) == 0

    def test_two_out_of_place(self):
        from repro.metrics.sortedness import ham

        assert ham([2, 1, 3]) == 2

    def test_all_out_of_place(self):
        from repro.metrics.sortedness import ham

        assert ham([2, 3, 1]) == 3

    @settings(max_examples=50, deadline=None)
    @given(short_lists)
    def test_relations_between_measures(self, values):
        """Survey relations: Exc <= Ham <= n; Ham = 0 iff Exc = 0."""
        from repro.metrics.sortedness import exc, ham

        h = ham(values)
        e = exc(values)
        assert e <= h <= len(values)
        assert (h == 0) == (e == 0)
