"""Tests for the workload generators."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.approx_array import WORD_LIMIT
from repro.metrics.sortedness import runs as count_runs
from repro.workloads.generators import (
    GENERATORS,
    almost_sorted_keys,
    few_distinct_keys,
    make_keys,
    reverse_sorted_keys,
    runs_keys,
    sorted_keys,
    uniform_keys,
    zipf_keys,
)


class TestCommonProperties:
    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_length_and_range(self, name):
        keys = make_keys(name, 500, seed=1)
        assert len(keys) == 500
        assert all(0 <= k < WORD_LIMIT for k in keys)

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_deterministic_per_seed(self, name):
        assert (
            make_keys(name, 200, seed=5).tolist()
            == make_keys(name, 200, seed=5).tolist()
        )

    @pytest.mark.parametrize("name", ["uniform", "zipf", "few_distinct"])
    def test_different_seeds_differ(self, name):
        assert (
            make_keys(name, 200, seed=1).tolist()
            != make_keys(name, 200, seed=2).tolist()
        )

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_zero_length(self, name):
        assert make_keys(name, 0, seed=0).tolist() == []

    def test_unknown_generator(self):
        with pytest.raises(ValueError, match="unknown workload"):
            make_keys("gaussian", 10)


class TestSpecificShapes:
    def test_sorted_is_sorted(self):
        keys = sorted_keys(300, seed=2).tolist()
        assert keys == sorted(keys)

    def test_reverse_is_reverse(self):
        keys = reverse_sorted_keys(300, seed=2).tolist()
        assert keys == sorted(keys, reverse=True)

    def test_uniform_spread(self):
        keys = uniform_keys(5_000, seed=3)
        assert min(keys) < WORD_LIMIT // 8
        assert max(keys) > WORD_LIMIT * 7 // 8
        assert len(set(keys)) > 4_990  # collisions vanishingly rare

    def test_almost_sorted_close_to_sorted(self):
        keys = almost_sorted_keys(1_000, seed=4, swap_fraction=0.01)
        from repro.metrics.sortedness import rem

        assert 0 < rem(keys) < 80

    def test_almost_sorted_zero_swaps(self):
        keys = almost_sorted_keys(100, seed=5, swap_fraction=0.0).tolist()
        assert keys == sorted(keys)

    def test_almost_sorted_validation(self):
        with pytest.raises(ValueError):
            almost_sorted_keys(10, swap_fraction=1.5)

    def test_few_distinct(self):
        keys = few_distinct_keys(1_000, seed=6, distinct=8)
        assert len(set(keys)) <= 8

    def test_few_distinct_validation(self):
        with pytest.raises(ValueError):
            few_distinct_keys(10, distinct=0)

    def test_zipf_is_skewed(self):
        """The most common key must dominate a uniform key's share."""
        from collections import Counter

        keys = zipf_keys(5_000, seed=7, s=1.5, universe=256)
        top = Counter(keys).most_common(1)[0][1]
        assert top > 5_000 / 256 * 5

    def test_zipf_validation(self):
        with pytest.raises(ValueError):
            zipf_keys(10, s=0.0)

    def test_runs_structure(self):
        keys = runs_keys(1_000, seed=8, run_count=4)
        assert count_runs(keys) <= 4 + 1

    def test_runs_validation(self):
        with pytest.raises(ValueError):
            runs_keys(10, run_count=0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=300), st.integers(0, 10))
    def test_uniform_any_size(self, n, seed):
        keys = uniform_keys(n, seed=seed)
        assert len(keys) == n


# --------------------------------------------------------------------- #
# The list generators the array generators replaced, frozen as written,
# one ``random.Random`` call per key.  Every generator must reproduce them
# key for key.
# --------------------------------------------------------------------- #


def _ref_uniform(n, seed=0):
    rng = random.Random(seed)
    return [rng.randrange(WORD_LIMIT) for _ in range(n)]


def _ref_sorted(n, seed=0):
    return sorted(_ref_uniform(n, seed))


def _ref_reverse(n, seed=0):
    return sorted(_ref_uniform(n, seed), reverse=True)


def _ref_almost_sorted(n, seed=0, swap_fraction=0.01):
    rng = random.Random(seed)
    keys = _ref_sorted(n, seed)
    for _ in range(int(n * swap_fraction)):
        i = rng.randrange(n)
        j = rng.randrange(n)
        keys[i], keys[j] = keys[j], keys[i]
    return keys


def _ref_zipf(n, seed=0, s=1.2, universe=4096):
    rng = random.Random(seed)
    weights = [r ** -s for r in range(1, universe + 1)]
    total = sum(weights)
    cdf = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cdf.append(acc)
    spread = max(1, WORD_LIMIT // universe)
    rank_values = [r * spread + spread // 2 for r in range(universe)]
    rng.shuffle(rank_values)

    def draw():
        u = rng.random()
        lo, hi = 0, universe - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cdf[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        return rank_values[lo]

    return [draw() for _ in range(n)]


def _ref_few_distinct(n, seed=0, distinct=16):
    rng = random.Random(seed)
    values = [rng.randrange(WORD_LIMIT) for _ in range(distinct)]
    return [values[rng.randrange(distinct)] for _ in range(n)]


def _ref_runs(n, seed=0, run_count=8):
    rng = random.Random(seed)
    keys = []
    base = math.ceil(n / run_count)
    remaining = n
    while remaining > 0:
        size = min(base, remaining)
        keys.extend(sorted(rng.randrange(WORD_LIMIT) for _ in range(size)))
        remaining -= size
    return keys


def _ref_all_equal(n, seed=0):
    return [random.Random(seed).randrange(WORD_LIMIT)] * n


REFERENCE = {
    "uniform": _ref_uniform,
    "sorted": _ref_sorted,
    "reverse": _ref_reverse,
    "almost_sorted": _ref_almost_sorted,
    "zipf": _ref_zipf,
    "few_distinct": _ref_few_distinct,
    "runs": _ref_runs,
    "all_equal": _ref_all_equal,
}

SEEDS = [0, 1, -7, "k", 2**70]


class TestFrozenListReference:
    def test_every_generator_has_a_reference(self):
        assert set(REFERENCE) == set(GENERATORS)

    @pytest.mark.parametrize("seed", SEEDS, ids=repr)
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 1000])
    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_equals_reference(self, name, n, seed):
        assert make_keys(name, n, seed).tolist() == REFERENCE[name](n, seed)

    @pytest.mark.parametrize("seed", SEEDS, ids=repr)
    def test_uniform_across_chunks(self, seed):
        """2^20 + 5 keys take about 2^21 draw attempts: more than one
        chunk of the filtered stream."""
        n = (1 << 20) + 5
        assert uniform_keys(n, seed).tolist() == _ref_uniform(n, seed)

    @pytest.mark.parametrize("run_count", [1, 3, 7, 1000])
    def test_runs_any_run_count(self, run_count):
        assert (
            runs_keys(999, seed=4, run_count=run_count).tolist()
            == _ref_runs(999, seed=4, run_count=run_count)
        )


class TestArrayContract:
    @pytest.mark.parametrize("n", [0, 1, 1000])
    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_one_dimensional_contiguous_uint32(self, name, n):
        keys = make_keys(name, n, seed=3)
        assert isinstance(keys, np.ndarray)
        assert keys.dtype == np.uint32
        assert keys.ndim == 1
        assert keys.flags.c_contiguous
        assert keys.flags.writeable

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_each_call_returns_a_fresh_array(self, name):
        first = make_keys(name, 100, seed=9)
        expected = first.tolist()
        first[:] = 0
        assert make_keys(name, 100, seed=9).tolist() == expected
