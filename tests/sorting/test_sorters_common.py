"""Behaviour common to every sorting algorithm, parametrized over the registry.

Covers precise-memory correctness on assorted distributions (including a
hypothesis property test), ID-permutation consistency, and robust
termination on heavily corrupted approximate memory.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.approx_array import PreciseArray, WORD_LIMIT
from repro.memory.stats import MemoryStats
from repro.metrics.sortedness import is_sorted
from repro.sorting.registry import available_sorters, make_sorter
from repro.workloads.generators import make_keys

ALL_SORTERS = available_sorters()
FAST_SORTERS = [name for name in ALL_SORTERS if name != "insertion"]

key_lists = st.lists(
    st.integers(min_value=0, max_value=WORD_LIMIT - 1), max_size=120
)


def sort_precise(name: str, keys, with_ids: bool = False):
    stats = MemoryStats()
    key_array = PreciseArray(keys, stats=stats)
    id_array = PreciseArray(range(len(keys)), stats=stats) if with_ids else None
    make_sorter(name).sort(key_array, id_array)
    ids = id_array.to_list() if with_ids else None
    return key_array.to_list(), ids, stats


@pytest.mark.parametrize("name", ALL_SORTERS)
class TestPreciseCorrectness:
    def test_uniform(self, name):
        keys = make_keys("uniform", 300, seed=1)
        out, _, _ = sort_precise(name, keys)
        assert out == sorted(keys)

    def test_already_sorted(self, name):
        keys = make_keys("sorted", 200, seed=2)
        out, _, _ = sort_precise(name, keys)
        assert out == keys.tolist()

    def test_reverse_sorted(self, name):
        keys = make_keys("reverse", 200, seed=3)
        out, _, _ = sort_precise(name, keys)
        assert out == sorted(keys)

    def test_duplicates(self, name):
        keys = make_keys("few_distinct", 300, seed=4)
        out, _, _ = sort_precise(name, keys)
        assert out == sorted(keys)

    def test_zipf_skew(self, name):
        keys = make_keys("zipf", 300, seed=5)
        out, _, _ = sort_precise(name, keys)
        assert out == sorted(keys)

    def test_empty(self, name):
        out, _, _ = sort_precise(name, [])
        assert out == []

    def test_single(self, name):
        out, _, _ = sort_precise(name, [42])
        assert out == [42]

    def test_two_elements(self, name):
        assert sort_precise(name, [9, 3])[0] == [3, 9]
        assert sort_precise(name, [3, 9])[0] == [3, 9]

    def test_all_equal(self, name):
        out, _, _ = sort_precise(name, [7] * 100)
        assert out == [7] * 100

    def test_extreme_values(self, name):
        keys = [0, WORD_LIMIT - 1, 1, WORD_LIMIT - 2, 0, WORD_LIMIT - 1]
        out, _, _ = sort_precise(name, keys)
        assert out == sorted(keys)

    def test_id_permutation_matches(self, name):
        keys = make_keys("uniform", 250, seed=6)
        out, ids, _ = sort_precise(name, keys, with_ids=True)
        assert out == sorted(keys)
        assert sorted(ids) == list(range(len(keys)))
        assert [keys[i] for i in ids] == out

    def test_id_length_mismatch_rejected(self, name):
        keys = PreciseArray([1, 2, 3])
        ids = PreciseArray([0, 1])
        with pytest.raises(ValueError):
            make_sorter(name).sort(keys, ids)


@pytest.mark.parametrize("name", FAST_SORTERS)
@settings(max_examples=25, deadline=None)
@given(keys=key_lists)
def test_property_sorts_any_input(name, keys):
    out, _, _ = sort_precise(name, keys)
    assert out == sorted(keys)


@pytest.mark.parametrize("name", FAST_SORTERS)
class TestOnApproximateMemory:
    def test_terminates_and_preserves_length_under_heavy_corruption(
        self, name, pcm_aggressive
    ):
        keys = make_keys("uniform", 400, seed=8)
        stats = MemoryStats()
        array = pcm_aggressive.make_array([0] * len(keys), stats=stats, seed=3)
        array.write_block(0, keys)
        make_sorter(name).sort(array)
        out = array.to_list()
        assert len(out) == len(keys)
        assert all(0 <= v < WORD_LIMIT for v in out)
        assert stats.corrupted_writes > 0

    def test_nearly_sorted_at_sweet_spot(self, name, pcm_sweet):
        keys = make_keys("uniform", 600, seed=9)
        array = pcm_sweet.make_array([0] * len(keys), seed=4)
        array.write_block(0, keys)
        make_sorter(name).sort(array)
        out = array.to_list()
        # At T = 0.055 the output must be close to sorted for every
        # algorithm at this size (mergesort is the worst but still bounded).
        from repro.metrics.sortedness import rem_ratio

        assert rem_ratio(out) < 0.25

    def test_precise_t_output_exactly_sorted(self, name, pcm_precise):
        keys = make_keys("uniform", 400, seed=10)
        array = pcm_precise.make_array([0] * len(keys), seed=5)
        array.write_block(0, keys)
        make_sorter(name).sort(array)
        # With the full guard band corruption is ~1e-6/write: a 400-element
        # sort is overwhelmingly likely to be exact.
        assert is_sorted(array.to_list())


class TestWriteCounts:
    """Measured key writes should track the documented alpha_alg counts."""

    @pytest.mark.parametrize(
        "name,rel_tolerance",
        [
            ("quicksort", 0.5),
            ("mergesort", 0.05),
            ("lsd3", 0.001),
            ("lsd6", 0.001),
            ("hlsd3", 0.001),
            ("hlsd6", 0.001),
            ("msd6", 0.5),
            ("hmsd6", 0.5),
        ],
    )
    def test_alpha_estimate(self, name, rel_tolerance):
        n = 2_000
        keys = make_keys("uniform", n, seed=11)
        stats = MemoryStats()
        array = PreciseArray(keys, stats=stats)
        sorter = make_sorter(name)
        sorter.sort(array)
        measured = stats.precise_writes
        expected = sorter.expected_key_writes(n)
        assert measured == pytest.approx(expected, rel=rel_tolerance)

    def test_lsd_writes_double_histogram_writes(self):
        """The queue-bucket scheme writes ~2x the histogram scheme/pass."""
        n = 1_500
        keys = make_keys("uniform", n, seed=12)
        writes = {}
        for name in ("lsd4", "hlsd4"):
            stats = MemoryStats()
            array = PreciseArray(keys, stats=stats)
            make_sorter(name).sort(array)
            writes[name] = stats.precise_writes
        assert writes["lsd4"] == pytest.approx(2 * writes["hlsd4"], rel=0.01)
