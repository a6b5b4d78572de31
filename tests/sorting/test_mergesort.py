"""Mergesort-specific tests: stability, pass structure, write counts."""

import math

import pytest

from repro.memory.approx_array import PreciseArray
from repro.memory.stats import MemoryStats
from repro.sorting.mergesort import Mergesort
from repro.workloads.generators import uniform_keys


def run(keys, with_ids=False):
    stats = MemoryStats()
    array = PreciseArray(keys, stats=stats)
    ids = PreciseArray(range(len(keys)), stats=stats) if with_ids else None
    Mergesort().sort(array, ids)
    return array.to_list(), (ids.to_list() if with_ids else None), stats


class TestMergesort:
    def test_name(self):
        assert Mergesort().name == "mergesort"

    def test_sorts(self):
        keys = uniform_keys(1_000, seed=1)
        out, _, _ = run(keys)
        assert out == sorted(keys)

    def test_stability_via_ids(self):
        """Equal keys must keep their input order (merge uses <=)."""
        keys = [5, 3, 5, 3, 5]
        out, ids, _ = run(keys, with_ids=True)
        assert out == [3, 3, 5, 5, 5]
        assert ids == [1, 3, 0, 2, 4]

    def test_write_count_matches_pass_structure(self):
        """Every pass rewrites n keys; odd pass counts add a copy-home."""
        for n in (128, 100, 1000, 2048):
            keys = uniform_keys(n, seed=2)
            _, _, stats = run(keys)
            passes = math.ceil(math.log2(n))
            expected = passes * n + (n if passes % 2 else 0)
            assert stats.precise_writes == expected

    def test_alpha_estimate_matches_measurement(self):
        n = 3_000
        keys = uniform_keys(n, seed=3)
        _, _, stats = run(keys)
        assert stats.precise_writes == Mergesort().expected_key_writes(n)

    def test_power_of_two_lands_in_place_without_copy(self):
        """n = 2^k with even k needs no copy-home pass."""
        n = 4096  # 12 passes (even)
        keys = uniform_keys(n, seed=4)
        _, _, stats = run(keys)
        assert stats.precise_writes == 12 * n

    def test_numpy_copy_home_stays_in_numpy(self, pcm_sweet, monkeypatch):
        """n = 2048 takes 11 levels (odd), so the result is copied home;
        on the numpy path that copy reads arrays, never Python lists."""
        from repro.memory.approx_array import ApproxArray, InstrumentedArray

        def no_list_reads(self, start, count):
            raise AssertionError("read_block on the numpy path")

        # ApproxArray's class body rebinds read_block, so patch both.
        for cls in (InstrumentedArray, ApproxArray):
            monkeypatch.setattr(cls, "read_block", no_list_reads)
        keys = uniform_keys(2048, seed=6)
        stats = MemoryStats()
        array = pcm_sweet.make_array(keys, stats=stats, seed=1)
        ids = PreciseArray(range(len(keys)), stats=stats)
        Mergesort(kernels="numpy").sort(array, ids)
        assert sorted(ids.to_list()) == list(range(len(keys)))

    def test_paper_alpha_reference(self):
        assert Mergesort.paper_alpha(1024) == pytest.approx(1024 * 10)

    @pytest.mark.statistical
    def test_vulnerable_to_corruption(self, pcm_sweet, pcm_precise):
        """The paper's key qualitative claim: mergesort's unsortedness on
        approximate memory dwarfs quicksort's at the same T.

        Mergesort's Rem is heavy-tailed: it is dominated by the occasional
        mid-pass corruption that breaks a run's sortedness and is amplified
        by every later merge, so a single corruption seed rides on
        realization luck.  Averaging over several seeds makes the systematic
        merge >> quick gap testable.
        """
        from repro.metrics.sortedness import rem_ratio
        from repro.sorting.quicksort import Quicksort

        keys = uniform_keys(4_000, seed=5)
        results = {}
        for label, sorter in (("merge", Mergesort()), ("quick", Quicksort())):
            total = 0.0
            for seed in range(7, 15):
                array = pcm_sweet.make_array([0] * len(keys), seed=seed)
                array.write_block(0, keys)
                sorter.sort(array)
                total += rem_ratio(array.to_list())
            results[label] = total / 8
        assert results["merge"] > 3 * results["quick"]
