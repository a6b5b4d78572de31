"""Quicksort-specific tests: pivots, partition bounds, write counts, and
the level pass against the scalar depth-first walk."""

import numpy as np
import pytest

from repro.core.approx_refine import run_approx_refine, run_precise_baseline
from repro.memory.approx_array import KeyedArray, PreciseArray
from repro.memory.stats import MemoryStats
from repro.metrics.sortedness import rem
from repro.sorting.base import nlog2n
from repro.sorting.quicksort import Quicksort
from repro.sorting.registry import make_sorter
from repro.workloads.generators import make_keys, uniform_keys

from ..conftest import make_pcm


def run(keys, seed=0):
    stats = MemoryStats()
    array = PreciseArray(keys, stats=stats)
    Quicksort(seed=seed).sort(array)
    return array.to_list(), stats


class TestQuicksort:
    def test_name(self):
        assert Quicksort().name == "quicksort"

    def test_sorts(self):
        keys = uniform_keys(1_000, seed=1)
        out, _ = run(keys)
        assert out == sorted(keys)

    def test_pivot_seed_changes_access_pattern_not_result(self):
        keys = uniform_keys(500, seed=2)
        out_a, stats_a = run(keys, seed=1)
        out_b, stats_b = run(keys, seed=2)
        assert out_a == out_b == sorted(keys)
        # Different pivots -> different numbers of swaps (overwhelmingly).
        assert stats_a.precise_writes != stats_b.precise_writes

    def test_alpha_formula(self):
        assert Quicksort().expected_key_writes(1024) == pytest.approx(
            nlog2n(1024) / 2
        )
        assert Quicksort().expected_key_writes(1) == 0.0

    def test_write_count_near_alpha_on_random_input(self):
        n = 4_000
        keys = uniform_keys(n, seed=3)
        _, stats = run(keys)
        alpha = Quicksort().expected_key_writes(n)
        # Hoare partitioning's constant varies; same order of magnitude.
        assert 0.3 * alpha < stats.precise_writes < 2.0 * alpha

    def test_adversarial_inputs_terminate(self):
        # Organ-pipe, all-equal and sawtooth inputs are classic quicksort
        # killers; randomized pivots plus the guarded partition must cope.
        n = 800
        organ_pipe = list(range(n // 2)) + list(range(n // 2 - 1, -1, -1))
        sawtooth = [i % 7 for i in range(n)]
        for keys in (organ_pipe, sawtooth, [5] * n):
            out, _ = run(keys)
            assert out == sorted(keys)

    def test_heavy_corruption_terminates(self, pcm_aggressive):
        keys = uniform_keys(1_000, seed=4)
        array = pcm_aggressive.make_array([0] * len(keys), seed=6)
        array.write_block(0, keys)
        Quicksort(seed=1).sort(array)  # must not hang or index out of range
        assert len(array.to_list()) == len(keys)

    def test_no_reads_or_writes_out_of_bounds(self):
        """Trace every access and check index bounds."""
        keys = uniform_keys(300, seed=5)
        indices = []
        array = PreciseArray(
            keys, trace=lambda op, region, index: indices.append(index)
        )
        Quicksort(seed=2).sort(array)
        assert min(indices) >= 0
        assert max(indices) < len(keys)

    def test_pivots_are_keyed_by_segment(self):
        """The scalar and numpy pivot forms agree, and each lies in its
        segment."""
        sorter = Quicksort(seed=5)
        los = np.array([0, 3, 10, 1 << 20, 7], dtype=np.int32)
        his = np.array([1, 9, 2047, (1 << 21) - 1, 8], dtype=np.int32)
        pivots = sorter._pivots(los, his).tolist()
        assert pivots == [
            sorter._pivot(lo, hi) for lo, hi in zip(los.tolist(), his.tolist())
        ]
        assert all(lo <= p <= hi for lo, p, hi in zip(los, pivots, his))
        assert pivots != Quicksort(seed=6)._pivots(los, his).tolist()


class TestStateless:
    """One instance sorts the same input the same way every time: its
    pivots are keyed by the segment's bounds, not drawn from a stream that
    the previous sort (or the approx stage, for the refine stage's sort of
    REM) left behind."""

    def test_repeated_runs_agree(self):
        sorter = make_sorter("quicksort")
        keys = make_keys("uniform", 2048, seed=2)
        baselines = [run_precise_baseline(keys, sorter) for _ in range(2)]
        assert baselines[0].stats.as_dict() == baselines[1].stats.as_dict()
        assert np.array_equal(baselines[0].final_ids, baselines[1].final_ids)
        refines = [
            run_approx_refine(keys, sorter, make_pcm(0.1), seed=3)
            for _ in range(2)
        ]
        assert refines[0].stats.as_dict() == refines[1].stats.as_dict()
        assert np.array_equal(refines[0].final_ids, refines[1].final_ids)
        assert refines[0].rem_tilde == refines[1].rem_tilde


class TestLevelPass:
    """Under numpy kernels every segment of one recursion level is
    partitioned in one pass; it must store what the scalar depth-first
    walk stores, word for word and write count for write count, with the
    same stats, ids and Rem~."""

    @staticmethod
    def sort(keys, kind, with_ids, kernels):
        if kind == "precise":
            array = PreciseArray(keys)
        else:
            array = make_pcm(kind).make_array(keys, seed=3)
        ids = (
            PreciseArray(range(len(keys)), stats=array.stats)
            if with_ids else None
        )
        Quicksort(seed=7, kernels=kernels).sort(array, ids)
        return (
            array.to_list(),
            ids.to_list() if with_ids else None,
            rem(keys[ids.to_numpy()]) if with_ids else None,
            array.stats.as_dict(),
            (array._versions.tolist()
             if isinstance(array, KeyedArray) else None),
        )

    @pytest.mark.parametrize("n", [2, 3, 17, 65, 300, 2048])
    @pytest.mark.parametrize("workload", [
        "uniform", "sorted", "reverse", "all_equal", "few_distinct", "zipf",
    ])
    def test_matches_scalar_walk(self, workload, n):
        keys = make_keys(workload, n, seed=n)
        for kind in ("precise", 0.055, 0.1, 0.125):
            for with_ids in (False, True):
                walked = self.sort(keys, kind, with_ids, "scalar")
                assert walked == self.sort(keys, kind, with_ids, "numpy")
        if n == 2048:
            assert walked[3]["corrupted_writes"] > 0  # at T = 0.125
