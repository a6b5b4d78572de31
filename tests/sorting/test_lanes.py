"""The fast paths against the paths they replace.

A block write of a list of at most ``LIST_LANE_MAX_WORDS`` valid words
takes the arrays' list lane, which resolves it word by word with the
Python forms of the keyed sampler.  Under numpy kernels MSD, HMSD and
quicksort sort every segment of one depth in one level pass instead of
walking segments depth first.  Each must write the same values to the
same addresses the same number of times as the path it replaces, so under
keyed corruption every result here is compared with the fast paths
switched off.
"""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro.core.approx_refine import run_approx_refine, run_precise_baseline
from repro.memory import approx_array
from repro.memory.approx_array import (
    LIST_LANE_MAX_WORDS, KeyedArray, PreciseArray,
)
from repro.obs import Tracer, set_tracer
from repro.sorting.quicksort import Quicksort
from repro.sorting.radix import MSDRadixSort
from repro.workloads.generators import make_keys

from ..conftest import make_pcm

LANE_SORTERS = ("msd3", "msd6", "hmsd3", "hmsd6", "quicksort")


@pytest.fixture
def count_lane_calls(monkeypatch):
    """Count the block writes that take the list lane and the MSD and
    quicksort level passes (proof that a fast path engaged)."""
    calls = []
    is_word_list = approx_array._is_word_list

    def counted_gate(values):
        taken = is_word_list(values)
        if taken:
            calls.append("list")
        return taken

    monkeypatch.setattr(approx_array, "_is_word_list", counted_gate)
    for cls in (MSDRadixSort, Quicksort):
        level_pass = cls._level_pass

        def counted_pass(self, *args, _level_pass=level_pass):
            calls.append("level")
            return _level_pass(self, *args)

        monkeypatch.setattr(cls, "_level_pass", counted_pass)
    return calls


def _run(run, monkeypatch, lanes):
    with monkeypatch.context() as patch:
        if not lanes:
            patch.setattr(approx_array, "LIST_LANE_MAX_WORDS", -1)
            patch.setattr(
                MSDRadixSort, "_level_pass", MSDRadixSort._segment_walk
            )
            patch.setattr(Quicksort, "_level_pass", Quicksort._walk)
        return run()


@pytest.mark.parametrize("kernels", ["numpy", "scalar"])
@pytest.mark.parametrize("sorter", LANE_SORTERS)
@pytest.mark.parametrize("t", [0.025, 0.055, 0.1])
@pytest.mark.parametrize("keyset", ["uniform", "few_distinct"])
def test_approx_refine_matches_lanes_off(
    sorter, t, keyset, kernels, monkeypatch, count_lane_calls
):
    keys = make_keys(keyset, 700, seed=3)
    memory = make_pcm(t)

    def run():
        result = run_approx_refine(
            keys, sorter, memory, seed=4, kernels=kernels
        )
        return (result.stats.as_dict(), result.rem_tilde,
                result.approx_rem_ratio, result.final_ids.tolist())

    with_lanes = _run(run, monkeypatch, True)
    if keyset == "uniform" and (kernels == "numpy" or sorter != "quicksort"):
        # Scalar quicksort writes word by word, so no lane is on its path;
        # few distinct keys may leave the scalar MSD walk no segment small
        # enough for the list lane.
        assert count_lane_calls
    del count_lane_calls[:]
    assert with_lanes == _run(run, monkeypatch, False)
    assert not count_lane_calls


@pytest.mark.parametrize("kernels", ["numpy", "scalar"])
@pytest.mark.parametrize("sorter", LANE_SORTERS)
def test_precise_baseline_matches_lanes_off(sorter, kernels, monkeypatch):
    keys = make_keys("uniform", 900, seed=5)

    def run():
        result = run_precise_baseline(keys, sorter, kernels=kernels)
        return result.stats.as_dict(), result.final_ids.tolist()

    assert _run(run, monkeypatch, True) == _run(run, monkeypatch, False)


class TestBlockWriteListLane:
    """``write_block`` of a small list against the same words as an
    ``ndarray``, which always takes the numpy block path."""

    @staticmethod
    def pair(kind):
        """Twin arrays: precise, or approximate at ``T = kind``."""
        if kind == "precise":
            return PreciseArray([0] * 40), PreciseArray([0] * 40)
        memory = make_pcm(kind)
        return memory.make_array([0] * 40, seed=9), memory.make_array(
            [0] * 40, seed=9
        )

    @staticmethod
    def state(array):
        counts = (
            array._versions.tolist() if isinstance(array, KeyedArray) else None
        )
        return array.to_list(), array.stats.as_dict(), counts

    @pytest.mark.parametrize("kind", ["precise", 0.025, 0.075, 0.1])
    def test_matches_ndarray_path(self, kind, count_lane_calls):
        rng = np.random.default_rng(11)
        lane, block = self.pair(kind)
        for m in list(range(LIST_LANE_MAX_WORDS + 3)) * 3:
            words = rng.integers(0, 1 << 32, size=m, dtype=np.uint32)
            start = int(rng.integers(0, 40 - m + 1))
            lane.write_block(start, words.tolist())
            block.write_block(start, words)
            assert self.state(lane) == self.state(block)
        assert count_lane_calls

    @pytest.mark.parametrize("kind", ["precise", 0.1])
    @pytest.mark.parametrize("values", [
        [1.0, 2.0], [True, 2], [np.uint32(7), 3], (4, 5),
    ], ids=["floats", "bool", "numpy_int", "tuple"])
    def test_other_sequences_take_the_ndarray_path(
        self, kind, values, count_lane_calls
    ):
        lane, block = self.pair(kind)
        lane.write_block(3, values)
        block.write_block(3, np.array([int(v) for v in values], np.uint32))
        assert self.state(lane) == self.state(block)
        assert not count_lane_calls


@pytest.mark.parametrize("sorter", ["msd3", "quicksort"])
def test_depth_rollups_match_lanes_off(sorter, monkeypatch):
    """The tracer's per-depth counters count the fast paths' segments
    too."""
    keys = make_keys("uniform", 600, seed=6)

    def run():
        sink = io.StringIO()
        previous = set_tracer(Tracer(sink=sink))
        try:
            run_approx_refine(
                keys, sorter, make_pcm(0.055), seed=1, kernels="numpy"
            )
        finally:
            set_tracer(previous)
        return sorted(
            (event["name"], event["attrs"]["depth"], event["value"])
            for event in map(json.loads, sink.getvalue().splitlines())
            if event["ev"] == "counter" and ".depth." in event["name"]
        )

    rollups = _run(run, monkeypatch, True)
    assert rollups
    assert rollups == _run(run, monkeypatch, False)


class TestQuicksortGuardReads:
    """The level pass charges the scans' reads of one segment exactly as
    the scalar partition's bounds-guarded ``read`` calls do."""

    SEGMENTS = {
        "all_equal": [7] * 40,
        "two_keys": [9, 3] * 20,
        "two_keys_runs": [3] * 25 + [9] * 15,
        "single_pair": [5, 5],
    }

    @staticmethod
    def operands(values, kind):
        if kind == "precise":
            keys = PreciseArray(values)
        else:
            keys = make_pcm(0.1).make_array(values, seed=8)
        ids = PreciseArray(range(len(values)), stats=keys.stats)
        return keys, ids

    @pytest.mark.parametrize("kind", ["precise", "approx"])
    @pytest.mark.parametrize("segment", list(SEGMENTS))
    def test_lane_partition_matches_scalar(self, segment, kind):
        values = self.SEGMENTS[segment]
        hi = len(values) - 1
        runs = []
        for level in (False, True):
            keys, ids = self.operands(values, kind)
            sorter = Quicksort(seed=2, kernels="numpy")
            if level:
                split, = sorter._partition_level(
                    keys, ids, np.array([0]), np.array([hi])
                ).tolist()
            else:
                split = sorter._partition(keys, ids, 0, hi)
            runs.append(
                (split, keys.stats.as_dict(), keys.to_list(), ids.to_list())
            )
        assert runs[0] == runs[1]
        stats = runs[0][1]
        assert stats["precise_reads" if kind == "precise" else "approx_reads"]

    def test_all_equal_reads_every_guarded_position(self):
        """On equal keys each scan stops at once, so the reads are the
        pivot read plus two per swap round, and swaps read twice more."""
        keys, ids = self.operands([7] * 10, "precise")
        sorter = Quicksort(seed=0, kernels="numpy")
        sorter._pivots = lambda los, his: los  # pivot at lo: no pre-swap
        split, = sorter._partition_level(
            keys, ids, np.array([0]), np.array([9])
        ).tolist()
        # Rounds stop at (i, j) = (0, 9), (1, 8), ..., (4, 5) and swap,
        # then cross at (5, 4): the pivot read, 6 rounds of 2 scan reads,
        # and 5 swaps of 2 key and 2 id reads (one shared stats object).
        assert split == 4
        assert keys.stats.precise_reads == 1 + 6 * 2 + 5 * 2 * 2
        assert keys.to_list() == [7] * 10
        assert ids.to_list() == [9, 8, 7, 6, 5, 4, 3, 2, 1, 0]


@pytest.mark.parametrize("t", [0.055, 0.1])
@pytest.mark.parametrize("n", [64, 300, 2048])
@pytest.mark.parametrize(
    "sorter", ["msd3", "msd6", "hmsd3", "hmsd6", "quicksort"]
)
def test_level_pass_matches_depth_first_walk(sorter, n, t, monkeypatch):
    """The numpy level pass stores what the scalar depth-first walk
    stores, word for word, with the same stats and Rem~."""
    keys = make_keys("uniform", n, seed=n)

    def run(kernels):
        result = run_approx_refine(
            keys, sorter, make_pcm(t), seed=7, kernels=kernels
        )
        return (result.stats.as_dict(), result.rem_tilde,
                result.approx_rem_ratio, result.final_ids.tolist())

    walked = run("scalar")
    assert walked == run("numpy")
    assert walked == _run(lambda: run("numpy"), monkeypatch, False)
    if t == 0.1:
        assert walked[0]["corrupted_writes"] > 0
