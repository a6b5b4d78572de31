"""Tests for the software write-combining buffer."""

import numpy as np
import pytest

from repro.memory.approx_array import PreciseArray
from repro.memory.stats import MemoryStats
from repro.memory.write_combining import (
    WriteCombiningArray,
    sort_with_write_combining,
)
from repro.sorting.registry import make_sorter
from repro.workloads.generators import uniform_keys


def buffered(n=8, capacity=4):
    stats = MemoryStats()
    backing = PreciseArray([0] * n, stats=stats)
    return WriteCombiningArray(backing, capacity=capacity), backing, stats


class TestBuffering:
    def test_repeated_writes_combine(self):
        array, backing, stats = buffered()
        for value in range(10):
            array.write(0, value)
        assert stats.precise_writes == 0  # all absorbed
        assert array.combined_writes == 9
        array.flush()
        assert stats.precise_writes == 1
        assert backing.peek(0) == 9

    def test_eviction_on_capacity(self):
        array, backing, stats = buffered(n=8, capacity=2)
        array.write(0, 10)
        array.write(1, 11)
        array.write(2, 12)  # evicts index 0 (LRU)
        assert stats.precise_writes == 1
        assert backing.peek(0) == 10

    def test_lru_refresh_on_rewrite(self):
        array, backing, _ = buffered(n=8, capacity=2)
        array.write(0, 10)
        array.write(1, 11)
        array.write(0, 20)  # refreshes 0; 1 becomes LRU
        array.write(2, 12)  # evicts 1
        assert backing.peek(1) == 11
        assert backing.peek(0) == 0  # still buffered

    def test_read_hits_buffer_without_memory_read(self):
        array, _, stats = buffered()
        array.write(3, 33)
        assert array.read(3) == 33
        assert stats.precise_reads == 0

    def test_read_miss_goes_to_memory(self):
        array, _, stats = buffered()
        assert array.read(5) == 0
        assert stats.precise_reads == 1

    def test_read_refreshes_recency(self):
        array, backing, _ = buffered(n=8, capacity=2)
        array.write(0, 10)
        array.write(1, 11)
        array.read(0)       # 0 becomes MRU
        array.write(2, 12)  # evicts 1
        assert backing.peek(1) == 11

    def test_zero_capacity_passthrough(self):
        array, _, stats = buffered(capacity=0)
        array.write(0, 5)
        array.write(0, 6)
        assert stats.precise_writes == 2
        assert array.combined_writes == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            WriteCombiningArray(PreciseArray([0]), capacity=-1)

    def test_flush_idempotent(self):
        array, _, stats = buffered()
        array.write(0, 1)
        assert array.flush() == 1
        assert array.flush() == 0
        assert stats.precise_writes == 1


class TestViews:
    def test_peek_and_to_list_merge_buffer(self):
        array, _, _ = buffered(n=4)
        array.write(2, 99)
        assert array.peek(2) == 99
        assert array.to_list() == [0, 0, 99, 0]

    def test_numpy_views_merge_buffer_without_charging(self):
        array, backing, stats = buffered(n=4, capacity=4)
        array.write(2, 99)
        array.write(0, 7)
        charged = stats.as_dict()

        contents = array.to_numpy()
        assert contents.dtype == np.uint32
        assert contents.tolist() == [7, 0, 99, 0]
        gathered = array.peek_gather_np(np.array([2, 1, 0, 2]))
        assert gathered.dtype == np.uint32
        assert gathered.tolist() == [99, 0, 7, 99]
        assert array.peek_gather_np(np.array([], dtype=np.int64)).size == 0
        assert array.peek_block_np(0, 3).tolist() == [7, 0, 99]
        # Views charge nothing, and the backing array moves only on flush.
        assert stats.as_dict() == charged
        assert backing.to_list() == [0, 0, 0, 0]
        # to_numpy is a copy, not a window on the buffer or the backing.
        contents[:] = 1
        assert array.to_list() == [7, 0, 99, 0]
        array.flush()
        assert backing.to_numpy().tolist() == [7, 0, 99, 0]

    def test_peek_block_np_window_sees_buffer(self):
        array, backing, stats = buffered(n=6, capacity=4)
        array.write(0, 7)
        array.write(3, 99)
        array.write(5, 11)
        assert array.peek_block_np(2, 3).tolist() == [0, 99, 0]
        assert array.peek_block_np(5, 1).tolist() == [11]
        assert array.peek_block_np(1, 0).tolist() == []
        assert stats.as_dict() == MemoryStats().as_dict()
        assert backing.to_list() == [0] * 6

    @pytest.mark.parametrize("value", [2.5, 1 << 32, -1])
    def test_buffered_write_checks_the_word(self, value):
        array, backing, stats = buffered(n=4)
        with pytest.raises(ValueError):
            array.write(0, value)
        array.flush()
        assert array.to_list() == backing.to_list() == [0, 0, 0, 0]
        assert stats.precise_writes == 0

    def test_write_block_bypasses_and_invalidates(self):
        array, backing, stats = buffered(n=8, capacity=4)
        array.write(1, 5)
        array.write_block(0, [7, 8, 9])
        assert stats.precise_writes == 3
        # The stale buffered value must not resurface.
        assert array.read(1) == 8
        array.flush()
        assert backing.peek(1) == 8

    def test_read_block_sees_buffer(self):
        array, _, _ = buffered(n=4)
        array.write(1, 42)
        assert array.read_block(0, 3) == [0, 42, 0]

    def test_clone_empty_is_buffered(self):
        array, _, _ = buffered(n=4, capacity=3)
        clone = array.clone_empty()
        assert isinstance(clone, WriteCombiningArray)
        assert clone.capacity == 3
        assert len(clone) == 4


class TestSortingThroughBuffer:
    @pytest.mark.parametrize("name", ["quicksort", "insertion", "mergesort", "lsd4"])
    def test_sorting_correct_through_buffer(self, name):
        keys = uniform_keys(400, seed=1)
        stats = MemoryStats()
        backing = PreciseArray(keys, stats=stats)
        sort_with_write_combining(make_sorter(name), backing, capacity=32)
        assert backing.to_list() == sorted(keys)

    def test_insertion_sort_writes_collapse(self):
        """Shift-heavy insertion sort is where write combining shines —
        when the buffer covers the shift span.  Random 300-element input
        shifts across the whole sorted prefix, so a 64-entry buffer only
        absorbs the short-distance tail (~20%) while a 256-entry buffer
        absorbs nearly everything."""
        keys = uniform_keys(300, seed=2)
        plain_stats = MemoryStats()
        plain = PreciseArray(keys, stats=plain_stats)
        make_sorter("insertion").sort(plain)

        writes = {}
        for capacity in (64, 256):
            combined_stats = MemoryStats()
            backing = PreciseArray(keys, stats=combined_stats)
            sort_with_write_combining(
                make_sorter("insertion"), backing, capacity=capacity
            )
            assert backing.to_list() == sorted(keys)
            writes[capacity] = combined_stats.precise_writes
        assert writes[64] < 0.9 * plain_stats.precise_writes
        assert writes[256] < 0.1 * plain_stats.precise_writes

    def test_block_writing_sorters_unaffected(self):
        """Radix/mergesort write via combined block streams already."""
        keys = uniform_keys(400, seed=3)
        plain_stats = MemoryStats()
        make_sorter("lsd4").sort(PreciseArray(keys, stats=plain_stats))

        combined_stats = MemoryStats()
        backing = PreciseArray(keys, stats=combined_stats)
        sort_with_write_combining(make_sorter("lsd4"), backing, capacity=64)
        assert combined_stats.precise_writes == plain_stats.precise_writes

    def test_combining_reduces_corruption_on_approx_memory(self, pcm_aggressive):
        """Fewer memory writes -> fewer corruption opportunities."""
        keys = uniform_keys(800, seed=4)
        plain = pcm_aggressive.make_array([0] * len(keys), seed=5)
        plain.write_block(0, keys)
        make_sorter("insertion").sort(plain)
        plain_corrupted = plain.stats.corrupted_writes

        # Capacity must exceed the typical shift distance (~n/4) for the
        # buffer to absorb a decisive share of insertion's writes; with a
        # marginal reduction the assertion would ride on RNG-stream noise.
        backing = pcm_aggressive.make_array([0] * len(keys), seed=5)
        backing.write_block(0, keys)
        sort_with_write_combining(
            make_sorter("insertion"), backing, capacity=256
        )
        assert backing.stats.approx_writes < 0.8 * plain.stats.approx_writes
        assert backing.stats.corrupted_writes < plain_corrupted
