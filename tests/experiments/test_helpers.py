"""Unit tests for the experiment modules' helper functions."""

import numpy as np
import pytest

from repro.experiments.ext_total_time import total_access_ns
from repro.experiments.fig02_cell import FIG2_T_VALUES
from repro.experiments.fig04_sortedness import precise_write_units
from repro.experiments.fig05_07_shapes import shape_statistics
from repro.experiments.table3_rem import PAPER_TABLE3
from repro.memory.config import PRECISE_WRITE_LATENCY_NS, READ_LATENCY_NS
from repro.memory.stats import MemoryStats


class TestShapeStatistics:
    def test_sorted_sequence(self):
        in_order, corr = shape_statistics(list(range(100)))
        assert in_order == 1.0
        assert corr == pytest.approx(1.0)

    def test_reversed_sequence(self):
        in_order, corr = shape_statistics(list(range(100, 0, -1)))
        assert in_order == 0.0
        assert corr == pytest.approx(-1.0)

    def test_shuffled_sequence_low_correlation(self):
        rng = np.random.default_rng(0)
        values = rng.permutation(1_000).tolist()
        in_order, corr = shape_statistics(values)
        assert 0.3 < in_order < 0.7
        assert abs(corr) < 0.2

    def test_degenerate_inputs(self):
        assert shape_statistics([]) == (1.0, 1.0)
        assert shape_statistics([5]) == (1.0, 1.0)
        assert shape_statistics([5, 5, 5]) == (1.0, 1.0)


class TestTotalAccessTime:
    def test_combines_read_and_write_latencies(self):
        stats = MemoryStats()
        stats.record_precise_write(3)
        stats.record_precise_read(10)
        assert total_access_ns(stats) == pytest.approx(
            3 * PRECISE_WRITE_LATENCY_NS + 10 * READ_LATENCY_NS
        )


class TestPreciseWriteUnits:
    def test_matches_alpha_for_deterministic_sorter(self):
        from repro.sorting.registry import make_sorter

        keys = list(range(256))[::-1]
        units = precise_write_units(keys, "lsd4")
        assert units == make_sorter("lsd4").expected_key_writes(256)


class TestStaticTables:
    def test_fig2_sweep_covers_paper_range(self):
        assert FIG2_T_VALUES[0] == 0.025
        assert FIG2_T_VALUES[-1] == 0.124
        assert len(FIG2_T_VALUES) >= 20

    def test_paper_table3_complete(self):
        assert len(PAPER_TABLE3) == 12
        assert PAPER_TABLE3[(0.055, "mergesort")] == pytest.approx(0.558)
        for value in PAPER_TABLE3.values():
            assert 0.0 <= value <= 1.0
