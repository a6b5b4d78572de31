"""Accounting contract of the numpy batch primitives (DESIGN.md section 8).

Every batch primitive charges exactly one accounted access per element —
the same counts as the element-wise loop it replaces — and approximate
scatters draw per-word corruption from the same batched block sampler as
``write_block``.
"""

import numpy as np
import pytest

from repro.memory.approx_array import ApproxArray, PreciseArray
from repro.memory.config import MLCParams, SpintronicParams
from repro.memory.error_model import get_model, precise_reference_model
from repro.memory.spintronic import SpintronicArray, SpintronicErrorModel
from repro.memory.stats import MemoryStats

FIT = 8_000


@pytest.fixture(scope="module")
def pcm_model():
    return get_model(MLCParams(t=0.055), samples_per_level=FIT)


@pytest.fixture(scope="module")
def precise_iterations():
    return precise_reference_model(
        MLCParams(t=0.055), FIT
    ).avg_word_iterations


def make_approx(pcm_model, precise_iterations, data, stats, seed=0):
    return ApproxArray(
        data,
        model=pcm_model,
        precise_iterations=precise_iterations,
        stats=stats,
        seed=seed,
    )


class TestPreciseArray:
    def test_read_block_np_counts_and_values(self):
        stats = MemoryStats()
        arr = PreciseArray(range(10, 20), stats=stats)
        block = arr.read_block_np(2, 5)
        assert block.tolist() == [12, 13, 14, 15, 16]
        assert block.dtype == np.uint32
        assert stats.precise_reads == 5

    def test_gather_scatter_counts(self):
        stats = MemoryStats()
        arr = PreciseArray([0] * 8, stats=stats)
        arr.scatter_np(np.array([1, 3, 5]), np.array([11, 33, 55]))
        assert stats.precise_writes == 3
        got = arr.gather_np(np.array([5, 1, 3]))
        assert got.tolist() == [55, 11, 33]
        assert stats.precise_reads == 3

    def test_peek_block_np_unaccounted(self):
        stats = MemoryStats()
        arr = PreciseArray(range(6), stats=stats)
        assert arr.peek_block_np(0, 6).tolist() == list(range(6))
        assert stats.precise_reads == 0

    def test_scatter_duplicate_index_last_write_wins(self):
        stats = MemoryStats()
        arr = PreciseArray([0] * 4, stats=stats)
        arr.scatter_np(np.array([2, 2]), np.array([7, 9]))
        assert stats.precise_writes == 2  # both writes accounted
        assert arr.peek(2) == 9

    def test_scatter_rejects_out_of_range_values(self):
        arr = PreciseArray([0] * 4)
        with pytest.raises(ValueError):
            arr.scatter_np(np.array([0]), np.array([2**32]))


class TestApproxArray:
    def test_batch_counts(self, pcm_model, precise_iterations):
        stats = MemoryStats()
        arr = make_approx(pcm_model, precise_iterations, [0] * 32, stats)
        arr.read_block_np(0, 32)
        assert stats.approx_reads == 32
        arr.gather_np(np.arange(16))
        assert stats.approx_reads == 48

    def test_scatter_units_match_write_block(
        self, pcm_model, precise_iterations
    ):
        """Same values => same per-word cost accounting as write_block."""
        values = np.arange(1000, 1200, dtype=np.uint32)
        st_block = MemoryStats()
        a_block = make_approx(
            pcm_model, precise_iterations, [0] * 200, st_block, seed=1
        )
        a_block.write_block(0, values)
        st_scatter = MemoryStats()
        a_scatter = make_approx(
            pcm_model, precise_iterations, [0] * 200, st_scatter, seed=1
        )
        a_scatter.scatter_np(np.arange(200), values)
        assert st_scatter.approx_writes == st_block.approx_writes == 200
        assert st_scatter.approx_write_units == pytest.approx(
            st_block.approx_write_units
        )

    def test_scatter_corruption_counted_and_stored(
        self, pcm_model, precise_iterations
    ):
        stats = MemoryStats()
        n = 20_000
        arr = make_approx(pcm_model, precise_iterations, [0] * n, stats, seed=3)
        values = np.random.default_rng(7).integers(
            0, 2**32, size=n, dtype=np.uint32
        )
        arr.scatter_np(np.arange(n), values)
        stored = np.asarray(arr.to_list(), dtype=np.uint32)
        deviations = int(np.count_nonzero(stored != values))
        assert stats.corrupted_writes == deviations
        assert deviations > 0  # at T=0.055 corruption is overwhelmingly likely

    def test_scatter_duplicate_indices_all_accounted(
        self, pcm_model, precise_iterations
    ):
        stats = MemoryStats()
        arr = make_approx(pcm_model, precise_iterations, [0] * 4, stats)
        arr.scatter_np(np.array([2, 2]), np.array([7, 9]))
        assert stats.approx_writes == 2  # both writes cost, even if shadowed


class TestSpintronicArray:
    def test_scatter_energy_units(self):
        model = SpintronicErrorModel(
            SpintronicParams(energy_saving=0.5, bit_error_rate=1e-4)
        )
        stats = MemoryStats()
        arr = SpintronicArray([0] * 50, model=model, stats=stats)
        arr.scatter_np(np.arange(50), np.arange(50))
        assert stats.approx_writes == 50
        assert stats.approx_write_units == pytest.approx(0.5 * 50)

    def test_read_block_np(self):
        model = SpintronicErrorModel(
            SpintronicParams(energy_saving=0.05, bit_error_rate=1e-7)
        )
        stats = MemoryStats()
        arr = SpintronicArray(range(12), model=model, stats=stats)
        assert arr.read_block_np(3, 4).tolist() == [3, 4, 5, 6]
        assert stats.approx_reads == 4


class TestRejectedBlockWrites:
    """A block write whose destination does not fit raises before it moves
    any counter, write count or trace event, like a rejected scalar write
    (tests/verify/test_sanitizer.py)."""

    REJECTED = {
        "block_past_end": (
            lambda arr: arr.write_block(2, np.array([1, 2, 3, 4])),
            ValueError,
        ),
        # A small list is the list lane of a block write: its destination
        # and its words are checked before it moves anything too.
        "list_past_end": (
            lambda arr: arr.write_block(2, [1, 2, 3, 4]),
            ValueError,
        ),
        "list_word_out_of_range": (
            lambda arr: arr.write_block(0, [1, 1 << 32]),
            ValueError,
        ),
        "scatter_index_out_of_range": (
            lambda arr: arr.scatter_np(np.array([0, 9]), np.array([1, 2])),
            IndexError,
        ),
        # A non-integral word is refused like an out-of-range one, never
        # truncated: on the list lane, the ndarray path, scatters and
        # scalar writes alike.
        "list_word_not_integral": (
            lambda arr: arr.write_block(0, [1, 2.5]),
            ValueError,
        ),
        "list_word_just_below_word_limit": (
            lambda arr: arr.write_block(0, [2**32 - 0.5]),
            ValueError,
        ),
        "ndarray_word_not_integral": (
            lambda arr: arr.write_block(0, np.array([1.0, 1.5])),
            ValueError,
        ),
        "ndarray_word_nan": (
            lambda arr: arr.write_block(0, np.array([np.nan])),
            ValueError,
        ),
        "scatter_word_not_integral": (
            lambda arr: arr.scatter_np(np.array([0]), np.array([0.5])),
            ValueError,
        ),
        "scalar_word_not_integral": (
            lambda arr: arr.write(0, 2.5),
            ValueError,
        ),
        "scalar_numpy_float_not_integral": (
            lambda arr: arr.write(1, np.float64(7.25)),
            ValueError,
        ),
        "scatter_fewer_values_than_indices": (
            lambda arr: arr.scatter_np(np.array([0, 1, 2]), np.array([5])),
            ValueError,
        ),
    }

    @staticmethod
    def make(kind, pcm_model, precise_iterations, events):
        def trace(op, region, index):
            events.append((op, index))

        if kind == "precise":
            return PreciseArray([0] * 4, trace=trace)
        if kind == "approx":
            arr = make_approx(
                pcm_model, precise_iterations, [0] * 4, MemoryStats(), seed=3
            )
        else:
            model = SpintronicErrorModel(
                SpintronicParams(energy_saving=0.5, bit_error_rate=1e-2)
            )
            arr = SpintronicArray([0] * 4, model=model, seed=3)
        arr.trace = trace
        return arr

    @pytest.mark.parametrize("case", list(REJECTED))
    @pytest.mark.parametrize("kind", ["precise", "approx", "spintronic"])
    def test_rejected_block_write_charges_nothing(
        self, kind, case, pcm_model, precise_iterations
    ):
        events, twin_events = [], []
        arr = self.make(kind, pcm_model, precise_iterations, events)
        twin = self.make(kind, pcm_model, precise_iterations, twin_events)
        call, error = self.REJECTED[case]
        with pytest.raises(error):
            call(arr)
        assert arr.stats.as_dict() == MemoryStats().as_dict()
        assert events == []
        assert arr.to_list() == [0, 0, 0, 0]
        if kind != "precise":
            assert write_counts(arr) == write_counts(twin)
        # The next accepted write behaves as on an array that never saw
        # the rejected one.
        for target in (arr, twin):
            target.write_block(0, np.array([7, 8, 9, 10], dtype=np.uint32))
        assert arr.to_list() == twin.to_list()
        assert arr.stats.as_dict() == twin.stats.as_dict()
        assert events == twin_events


class TestIntegralWords:
    """Integral floats, bools and numpy integers are words: each write
    behaves as the same write of the equal int."""

    @pytest.mark.parametrize("value", [2.0, True, np.uint32(2), np.int64(2)],
                             ids=["float", "bool", "uint32", "int64"])
    @pytest.mark.parametrize("kind", ["precise", "approx", "spintronic"])
    def test_scalar_write_equals_int_write(
        self, kind, value, pcm_model, precise_iterations
    ):
        make = TestRejectedBlockWrites.make
        arr = make(kind, pcm_model, precise_iterations, [])
        twin = make(kind, pcm_model, precise_iterations, [])
        arr.write(1, value)
        twin.write(1, int(value))
        assert arr.to_list() == twin.to_list()
        assert arr.stats.as_dict() == twin.stats.as_dict()
        if kind != "precise":
            assert write_counts(arr) == write_counts(twin)

    def test_construction_refuses_non_integral_words(self):
        with pytest.raises(ValueError, match="not an integer"):
            PreciseArray([1.9, 2**32 - 0.5])
        assert PreciseArray([1.0, 2**32 - 1.0]).to_list() == [1, 2**32 - 1]


def write_counts(arr):
    """Where ``arr``'s keyed corruption stands: its stream id and the
    accounted write count of every word (the only state its draws read)."""
    return arr._stream, arr._versions.tolist()


class TestRejectedScalarWrites:
    """A scalar write to an index outside [0, n) raises IndexError before
    any counter, write count, trace event or store moves; without the check
    the memoryview wraps -1 to the last slot and refuses n only after the
    write was charged."""

    @pytest.mark.parametrize("index", [4, -1, 9, -5])
    @pytest.mark.parametrize("kind", ["precise", "approx", "spintronic"])
    def test_rejected_scalar_write_charges_nothing(
        self, kind, index, pcm_model, precise_iterations
    ):
        events, twin_events = [], []
        make = TestRejectedBlockWrites.make
        arr = make(kind, pcm_model, precise_iterations, events)
        twin = make(kind, pcm_model, precise_iterations, twin_events)
        with pytest.raises(IndexError):
            arr.write(index, 5)
        assert arr.stats.as_dict() == MemoryStats().as_dict()
        assert events == []
        assert arr.to_list() == [0, 0, 0, 0]
        if kind != "precise":
            assert write_counts(arr) == write_counts(twin)
        # The next accepted write behaves as on an array that never saw
        # the rejected one.
        for target in (arr, twin):
            target.write(3, 0xDEADBEEF)
        assert arr.to_list() == twin.to_list()
        assert arr.stats.as_dict() == twin.stats.as_dict()
        assert events == twin_events
        if kind != "precise":
            assert write_counts(arr) == write_counts(twin)
