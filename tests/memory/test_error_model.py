"""Tests for the compiled per-T word error model."""

import random

import numpy as np
import pytest

from repro.memory.approx_array import ApproxArray
from repro.memory.config import CELLS_PER_WORD, MLCParams
from repro.memory.error_model import (
    DENSE_WALK_MAX_WORDS,
    LIST_LANE_MAX_WORDS,
    MODEL_CACHE,
    STREAM_CHUNK,
    CellCharacteristics,
    UniformStream,
    WordErrorModel,
    characterize_cells,
    get_model,
    pairwise_sum,
    precise_reference_model,
)

FIT = 8_000


@pytest.fixture(scope="module")
def sweet_model() -> WordErrorModel:
    return get_model(MLCParams(t=0.055), samples_per_level=FIT)


@pytest.fixture(scope="module")
def heavy_model() -> WordErrorModel:
    return get_model(MLCParams(t=0.12), samples_per_level=FIT)


@pytest.fixture(scope="module")
def precise_model() -> WordErrorModel:
    return get_model(MLCParams(t=0.025), samples_per_level=FIT)


class TestCharacterizeCells:
    def test_transition_rows_are_distributions(self, heavy_model):
        transition = heavy_model.characteristics.transition
        assert transition.shape == (4, 4)
        assert np.allclose(transition.sum(axis=1), 1.0)
        assert np.all(transition >= 0)

    def test_top_level_never_errs(self, heavy_model):
        """Unidirectional drift: level 3 has no higher level to reach."""
        assert heavy_model.characteristics.error_rate_by_level[3] == 0.0

    def test_errors_go_upward_only(self, heavy_model):
        transition = heavy_model.characteristics.transition
        lower = np.tril(transition, k=-1)
        assert np.all(lower == 0.0)

    def test_mean_iterations_positive(self, sweet_model):
        assert np.all(sweet_model.characteristics.mean_iterations >= 1.0)

    def test_characterize_standalone(self):
        chars = characterize_cells(MLCParams(t=0.06), samples_per_level=2_000)
        assert 0 <= chars.avg_error_rate < 0.05
        assert 1.0 < chars.avg_iterations < 4.0


class TestWordErrorModelBasics:
    def test_requires_four_levels(self):
        with pytest.raises(ValueError):
            WordErrorModel(MLCParams(levels=8, t=0.05), samples_per_level=500)

    def test_word_error_rate_consistent_with_cell_rate(self, sweet_model):
        p_cell = sweet_model.cell_error_rate
        expected = 1 - (1 - p_cell) ** CELLS_PER_WORD
        # The word rate averages per-level survivals rather than using the
        # mean cell rate, so allow a generous band.
        assert sweet_model.word_error_rate == pytest.approx(expected, rel=0.5)

    def test_p_ratio_against_reference(self, sweet_model, precise_model):
        ratio = sweet_model.p_ratio(precise_model)
        assert 0.6 < ratio < 0.72  # paper: ~33% write-latency reduction

    def test_p_ratio_paper_constant_fallback(self, sweet_model):
        assert sweet_model.p_ratio() == pytest.approx(
            sweet_model.avg_word_iterations / 3.0
        )

    def test_precise_model_is_nearly_error_free(self, precise_model):
        assert precise_model.word_error_rate < 1e-3


class TestWordCost:
    def test_write_cost_positive_and_bounded(self, sweet_model):
        for value in (0, 1, 0xFFFFFFFF, 0xDEADBEEF):
            cost = sweet_model.word_write_cost(value)
            assert 1.0 <= cost <= 10.0

    def test_write_cost_matches_mean_iterations(self, sweet_model):
        """Cost of a word of identical cells equals that level's mean #P."""
        iters = sweet_model.characteristics.mean_iterations
        for level in range(4):
            word = int(sum(level << (2 * k) for k in range(CELLS_PER_WORD)))
            assert sweet_model.word_write_cost(word) == pytest.approx(
                iters[level]
            )

    def test_block_cost_matches_scalar(self, sweet_model):
        values = np.array([0, 123456, 0xFFFFFFFF, 987654321], dtype=np.uint32)
        block = sweet_model.block_write_cost(values)
        scalar = [sweet_model.word_write_cost(int(v)) for v in values]
        assert np.allclose(block, scalar)


class TestCorruption:
    def test_no_error_probability_bounds(self, sweet_model):
        for value in (0, 0xFFFFFFFF, 0x0F0F0F0F):
            p = sweet_model.word_no_error_probability(value)
            assert 0.0 < p <= 1.0

    def test_all_threes_word_never_corrupts(self, heavy_model):
        word = 0xFFFFFFFF  # every cell at level 3 (drift-safe)
        rng = random.Random(0)
        assert all(
            heavy_model.corrupt_word(word, rng) == word for _ in range(2_000)
        )

    def test_corruption_only_increases_cell_levels(self, heavy_model):
        rng = random.Random(1)
        for _ in range(2_000):
            value = rng.getrandbits(32)
            out = heavy_model.corrupt_word(value, random.Random(rng.random()))
            for k in range(CELLS_PER_WORD):
                assert (out >> (2 * k)) & 3 >= (value >> (2 * k)) & 3

    def test_corrupt_word_stays_in_range(self, heavy_model):
        rng = random.Random(2)
        for _ in range(2_000):
            value = rng.getrandbits(32)
            assert 0 <= heavy_model.corrupt_word(value, rng) < 2**32

    def test_empirical_rate_matches_model(self, heavy_model):
        rng = random.Random(3)
        trials = 20_000
        errors = 0
        expected = 0.0
        for _ in range(trials):
            value = rng.getrandbits(32)
            expected += 1.0 - heavy_model.word_no_error_probability(value)
            if heavy_model.corrupt_word(value, rng) != value:
                errors += 1
        assert errors / trials == pytest.approx(expected / trials, rel=0.15)

    def test_block_corruption_rate_matches_scalar(self, heavy_model):
        np_rng = np.random.default_rng(4)
        values = np_rng.integers(0, 2**32, size=20_000, dtype=np.uint64).astype(
            np.uint32
        )
        out = heavy_model.corrupt_block(values, np_rng)
        block_rate = np.mean(out != values)
        assert block_rate == pytest.approx(heavy_model.word_error_rate, rel=0.2)

    def test_block_corruption_only_increases_levels(self, heavy_model):
        np_rng = np.random.default_rng(5)
        values = np_rng.integers(0, 2**32, size=5_000, dtype=np.uint64).astype(
            np.uint32
        )
        out = heavy_model.corrupt_block(values, np_rng)
        for k in range(CELLS_PER_WORD):
            before = (values >> np.uint32(2 * k)) & np.uint32(3)
            after = (out >> np.uint32(2 * k)) & np.uint32(3)
            assert np.all(after >= before)

    def test_precise_model_rarely_corrupts(self, precise_model):
        rng = random.Random(6)
        count = 0
        for _ in range(5_000):
            value = rng.getrandbits(32)
            if precise_model.corrupt_word(value, rng) != value:
                count += 1
        assert count <= 25


class TestNoErrorFloor:
    """The block sampler's floor: ``_half_p_ok.min() ** 2`` bounds every
    word's no-error probability, and comparing uniforms against it first
    changes no draw and no outcome."""

    @pytest.mark.parametrize(
        "t,floor_sparse",
        [(0.025, True), (0.055, True), (0.07, True), (0.08, False), (0.1, False)],
    )
    def test_which_t_the_floor_proves_sparse(self, t, floor_sparse):
        model = get_model(MLCParams(t=t), samples_per_level=FIT)
        assert model._floor_sparse is floor_sparse
        cost, p_ok = model.block_cost_and_no_error(np.arange(8, dtype=np.uint32))
        assert isinstance(cost, float)
        assert (p_ok is None) is floor_sparse

    def test_floor_bounds_every_word(self, sweet_model):
        values = np.random.default_rng(7).integers(
            0, 2**32, size=50_000, dtype=np.uint64
        ).astype(np.uint32)
        floor = sweet_model._no_error_floor
        assert sweet_model.block_no_error_probability(values).min() >= floor
        lowest = int(np.argmin(sweet_model._half_p_ok))
        word = np.array([lowest | (lowest << 16)], dtype=np.uint32)
        assert sweet_model.block_no_error_probability(word)[0] == floor

    def test_summed_cost_equals_per_word_costs_exactly(self, sweet_model):
        values = np.random.default_rng(8).integers(
            0, 2**32, size=100_003, dtype=np.uint64
        ).astype(np.uint32)
        cost, _ = sweet_model.block_cost_and_no_error(values)
        assert cost == float(sweet_model.block_write_cost(values).sum())

    @pytest.mark.parametrize("t", [0.055, 0.065, 0.07])
    def test_floor_path_matches_full_comparison(self, t):
        model = get_model(MLCParams(t=t), samples_per_level=FIT)
        values = np.random.default_rng(9).integers(
            0, 2**32, size=30_000, dtype=np.uint64
        ).astype(np.uint32)
        floor_rng, full_rng = (np.random.default_rng(10) for _ in range(2))
        by_floor = model.corrupt_block(values, floor_rng)
        by_full = model.corrupt_block(
            values, full_rng, p_ok=model.block_no_error_probability(values)
        )
        assert np.count_nonzero(by_floor != values) > 4
        assert np.array_equal(by_floor, by_full)
        assert floor_rng.bit_generator.state == full_rng.bit_generator.state


class TestDenseWalk:
    """On an array's :class:`UniformStream`, dense blocks of at most
    ``DENSE_WALK_MAX_WORDS`` words are walked in Python over a peeked
    window and larger ones take the vectorised walk; stored words and the
    stream's next uniform equal the per-column loop's on a bare generator."""

    @staticmethod
    def dense_both_ways(model, values, make_rng, monkeypatch):
        """``_corrupt_block_dense`` on a stream over ``make_rng()``, then
        on a bare ``make_rng()`` (the column loop); with the path taken."""
        taken = []
        for name in ("_walk", "_sweep"):
            method = getattr(type(model), name)

            def counted(self, vals, stream, name=name, method=method):
                taken.append(name)
                return method(self, vals, stream)

            monkeypatch.setattr(type(model), name, counted)
        stream = UniformStream(make_rng())
        dispatched = model._corrupt_block_dense(values, stream)
        loop_rng = make_rng()
        loop = model._corrupt_block_dense(values, loop_rng)
        return dispatched, stream, loop, loop_rng, taken

    #: A fitted cell errs only one level up, so which misread level a
    #: target uniform picks never varies there; these rows spread it.
    SPREAD = CellCharacteristics(
        transition=np.array([
            [0.96, 0.02, 0.01, 0.01],
            [0.01, 0.95, 0.03, 0.01],
            [0.005, 0.015, 0.95, 0.03],
            [0.01, 0.01, 0.03, 0.95],
        ]),
        mean_iterations=np.array([2.0, 3.0, 3.0, 1.0]),
    )

    @pytest.mark.parametrize("t", [0.075, 0.1, 0.124, "spread"])
    def test_walk_matches_column_loop(self, t, monkeypatch):
        if t == "spread":
            model = WordErrorModel(MLCParams(t=0.1), characteristics=self.SPREAD)
        else:
            model = get_model(MLCParams(t=t), samples_per_level=FIT)
        keys = np.random.default_rng(21).integers(
            0, 2**32, size=(DENSE_WALK_MAX_WORDS + 8) * 4, dtype=np.uint64
        ).astype(np.uint32)
        corrupted = 0
        for m in range(1, DENSE_WALK_MAX_WORDS + 9):
            for seed in range(4):
                values = keys[seed * m : (seed + 1) * m]
                walked, stream, loop, loop_rng, taken = self.dense_both_ways(
                    model, values, lambda: np.random.default_rng((seed, m)),
                    monkeypatch,
                )
                expect = "_walk" if m <= DENSE_WALK_MAX_WORDS else "_sweep"
                assert taken == [expect]
                assert walked.dtype == np.uint32
                assert np.array_equal(walked, loop), (m, seed)
                assert stream.random() == loop_rng.random(), (m, seed)
                corrupted += int(np.count_nonzero(walked != values))
        assert corrupted > 100

    @pytest.mark.parametrize("t", [0.075, 0.1, "spread"])
    def test_sweep_matches_column_loop(self, t, monkeypatch):
        """The vectorised walk, 65 to 5,000 words, including all-ones
        blocks (every cell at level 3, which no fitted cell leaves)."""
        if t == "spread":
            model = WordErrorModel(MLCParams(t=0.1), characteristics=self.SPREAD)
        else:
            model = get_model(MLCParams(t=t), samples_per_level=FIT)
        rng = np.random.default_rng(22)
        for m in (65, 97, 256, 1000, STREAM_CHUNK - 1, STREAM_CHUNK, 5000):
            for fill in (None, 0xFFFFFFFF):
                values = rng.integers(0, 2**32, m, dtype=np.uint64).astype(
                    np.uint32
                )
                if fill is not None:
                    values[:] = fill
                swept, stream, loop, loop_rng, taken = self.dense_both_ways(
                    model, values, lambda: np.random.default_rng(m),
                    monkeypatch,
                )
                assert taken == ["_sweep"]
                assert swept.dtype == np.uint32
                assert np.array_equal(swept, loop), (m, fill)
                assert stream.random() == loop_rng.random(), (m, fill)

    def test_other_generators_keep_the_column_loop(self, monkeypatch):
        """A bare generator, PCG64 or not, runs the column loop; a stream
        over any bit generator walks to the same words."""
        model = get_model(MLCParams(t=0.1), samples_per_level=FIT)
        values = np.random.default_rng(3).integers(
            0, 2**32, size=10, dtype=np.uint64
        ).astype(np.uint32)
        make = lambda: np.random.Generator(np.random.MT19937(4))  # noqa: E731
        walked, stream, loop, loop_rng, taken = self.dense_both_ways(
            model, values, make, monkeypatch
        )
        assert taken == ["_walk"]  # the stream's call; the bare one looped
        assert np.array_equal(walked, loop)
        assert np.count_nonzero(walked != values) > 0
        assert stream.random() == loop_rng.random()

    def test_block_generator_draws_only_float64_uniforms(self):
        """Every draw an array's block writes make is a float64 ``random``
        through its stream, and the stream's logical position is a bare
        generator's after the same ``corrupt_block`` calls, on every path."""

        class Recording:
            def __init__(self, inner):
                self.inner, self.calls = inner, []

            def random(self, *args, **kwargs):
                self.calls.append(("random", len(args), tuple(kwargs)))
                return self.inner.random(*args, **kwargs)

        keys = np.random.default_rng(5).integers(
            0, 2**32, size=4096, dtype=np.uint64
        ).astype(np.uint32)
        calls = []
        for t in (0.025, 0.055, 0.07, 0.075, 0.1, 0.124):
            model = get_model(MLCParams(t=t), samples_per_level=FIT)
            arr = ApproxArray(
                np.zeros(keys.size, np.uint32), model=model,
                precise_iterations=3.0, seed=6,
            )
            recording = Recording(arr._stream._rng)
            arr._stream._rng = recording
            twin = np.random.default_rng((6, 0x5EED))
            for m in (1, 10, DENSE_WALK_MAX_WORDS, DENSE_WALK_MAX_WORDS + 1, 4096):
                arr.write_block(0, keys[:m])
                assert np.array_equal(
                    arr.to_numpy()[:m], model.corrupt_block(keys[:m], twin)
                )
                arr.scatter_np(np.arange(m)[::-1], keys[-m:])
                assert np.array_equal(
                    arr.to_numpy()[:m][::-1],
                    model.corrupt_block(keys[-m:], twin),
                )
                assert arr._stream.random() == twin.random()
            assert recording.inner.bit_generator.state["has_uint32"] == 0
            calls += recording.calls
        assert calls and set(calls) <= {
            ("random", 1, ()), ("random", 1, ("out",)),
        }


class TestUniformStream:
    """The buffered stream yields the generator's float64 sequence."""

    @staticmethod
    def pair(seed=7):
        return (
            UniformStream(np.random.default_rng(seed)),
            np.random.default_rng(seed),
        )

    def test_requests_spanning_a_refill(self):
        stream, bare = self.pair()
        for count in (1, STREAM_CHUNK - 10, 100, 7, STREAM_CHUNK - 1):
            assert np.array_equal(stream.take(count), bare.random(count))
        assert stream.random() == bare.random()
        assert stream.position == 2 * STREAM_CHUNK + 98

    def test_large_requests_bypass_the_buffer(self):
        stream, bare = self.pair()
        stream.take(5)
        bare.random(5)
        big = stream.take(3 * STREAM_CHUNK)
        assert np.array_equal(big, bare.random(3 * STREAM_CHUNK))
        assert stream._buf.size == 0
        assert stream.random() == bare.random()
        assert stream.position == 3 * STREAM_CHUNK + 6

    def test_shapes_and_scalars_match_generator(self):
        stream, bare = self.pair()
        assert np.array_equal(stream.random((3, 16)), bare.random((3, 16)))
        value = stream.random()
        assert type(value) is float
        assert value == bare.random()
        assert np.array_equal(stream.random(4), bare.random(4))

    def test_peek_consumes_only_what_is_skipped(self):
        stream, bare = self.pair()
        stream.take(STREAM_CHUNK - 3)
        bare.random(STREAM_CHUNK - 3)
        buf, start = stream.peek(2048)
        window = buf[start : start + 2048].copy()
        assert np.array_equal(window[:10], bare.random(10))
        stream.skip(10)
        assert np.array_equal(stream.take(5), bare.random(5))
        assert np.array_equal(window[10:15], buf[start + 10 : start + 15])


LANE_T = (0.025, 0.055, 0.07, 0.075, 0.1, 0.124)


class TestListLane:
    """``corrupt_list`` is ``block_cost_and_no_error`` plus
    ``corrupt_block`` on lists: same cost, stored words, corrupted count
    and stream position."""

    @pytest.mark.parametrize("terms", [7, 8, 9])
    def test_pairwise_order_matches_numpy(self, terms):
        """Fails loudly if numpy changes its summation order."""
        rng = np.random.default_rng(terms)
        scales = np.array([1.0, 1e8, 1e-8])
        for _ in range(200):
            x = rng.random(terms) * rng.choice(scales, terms)
            assert pairwise_sum(x.tolist()) == float(x.sum())
        sums_differ = [1e16, 1.0, -1e16, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0][:terms]
        assert pairwise_sum(sums_differ) == float(np.array(sums_differ).sum())

    def test_pairwise_sum_every_length_to_128(self):
        rng = np.random.default_rng(0)
        for n in range(1, 129):
            x = rng.random(n) * rng.choice([1.0, 1e9, 1e-9], n)
            assert pairwise_sum(x.tolist()) == float(x.sum()), n

    @pytest.mark.parametrize("t", LANE_T)
    def test_matches_block_path(self, t):
        model = get_model(MLCParams(t=t), samples_per_level=FIT)
        rng = np.random.default_rng(int(t * 1000))
        erred = 0
        for trial in range(120):
            m = int(rng.integers(1, LIST_LANE_MAX_WORDS + 1))
            values = rng.integers(0, 2**32, m, dtype=np.uint64).astype(np.uint32)
            if trial % 10 == 0:
                values[:] = 0
            block, lane = (
                UniformStream(np.random.default_rng((trial, m))) for _ in "ab"
            )
            block.take(trial)
            lane.take(trial)
            cost, p_ok = model.block_cost_and_no_error(values)
            stored = model.corrupt_block(values, block, p_ok=p_ok)
            lane_cost, lane_stored, corrupted = model.corrupt_list(
                values.tolist(), lane
            )
            assert lane_cost == cost
            assert lane_stored == stored.tolist()
            assert corrupted == int(np.count_nonzero(stored != values))
            assert lane.position == block.position
            erred += corrupted
        if t >= 0.07:
            assert erred > 0

    def test_scalar_floor_bounds_every_word(self, sweet_model):
        floor = sweet_model._scalar_no_error_floor
        values = np.random.default_rng(4).integers(
            0, 2**32, size=20_000, dtype=np.uint64
        ).astype(np.uint32)
        assert min(
            sweet_model.word_no_error_probability(v) for v in values.tolist()
        ) >= floor
        low = int(np.argmin(sweet_model._byte_p_ok))
        word = low | low << 8 | low << 16 | low << 24
        assert sweet_model.word_no_error_probability(word) == floor


class TestModelCache:
    def test_same_params_share_instance(self):
        a = get_model(MLCParams(t=0.07), samples_per_level=2_000)
        b = get_model(MLCParams(t=0.07), samples_per_level=2_000)
        assert a is b

    def test_different_t_distinct_instances(self):
        a = get_model(MLCParams(t=0.07), samples_per_level=2_000)
        b = get_model(MLCParams(t=0.075), samples_per_level=2_000)
        assert a is not b

    def test_precise_reference_model(self):
        reference = precise_reference_model(
            MLCParams(t=0.09), samples_per_level=2_000
        )
        assert reference.params.t == 0.025

    def test_cache_clear(self):
        a = get_model(MLCParams(t=0.08), samples_per_level=1_000)
        MODEL_CACHE.clear()
        b = get_model(MLCParams(t=0.08), samples_per_level=1_000)
        assert a is not b
