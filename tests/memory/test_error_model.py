"""Tests for the compiled per-T word error model and its keyed sampler."""

import random

import numpy as np
import pytest

from repro.memory import keyed
from repro.memory.approx_array import LIST_LANE_MAX_WORDS, ApproxArray
from repro.memory.config import CELLS_PER_WORD, MLCParams, SpintronicParams
from repro.memory.error_model import (
    MODEL_CACHE,
    CellCharacteristics,
    WordErrorModel,
    characterize_cells,
    get_model,
    precise_reference_model,
)
from repro.memory.spintronic import SpintronicErrorModel

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


def word_cost(model, value):
    """Expected #P of writing ``value`` (averaged over its cells)."""
    return sum(
        w * n for w, n in zip(model.level_weights(1.0), model.word_write_cost(value))
    )


def random_words(seed, size):
    return np.random.default_rng(seed).integers(
        0, 2**32, size=size, dtype=np.uint64
    ).astype(np.uint32)


def keyed_block(model, values, stream, p_ok=None):
    """``corrupt_block`` of ``values`` written once each at addresses
    ``0..n-1`` of stream ``stream``."""
    return model.corrupt_block(
        values, stream, slice(0, values.size),
        np.zeros(values.size, np.uint32), p_ok,
    )


class TestWordCost:
    def test_write_cost_positive_and_bounded(self, sweet_model):
        for value in (0, 1, 0xFFFFFFFF, 0xDEADBEEF):
            assert sum(sweet_model.word_write_cost(value)) == CELLS_PER_WORD
            assert 1.0 <= word_cost(sweet_model, value) <= 10.0

    def test_write_cost_matches_mean_iterations(self, sweet_model):
        """Cost of a word of identical cells equals that level's mean #P."""
        iters = sweet_model.characteristics.mean_iterations
        for level in range(4):
            word = int(sum(level << (2 * k) for k in range(CELLS_PER_WORD)))
            counts = [0] * 4
            counts[level] = CELLS_PER_WORD
            assert sweet_model.word_write_cost(word) == tuple(counts)
            assert word_cost(sweet_model, word) == pytest.approx(iters[level])

    def test_block_cost_matches_scalar(self, sweet_model):
        values = np.array([0, 123456, 0xFFFFFFFF, 987654321], dtype=np.uint32)
        block, _ = sweet_model.block_cost_and_no_error(values)
        scalar = [sweet_model.word_write_cost(int(v)) for v in values]
        assert block == tuple(map(sum, zip(*scalar)))


class TestLevelCounts:
    """The popcount level counts equal the per-cell definition."""

    @pytest.mark.parametrize("size", [0, 1, 2, 7, 1000, 70_001])
    def test_popcounts_equal_cell_by_cell(self, sweet_model, size):
        values = random_words(size, size)
        values[: size // 5] = 0xFFFFFFFF
        cells = (values[:, None] >> (2 * np.arange(16, dtype=np.uint32))) & 3
        expected = tuple(int((cells == level).sum()) for level in range(4))
        counts, _ = sweet_model.block_cost_and_no_error(values)
        assert counts == expected
        for value in values[:200].tolist():
            levels = [(value >> (2 * k)) & 3 for k in range(16)]
            assert sweet_model.word_write_cost(value) == tuple(
                levels.count(level) for level in range(4)
            )


class TestCorruption:
    def test_no_error_probability_bounds(self, sweet_model):
        for value in (0, 0xFFFFFFFF, 0x0F0F0F0F):
            p = sweet_model.word_no_error_probability(value)
            assert 0.0 < p <= 1.0

    def test_all_threes_word_never_corrupts(self, heavy_model):
        word = 0xFFFFFFFF  # every cell at level 3 (drift-safe)
        assert all(
            heavy_model.corrupt_word(word, 0, address, 0) == word
            for address in range(2_000)
        )

    def test_corruption_only_increases_cell_levels(self, heavy_model):
        rng = random.Random(1)
        for address in range(2_000):
            value = rng.getrandbits(32)
            out = heavy_model.corrupt_word(value, 1, address, 0)
            for k in range(CELLS_PER_WORD):
                assert (out >> (2 * k)) & 3 >= (value >> (2 * k)) & 3

    def test_corrupt_word_stays_in_range(self, heavy_model):
        rng = random.Random(2)
        for address in range(2_000):
            value = rng.getrandbits(32)
            assert 0 <= heavy_model.corrupt_word(value, 2, address, 0) < 2**32

    def test_empirical_rate_matches_model(self, heavy_model):
        rng = random.Random(3)
        trials = 20_000
        errors = 0
        expected = 0.0
        for address in range(trials):
            value = rng.getrandbits(32)
            expected += 1.0 - heavy_model.word_no_error_probability(value)
            if heavy_model.corrupt_word(value, 3, address, 0) != value:
                errors += 1
        assert errors / trials == pytest.approx(expected / trials, rel=0.15)

    def test_block_corruption_rate_matches_scalar(self, heavy_model):
        values = random_words(4, 20_000)
        out = keyed_block(heavy_model, values, 4)
        block_rate = np.mean(out != values)
        assert block_rate == pytest.approx(heavy_model.word_error_rate, rel=0.2)

    def test_block_corruption_only_increases_levels(self, heavy_model):
        values = random_words(5, 5_000)
        out = keyed_block(heavy_model, values, 5)
        for k in range(CELLS_PER_WORD):
            before = (values >> np.uint32(2 * k)) & np.uint32(3)
            after = (out >> np.uint32(2 * k)) & np.uint32(3)
            assert np.all(after >= before)

    def test_precise_model_rarely_corrupts(self, precise_model):
        rng = random.Random(6)
        count = 0
        for address in range(5_000):
            value = rng.getrandbits(32)
            if precise_model.corrupt_word(value, 6, address, 0) != value:
                count += 1
        assert count <= 25


class TestNoErrorFloor:
    """The sampler's floor: ``_half_p_ok.min() ** 2`` bounds every word's
    no-error probability, and comparing uniforms against it first changes
    no outcome."""

    @pytest.mark.parametrize(
        "t,floor_sparse",
        [(0.025, True), (0.055, True), (0.07, True), (0.08, False), (0.1, False)],
    )
    def test_which_t_the_floor_proves_sparse(self, t, floor_sparse):
        model = get_model(MLCParams(t=t), samples_per_level=FIT)
        assert model._floor_sparse is floor_sparse
        counts, p_ok = model.block_cost_and_no_error(
            np.arange(8, dtype=np.uint32)
        )
        assert sum(counts) == 8 * CELLS_PER_WORD
        assert (p_ok is None) is floor_sparse

    def test_floor_bounds_every_word(self, sweet_model):
        values = random_words(7, 50_000)
        floor = sweet_model._floor
        assert sweet_model.block_no_error_probability(values).min() >= floor
        lowest = int(np.argmin(sweet_model._half_p_ok))
        word = np.array([lowest | (lowest << 16)], dtype=np.uint32)
        assert sweet_model.block_no_error_probability(word)[0] == floor

    def test_summed_cost_equals_per_word_costs_exactly(self, sweet_model):
        values = random_words(8, 100_003)
        counts, _ = sweet_model.block_cost_and_no_error(values)
        per_word = [sweet_model.word_write_cost(v) for v in values.tolist()]
        assert counts == tuple(map(sum, zip(*per_word)))

    @pytest.mark.parametrize("t", [0.055, 0.065, 0.07])
    def test_floor_path_matches_full_comparison(self, t):
        model = get_model(MLCParams(t=t), samples_per_level=FIT)
        values = random_words(9, 30_000)
        by_floor = keyed_block(model, values, 10)
        by_full = keyed_block(
            model, values, 10, p_ok=model.block_no_error_probability(values)
        )
        assert np.count_nonzero(by_floor != values) > 4
        assert np.array_equal(by_floor, by_full)


#: A fitted cell errs only one level up, so which misread level a target
#: uniform picks never varies there; these rows spread it.
SPREAD = CellCharacteristics(
    transition=np.array([
        [0.96, 0.02, 0.01, 0.01],
        [0.01, 0.95, 0.03, 0.01],
        [0.005, 0.015, 0.95, 0.03],
        [0.01, 0.01, 0.03, 0.95],
    ]),
    mean_iterations=np.array([2.0, 3.0, 3.0, 1.0]),
)


def keyed_model(kind):
    """A PCM model at ``T = kind``, the spread-target PCM model, or the
    spintronic model at its highest bit error rate."""
    if kind == "spread":
        return WordErrorModel(MLCParams(t=0.1), characteristics=SPREAD)
    if kind == "spintronic":
        return SpintronicErrorModel(
            SpintronicParams(energy_saving=0.5, bit_error_rate=1e-4)
        )
    return get_model(MLCParams(t=kind), samples_per_level=FIT)


class TestKeyedForms:
    """The numpy and Python forms of the keyed sampler agree bit for bit
    on 10^5 random (word, address, version) triples."""

    TRIPLES = 100_000

    @staticmethod
    def triples(seed, size):
        rng = np.random.default_rng(seed)
        words = random_words(seed, size)
        addresses = rng.integers(0, 1 << 40, size=size, dtype=np.int64)
        versions = rng.integers(0, 1 << 32, size=size, dtype=np.uint64)
        return words, addresses, versions.astype(np.uint32)

    def test_uniforms(self):
        _, addresses, versions = self.triples(0, self.TRIPLES)
        near, mantissas = keyed.reaching(77, addresses, versions, 0)
        assert near.tolist() == list(range(self.TRIPLES))
        assert int(mantissas.max()) < keyed.MANTISSA_LIMIT
        python = [
            keyed.uniform(77, a, k)
            for a, k in zip(addresses.tolist(), versions.tolist())
        ]
        assert (mantissas.astype(np.float64) * keyed.UNIT).tolist() == python
        # The block form hashes a slice's addresses as the index form.
        block = keyed.reaching(77, slice(5, 5 + 3000), versions[:3000], 0)[1]
        index = keyed.reaching(77, np.arange(5, 3005), versions[:3000], 0)[1]
        assert np.array_equal(block, index)

    @pytest.mark.parametrize("kind", [0.055, 0.075, 0.1, "spintronic"])
    def test_words(self, kind):
        """A block and the same writes made word by word store the same."""
        model = keyed_model(kind)
        words, addresses, versions = self.triples(1, self.TRIPLES)
        block = model.corrupt_block(words, 3, addresses, versions)
        scalar = [
            model.corrupt_word(w, 3, a, k)
            for w, a, k in zip(
                words.tolist(), addresses.tolist(), versions.tolist()
            )
        ]
        assert block.tolist() == scalar
        if kind != "spintronic":
            assert np.count_nonzero(block != words) > 50

    @pytest.mark.parametrize(
        "kind", [0.055, 0.075, 0.1, "spread", "spintronic"]
    )
    def test_erring_word_resolution(self, kind):
        """Forced to err, every triple resolves alike in both forms."""
        law = keyed_model(kind).law
        words, addresses, versions = self.triples(2, self.TRIPLES)
        targets = np.random.default_rng(3).random(self.TRIPLES) * 0.5
        stored = law.resolve_np(words, targets, 9, addresses, versions)
        python = [
            law.resolve(w, t, 9, a, k)
            for w, t, a, k in zip(
                words.tolist(), targets.tolist(), addresses.tolist(),
                versions.tolist(),
            )
        ]
        assert stored.tolist() == python
        assert np.count_nonzero(stored != words) > self.TRIPLES // 2


class TestDenseWalk:
    """At high T most words err: the Python walk over an erring word's
    cells (``CellLaw.resolve``) stores what the numpy column loop over a
    block of them (``CellLaw.resolve_np``) stores, first erring cell,
    later cells and misread targets alike."""

    @pytest.mark.parametrize("t", [0.075, 0.1, 0.124, "spread"])
    def test_walk_matches_column_loop(self, t):
        model = keyed_model(t)
        keys = random_words(21, 4_000)
        if t == "spread":
            keys[::7] = 0xFFFFFFFF
        versions = np.arange(keys.size, dtype=np.uint32) % 5
        addresses = np.arange(keys.size, dtype=np.int64)
        u = keyed.reaching(4, addresses, versions, 0)[1] * keyed.UNIT
        p_ok = model.block_no_error_probability(keys)
        err = np.flatnonzero(u >= p_ok)
        loop = model.law.resolve_np(
            keys[err], u[err] - p_ok[err], 4, addresses[err], versions[err]
        )
        walked = [
            model.law.resolve(int(keys[i]), float(u[i] - p_ok[i]), 4, i,
                              int(versions[i]))
            for i in err.tolist()
        ]
        assert loop.dtype == np.uint32
        assert loop.tolist() == walked
        assert np.count_nonzero(loop != keys[err]) > 100


LANE_T = (0.025, 0.055, 0.07, 0.075, 0.1, 0.124)


class TestListLane:
    """A block write of a short list takes the array's list lane, which
    resolves it word by word with the Python forms: same stored words,
    counts and write counts as the same block as an ndarray."""

    @pytest.mark.parametrize("t", LANE_T)
    def test_matches_block_path(self, t):
        model = get_model(MLCParams(t=t), samples_per_level=FIT)
        rng = np.random.default_rng(int(t * 1000))
        lane, block = (
            ApproxArray(np.zeros(64, np.uint32), model=model,
                        precise_iterations=3.0, seed=8)
            for _ in "ab"
        )
        for trial in range(120):
            m = int(rng.integers(1, LIST_LANE_MAX_WORDS + 1))
            start = int(rng.integers(0, 64 - m + 1))
            values = rng.integers(0, 2**32, m, dtype=np.uint64).astype(np.uint32)
            if trial % 10 == 0:
                values[:] = 0
            lane.write_block(start, values.tolist())
            block.write_block(start, values)
            assert lane.to_list() == block.to_list()
            assert lane.stats.as_dict() == block.stats.as_dict()
        assert np.array_equal(lane._versions, block._versions)
        if t >= 0.07:
            assert lane.stats.corrupted_writes > 0

    def test_scalar_floor_bounds_every_word(self, sweet_model):
        floor = sweet_model._floor
        values = random_words(4, 20_000)
        assert min(
            sweet_model.word_no_error_probability(v) for v in values.tolist()
        ) >= floor
        low = int(np.argmin(sweet_model._byte_p_ok_list))
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
