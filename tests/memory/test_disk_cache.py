"""Tests for the persistent characterization cache.

The disk layer persists the Monte-Carlo fit (a 4x4 transition matrix plus
four mean iteration counts) per configuration, so repeated ``get_model``
calls — across processes, T-sweeps and experiment runs — pay for each fit
once per machine.  ``FIT_CALLS`` counts actual Monte-Carlo fits, which is
how these tests prove a warm cache does no sampling at all.
"""

import numpy as np
import pytest

from repro.memory import error_model
from repro.memory.config import MLCParams
from repro.memory.error_model import (
    CACHE_DIR_ENV,
    CACHE_VERSION,
    characterize_cells,
    characterize_cells_cached,
    clear_disk_cache,
    get_model,
    model_cache_dir,
)

FIT = 2_000
PARAMS = MLCParams(t=0.06)


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """Point the disk cache at a private directory and clear the in-memory
    model cache so every get_model miss exercises the disk layer."""
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    error_model.MODEL_CACHE.clear()
    yield tmp_path
    error_model.MODEL_CACHE.clear()


def fit_calls() -> int:
    return error_model.FIT_CALLS


class TestCacheDirResolution:
    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        assert model_cache_dir() == tmp_path

    @pytest.mark.parametrize("value", ["", "0", "off", "none", "None", " OFF "])
    def test_disabling_values(self, monkeypatch, value):
        monkeypatch.setenv(CACHE_DIR_ENV, value)
        assert model_cache_dir() is None

    def test_default_under_home_cache(self, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        path = model_cache_dir()
        assert path is not None
        assert path.name == "repro-approx-sort"


class TestCharacterizationCache:
    def test_cold_fit_writes_entry(self, cache_dir):
        before = fit_calls()
        characterize_cells_cached(PARAMS, FIT, seed=0)
        assert fit_calls() == before + 1
        entries = list(cache_dir.glob(f"cells-v{CACHE_VERSION}-*.npz"))
        assert len(entries) == 1

    def test_warm_fit_does_no_sampling(self, cache_dir):
        first = characterize_cells_cached(PARAMS, FIT, seed=0)
        before = fit_calls()
        second = characterize_cells_cached(PARAMS, FIT, seed=0)
        assert fit_calls() == before  # zero Monte-Carlo fits
        np.testing.assert_array_equal(first.transition, second.transition)
        np.testing.assert_array_equal(
            first.mean_iterations, second.mean_iterations
        )

    def test_cached_fit_matches_direct_fit(self, cache_dir):
        cached = characterize_cells_cached(PARAMS, FIT, seed=3)
        direct = characterize_cells(PARAMS, FIT, seed=3)
        np.testing.assert_array_equal(cached.transition, direct.transition)
        np.testing.assert_array_equal(
            cached.mean_iterations, direct.mean_iterations
        )

    def test_key_distinguishes_configurations(self, cache_dir):
        characterize_cells_cached(PARAMS, FIT, seed=0)
        characterize_cells_cached(PARAMS, FIT, seed=1)
        characterize_cells_cached(MLCParams(t=0.07), FIT, seed=0)
        characterize_cells_cached(PARAMS, FIT + 1, seed=0)
        entries = list(cache_dir.glob(f"cells-v{CACHE_VERSION}-*.npz"))
        assert len(entries) == 4

    def test_corrupt_entry_refits(self, cache_dir):
        characterize_cells_cached(PARAMS, FIT, seed=0)
        (entry,) = cache_dir.glob(f"cells-v{CACHE_VERSION}-*.npz")
        entry.write_bytes(b"not a npz")
        before = fit_calls()
        result = characterize_cells_cached(PARAMS, FIT, seed=0)
        assert fit_calls() == before + 1  # fell back to a real fit
        assert result.transition.shape == (PARAMS.levels, PARAMS.levels)

    def test_disabled_cache_always_fits(self, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, "off")
        before = fit_calls()
        characterize_cells_cached(PARAMS, FIT, seed=0)
        characterize_cells_cached(PARAMS, FIT, seed=0)
        assert fit_calls() == before + 2

    def test_clear_disk_cache(self, cache_dir):
        characterize_cells_cached(PARAMS, FIT, seed=0)
        characterize_cells_cached(PARAMS, FIT, seed=1)
        assert clear_disk_cache() == 2
        assert clear_disk_cache() == 0


class TestGetModelIntegration:
    def test_warm_get_model_does_no_sampling(self, cache_dir):
        get_model(PARAMS, samples_per_level=FIT)
        error_model.MODEL_CACHE.clear()
        before = fit_calls()
        model = get_model(PARAMS, samples_per_level=FIT)
        assert fit_calls() == before  # compiled purely from the disk entry
        assert model.params == PARAMS

    def test_warm_model_behaves_identically(self, cache_dir):
        import random

        cold = get_model(PARAMS, samples_per_level=FIT)
        error_model.MODEL_CACHE.clear()
        warm = get_model(PARAMS, samples_per_level=FIT)
        assert warm.word_error_rate == cold.word_error_rate
        values = [random.Random(5).getrandbits(32) for _ in range(32)]
        for address, value in enumerate(values):
            assert warm.word_write_cost(value) == cold.word_write_cost(value)
            assert warm.corrupt_word_given_u(
                value, 0.999999, 7, address, 0
            ) == cold.corrupt_word_given_u(value, 0.999999, 7, address, 0)
