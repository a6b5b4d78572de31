"""Sorters must run unmodified on every memory model in the repository."""

import pytest

from repro.memory.approx_array import ApproxArray, WORD_LIMIT
from repro.memory.config import MLCParams, SpintronicParams
from repro.memory.error_model import get_model
from repro.memory.factories import SpintronicMemoryFactory
from repro.memory.stats import MemoryStats
from repro.memory.write_combining import WriteCombiningArray
from repro.sorting.registry import make_sorter
from repro.workloads.generators import uniform_keys

ALGORITHMS = ("quicksort", "mergesort", "lsd6", "hmsd6", "natural_merge")
FIT = 8_000


def pcm_array(n, seed=0):
    model = get_model(MLCParams(t=0.08), samples_per_level=FIT)
    return ApproxArray(
        [0] * n, model=model, precise_iterations=3.0, seed=seed
    )


def spintronic_array(n, seed=0):
    factory = SpintronicMemoryFactory(
        SpintronicParams(energy_saving=0.5, bit_error_rate=5e-4)
    )
    return factory.make_array([0] * n, seed=seed)


@pytest.mark.parametrize("name", ALGORITHMS)
@pytest.mark.parametrize("array_factory", [pcm_array, spintronic_array])
def test_sorter_terminates_and_stays_in_range(name, array_factory):
    keys = uniform_keys(400, seed=1)
    array = array_factory(len(keys), seed=2)
    array.write_block(0, keys)
    make_sorter(name).sort(array)
    out = array.to_list()
    assert len(out) == len(keys)
    assert all(0 <= v < WORD_LIMIT for v in out)


@pytest.mark.parametrize("name", ALGORITHMS)
def test_sorting_through_write_combining_on_approx_memory(name):
    """The buffer composes with approximate memory transparently."""
    keys = uniform_keys(300, seed=5)
    backing = pcm_array(len(keys), seed=6)
    backing.write_block(0, keys)
    buffered = WriteCombiningArray(backing, capacity=32)
    make_sorter(name).sort(buffered)
    buffered.flush()
    assert len(backing.to_list()) == len(keys)
