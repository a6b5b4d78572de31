"""Microbenchmarks of the simulation hot paths.

Unlike the experiment benches (one pedantic round around a whole study),
these are true pytest-benchmark timings guarding the per-access costs the
whole reproduction's feasibility rests on: the compiled error model's
scalar write path, the vectorized block path, and the core sortedness
metric.  Regressions here multiply directly into experiment wall-clock.
"""

import random

import numpy as np
import pytest

from repro.memory import error_model
from repro.memory.config import MLCParams
from repro.memory.error_model import CACHE_DIR_ENV, get_model
from repro.memory.approx_array import ApproxArray, PreciseArray
from repro.memory.stats import MemoryStats
from repro.metrics.sortedness import rem
from repro.sorting.registry import make_sorter
from repro.workloads.generators import uniform_keys

FIT = 20_000


@pytest.fixture(scope="module")
def model():
    return get_model(MLCParams(t=0.055), samples_per_level=FIT)


def test_corrupt_word_scalar_path(benchmark, model):
    rng = random.Random(0)
    values = [rng.getrandbits(32) for _ in range(512)]

    def run():
        for address, value in enumerate(values):
            model.corrupt_word(value, 0, address, 0)

    benchmark(run)


def test_word_write_cost_lookup(benchmark, model):
    values = [i * 2654435761 % 2**32 for i in range(512)]

    def run():
        total = 0
        for value in values:
            total += model.word_write_cost(value)[3]
        return total

    benchmark(run)


def test_corrupt_block_vectorized(benchmark, model):
    np_rng = np.random.default_rng(1)
    values = np_rng.integers(0, 2**32, size=8_192, dtype=np.uint64).astype(
        np.uint32
    )
    versions = np.zeros(values.size, dtype=np.uint32)

    benchmark(lambda: model.corrupt_block(
        values, 1, slice(0, values.size), versions
    ))


def test_rem_metric(benchmark):
    keys = uniform_keys(8_192, seed=2)
    benchmark(lambda: rem(keys))


def test_uniform_keys(benchmark):
    """The paper's workload at n = 2^20: CPython's ``randrange`` stream,
    filtered in numpy chunks rather than drawn one key at a time."""
    keys = benchmark(lambda: uniform_keys(1 << 20, seed=4))
    assert keys.dtype == np.uint32
    assert keys.shape == (1 << 20,)


def test_quicksort_on_instrumented_array(benchmark):
    keys = uniform_keys(4_096, seed=3)

    def run():
        stats = MemoryStats()
        array = PreciseArray(keys, stats=stats)
        make_sorter("quicksort").sort(array)
        return stats.precise_writes

    benchmark(run)


def test_approx_scalar_write_batched(benchmark, model):
    """The scalar write path of ApproxArray: one keyed hash per write in
    Python, plus the cell counts and the accounting."""
    keys = uniform_keys(512, seed=6)
    array = ApproxArray(
        [0] * len(keys), model=model, precise_iterations=3.0, seed=7
    )

    def run():
        for index, key in enumerate(keys):
            array.write(index, key)

    benchmark(run)


def test_approx_write_block(benchmark, model):
    """End-to-end vectorized block write (cost + corruption + store)."""
    keys = uniform_keys(8_192, seed=8)
    array = ApproxArray(
        [0] * len(keys), model=model, precise_iterations=3.0, seed=9
    )

    benchmark(lambda: array.write_block(0, keys))


def test_approx_write_block_2p20(benchmark, model):
    """One 2^20-word block write at T = 0.055, the grain of an LSD pass in
    approx-refine at n = 2^20: the popcount level counts, one keyed
    uniform per word, and the exact per-word probability only for the
    words whose uniform reaches the model's no-error floor."""
    keys = np.random.default_rng(10).integers(
        0, 2**32, size=1 << 20, dtype=np.uint64
    ).astype(np.uint32)
    array = ApproxArray(
        np.zeros(keys.size, dtype=np.uint32), model=model,
        precise_iterations=3.0, seed=11,
    )

    benchmark(lambda: array.write_block(0, keys))


@pytest.mark.parametrize("words", [2048, 1 << 20])
def test_keyed_block_write(benchmark, words):
    """A block write at T = 0.1, where about half the uniforms reach the
    no-error floor and a third of the words err: the keyed hash, the
    per-word probabilities and the erring-word resolution of the numpy
    forms."""
    model = get_model(MLCParams(t=0.1), samples_per_level=FIT)
    keys = np.random.default_rng(23).integers(
        0, 2**32, size=words, dtype=np.uint64
    ).astype(np.uint32)
    array = ApproxArray(
        np.zeros(words, dtype=np.uint32), model=model,
        precise_iterations=3.0, seed=24,
    )

    benchmark(lambda: array.write_block(0, keys))


def test_keyed_list_write(benchmark):
    """A 16-word list block write at T = 0.1: the list lane, which
    resolves the words with the Python forms of the keyed sampler."""
    model = get_model(MLCParams(t=0.1), samples_per_level=FIT)
    keys = uniform_keys(16, seed=17).tolist()
    array = ApproxArray(
        np.zeros(len(keys), dtype=np.uint32), model=model,
        precise_iterations=3.0, seed=18,
    )

    benchmark(lambda: array.write_block(0, keys))


def test_keyed_scalar_write(benchmark):
    """One scalar write at T = 0.1 (the scalar quicksort walk's swaps
    write this way)."""
    model = get_model(MLCParams(t=0.1), samples_per_level=FIT)
    array = ApproxArray(
        np.zeros(1, dtype=np.uint32), model=model, precise_iterations=3.0,
        seed=25,
    )

    benchmark(lambda: array.write(0, 0x12345678))


def test_msd3_level_pass(benchmark):
    """msd3 under numpy kernels at n = 2048 and T = 0.1, fig09's MSD
    grain: one level pass per digit over every segment of that depth."""
    model = get_model(MLCParams(t=0.1), samples_per_level=FIT)
    keys = uniform_keys(2048, seed=26)
    sorter = make_sorter("msd3", kernels="numpy")

    def run():
        array = ApproxArray(
            keys, model=model, precise_iterations=3.0, seed=27
        )
        sorter.sort(array, PreciseArray(range(len(keys)), stats=array.stats))

    benchmark(run)


def test_quicksort_level_pass(benchmark, model):
    """quicksort under numpy kernels at n = 2048 and T = 0.055, fig09's
    grain: one level pass per recursion level over every segment of that
    level."""
    keys = uniform_keys(2048, seed=27)
    sorter = make_sorter("quicksort", kernels="numpy")

    def run():
        array = ApproxArray(
            keys, model=model, precise_iterations=3.0, seed=28
        )
        sorter.sort(array, PreciseArray(range(len(keys)), stats=array.stats))

    benchmark(run)


def test_approx_refine_msd3_fig09_cell(benchmark):
    """One fig09 cell: approx-refine with msd3 at n = 2048, T = 0.1, its
    sort one level pass per digit."""
    from repro.core.approx_refine import run_approx_refine
    from repro.memory.factories import PCMMemoryFactory

    keys = uniform_keys(2048, seed=19)
    memory = PCMMemoryFactory(MLCParams(t=0.1), fit_samples=FIT)

    benchmark(lambda: run_approx_refine(
        keys, make_sorter("msd3", kernels="numpy"), memory, seed=20,
        kernels="numpy",
    ))


def test_get_model_cold_without_cache(benchmark, monkeypatch):
    """Full Monte-Carlo fit + table compilation (the disk cache disabled)."""
    monkeypatch.setenv(CACHE_DIR_ENV, "off")
    params = MLCParams(t=0.0525)

    def setup():
        error_model.MODEL_CACHE.clear()
        return (), {}

    benchmark.pedantic(
        lambda: get_model(params, samples_per_level=FIT),
        setup=setup, rounds=3,
    )
    error_model.MODEL_CACHE.clear()


def test_get_model_warm_disk_cache(benchmark, monkeypatch, tmp_path):
    """Model compilation from a warm disk entry: no Monte-Carlo sampling,
    just the .npz read and table compilation."""
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    params = MLCParams(t=0.0525)
    get_model(params, samples_per_level=FIT)  # prime the disk entry

    def setup():
        error_model.MODEL_CACHE.clear()
        return (), {}

    benchmark.pedantic(
        lambda: get_model(params, samples_per_level=FIT),
        setup=setup, rounds=10,
    )
    error_model.MODEL_CACHE.clear()


def test_lsd_block_path_on_approx_memory(benchmark, model):
    keys = uniform_keys(4_096, seed=4)

    def run():
        array = ApproxArray(
            [0] * len(keys), model=model, precise_iterations=3.0, seed=5
        )
        array.write_block(0, keys)
        make_sorter("lsd6").sort(array)

    benchmark(run)


# -- tracing overhead (DESIGN.md section 9) ----------------------------- #


@pytest.mark.parametrize("tracing", ["null", "active"])
def test_lsd_block_path_tracing_overhead(benchmark, model, tracing, tmp_path):
    """The LSD block path with tracing disabled vs writing a real trace.

    The 'null' case is the shipped default (NullTracer, one ``enabled``
    attribute check per guard site) and must be indistinguishable from the
    pre-instrumentation timing; ``benchmarks/bench_obs.py`` turns that into
    a recorded < 2% guard.  The 'active' case bounds the cost of running
    with ``--trace`` on.
    """
    from repro.obs import NULL_TRACER, Tracer, close_tracer, set_tracer

    keys = uniform_keys(4_096, seed=4)
    tracer = (
        Tracer(path=tmp_path / "bench-trace.jsonl")
        if tracing == "active"
        else NULL_TRACER
    )
    set_tracer(tracer)

    def run():
        array = ApproxArray(
            [0] * len(keys), model=model, precise_iterations=3.0, seed=5
        )
        array.write_block(0, keys)
        make_sorter("lsd6").sort(array)

    try:
        benchmark(run)
    finally:
        close_tracer()


# -- kernelized execution path (DESIGN.md section 8) -------------------- #


@pytest.mark.parametrize("kernels", ["scalar", "numpy"])
@pytest.mark.parametrize("algo", ["mergesort", "quicksort", "lsd6", "hmsd6"])
def test_sorter_kernels_on_precise_memory(benchmark, algo, kernels):
    """Scalar-vs-numpy kernels head to head on the same sort; outputs and
    accounted counts are identical (test_kernel_equivalence), so the entire
    delta is the execution path."""
    keys = uniform_keys(8_192, seed=12)

    def run():
        stats = MemoryStats()
        array = PreciseArray(keys, stats=stats)
        make_sorter(algo, kernels=kernels).sort(array)
        return stats.precise_writes

    benchmark(run)


@pytest.mark.parametrize("kernels", ["scalar", "numpy"])
def test_refine_kernels_nearly_sorted(benchmark, kernels):
    """find_rem_ids + merge_refined on a nearly sorted permutation — the
    refine stage's common case after a good approx-stage sort."""
    from repro.core.refine import find_rem_ids, merge_refined

    n = 8_192
    keys = uniform_keys(n, seed=14)
    order = sorted(range(n), key=lambda i: keys[i])
    for k in range(0, n - 1, 97):
        order[k], order[k + 1] = order[k + 1], order[k]

    def run():
        stats = MemoryStats()
        key0 = PreciseArray(keys, stats=stats)
        ids = PreciseArray(order, stats=stats)
        rem_ids = find_rem_ids(ids, key0, kernels=kernels)
        final_keys = PreciseArray([0] * n, stats=stats)
        final_ids = PreciseArray([0] * n, stats=stats)
        merge_refined(
            ids, key0, sorted(rem_ids, key=lambda i: keys[i]),
            final_keys, final_ids, kernels=kernels,
        )
        return len(rem_ids)

    benchmark(run)


@pytest.mark.parametrize("kernels", ["scalar", "numpy"])
def test_mergesort_kernels_on_approx_memory(benchmark, model, kernels):
    """The PR-acceptance hot path: approx-stage mergesort under corruption
    (level-batched block writes vs per-element scalar writes)."""
    keys = uniform_keys(8_192, seed=15)

    def run():
        array = ApproxArray(
            [0] * len(keys), model=model, precise_iterations=3.0, seed=16
        )
        array.write_block(0, keys)
        make_sorter("mergesort", kernels=kernels).sort(array)

    benchmark(run)
