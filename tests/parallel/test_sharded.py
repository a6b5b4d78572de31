"""ShardedSorter contract tests.

The central claims of DESIGN.md section 12: pooled (forked workers over
shared memory) and in-process executions of the same sharded plan are
bit-identical in output, IDs, *and* aggregate :class:`MemoryStats`; on
precise memory the sharded result equals the serial base sorter's; and
sharding is placement, not work — the operands' stats are exactly the
shard sorts' stats, so on approximate memory a sharded radix sort measures
what a serial one does.
"""

import io
import json
import os

import pytest

from repro.core.approx_refine import run_approx_refine, run_precise_baseline
from repro.errors import ConfigError
from repro.memory.approx_array import PreciseArray
from repro.memory.config import MLCParams
from repro.memory.factories import PCMMemoryFactory
from repro.memory.stats import MemoryStats, write_reduction
from repro.memory.write_combining import WriteCombiningArray
from repro.obs import Tracer, set_tracer
from repro.parallel.pool import fork_available, usable_cpus
from repro.parallel.sharded import ShardedSorter
from repro.sorting.registry import make_sorter, with_kernels
from repro.workloads.generators import uniform_keys

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="pooled path requires fork"
)


def sharded(algorithm, *, shards=3, workers=0, **kwargs):
    kwargs.setdefault("min_n", 2)
    return ShardedSorter(
        make_sorter(algorithm), shards=shards, workers=workers, **kwargs
    )


def run_precise(sorter, keys, with_ids=True):
    stats = MemoryStats()
    array = PreciseArray(keys, stats=stats)
    ids_stats = MemoryStats()
    ids = (
        PreciseArray(list(range(len(keys))), stats=ids_stats)
        if with_ids
        else None
    )
    sorter.sort(array, ids)
    return (
        array.peek_block_np(0, len(array)).tolist(),
        ids.peek_block_np(0, len(ids)).tolist() if ids is not None else None,
        stats.as_dict(),
        ids_stats.as_dict(),
    )


def run_approx(sorter, factory, keys, seed=0):
    stats = MemoryStats()
    array = factory.make_array(keys, stats=stats, seed=seed)
    sorter.sort(array)
    return array.peek_block_np(0, len(array)).tolist(), stats.as_dict()


class TestPrecise:
    @pytest.mark.parametrize("algorithm", ["mergesort", "lsd3", "quicksort"])
    def test_matches_serial_base(self, algorithm):
        keys = uniform_keys(500, seed=11)
        serial = run_precise(make_sorter(algorithm), list(keys))
        result = run_precise(sharded(algorithm), list(keys))
        assert result[0] == serial[0] == sorted(keys)
        assert result[1] == serial[1]

    @needs_fork
    @pytest.mark.parametrize("algorithm", ["mergesort", "quicksort"])
    def test_pooled_equals_in_process(self, algorithm):
        keys = uniform_keys(600, seed=5)
        local = run_precise(sharded(algorithm, workers=0), list(keys))
        pooled = run_precise(sharded(algorithm, workers=2), list(keys))
        assert pooled == local

    def test_numpy_kernels_match_scalar(self):
        keys = uniform_keys(300, seed=2)
        scalar = run_precise(sharded("lsd3", kernels="scalar"), list(keys))
        vector = run_precise(sharded("lsd3", kernels="numpy"), list(keys))
        assert scalar == vector

    @pytest.mark.parametrize("kernels", ["scalar", "numpy"])
    @pytest.mark.parametrize("algorithm", ["lsd3", "lsd6"])
    def test_lsd_stats_equal_serial(self, algorithm, kernels):
        # LSD's traffic is linear in n, and the load and unload are free,
        # so the shards' summed stats are the serial sort's, key and id.
        keys = uniform_keys(300, seed=6)
        serial = run_precise(
            make_sorter(algorithm, kernels=kernels), list(keys)
        )
        for shards in (2, 4):
            result = run_precise(
                sharded(algorithm, shards=shards, kernels=kernels), list(keys)
            )
            assert result == serial


class TestApprox:
    @needs_fork
    @pytest.mark.parametrize("algorithm", ["mergesort", "lsd3", "quicksort"])
    def test_pooled_equals_in_process_pcm(self, pcm_sweet, algorithm):
        keys = uniform_keys(400, seed=9)
        local = run_approx(
            sharded(algorithm, workers=0), pcm_sweet, list(keys), seed=4
        )
        pooled = run_approx(
            sharded(algorithm, workers=2), pcm_sweet, list(keys), seed=4
        )
        assert pooled == local

    @needs_fork
    def test_pooled_equals_in_process_spintronic(self, stt_33):
        keys = uniform_keys(400, seed=9)
        local = run_approx(
            sharded("mergesort", workers=0), stt_33, list(keys), seed=4
        )
        pooled = run_approx(
            sharded("mergesort", workers=2), stt_33, list(keys), seed=4
        )
        assert pooled == local

    def test_repeat_runs_identical(self, pcm_sweet):
        keys = uniform_keys(300, seed=1)
        first = run_approx(sharded("lsd3"), pcm_sweet, list(keys), seed=7)
        second = run_approx(sharded("lsd3"), pcm_sweet, list(keys), seed=7)
        assert first == second


def approx_operands(factory, keys, seed=3):
    """Approximate keys and precise ids, each on its own fresh stats."""
    array = factory.make_array(keys, stats=MemoryStats(), seed=seed)
    ids = PreciseArray(list(range(len(keys))), stats=MemoryStats())
    return array, ids


def summed(shard_stats):
    total = MemoryStats()
    for entry in shard_stats:
        total.merge(entry)
    return total


class TestAttribution:
    """Load and unload are unaccounted: the shard sorts are all the work."""

    @pytest.mark.parametrize("algorithm", ["lsd6", "mergesort", "quicksort"])
    def test_operand_stats_are_the_shard_stats(self, pcm_sweet, algorithm):
        keys = uniform_keys(400, seed=12)
        array, ids = approx_operands(pcm_sweet, keys)
        sorter = sharded(algorithm, shards=4, kernels="numpy")
        sorter.sort(array, ids)
        assert array.stats == summed(sorter.last_plan["shard_stats"])
        # No operand word counts a write: every corruption draw was a
        # shard's.
        assert not array._versions.any()
        assert sorted(ids.peek_block_np(0, len(ids)).tolist()) == list(
            range(len(keys))
        )

    def test_traced_span_is_the_shard_spans(self, pcm_sweet):
        keys = uniform_keys(400, seed=13)
        array, ids = approx_operands(pcm_sweet, keys)
        sink = io.StringIO()
        previous = set_tracer(Tracer(sink=sink))
        try:
            sharded("lsd6", shards=3, kernels="numpy").sort(array, ids)
        finally:
            set_tracer(previous)
        ends = [
            event for event in map(json.loads, sink.getvalue().splitlines())
            if event["ev"] == "span_end"
        ]
        (outer,) = [e for e in ends if e["name"].startswith("sort.sharded:")]
        parts = sorted(
            (e for e in ends if e["name"].startswith("shard.")),
            key=lambda e: e["id"],
        )
        assert [e["name"] for e in parts] == ["shard.0", "shard.1", "shard.2"]
        assert all(e["parent"] == outer["id"] for e in parts)
        # The shard spans tile the sort span verbatim, so its delta is the
        # sum of theirs and nothing else.
        assert parts[0]["cum_start"] == outer["cum_start"]
        for before, after in zip(parts, parts[1:]):
            assert after["cum_start"] == before["cum"]
        assert parts[-1]["cum"] == outer["cum"]
        for field, value in outer["stats"].items():
            if field != "approx_write_units":
                assert value == sum(e["stats"][field] for e in parts)


#: ext_variance's sweet-spot cell at default scale.
_GATE_N = 8_000
_GATE_FIT = 20_000
_GATE_SEEDS = [1000 * (repeat + 1) for repeat in range(7)]


def gate_cells(keys, memory, build):
    """(write reduction, Rem~) per corruption seed, as ext_variance
    measures them with ``build()`` as its sorter, under numpy kernels."""
    baseline = run_precise_baseline(keys, build(), kernels="numpy").total_units
    cells = []
    for seed in _GATE_SEEDS:
        result = run_approx_refine(
            keys, build(), memory, seed=seed, kernels="numpy"
        )
        cells.append(
            (write_reduction(baseline, result.total_units), result.rem_tilde)
        )
    return cells


class TestApproxAgreement:
    @pytest.mark.parametrize("algorithm", ["lsd3", "lsd6"])
    def test_sharded_means_inside_serial_range(self, algorithm):
        keys = uniform_keys(_GATE_N, seed=0)
        memory = PCMMemoryFactory(MLCParams(t=0.055), fit_samples=_GATE_FIT)
        serial = gate_cells(keys, memory, lambda: make_sorter(algorithm))
        for shards in (2, 4):
            cells = gate_cells(keys, memory, lambda: sharded(
                algorithm, shards=shards, min_n=64
            ))
            for column in (0, 1):
                values = [cell[column] for cell in serial]
                mean = sum(cell[column] for cell in cells) / len(cells)
                assert min(values) <= mean <= max(values), (
                    algorithm, shards, column, mean, values
                )


class TestEdgeCases:
    def test_all_equal_keys_single_live_shard(self):
        keys = [123456] * 200
        sorter = sharded("mergesort", shards=4)
        result = run_precise(sorter, keys, with_ids=False)
        assert result[0] == keys
        assert sorter.last_plan is not None
        counts = sorter.last_plan["counts"]
        assert sum(counts) == 200
        assert sum(1 for count in counts if count) == 1

    def test_more_shards_than_keys(self):
        keys = [5, 3, 9, 1, 7]
        result = run_precise(sharded("mergesort", shards=8), list(keys))
        assert result[0] == sorted(keys)

    def test_below_min_n_delegates_to_base(self):
        sorter = ShardedSorter(make_sorter("mergesort"), shards=3,
                               workers=0, min_n=64)
        result = run_precise(sorter, uniform_keys(32, seed=0))
        assert result[0] == sorted(uniform_keys(32, seed=0))
        assert sorter.last_plan is None

    def test_wrapped_operand_delegates_to_base(self):
        stats = MemoryStats()
        backing = PreciseArray(uniform_keys(200, seed=0), stats=stats)
        front = WriteCombiningArray(backing, capacity=16)
        sorter = sharded("mergesort")
        sorter.sort(front)
        front.flush()
        assert sorter.last_plan is None
        assert backing.peek_block_np(0, 200).tolist() == sorted(
            uniform_keys(200, seed=0)
        )


class TestPlanIntrospection:
    def test_last_plan_shape(self):
        sorter = sharded("lsd3", shards=3)
        result = run_precise(sorter, uniform_keys(300, seed=8), with_ids=False)
        plan = sorter.last_plan
        assert plan["n"] == 300
        assert plan["shards"] == 3
        assert sum(plan["counts"]) == 300
        assert plan["pooled"] is False
        assert plan["workers"] == 0
        assert len(plan["shard_stats"]) == 3
        # The aggregate is the shard sorts' traffic and nothing else.
        shard_writes = sum(s.precise_writes for s in plan["shard_stats"])
        assert shard_writes == result[2]["precise_writes"] > 0

    def test_expected_key_writes_sums_shards(self):
        base = make_sorter("mergesort")
        sorter = ShardedSorter(make_sorter("mergesort"), shards=4,
                               workers=0, min_n=2)
        n = 1000
        per_shard = sum(base.expected_key_writes(250) for _ in range(4))
        assert sorter.expected_key_writes(n) == per_shard
        # An uneven split hands the remainder to the first shards.
        assert sorter.expected_key_writes(1002) == (
            2 * base.expected_key_writes(251)
            + 2 * base.expected_key_writes(250)
        )
        # Below min_n the estimate is the base's.
        small = ShardedSorter(make_sorter("mergesort"), shards=4,
                              workers=0, min_n=64)
        assert small.expected_key_writes(10) == base.expected_key_writes(10)


class TestConfiguration:
    def test_nesting_rejected(self):
        inner = sharded("mergesort")
        with pytest.raises(ConfigError, match="nest"):
            ShardedSorter(inner)

    def test_bad_counts_rejected(self):
        with pytest.raises(ConfigError, match="shards"):
            ShardedSorter(make_sorter("mergesort"), shards=0)
        with pytest.raises(ConfigError, match="workers"):
            ShardedSorter(make_sorter("mergesort"), workers=-1)

    def test_with_kernels_round_trip(self):
        sorter = sharded("lsd4", shards=5, workers=3, min_n=17)
        copy = with_kernels(sorter, "numpy")
        assert isinstance(copy, ShardedSorter)
        assert copy.shards == 5
        assert copy.workers == 3
        assert copy.min_n == 17
        assert copy.base.bits == 4
        assert copy.base.kernels == "numpy"

    def test_default_workers_follow_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        assert usable_cpus() == 1
        sorter = ShardedSorter(make_sorter("mergesort"), shards=4)
        assert sorter._effective_workers() == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        if fork_available():
            assert sorter._effective_workers() == 3

    def test_usable_cpus_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert usable_cpus() == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert usable_cpus() == 1
