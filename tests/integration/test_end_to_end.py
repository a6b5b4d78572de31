"""Whole-stack integration tests.

These cross module boundaries on purpose: sorts on instrumented memory
feeding the refine stage, trace capture feeding the queue-level simulator,
and the public package surface.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import (
    MLCParams,
    PCMMemoryFactory,
    SpintronicMemoryFactory,
    SpintronicParams,
    run_approx_refine,
    run_precise_baseline,
)
from repro.memory.approx_array import PreciseArray
from repro.memory.stats import MemoryStats
from repro.pcmsim.simulator import PCMSimulator
from repro.pcmsim.config import SimulatorConfig
from repro.pcmsim.trace import TraceRecorder
from repro.sorting.registry import available_sorters, make_sorter
from repro.workloads.generators import uniform_keys

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_docstring_example(self):
        """The package docstring's quick-start must actually work."""
        from repro.workloads import uniform_keys as keys_fn

        keys = keys_fn(2_000, seed=1)
        memory = PCMMemoryFactory(MLCParams(t=0.055), fit_samples=8_000)
        result = run_approx_refine(keys, "lsd3", memory)
        assert np.array_equal(result.final_keys, np.sort(keys))


class TestCrossMemoryPortability:
    """One sorter implementation runs on every memory technology."""

    @pytest.mark.parametrize("name", ["quicksort", "lsd6", "hmsd6"])
    def test_same_sorter_three_technologies(self, name, pcm_sweet):
        keys = uniform_keys(500, seed=2)
        memories = [
            pcm_sweet,
            SpintronicMemoryFactory(SpintronicParams(0.33, 1e-4)),
        ]
        for memory in memories:
            result = run_approx_refine(keys, name, memory, seed=3)
            assert result.final_keys.tolist() == sorted(keys)

        # And on plain precise memory via the baseline path.
        baseline = run_precise_baseline(keys, name)
        assert baseline.final_keys.tolist() == sorted(keys)


class TestTraceToSimulatorPipeline:
    def test_full_sort_trace_replays(self, pcm_sweet):
        """Capture a hybrid sort's trace and replay it end to end."""
        recorder = TraceRecorder()
        stats = MemoryStats()
        keys = uniform_keys(400, seed=4)
        approx = pcm_sweet.make_array([0] * len(keys), stats=stats, seed=5)
        approx.trace = recorder.hook_for("keys", "approx")
        ids = PreciseArray(
            range(len(keys)), stats=stats,
            trace=recorder.hook_for("ids", "precise"),
        )
        approx.write_block(0, keys)
        make_sorter("msd6").sort(approx, ids)

        # Trace counts agree with the accounting layer exactly.
        writes = sum(1 for e in recorder if e.op == "W")
        reads = sum(1 for e in recorder if e.op == "R")
        assert writes == stats.total_writes
        assert reads == stats.total_reads

        report = PCMSimulator(
            SimulatorConfig(approx_write_factor=pcm_sweet.p_ratio)
        ).run(recorder.events)
        assert report.memory_writes == writes
        assert report.total_ns > 0

    def test_simulated_time_scales_with_p(self, pcm_sweet, pcm_precise):
        recorder = TraceRecorder()
        hook = recorder.hook_for("keys", "approx")
        for i in range(512):
            hook("W", "approx", i)
        fast = PCMSimulator(
            SimulatorConfig(approx_write_factor=pcm_sweet.p_ratio)
        ).run(recorder.events)
        slow = PCMSimulator(
            SimulatorConfig(approx_write_factor=pcm_precise.p_ratio)
        ).run(recorder.events)
        assert fast.total_ns < slow.total_ns


#: Every script in ``examples/``, each with 2000 as its size argument.
EXAMPLE_RUNS = [
    ("quickstart.py", ["2000"]),
    ("database_order_by.py", ["2000"]),
    ("energy_study.py", ["2000"]),
    ("tradeoff_explorer.py", ["2000"]),
]


class TestExamplesRun:
    """The shipped examples must execute cleanly (small inputs)."""

    def test_every_example_is_run(self):
        shipped = {path.name for path in EXAMPLES_DIR.glob("*.py")}
        assert shipped == {script for script, _ in EXAMPLE_RUNS}

    @pytest.mark.parametrize("script,args", EXAMPLE_RUNS)
    def test_example_exits_zero(self, script, args):
        result = subprocess.run(
            [sys.executable, str(EXAMPLES_DIR / script), *args],
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip()


class TestDeterminismAcrossTheStack:
    def test_full_experiment_is_seed_deterministic(self):
        from repro.experiments import table3_rem

        a = table3_rem.run(scale="smoke", seed=9)
        b = table3_rem.run(scale="smoke", seed=9)
        assert a.rows == b.rows

    def test_every_sorter_deterministic_on_approx_memory(self, pcm_aggressive):
        keys = uniform_keys(300, seed=6)
        for name in available_sorters():
            if name == "insertion":
                continue
            outs = []
            for _ in range(2):
                array = pcm_aggressive.make_array(
                    [0] * len(keys), seed=11
                )
                array.write_block(0, keys)
                make_sorter(name).sort(array)
                outs.append(array.to_list())
            assert outs[0] == outs[1], name
