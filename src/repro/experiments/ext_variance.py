"""Extension: seed sensitivity of the write-reduction measurements.

At reproduction scale the write reduction of approx-refine depends on a
handful of high-order corruption events (one unlucky spike inflates Rem~
noticeably), so single-seed numbers carry real variance — mergesort
especially, whose spike-displacement amplification makes Rem~ heavy-tailed.
The paper reports single measurements at n = 16M, where the law of large
numbers does the averaging; this experiment quantifies how much of that
certainty is lost at small n by repeating the sweet-spot measurement over
independent corruption seeds and reporting mean, standard deviation and
range per algorithm.

The companion bench asserts the robustness ordering this study reveals:
the radix family's reductions are tight across seeds, mergesort's spread is
the widest.
"""

from __future__ import annotations

import math

from repro.core.approx_refine import run_approx_refine, run_precise_baseline
from repro.memory.config import MLCParams
from repro.memory.factories import PCMMemoryFactory
from repro.memory.stats import write_reduction
from repro.workloads.generators import uniform_keys

from .common import ExperimentTable, map_cells, resolve_scale, scaled
from .fig04_sortedness import _fit_samples

SWEET_SPOT_T = 0.055
ALGORITHMS = ("lsd3", "lsd6", "msd3", "quicksort", "mergesort")


def _cell(algorithm: str, n: int, key_seed: int, fit: int,
          baseline_total: float, cell_seed: int) -> float:
    """One (algorithm, corruption seed) write-reduction measurement.

    Module-level with primitive arguments so it pickles to workers; the
    sequential path runs the same function, keeping ``--jobs 1`` and
    ``--jobs N`` tables bit-identical.
    """
    keys = uniform_keys(n, seed=key_seed)
    memory = PCMMemoryFactory(MLCParams(t=SWEET_SPOT_T), fit_samples=fit)
    result = run_approx_refine(keys, algorithm, memory, seed=cell_seed)
    return write_reduction(baseline_total, result.total_units)


def run(
    scale: str | None = None,
    seed: int = 0,
    jobs: int = 1,
    cell_journal=None,
) -> ExperimentTable:
    tier = resolve_scale(scale)
    n = scaled(tier, smoke=1_500, default=8_000, large=30_000)
    repeats = scaled(tier, smoke=3, default=7, large=9)
    fit = _fit_samples(tier)
    keys = uniform_keys(n, seed=seed)

    table = ExperimentTable(
        experiment="ext_variance",
        title=f"Extension: seed variance of write reduction"
        f" (T = {SWEET_SPOT_T}, {repeats} corruption seeds)",
        columns=["algorithm", "mean_wr", "std_wr", "min_wr", "max_wr"],
        notes=[
            f"scale={tier}, n={n}; same input keys, {repeats} independent"
            " corruption streams",
        ],
        paper_reference=[
            "Not in the paper (single measurements at 16M); expected:"
            " radix tight, mergesort's Rem~ heavy tail makes it the most"
            " seed-sensitive",
        ],
    )
    baselines = {
        algorithm: run_precise_baseline(keys, algorithm).total_units
        for algorithm in ALGORITHMS
    }
    cells = [
        (algorithm, n, seed, fit, baselines[algorithm],
         seed + 1000 * (repeat + 1))
        for algorithm in ALGORITHMS
        for repeat in range(repeats)
    ]
    results = map_cells(_cell, cells, jobs=jobs, journal=cell_journal)
    for i, algorithm in enumerate(ALGORITHMS):
        reductions = results[i * repeats : (i + 1) * repeats]
        mean = sum(reductions) / len(reductions)
        variance = sum((r - mean) ** 2 for r in reductions) / len(reductions)
        table.add_row(
            algorithm, mean, math.sqrt(variance), min(reductions),
            max(reductions),
        )
    return table
