"""Figures 5-7: the shape of X after sorting in approximate memory.

The paper visualizes the output sequence (value vs index) for each
algorithm at T = 0.03, 0.055 and 0.1: at 0.03 a clean ascending line, at
0.055 an ascending line with sparse noise ("the remaining elements are just
like noises"), at 0.1 chaos for every algorithm.

This experiment reproduces the data behind the plots: it runs the sorts and
reports, per (T, algorithm), shape statistics that summarize the visual —
the Rem ratio, the fraction of strictly in-order adjacent pairs, and the
Spearman-style rank correlation of the output with the ideal sorted
sequence.  The full (downsampled) series are saved alongside the JSON table
so they can be plotted.
"""

from __future__ import annotations

import numpy as np

from repro.core.approx_refine import run_approx_only
from repro.memory.config import MLCParams
from repro.memory.factories import PCMMemoryFactory
from repro.workloads.generators import uniform_keys

from .common import ExperimentTable, resolve_scale, scaled
from .fig04_sortedness import _fit_samples

#: (figure, T) pairs of the paper.
FIGURES = (("fig05", 0.03), ("fig06", 0.055), ("fig07", 0.1))
ALGORITHMS = ("quicksort", "lsd6", "msd6", "mergesort")

#: Points kept per saved series (downsampled for plotting).
SERIES_POINTS = 512


def shape_statistics(output) -> tuple[float, float]:
    """(fraction of in-order adjacent pairs, rank correlation with sorted).

    The rank correlation is Pearson's r between the output sequence and its
    sorted self — 1.0 for a perfectly ascending line, ~0 for shuffled chaos;
    it is the numeric proxy for "does the plot look like a line".
    """
    arr = np.asarray(output, dtype=np.float64)
    if arr.size < 2:
        return 1.0, 1.0
    in_order = float(np.mean(arr[1:] >= arr[:-1]))
    ideal = np.sort(arr)
    if np.ptp(arr) == 0:
        return in_order, 1.0
    corr = float(np.corrcoef(arr, ideal)[0, 1])
    return in_order, corr


def run(scale: str | None = None, seed: int = 0) -> ExperimentTable:
    tier = resolve_scale(scale)
    # Paper uses n = 160,000 for the visualizations.
    n = scaled(tier, smoke=1_000, default=8_000, large=160_000)
    keys = uniform_keys(n, seed=seed)
    fit = _fit_samples(tier)

    table = ExperimentTable(
        experiment="fig05_07",
        title="Shape of X after sorting in approximate memory"
        " (T = 0.03 / 0.055 / 0.1)",
        columns=[
            "figure",
            "T",
            "algorithm",
            "rem_ratio",
            "in_order_fraction",
            "rank_correlation",
        ],
        notes=[f"scale={tier}, n={n} (paper: 160K)"],
        paper_reference=[
            "Fig 5 (T=0.03): clean ascending line for all algorithms",
            "Fig 6 (T=0.055): nearly sorted with sparse noise; mergesort"
            " visibly disordered",
            "Fig 7 (T=0.1): chaos for all algorithms",
        ],
    )
    series: dict[str, list[int]] = {}
    for figure, t in FIGURES:
        memory = PCMMemoryFactory(MLCParams(t=t), fit_samples=fit)
        for algorithm in ALGORITHMS:
            result = run_approx_only(keys, algorithm, memory, seed=seed)
            in_order, corr = shape_statistics(result.output_keys)
            table.add_row(figure, t, algorithm, result.rem_ratio, in_order, corr)
            step = max(1, n // SERIES_POINTS)
            series[f"{figure}_{algorithm}"] = (
                result.output_keys[::step].tolist()
            )
    # Downsampled output series travel in the JSON payload so the figures
    # can be plotted from the saved results.
    table.notes.append(f"series_points={SERIES_POINTS} (downsampled outputs)")
    table.extra["series"] = series
    return table
