"""repro — reproduction of "A Study of Sorting Algorithms on Approximate
Memory" (Chen, Jiang, He, Tang; SIGMOD 2016).

Public API tour
---------------

Memory models (:mod:`repro.memory`)
    :class:`MLCParams` / :func:`get_model` — the approximate MLC-PCM cell
    model and its compiled per-``T`` error model;
    :class:`SpintronicParams` — the Appendix-A energy/error model;
    :class:`PreciseArray` / :class:`ApproxArray` — instrumented arrays.

Sorting (:mod:`repro.sorting`)
    :func:`make_sorter` — quicksort, mergesort, queue-bucket and
    histogram-based LSD/MSD radix sorts, all instrumented.

The contribution (:mod:`repro.core`)
    :func:`run_approx_refine` — sort exactly on hybrid
    approximate/precise memory; :func:`run_precise_baseline`,
    :func:`run_approx_only`, and the Equation-4 cost model.

Quick start
-----------
Keys and results are ``uint32`` numpy arrays.

>>> import numpy as np
>>> from repro import MLCParams, PCMMemoryFactory, run_approx_refine
>>> from repro.workloads import uniform_keys
>>> keys = uniform_keys(10_000, seed=1)
>>> memory = PCMMemoryFactory(MLCParams(t=0.055))
>>> result = run_approx_refine(keys, "lsd3", memory)
>>> np.array_equal(result.final_keys, np.sort(keys))
True
"""

from .core import (
    ApproxOnlyResult,
    ApproxRefineResult,
    BaselineResult,
    baseline_cost,
    format_stage_table,
    hybrid_cost,
    predicted_write_reduction,
    run_approx_only,
    run_approx_refine,
    run_precise_baseline,
    should_use_approx_refine,
)
from .memory import (
    ApproxArray,
    MLCParams,
    MemoryStats,
    PreciseArray,
    SPINTRONIC_CONFIGS,
    SpintronicArray,
    SpintronicParams,
    WordErrorModel,
    get_model,
    t_sweep,
    write_reduction,
)
from .errors import (
    CheckpointCorruptError,
    ConfigError,
    ReproError,
)
from .memory.factories import PCMMemoryFactory, SpintronicMemoryFactory
from .metrics import error_rate_multiset, inversions, is_sorted, rem, rem_ratio
from .sorting import available_sorters, make_sorter

__version__ = "1.0.0"

__all__ = [
    "ApproxArray",
    "ApproxOnlyResult",
    "ApproxRefineResult",
    "BaselineResult",
    "CheckpointCorruptError",
    "ConfigError",
    "MLCParams",
    "MemoryStats",
    "PCMMemoryFactory",
    "PreciseArray",
    "ReproError",
    "SPINTRONIC_CONFIGS",
    "SpintronicArray",
    "SpintronicMemoryFactory",
    "SpintronicParams",
    "WordErrorModel",
    "available_sorters",
    "baseline_cost",
    "error_rate_multiset",
    "format_stage_table",
    "get_model",
    "hybrid_cost",
    "inversions",
    "is_sorted",
    "make_sorter",
    "predicted_write_reduction",
    "rem",
    "rem_ratio",
    "run_approx_only",
    "run_approx_refine",
    "run_precise_baseline",
    "should_use_approx_refine",
    "t_sweep",
    "write_reduction",
    "__version__",
]
