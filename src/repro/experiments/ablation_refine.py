"""Ablation: the paper's refine heuristic vs exact LIS vs an adaptive sort.

Section 4.2 argues for the O(n) LIS~ heuristic over (a) an exact LIS
computation ("at least 2n intermediate outputs") and (b) adaptive sorting
algorithms ("typically introduce 3n or even more memory writes").  This
experiment measures all three refinement strategies on the *same*
approx-stage outputs across the T sweep and reports their precise-memory
write costs, validating the design choice quantitatively.

Strategies (all produce exactly sorted output):

* ``heuristic`` — Listing 1 + sort REMID~ + Listing 2 (the paper's refine);
* ``exact_lis`` — patience-sorting LIS (minimal Rem) + the same steps 2-3,
  paying 2n intermediate writes for the patience state;
* ``adaptive``  — binary insertion sort over the nearly sorted sequence
  (O(n + Inv) writes), no LIS machinery at all;
* ``natural_merge`` — Carlsson-style natural mergesort (the adaptive
  family the paper's Section-4.2 related work names), O(n log Runs)
  writes: every pass still rewrites all n elements.
"""

from __future__ import annotations

import numpy as np

from repro.core.refine import find_rem_ids, merge_refined, sort_rem_ids
from repro.core.refine_ablation import adaptive_refine_writes, find_rem_ids_exact
from repro.memory.approx_array import PreciseArray
from repro.memory.config import MLCParams
from repro.memory.factories import PCMMemoryFactory
from repro.memory.stats import MemoryStats
from repro.sorting.registry import make_sorter
from repro.workloads.generators import uniform_keys

from .common import ExperimentTable, resolve_scale, scaled
from .fig04_sortedness import _fit_samples

T_VALUES = (0.04, 0.055, 0.07)
ALGORITHM = "lsd6"


def _approx_stage(keys, memory, seed):
    """Run approx-prep + approx stage; return (key0, ids) precise arrays."""
    stats = MemoryStats()
    key0 = PreciseArray(keys, stats=stats)
    ids = PreciseArray(range(len(keys)), stats=stats)
    approx_keys = memory.make_array([0] * len(keys), stats=stats, seed=seed)
    approx_keys.load_from(key0)
    make_sorter(ALGORITHM).sort(approx_keys, ids)
    return key0, ids


def _refine_with_heuristic(keys, key0, ids) -> tuple[float, int]:
    stats = MemoryStats()
    shadow_key0 = PreciseArray(key0.to_list(), stats=stats)
    shadow_ids = PreciseArray(ids.to_list(), stats=stats)
    rem_ids = find_rem_ids(shadow_ids, shadow_key0)
    sorted_rem = sort_rem_ids(rem_ids, shadow_key0, make_sorter(ALGORITHM), stats)
    final_keys = PreciseArray([0] * len(keys), stats=stats)
    final_ids = PreciseArray([0] * len(keys), stats=stats)
    merge_refined(shadow_ids, shadow_key0, sorted_rem, final_keys, final_ids)
    assert np.array_equal(final_keys.to_numpy(), np.sort(keys))
    return stats.equivalent_precise_writes, len(rem_ids)


def _refine_with_exact_lis(keys, key0, ids) -> tuple[float, int]:
    stats = MemoryStats()
    shadow_key0 = PreciseArray(key0.to_list(), stats=stats)
    shadow_ids = PreciseArray(ids.to_list(), stats=stats)
    rem_ids = find_rem_ids_exact(shadow_ids, shadow_key0)
    sorted_rem = sort_rem_ids(rem_ids, shadow_key0, make_sorter(ALGORITHM), stats)
    final_keys = PreciseArray([0] * len(keys), stats=stats)
    final_ids = PreciseArray([0] * len(keys), stats=stats)
    merge_refined(shadow_ids, shadow_key0, sorted_rem, final_keys, final_ids)
    assert np.array_equal(final_keys.to_numpy(), np.sort(keys))
    return stats.equivalent_precise_writes, len(rem_ids)


def _refine_with_adaptive(keys, key0, ids) -> tuple[float, int]:
    final_ids, stats = adaptive_refine_writes(ids, key0)
    assert np.array_equal(
        keys[np.asarray(final_ids, dtype=np.int64)], np.sort(keys)
    )
    return stats.equivalent_precise_writes, -1


def _refine_with_natural_merge(keys, key0, ids) -> tuple[float, int]:
    """Natural mergesort straight over the nearly sorted pairs."""
    stats = MemoryStats()
    nearly_sorted = [key0.peek(ids.peek(i)) for i in range(len(ids))]
    key_array = PreciseArray(nearly_sorted, stats=stats)
    id_array = PreciseArray(ids.to_list(), stats=stats)
    make_sorter("natural_merge").sort(key_array, id_array)
    assert np.array_equal(key_array.to_numpy(), np.sort(keys))
    return stats.equivalent_precise_writes, -1


def run(scale: str | None = None, seed: int = 0) -> ExperimentTable:
    tier = resolve_scale(scale)
    n = scaled(tier, smoke=1_000, default=8_000, large=30_000)
    keys = uniform_keys(n, seed=seed)
    fit = _fit_samples(tier)

    table = ExperimentTable(
        experiment="ablation_refine",
        title="Refine-stage ablation: heuristic vs exact LIS vs adaptive sort"
        f" ({ALGORITHM} approx stage)",
        columns=["T", "strategy", "refine_writes_per_n", "rem"],
        notes=[
            f"scale={tier}, n={n}; write costs are precise-write units per"
            " input element; rem = REMID size (-1 for the adaptive sort,"
            " which has no REM notion)",
        ],
        paper_reference=[
            "Section 4.2: the heuristic stays under 3n writes (near the 2n"
            " lower bound); exact LIS pays >= 2n extra intermediate writes;"
            " adaptive sorts are competitive only while Inv is tiny",
        ],
    )
    strategies = (
        ("heuristic", _refine_with_heuristic),
        ("exact_lis", _refine_with_exact_lis),
        ("adaptive", _refine_with_adaptive),
        ("natural_merge", _refine_with_natural_merge),
    )
    for t in T_VALUES:
        memory = PCMMemoryFactory(MLCParams(t=t), fit_samples=fit)
        key0, ids = _approx_stage(keys, memory, seed)
        for label, strategy in strategies:
            writes, rem = strategy(keys, key0, ids)
            table.add_row(t, label, writes / n, rem)
    return table
