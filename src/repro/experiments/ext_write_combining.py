"""Extension: how much does software write combining buy each algorithm?

The paper adopts "write combining by software managed buffers ... whenever
appropriate" (Section 3.1) without quantifying it.  This ablation sorts the
same input through an LRU write-combining buffer of varying capacity and
reports, per algorithm, the memory-write reduction relative to unbuffered
execution — separating the algorithms whose access patterns re-touch
locations quickly (insertion shifts, quicksort partition swaps) from those
that already emit fully combined streams (radix passes, merge outputs).
"""

from __future__ import annotations

import numpy as np

from repro.memory.approx_array import PreciseArray
from repro.memory.stats import MemoryStats, write_reduction
from repro.memory.write_combining import sort_with_write_combining
from repro.sorting.registry import make_sorter
from repro.workloads.generators import uniform_keys

from .common import ExperimentTable, resolve_scale, scaled

ALGORITHMS = ("quicksort", "mergesort", "lsd6", "hmsd6", "insertion")
CAPACITIES = (16, 64, 256)


def run(scale: str | None = None, seed: int = 0) -> ExperimentTable:
    tier = resolve_scale(scale)
    n = scaled(tier, smoke=600, default=2_000, large=6_000)
    keys = uniform_keys(n, seed=seed)

    table = ExperimentTable(
        experiment="ext_write_combining",
        title="Extension: write reduction from software write combining",
        columns=["algorithm", "buffer_entries", "write_reduction", "absorbed"],
        notes=[
            f"scale={tier}, n={n} (insertion sort bounds the input size);"
            " reduction vs the same sort without a buffer",
        ],
        paper_reference=[
            "Paper Section 3.1 adopts write combining 'whenever"
            " appropriate'; expected: large effect only for algorithms"
            " that re-touch locations within the buffer's reach",
        ],
    )
    plain_writes = {}
    for algorithm in ALGORITHMS:
        stats = MemoryStats()
        make_sorter(algorithm).sort(PreciseArray(keys, stats=stats))
        plain_writes[algorithm] = stats.precise_writes

    for algorithm in ALGORITHMS:
        for capacity in CAPACITIES:
            stats = MemoryStats()
            backing = PreciseArray(keys, stats=stats)
            wrapped = sort_with_write_combining(
                make_sorter(algorithm), backing, capacity=capacity
            )
            assert np.array_equal(backing.to_numpy(), np.sort(keys))
            table.add_row(
                algorithm,
                capacity,
                write_reduction(plain_writes[algorithm], stats.precise_writes),
                wrapped.combined_writes,
            )
    return table
