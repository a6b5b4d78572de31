"""Natural mergesort — the classic adaptive sort the paper weighs against.

Section 4.2's related work credits "sublinear merging and natural
mergesort" (Carlsson, Levcopoulos & Petersson [9]) as the established
adaptive approach to nearly sorted data, and dismisses the family for the
refine stage because those algorithms optimize time, not writes.  This
implementation makes that argument measurable: run formation detects the
existing non-decreasing runs with *reads only*, then bottom-up merge passes
over the run boundaries rewrite the data ``ceil(log2 Runs)`` times —
``O(n log Runs)`` writes, which beats classic mergesort when runs are few
but still rewrites every element per pass (versus the paper heuristic's
fewer-than-3n total).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.memory.approx_array import InstrumentedArray

from .base import BaseSorter, copy_block
from .mergesort import Mergesort


class NaturalMergesort(BaseSorter):
    """Bottom-up mergesort over detected natural runs."""

    name = "natural_merge"

    def _sort(
        self, keys: InstrumentedArray, ids: Optional[InstrumentedArray]
    ) -> None:
        n = len(keys)
        use_np = self._use_numpy_kernels(keys, ids)
        merge = Mergesort._merge_runs_np if use_np else Mergesort._merge_runs
        boundaries = (
            self._detect_runs_np(keys) if use_np else self._detect_runs(keys)
        )
        if len(boundaries) <= 2:
            return  # already sorted: zero writes

        src_keys: InstrumentedArray = keys
        dst_keys = keys.clone_empty(name=f"{keys.name}.natural-buffer")
        src_ids = ids
        dst_ids = (
            ids.clone_empty(name=f"{ids.name}.natural-buffer")
            if ids is not None
            else None
        )

        while len(boundaries) > 2:
            runs = len(boundaries) - 1
            new_boundaries = [0]
            index = 0
            while index + 2 <= runs:
                # Merge the run pair covering boundaries[index .. index+2].
                merge(
                    src_keys,
                    src_ids,
                    dst_keys,
                    dst_ids,
                    boundaries[index],
                    boundaries[index + 1],
                    boundaries[index + 2],
                )
                new_boundaries.append(boundaries[index + 2])
                index += 2
            if index < runs:
                # One unpaired trailing run: copy it across unchanged.
                lo = boundaries[index]
                copy_block(
                    src_keys, src_ids, dst_keys, dst_ids, lo, n - lo, use_np
                )
                new_boundaries.append(n)
            boundaries = new_boundaries
            src_keys, dst_keys = dst_keys, src_keys
            if ids is not None:
                src_ids, dst_ids = dst_ids, src_ids

        if src_keys is not keys:
            copy_block(src_keys, src_ids, keys, ids, 0, n, use_np)

    @staticmethod
    def _detect_runs(keys: InstrumentedArray) -> list[int]:
        """Boundaries of maximal non-decreasing runs (reads only)."""
        n = len(keys)
        boundaries = [0]
        previous = keys.read(0)
        for i in range(1, n):
            current = keys.read(i)
            if current < previous:
                boundaries.append(i)
            previous = current
        boundaries.append(n)
        return boundaries

    @staticmethod
    def _detect_runs_np(keys: InstrumentedArray) -> list[int]:
        """Vectorized run detection; same ``n`` accounted reads as scalar."""
        n = len(keys)
        values = keys.read_block_np(0, n)
        descents = np.flatnonzero(values[1:] < values[:-1]) + 1
        return [0, *descents.tolist(), n]

    def expected_key_writes(self, n: int) -> float:
        """Random input has ~n/2 runs: ~n * log2(n/2) writes."""
        if n < 2:
            return 0.0
        runs = max(1, n // 2)
        return n * max(1.0, math.ceil(math.log2(runs)))

    def expected_writes_for_runs(self, n: int, runs: int) -> float:
        """O(n log Runs): the adaptive bound this algorithm achieves."""
        if runs <= 1:
            return 0.0
        return n * math.ceil(math.log2(runs))
