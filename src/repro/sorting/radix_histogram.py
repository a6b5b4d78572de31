"""Histogram-based radix sorts (paper Appendix B, Polychroniou & Ross [45]).

The open-source implementation the paper evaluates in Appendix B replaces
queue buckets with a *histogram* (counting) pass: a read-only pass counts the
digit occurrences, a prefix sum turns counts into destination offsets, and a
single permute pass writes each element exactly once to its final position
for that digit.  Relative to the queue-bucket scheme this halves the key
writes per pass — and therefore, as the paper observes, the *write
reduction* achievable on approximate memory is smaller, because the fixed
approx-preparation and refinement overheads are amortized over a smaller
approx-stage saving (Figure 15).

SIMD and NUMA aspects of the original implementation do not change the write
stream (the paper reports "almost the same write reductions" with them
toggled) and are not modeled.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.memory.approx_array import InstrumentedArray

from .base import BaseSorter
from .radix import (
    SEGMENT_LANE_MAX_KEYS,
    _bucket_bounds,
    _counting_order,
    _digits_np,
    lsd_digit_plan,
    msd_digit_plan,
)


class HistogramLSDRadixSort(BaseSorter):
    """Counting-based LSD radix sort: one key write per element per pass."""

    def __init__(self, bits: int = 6, kernels: Optional[str] = None) -> None:
        super().__init__(kernels)
        self.bits = bits
        self._plan = lsd_digit_plan(bits)
        self.name = f"hlsd{bits}"

    def _sort(
        self, keys: InstrumentedArray, ids: Optional[InstrumentedArray]
    ) -> None:
        n = len(keys)
        src_keys: InstrumentedArray = keys
        dst_keys = keys.clone_empty(name=f"{keys.name}.radix-buffer")
        src_ids = ids
        dst_ids = (
            ids.clone_empty(name=f"{ids.name}.radix-buffer") if ids is not None else None
        )
        if self._use_numpy_kernels(keys, ids):
            self._sort_numpy(keys, ids, dst_keys, dst_ids)
            return

        for shift, mask in self._plan:
            values = src_keys.read_block(0, n)
            id_values = src_ids.read_block(0, n) if src_ids is not None else None

            # Histogram pass (reads only) + exclusive prefix sum.
            counts = [0] * (mask + 1)
            for value in values:
                counts[(value >> shift) & mask] += 1
            offsets = [0] * (mask + 1)
            total = 0
            for digit, count in enumerate(counts):
                offsets[digit] = total
                total += count

            # Permute pass: each element is written exactly once.
            out_keys = [0] * n
            out_ids = [0] * n if id_values is not None else None
            for pos, value in enumerate(values):
                digit = (value >> shift) & mask
                dest = offsets[digit]
                offsets[digit] = dest + 1
                out_keys[dest] = value
                if out_ids is not None and id_values is not None:
                    out_ids[dest] = id_values[pos]
            dst_keys.write_block(0, out_keys)
            if dst_ids is not None and out_ids is not None:
                dst_ids.write_block(0, out_ids)

            src_keys, dst_keys = dst_keys, src_keys
            if ids is not None:
                src_ids, dst_ids = dst_ids, src_ids

        if src_keys is not keys:
            # Odd pass count: result sits in the scratch buffer; copy home.
            keys.write_block(0, src_keys.read_block(0, n))
            if ids is not None and src_ids is not None:
                ids.write_block(0, src_ids.read_block(0, n))

    def _sort_numpy(
        self,
        keys: InstrumentedArray,
        ids: Optional[InstrumentedArray],
        dst_keys: InstrumentedArray,
        dst_ids: Optional[InstrumentedArray],
    ) -> None:
        """Vectorized passes: the counting-sort permutation of a pass is
        exactly the stable-argsort order of its digits, so outputs and the
        ``n`` reads + ``n`` writes per pass match the scalar path."""
        n = len(keys)
        src_keys: InstrumentedArray = keys
        src_ids = ids
        for shift, mask in self._plan:
            values = src_keys.read_block_np(0, n)
            id_values = src_ids.read_block_np(0, n) if src_ids is not None else None

            order = np.argsort(_digits_np(values, shift, mask), kind="stable")

            dst_keys.write_block(0, values[order])
            if dst_ids is not None and id_values is not None:
                dst_ids.write_block(0, id_values[order])

            src_keys, dst_keys = dst_keys, src_keys
            if ids is not None:
                src_ids, dst_ids = dst_ids, src_ids

        if src_keys is not keys:
            keys.write_block(0, src_keys.read_block_np(0, n))
            if ids is not None and src_ids is not None:
                ids.write_block(0, src_ids.read_block_np(0, n))

    def precise_schedule(self, n: int) -> "tuple[int, int]":
        """Per array, each pass reads and writes every element once, and an
        odd pass count adds the copy home: ``(P + P % 2) * n`` of each."""
        passes = len(self._plan)
        touches = (passes + passes % 2) * n if n >= 2 else 0
        return touches, touches

    def expected_key_writes(self, n: int) -> float:
        """alpha_hLSD(n): one write per element per pass (+ odd-pass copy)."""
        return float(self.precise_schedule(n)[1])


class HistogramMSDRadixSort(BaseSorter):
    """Counting-based MSD radix sort: one key write per element per level."""

    def __init__(self, bits: int = 6, kernels: Optional[str] = None) -> None:
        super().__init__(kernels)
        self.bits = bits
        self._plan = msd_digit_plan(bits)
        self.name = f"hmsd{bits}"

    def _sort(
        self, keys: InstrumentedArray, ids: Optional[InstrumentedArray]
    ) -> None:
        permute = (
            self._permute_segment_np
            if self._use_numpy_kernels(keys, ids)
            else self._permute_segment
        )
        stack = [(0, len(keys), 0)]
        while stack:
            lo, hi, depth = stack.pop()
            if hi - lo <= 1 or depth >= len(self._plan):
                continue
            shift, mask = self._plan[depth]
            # Small segments take the scalar pass in either kernel mode: it
            # is bit-identical to the vectorized one, and cheaper there.
            split = (
                self._permute_segment if hi - lo <= SEGMENT_LANE_MAX_KEYS
                else permute
            )
            sub_bounds = split(keys, ids, lo, hi, shift, mask)
            for sub_lo, sub_hi in sub_bounds:
                if sub_hi - sub_lo > 1:
                    stack.append((sub_lo, sub_hi, depth + 1))

    @staticmethod
    def _permute_segment(
        keys: InstrumentedArray,
        ids: Optional[InstrumentedArray],
        lo: int,
        hi: int,
        shift: int,
        mask: int,
    ) -> list[tuple[int, int]]:
        """Histogram + single permute write of ``keys[lo:hi]``.

        The permuted segment is written straight back (destination offsets
        are known from the counts — no bucket region, no second copy).
        Returns the non-empty sub-segment boundaries in digit order.
        """
        count = hi - lo
        values = keys.read_block(lo, count)
        id_values = ids.read_block(lo, count) if ids is not None else None
        order, counts = _counting_order(values, shift, mask)
        keys.write_block(lo, [values[pos] for pos in order])
        if ids is not None and id_values is not None:
            ids.write_block(lo, [id_values[pos] for pos in order])
        return _bucket_bounds(lo, counts)

    @staticmethod
    def _permute_segment_np(
        keys: InstrumentedArray,
        ids: Optional[InstrumentedArray],
        lo: int,
        hi: int,
        shift: int,
        mask: int,
    ) -> list[tuple[int, int]]:
        """Vectorized histogram + permute of ``keys[lo:hi]``."""
        count = hi - lo
        values = keys.read_block_np(lo, count)
        id_values = ids.read_block_np(lo, count) if ids is not None else None

        digits = _digits_np(values, shift, mask)
        order = np.argsort(digits, kind="stable")
        sizes = np.bincount(digits, minlength=mask + 1)

        keys.write_block(lo, values[order])
        if ids is not None and id_values is not None:
            ids.write_block(lo, id_values[order])

        return _bucket_bounds(lo, sizes.tolist())

    def expected_key_writes(self, n: int) -> float:
        """alpha_hMSD(n): one write per element per touched level."""
        if n < 2:
            return 0.0
        levels = min(
            len(self._plan),
            max(1, math.ceil(math.log(n) / math.log(2 ** self.bits))),
        )
        return float(levels) * n
