"""Randomized quicksort (paper Section 3.1).

The paper implements "a randomized quicksort algorithm — the pivot is chosen
randomly to reduce the probability of worst cases" and credits quicksort's
approximate-memory robustness to its divide structure: once a partition step
separates the halves, an imprecise element only perturbs its own side
(Section 3.5).

This implementation is an iterative Hoare-partition quicksort with a random
pivot.  On random data it performs about ``n*log2(n)/2`` key writes, the
paper's ``alpha_quicksort``.  There is deliberately no small-input
insertion-sort cutoff: insertion sort trades comparisons for extra shifts
(writes), which would distort the write accounting the study measures.
"""

from __future__ import annotations

import random
from typing import Optional

import numpy as np

from repro.memory.approx_array import ApproxArray, InstrumentedArray, PreciseArray
from repro.obs import get_tracer

from .base import BaseSorter, nlog2n

#: Segments below this size take the scalar partition even in numpy mode —
#: the vectorized replay's fixed overhead beats Python loops only on larger
#: segments, and both paths are bit-identical on precise memory anyway.
_NUMPY_SEGMENT_CUTOFF = 64


class Quicksort(BaseSorter):
    """Iterative randomized quicksort over (keys, ids) pairs.

    Parameters
    ----------
    seed:
        Seed of the pivot-selection randomness (independent of the memory
        model's corruption randomness, so pivot choice and imprecision can be
        varied separately in experiments).
    """

    name = "quicksort"

    def __init__(self, seed: int = 0, kernels: Optional[str] = None) -> None:
        super().__init__(kernels)
        self.seed = seed
        self._rng = random.Random(seed)

    def _sort(
        self, keys: InstrumentedArray, ids: Optional[InstrumentedArray]
    ) -> None:
        if not self._use_numpy_kernels(keys, ids):
            partition = self._partition
        elif self._lanes(keys, ids):
            partition = self._partition_lane
        else:
            partition = self._partition_np
        tracer = get_tracer()
        # Per-depth rollup (partitions performed, elements scanned) emitted
        # as counters after the walk; only accumulated when tracing is on.
        by_depth: dict[int, list[int]] = {}
        # Explicit stack, smaller side pushed last, keeps depth O(log n)
        # even if corruption produces degenerate partitions.
        stack = [(0, len(keys) - 1, 0)]
        while stack:
            lo, hi, depth = stack.pop()
            while lo < hi:
                if tracer.enabled:
                    rollup = by_depth.setdefault(depth, [0, 0])
                    rollup[0] += 1
                    rollup[1] += hi - lo + 1
                split = partition(keys, ids, lo, hi)
                # Recurse into the smaller side first (iteratively: push the
                # larger side, loop on the smaller one).
                if split - lo < hi - split - 1:
                    stack.append((split + 1, hi, depth + 1))
                    hi = split
                else:
                    stack.append((lo, split, depth + 1))
                    lo = split + 1
                depth += 1
        for depth in sorted(by_depth):
            partitions, elements = by_depth[depth]
            depth_attrs = {"algo": self.name, "depth": depth}
            tracer.counter(
                "quicksort.depth.partitions", partitions, attrs=depth_attrs
            )
            tracer.counter(
                "quicksort.depth.elements", elements, attrs=depth_attrs
            )

    def _partition(
        self,
        keys: InstrumentedArray,
        ids: Optional[InstrumentedArray],
        lo: int,
        hi: int,
    ) -> int:
        """Hoare partition around a randomly chosen pivot.

        The random pivot is first swapped to ``lo`` (the classical guard that
        makes Hoare's scans terminate), then scanned with explicit bounds:
        on approximate memory a swap can corrupt the value it writes, which
        would otherwise let a scan run off the segment.  Returns ``split``
        in ``[lo, hi - 1]`` such that, up to corruption observed during the
        scan, ``keys[lo..split] <= pivot <= keys[split+1..hi]``.
        """
        p = self._rng.randint(lo, hi)
        if p != lo:
            self._swap(keys, ids, lo, p)
        pivot = keys.read(lo)
        i = lo - 1
        j = hi + 1
        while True:
            i += 1
            while i < hi and keys.read(i) < pivot:
                i += 1
            j -= 1
            while j > lo and keys.read(j) > pivot:
                j -= 1
            if i >= j:
                break
            self._swap(keys, ids, i, j)
        # On precise memory j < hi always holds; under corruption the clamp
        # merely leaves keys[hi] unpartitioned (extra unsortedness, which is
        # exactly what the study measures) while guaranteeing termination.
        return min(j, hi - 1)

    def _lanes(
        self, keys: InstrumentedArray, ids: Optional[InstrumentedArray]
    ) -> bool:
        """Whether :meth:`_partition_lane` may run (DESIGN.md section 8).

        Its ``swap`` and ``record_reads`` calls are entry points of the
        bare arrays only, so it takes the fused path's gate: numpy kernels
        and bare ``ApproxArray``/``PreciseArray`` operands with no trace
        hook.  The scalar path stays the reference.
        """
        return self._bare_numpy(keys, ids, (ApproxArray, PreciseArray))

    def _partition_lane(
        self,
        keys: InstrumentedArray,
        ids: Optional[InstrumentedArray],
        lo: int,
        hi: int,
    ) -> int:
        """:meth:`_partition_np` with its small segments on the list lane.

        Below :data:`_NUMPY_SEGMENT_CUTOFF` keys :meth:`_partition_np`
        runs the scalar :meth:`_partition`; this runs the same partition
        on a peeked list instead.  The pivot draw, the split and every swap
        are the scalar ones, and each swap is one array call (``swap``)
        that stores what :meth:`_partition`'s two writes would.  The scan's reads, which the scalar partition makes one
        accounted call each, are counted on the list and charged once.
        """
        count = hi - lo + 1
        if count >= _NUMPY_SEGMENT_CUTOFF:
            return self._partition_np(keys, ids, lo, hi)
        p = self._rng.randint(lo, hi)
        seg = keys.peek_block_np(lo, count).tolist()
        if p != lo:
            seg[0], seg[p - lo] = keys.swap(lo, p)
            if ids is not None:
                ids.swap(lo, p)
        pivot = seg[0]
        reads = 1
        last = count - 1
        i, j = -1, count
        while True:
            i += 1
            while i < last:
                reads += 1
                if seg[i] >= pivot:
                    break
                i += 1
            j -= 1
            while j > 0:
                reads += 1
                if seg[j] <= pivot:
                    break
                j -= 1
            if i >= j:
                break
            seg[i], seg[j] = keys.swap(lo + i, lo + j)
            if ids is not None:
                ids.swap(lo + i, lo + j)
        keys.record_reads(reads)
        return lo + min(j, last - 1)

    def _partition_np(
        self,
        keys: InstrumentedArray,
        ids: Optional[InstrumentedArray],
        lo: int,
        hi: int,
    ) -> int:
        """Vectorized replay of the Hoare partition.

        The scalar scans are deterministic given the segment snapshot: the
        i-scan's k-th stop is ``L[k]`` (ascending offsets with value >=
        pivot, offset 0 first, forced stop at ``count-1`` from the ``i <
        hi`` guard) and the j-scan's is ``R[k]`` (descending offsets with
        value <= pivot, forced stop at 0), *until* the crossing iteration
        ``s`` — the first with ``L[s] >= R[s]`` — where a scan can instead
        stop on a value swapped in earlier, giving ``i = min(L[s],
        R[s-1])`` and ``j = max(R[s], L[s-1])``.  Swap pairs are ``(L[k],
        R[k])`` for ``k < s``.  Reads/writes are re-issued as accounted
        batch operations with exactly the scalar counts, so on precise
        memory output, split and stats are bit-identical.  On approximate
        memory the swaps draw the keyed uniforms the scalar swaps would,
        but a crossing-iteration stop on a corrupted swapped-in value is
        not replayed, so the two kernel modes agree only statistically
        (quicksort is not in ``APPROX_KERNEL_EXACT``).

        A segment below :data:`_NUMPY_SEGMENT_CUTOFF` keys runs the scalar
        :meth:`_partition` instead; on bare arrays :meth:`_partition_lane`
        runs that same partition on a list.
        """
        count = hi - lo + 1
        if count < _NUMPY_SEGMENT_CUTOFF:
            return self._partition(keys, ids, lo, hi)

        p = self._rng.randint(lo, hi)
        if p != lo:
            self._swap(keys, ids, lo, p)
        pivot = keys.read(lo)
        seg = keys.peek_block_np(lo, count)  # unaccounted snapshot

        stops_l = np.flatnonzero(seg[: count - 1] >= pivot)
        stops_l = np.append(stops_l, count - 1)
        stops_r = np.flatnonzero(seg[1:] <= pivot)[::-1] + 1
        stops_r = np.append(stops_r, 0)

        m = min(stops_l.size, stops_r.size)
        L = stops_l[:m]
        R = stops_r[:m]
        s = int(np.flatnonzero(L >= R)[0])  # crossing always exists
        if s == 0:
            i_final, j_final = int(L[0]), int(R[0])
        else:
            i_final = min(int(L[s]), int(R[s - 1]))
            j_final = max(int(R[s]), int(L[s - 1]))

        # Scan reads: i touched offsets [0, min(i_final, count-2)], j
        # touched [max(j_final, 1), count-1] (the guards skip hi and lo).
        keys.read_block_np(lo, min(i_final, count - 2) + 1)
        j_start = max(j_final, 1)
        keys.read_block_np(lo + j_start, count - j_start)

        if s > 0:
            swap_idx = np.concatenate((L[:s], R[:s])) + lo
            keys.gather_np(swap_idx)  # the swaps' accounted reads
            keys.scatter_np(
                swap_idx, np.concatenate((seg[R[:s]], seg[L[:s]]))
            )
            if ids is not None:
                id_vals = ids.gather_np(swap_idx)
                ids.scatter_np(
                    swap_idx,
                    np.concatenate((id_vals[s:], id_vals[:s])),
                )

        return lo + min(j_final, count - 2)

    def expected_key_writes(self, n: int) -> float:
        """alpha_quicksort(n) ~ n*log2(n)/2 (paper Section 4.3)."""
        return nlog2n(n) / 2.0
