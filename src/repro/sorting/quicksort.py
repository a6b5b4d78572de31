"""Randomized quicksort (paper Section 3.1).

The paper implements "a randomized quicksort algorithm — the pivot is chosen
randomly to reduce the probability of worst cases" and credits quicksort's
approximate-memory robustness to its divide structure: once a partition step
separates the halves, an imprecise element only perturbs its own side
(Section 3.5).

This implementation is a Hoare-partition quicksort whose pivots are keyed:
segment ``[lo, hi]`` pivots at ``lo + mix(k + lo·K_a + hi·K_k) mod (hi -
lo + 1)``, with ``mix`` the splitmix64 finaliser of
:mod:`repro.memory.keyed` and ``k`` a stream id hashed from the sorter's
seed.  So a segment's pivot depends on its bounds alone, not on the order
segments are partitioned in, and one instance sorts the same input the
same way every time.  On random data it performs about ``n*log2(n)/2`` key writes, the
paper's ``alpha_quicksort``.  There is deliberately no small-input
insertion-sort cutoff: insertion sort trades comparisons for extra shifts
(writes), which would distort the write accounting the study measures.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.memory import keyed
from repro.memory.approx_array import InstrumentedArray
from repro.obs import get_tracer

from .base import BaseSorter, nlog2n

#: Salt of the pivot stream id (the golden-ratio constant), which keeps it
#: apart from the stream id of an array seeded with the sorter's seed.
_PIVOT_SALT = 0x9E3779B97F4A7C15


class Quicksort(BaseSorter):
    """Quicksort with keyed pivots over (keys, ids) pairs.

    Parameters
    ----------
    seed:
        Seed of the pivot key (independent of the memory model's corruption
        keys, so pivot choice and imprecision can be varied separately in
        experiments).
    """

    name = "quicksort"

    def __init__(self, seed: int = 0, kernels: Optional[str] = None) -> None:
        super().__init__(kernels)
        self.seed = seed
        self._pivot_stream = keyed.stream_id(seed ^ _PIVOT_SALT)

    def _pivot(self, lo: int, hi: int) -> int:
        """The keyed pivot of segment ``[lo, hi]``."""
        hashed = keyed._mix(keyed.word_key(self._pivot_stream, lo, hi))
        return lo + hashed % (hi - lo + 1)

    def _pivots(self, los: np.ndarray, his: np.ndarray) -> np.ndarray:
        """:meth:`_pivot` of every segment ``[los[g], his[g]]`` (numpy
        form: the same integer arithmetic, so the same pivots)."""
        hashed = np.empty(los.size, np.uint64)
        scratch = np.empty(los.size, np.uint64)
        keyed._keys_np(
            self._pivot_stream, los, his, 0, los.size, hashed, scratch
        )
        keyed._mix_np(hashed, scratch)
        hashed %= (his - los + 1).astype(np.uint64)
        return los + hashed.astype(los.dtype)

    def _sort(
        self, keys: InstrumentedArray, ids: Optional[InstrumentedArray]
    ) -> None:
        walk = (
            self._level_pass if self._use_numpy_kernels(keys, ids)
            else self._walk
        )
        tracer = get_tracer()
        # Per-depth rollup (partitions performed, elements scanned) emitted
        # as counters after the sort; only accumulated when tracing is on.
        by_depth: dict[int, list[int]] = {}
        walk(keys, ids, by_depth if tracer.enabled else None)
        for depth in sorted(by_depth):
            partitions, elements = by_depth[depth]
            depth_attrs = {"algo": self.name, "depth": depth}
            tracer.counter(
                "quicksort.depth.partitions", partitions, attrs=depth_attrs
            )
            tracer.counter(
                "quicksort.depth.elements", elements, attrs=depth_attrs
            )

    def _walk(
        self,
        keys: InstrumentedArray,
        ids: Optional[InstrumentedArray],
        by_depth: "dict[int, list[int]] | None",
    ) -> None:
        """The scalar reference: segments depth first, one
        :meth:`_partition` each."""
        # Explicit stack, smaller side pushed last, keeps depth O(log n)
        # even if corruption produces degenerate partitions.
        stack = [(0, len(keys) - 1, 0)]
        while stack:
            lo, hi, depth = stack.pop()
            while lo < hi:
                if by_depth is not None:
                    rollup = by_depth.setdefault(depth, [0, 0])
                    rollup[0] += 1
                    rollup[1] += hi - lo + 1
                split = self._partition(keys, ids, lo, hi)
                # Recurse into the smaller side first (iteratively: push the
                # larger side, loop on the smaller one).
                if split - lo < hi - split - 1:
                    stack.append((split + 1, hi, depth + 1))
                    hi = split
                else:
                    stack.append((lo, split, depth + 1))
                    lo = split + 1
                depth += 1

    def _partition(
        self,
        keys: InstrumentedArray,
        ids: Optional[InstrumentedArray],
        lo: int,
        hi: int,
    ) -> int:
        """Hoare partition around the segment's keyed pivot.

        The pivot is first swapped to ``lo`` (the classical guard that
        makes Hoare's scans terminate), then scanned with explicit bounds:
        on approximate memory a swap can corrupt the value it writes, which
        would otherwise let a scan run off the segment.  Returns ``split``
        in ``[lo, hi - 1]`` such that, up to corruption observed during the
        scan, ``keys[lo..split] <= pivot <= keys[split+1..hi]``.
        """
        p = self._pivot(lo, hi)
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

    def _level_pass(
        self,
        keys: InstrumentedArray,
        ids: Optional[InstrumentedArray],
        by_depth: "dict[int, list[int]] | None",
    ) -> None:
        """Every segment of one recursion level in one vectorized pass.

        The segments of one level are disjoint, and each address receives
        the same values in the same sequence as under :meth:`_walk`: its
        segment's pivot swap, then its Hoare swap, level after level.  So
        under the arrays' keyed corruption the two store the same words
        and charge the same stats; only the order of the writes differs.
        """
        n = len(keys)
        index = np.int32 if n < 1 << 31 else np.int64
        los = np.zeros(1, index)
        his = np.full(1, n - 1, index)
        depth = 0
        while los.size:
            if by_depth is not None:
                by_depth[depth] = [int(los.size), int((his - los + 1).sum())]
            splits = self._partition_level(keys, ids, los, his)
            # Children in address order: [lo, split], then [split + 1, hi].
            los = np.stack((los, splits + 1), axis=1).ravel()
            his = np.stack((splits, his), axis=1).ravel()
            keep = los < his
            los, his = los[keep], his[keep]
            depth += 1

    def _partition_level(
        self,
        keys: InstrumentedArray,
        ids: Optional[InstrumentedArray],
        los: np.ndarray,
        his: np.ndarray,
    ) -> np.ndarray:
        """:meth:`_partition` of the disjoint segments ``[los[g], his[g]]``
        (each of at least 2 keys) at once; returns their splits.

        The scans are deterministic given the words: in a segment of
        ``count`` keys the i-scan's k-th stop is ``L[k]`` (ascending
        offsets whose word is ``>= pivot``, with a forced stop at
        ``count - 1``) and the j-scan's is ``R[k]`` (descending offsets
        whose word is ``<= pivot``, forced stop at 0), up to the crossing
        iteration ``s``, the first with ``L[s] >= R[s]``.  Before it, each
        scan reads only words no earlier swap ``(L[k], R[k])`` wrote, so
        those stops come from one snapshot; the crossing scans may read
        what the swaps stored, so they are replayed on the segment as it
        stands after them.  Reads and writes are issued as accounted batch
        operations with exactly the scalar counts.
        """
        counts = his - los + 1
        # The keyed pivots, swapped to the front of their segments.
        pivots = self._pivots(los, his)
        moved = pivots != los
        _swap_np(keys, ids, los[moved], pivots[moved])
        # The pivot words as stored.
        pivot = np.repeat(keys.gather_np(los), counts)
        # The stops of every segment, concatenated in address order, and
        # the scans' k-th stops paired up.
        ends = np.cumsum(counts, dtype=los.dtype)
        starts = ends - counts
        positions = np.repeat(los - starts, counts) + np.arange(
            ends[-1], dtype=los.dtype
        )
        words = keys.peek_gather_np(positions)
        stops_l, stops_r = _stops(words, pivot, starts, ends)
        first_l = np.searchsorted(stops_l, starts)
        first_r = np.searchsorted(stops_r, starts)
        last_r = np.append(first_r[1:], stops_r.size) - 1
        pairs = np.minimum(np.append(first_l[1:], stops_l.size) - first_l,
                           last_r + 1 - first_r)
        base = np.cumsum(pairs) - pairs
        step = np.arange(base[-1] + pairs[-1])
        left = stops_l[np.repeat(first_l - base, pairs) + step]
        right = stops_r[np.repeat(last_r + base, pairs) - step]
        swapping = left < right  # a prefix of each segment's pairs
        s = np.add.reduceat(swapping, base, dtype=los.dtype)
        # The Hoare swaps (L[k], R[k]), k < s.
        left, right = left[swapping], right[swapping]
        _swap_np(keys, ids, positions[left], positions[right])
        # The crossing scans on the stored words: i from L[s-1] + 1 (the
        # segment's start when s = 0), j from R[s-1] - 1 (its end).
        swapped = np.concatenate((left, right))
        words[swapped] = keys.peek_gather_np(positions[swapped])
        stops_l, stops_r = _stops(words, pivot, starts, ends)
        crossed = s > 0
        last = np.cumsum(s)[crossed] - 1
        i_from = starts.copy()
        i_from[crossed] = left[last] + 1
        j_to = ends.copy()
        j_to[crossed] = right[last]
        i = stops_l[np.searchsorted(stops_l, i_from)] - starts
        j = stops_r[np.searchsorted(stops_r, j_to) - 1] - starts
        # The scan reads: i read offsets [0, min(i, count - 2)] and j
        # read [max(j, 1), count - 1] (the guards skip hi and lo).
        keys.record_reads(int(
            (np.minimum(i, counts - 2) + 1 + counts - np.maximum(j, 1)).sum()
        ))
        return los + np.minimum(j, counts - 2).astype(los.dtype)

    def expected_key_writes(self, n: int) -> float:
        """alpha_quicksort(n) ~ n*log2(n)/2 (paper Section 4.3)."""
        return nlog2n(n) / 2.0


def _stops(
    words: np.ndarray, pivot: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """Where the i-scans and the j-scans of concatenated segments stop:
    words ``>= pivot`` plus each segment's last offset, and words ``<=
    pivot`` plus its first, as ascending indices into ``words``."""
    stop = words >= pivot
    stop[ends - 1] = True
    stops_l = np.flatnonzero(stop)
    np.less_equal(words, pivot, out=stop)
    stop[starts] = True
    return stops_l, np.flatnonzero(stop)


def _swap_np(
    keys: InstrumentedArray,
    ids: Optional[InstrumentedArray],
    a: np.ndarray,
    b: np.ndarray,
) -> None:
    """Swap positions ``a[k]`` and ``b[k]`` for every ``k`` (all distinct),
    keys then ids: one accounted gather and scatter each, the reads and
    writes of the scalar swaps."""
    if not a.size:
        return
    at = np.concatenate((a, b))
    for array in (keys, ids):
        if array is not None:
            words = array.gather_np(at)
            array.scatter_np(
                at, np.concatenate((words[a.size:], words[: a.size]))
            )
