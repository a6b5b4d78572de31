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

Both variants run their queue twin's pass loop or segment walk (tracing
included) with :attr:`~repro.sorting.radix.LSDRadixSort.queues` cleared;
only the pass differs.

SIMD and NUMA aspects of the original implementation do not change the write
stream (the paper reports "almost the same write reductions" with them
toggled) and are not modeled.
"""

from __future__ import annotations

from .radix import LSDRadixSort, MSDRadixSort


class HistogramLSDRadixSort(LSDRadixSort):
    """Counting-based LSD radix sort: one key write per element per pass.

    The passes ping-pong between the array and one buffer; an odd pass
    count ends with a copy home.
    """

    family = "hlsd"
    queues = False

    def precise_schedule(self, n: int) -> "tuple[int, int]":
        """Per array, each pass reads and writes every element once, and an
        odd pass count adds the copy home: ``(P + P % 2) * n`` of each."""
        passes = len(self._plan)
        touches = (passes + passes % 2) * n if n >= 2 else 0
        return touches, touches


class HistogramMSDRadixSort(MSDRadixSort):
    """Counting-based MSD radix sort: one key write per element per level.

    Each segment is permuted in place (destination offsets are known from
    the counts: no bucket region, no second copy).
    """

    family = "hmsd"
    queues = False

    def expected_key_writes(self, n: int) -> float:
        """alpha_hMSD(n): one write per element per touched level."""
        return float(self._levels(n) * n)
