"""Measures of sortedness and imprecision.

The paper's primary measure is *Rem* (Section 3.3)::

    Rem(X) = n - max{k | X has an ascending subsequence of length k}

i.e. the number of elements that must be removed to leave a sorted sequence.
Since the target order is non-decreasing (duplicates are legal keys), the
"ascending subsequence" is the longest *non-decreasing* subsequence, computed
exactly here by patience sorting in O(n log n).

Also provided, for the broader sortedness literature the paper cites
(Estivill-Castro & Wood [20]): *Inv* (number of inverted pairs) and *Runs*
(number of maximal ascending runs), plus the paper's error-rate measure (the
proportion of elements whose values deviate from the original input).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

import numpy as np


def longest_nondecreasing_subsequence_length(values: Sequence[int]) -> int:
    """Length of the longest non-decreasing subsequence (patience sorting).

    ``tails[k]`` holds the smallest possible tail of a non-decreasing
    subsequence of length ``k + 1``; each element replaces the first tail
    strictly greater than it (``bisect_right`` keeps duplicates admissible).

    Nearly sorted inputs — the common case here, since Rem is mostly
    evaluated on approx-stage outputs — are processed run by run with a
    vectorized patience step; inputs with many runs fall back to the
    element-wise bisect loop.
    """
    n = len(values)
    if n < 2:
        return n
    arr = np.asarray(values)
    if arr.dtype != object:
        starts = np.flatnonzero(arr[1:] < arr[:-1]) + 1
        if starts.size < max(8, n // 4):
            return _lnds_by_runs(arr, starts)
        # Plain ints: the bisect loop is several times slower on numpy
        # scalars, and an ndarray input would hand it those.
        values = arr.tolist()
    return _lnds_bisect(values)


def _lnds_bisect(values: Sequence[int]) -> int:
    """Reference element-wise patience loop (also the many-runs fallback)."""
    tails: list[int] = []
    for value in values:
        pos = bisect_right(tails, value)
        if pos == len(tails):
            tails.append(value)
        else:
            tails[pos] = value
    return len(tails)


def _lnds_by_runs(arr: np.ndarray, starts: np.ndarray) -> int:
    """Patience sorting, one vectorized step per non-decreasing run.

    Within a run ``b_0 <= ... <= b_{r-1}`` the pile index of ``b_k``
    against the tails array *as of the run's start* is ``base_k =
    bisect_right(tails, b_k)``; the elements placed earlier in the run
    only lower tails at their own (strictly increasing) pile positions to
    values ``<= b_k``, so the true position is ``p_k = max(base_k,
    p_{k-1} + 1) = k + max_{j<=k}(base_j - j)`` — a running maximum.  The
    piles touched by a run are strictly increasing, so the tail updates
    are a single scatter.
    """
    n = arr.size
    bounds = [0, *starts.tolist(), n]
    tails = np.empty(n, dtype=arr.dtype)
    length = 0
    for s, e in zip(bounds[:-1], bounds[1:]):
        run = arr[s:e]
        offsets = np.arange(run.size)
        base = np.searchsorted(tails[:length], run, side="right")
        piles = np.maximum.accumulate(base - offsets) + offsets
        tails[piles] = run
        length = max(length, int(piles[-1]) + 1)
    return length


def rem(values: Sequence[int]) -> int:
    """Rem(X): elements to remove so the remainder is sorted (exact)."""
    n = len(values)
    if n == 0:
        return 0
    return n - longest_nondecreasing_subsequence_length(values)


def rem_ratio(values: Sequence[int]) -> float:
    """Rem(X) / n; 0.0 for an empty sequence."""
    n = len(values)
    if n == 0:
        return 0.0
    return rem(values) / n


def inversions(values: Sequence[int]) -> int:
    """Inv(X): number of pairs ``i < j`` with ``X[i] > X[j]`` (exact).

    Computed by bottom-up merge counting with every level fully
    vectorized: blocks are laid out as rows, the sorted left halves of
    *all* blocks are searched at once by keying each block's values with a
    disjoint offset, and the level's merge is a row-wise ``np.sort``.
    Equal elements are not inversions (``side="right"``).  Falls back to a
    Fenwick-tree loop for object dtypes or value ranges too wide to key.
    """
    n = len(values)
    if n < 2:
        return 0
    arr = np.asarray(values)
    if arr.dtype == object:
        return _inversions_fenwick(values)
    lo = int(arr.min())
    span = int(arr.max()) - lo + 1
    # Block keys must stay within int64: nrows * span < 2**62.
    if span > (1 << 62) // max(1, n):
        return _inversions_fenwick(values)

    m = 1 << (n - 1).bit_length()
    # Pad to a power of two with the global max: pads sort to the tail of
    # every block they appear in and never count as an inversion.
    work = np.full(m, span - 1, dtype=np.int64)
    work[:n] = arr.astype(np.int64) - lo

    count = 0
    width = 1
    while width < m:
        blocks = work.reshape(-1, 2 * width)
        nrows = blocks.shape[0]
        row_key = np.arange(nrows, dtype=np.int64) * span
        left_keyed = (blocks[:, :width] + row_key[:, None]).ravel()
        right_keyed = (blocks[:, width:] + row_key[:, None]).ravel()
        # For each right element: left elements <= it within its block.
        le_counts = np.searchsorted(left_keyed, right_keyed, side="right")
        le_counts -= np.repeat(np.arange(nrows, dtype=np.int64) * width, width)
        count += int((width - le_counts).sum())
        work = np.sort(blocks, axis=1).ravel()
        width *= 2
    return count


def _inversions_fenwick(values: Sequence[int]) -> int:
    """Reference O(n log n) Fenwick-tree count (also the generic fallback)."""
    n = len(values)
    arr = np.asarray(values)
    # Ranks with ties broken by position keep the count exact for duplicates:
    # equal elements are not inversions.
    order = np.argsort(arr, kind="stable")
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(n)
    tree = [0] * (n + 1)

    def update(i: int) -> None:
        i += 1
        while i <= n:
            tree[i] += 1
            i += i & (-i)

    def query(i: int) -> int:
        # Number of previously-seen ranks <= i.
        i += 1
        total = 0
        while i > 0:
            total += tree[i]
            i -= i & (-i)
        return total

    count = 0
    for seen, r in enumerate(ranks.tolist()):
        count += seen - query(r)
        update(r)
    return count


def runs(values: Sequence[int]) -> int:
    """Runs(X): number of maximal non-decreasing runs (1 for sorted input)."""
    n = len(values)
    if n == 0:
        return 0
    count = 1
    for i in range(1, n):
        if values[i] < values[i - 1]:
            count += 1
    return count


def is_sorted(values: Sequence[int]) -> bool:
    """True iff the sequence is non-decreasing."""
    return all(values[i] <= values[i + 1] for i in range(len(values) - 1))


def _stable_sort_permutation(values: Sequence[int]) -> np.ndarray:
    """``perm[k]`` = index in X of the k-th element of stable-sorted X."""
    return np.argsort(np.asarray(values), kind="stable")


def dis(values: Sequence[int]) -> int:
    """Dis(X): the largest distance an element must travel to its sorted
    position (Estivill-Castro & Wood's displacement measure).

    0 for sorted input; up to ``n - 1`` for reversed input.
    """
    n = len(values)
    if n < 2:
        return 0
    order = _stable_sort_permutation(values)
    positions = np.arange(n)
    return int(np.abs(order - positions).max())


def exc(values: Sequence[int]) -> int:
    """Exc(X): minimum number of exchanges (swaps) that sort X.

    Equal to ``n`` minus the number of cycles of the sorting permutation;
    0 for sorted input, ``floor(n/2)`` for reversed input.
    """
    n = len(values)
    if n < 2:
        return 0
    order = _stable_sort_permutation(values).tolist()
    seen = [False] * n
    cycles = 0
    for start in range(n):
        if seen[start]:
            continue
        cycles += 1
        node = start
        while not seen[node]:
            seen[node] = True
            node = order[node]
    return n - cycles


def ham(values: Sequence[int]) -> int:
    """Ham(X): the number of elements not already in their sorted position
    (with ties resolved stably)."""
    n = len(values)
    if n < 2:
        return 0
    order = _stable_sort_permutation(values)
    return int(np.count_nonzero(order != np.arange(n)))


def error_rate_multiset(original: Sequence[int], final: Sequence[int]) -> float:
    """Proportion of elements whose values deviate from the original input.

    The paper's Step-1 study has no identity payload, so "elements whose
    values deviate from their original values" is measured on multisets: the
    fraction of the final sequence not matched by the original multiset.
    Sequences of different lengths are a usage error.
    """
    if len(original) != len(final):
        raise ValueError(
            f"length mismatch: original {len(original)} vs final {len(final)}"
        )
    if len(final) == 0:
        return 0.0
    # The multiset intersection: for each value present in both, the
    # smaller of its two counts.
    values_a, counts_a = np.unique(np.asarray(original), return_counts=True)
    values_b, counts_b = np.unique(np.asarray(final), return_counts=True)
    _, in_a, in_b = np.intersect1d(
        values_a, values_b, assume_unique=True, return_indices=True
    )
    matched = int(np.minimum(counts_a[in_a], counts_b[in_b]).sum())
    return 1.0 - matched / len(final)
