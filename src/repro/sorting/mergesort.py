"""Bottom-up mergesort (paper Section 3.1).

Mergesort is the paper's cautionary tale: because later merge runs involve
ever more elements, an imprecise element keeps participating in comparisons
until the final run, and the unsortedness it causes compounds — mergesort's
output at T = 0.055 has a Rem ratio of 55.8% where quicksort's is 1.9%
(paper Table 3).

A mergesort execution performs about ``n*log2(n)`` key writes
(``alpha_mergesort``): each of the ``ceil(log2 n)`` merge passes rewrites
every element once.  The merge output is assembled run by run and written
with block writes, i.e. the software write-combining the paper adopts from
Balkesen et al. [4].  The paper also sizes first-level chunks to the L2
cache; under the study's write-through cache model this does not change the
memory write stream, so the classic run-size-1 bottom-up schedule is used
(see DESIGN.md).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.memory.approx_array import InstrumentedArray
from repro.obs import get_tracer

from .base import BaseSorter, copy_block, nlog2n


class Mergesort(BaseSorter):
    """Bottom-up mergesort with ping-pong buffers over (keys, ids)."""

    name = "mergesort"

    def _sort(
        self, keys: InstrumentedArray, ids: Optional[InstrumentedArray]
    ) -> None:
        n = len(keys)
        src_keys: InstrumentedArray = keys
        dst_keys = keys.clone_empty(name=f"{keys.name}.merge-buffer")
        src_ids = ids
        dst_ids = ids.clone_empty(name=f"{ids.name}.merge-buffer") if ids is not None else None
        one_level = (
            self._level_numpy
            if self._use_numpy_kernels(keys, ids)
            else self._level_scalar
        )

        tracer = get_tracer()
        width = 1
        level = 0
        while width < n:
            if tracer.enabled:
                with tracer.span(
                    f"merge.level{level}", stats=keys.stats,
                    attrs={"algo": self.name, "width": width},
                ):
                    one_level(src_keys, src_ids, dst_keys, dst_ids, n, width)
            else:
                one_level(src_keys, src_ids, dst_keys, dst_ids, n, width)
            src_keys, dst_keys = dst_keys, src_keys
            if ids is not None:
                src_ids, dst_ids = dst_ids, src_ids
            width *= 2
            level += 1

        if src_keys is not keys:
            # An odd number of passes left the result in the scratch buffer;
            # copy it home (accounted — these writes are real on hardware).
            with tracer.span("merge.copy_home", stats=keys.stats):
                copy_block(src_keys, src_ids, keys, ids, 0, n, False)

    def _level_scalar(
        self,
        src_keys: InstrumentedArray,
        src_ids: Optional[InstrumentedArray],
        dst_keys: InstrumentedArray,
        dst_ids: Optional[InstrumentedArray],
        n: int,
        width: int,
    ) -> None:
        """One bottom-up level: merge every run pair of width ``width``."""
        for lo in range(0, n, 2 * width):
            mid = min(lo + width, n)
            hi = min(lo + 2 * width, n)
            self._merge_runs(src_keys, src_ids, dst_keys, dst_ids, lo, mid, hi)

    def _level_numpy(
        self,
        src_keys: InstrumentedArray,
        src_ids: Optional[InstrumentedArray],
        dst_keys: InstrumentedArray,
        dst_ids: Optional[InstrumentedArray],
        n: int,
        width: int,
    ) -> None:
        """One vectorized bottom-up level on the batch primitives.

        A scalar level performs exactly ``n`` reads and ``n`` writes (every
        element is read once and rewritten once across its pair merges), so
        reading the whole array with one ``read_block_np`` and writing the
        merged level with one ``write_block`` charges identical counts —
        ``MemoryStats`` accounting is grouping-invariant.  Pairs that
        corruption left unsorted replay the scalar walk, so the level
        writes the scalar pass's values to the same addresses, and under
        the arrays' keyed corruption the two paths are bit-identical on
        approximate memory too.
        """
        values = src_keys.read_block_np(0, n)
        id_values = (
            src_ids.read_block_np(0, n) if src_ids is not None else None
        )
        out, out_ids = _merge_level(values, id_values, width)
        dst_keys.write_block(0, out)
        if dst_ids is not None and out_ids is not None:
            dst_ids.write_block(0, out_ids)

    @staticmethod
    def _merge_runs(
        src_keys: InstrumentedArray,
        src_ids: Optional[InstrumentedArray],
        dst_keys: InstrumentedArray,
        dst_ids: Optional[InstrumentedArray],
        lo: int,
        mid: int,
        hi: int,
    ) -> None:
        """Merge ``src[lo:mid]`` and ``src[mid:hi]`` into ``dst[lo:hi]``."""
        merged_keys, merged_ids = _merge_walk(
            src_keys.read_block(lo, mid - lo),
            src_keys.read_block(mid, hi - mid),
            src_ids.read_block(lo, mid - lo) if src_ids is not None else None,
            src_ids.read_block(mid, hi - mid) if src_ids is not None else None,
        )
        dst_keys.write_block(lo, merged_keys)
        if dst_ids is not None:
            dst_ids.write_block(lo, merged_ids)

    @staticmethod
    def _merge_runs_np(
        src_keys: InstrumentedArray,
        src_ids: Optional[InstrumentedArray],
        dst_keys: InstrumentedArray,
        dst_ids: Optional[InstrumentedArray],
        lo: int,
        mid: int,
        hi: int,
    ) -> None:
        """Vectorized merge of ``src[lo:mid]`` and ``src[mid:hi]``.

        Both runs sorted (always true on precise memory): the stable merge
        permutation comes from two ``np.searchsorted`` calls — a left
        element lands after the right elements strictly below it, a right
        element after the left elements at or below it, which is exactly
        the ``<=``-stable order of the scalar walk.  A corrupted
        (unsorted) run falls back to the scalar two-pointer walk on the
        already-read values; memory accesses are block-accounted the same
        either way.
        """
        left = src_keys.read_block_np(lo, mid - lo)
        right = src_keys.read_block_np(mid, hi - mid)
        left_ids = (
            src_ids.read_block_np(lo, mid - lo) if src_ids is not None else None
        )
        right_ids = (
            src_ids.read_block_np(mid, hi - mid) if src_ids is not None else None
        )

        merged_keys, merged_ids = _merge_pair(left, right, left_ids, right_ids)
        dst_keys.write_block(lo, merged_keys)
        if dst_ids is not None and merged_ids is not None:
            dst_ids.write_block(lo, merged_ids)

    def precise_schedule(self, n: int) -> "tuple[int, int]":
        """Per array, each of the ``ceil(log2 n)`` levels reads and rewrites
        every element once, plus the copy-home pass when the level count is
        odd (the result would otherwise sit in the scratch buffer)."""
        levels = (n - 1).bit_length() if n >= 2 else 0
        touches = (levels + levels % 2) * n
        return touches, touches

    def expected_key_writes(self, n: int) -> float:
        """alpha_mergesort(n) ~ n*log2(n) (paper Section 4.3)."""
        return float(self.precise_schedule(n)[1])

    # Kept for reference against the paper's closed form.
    @staticmethod
    def paper_alpha(n: int) -> float:
        """The paper's approximation ``alpha_mergesort(n) = n*log2(n)``."""
        return nlog2n(n)


def _run_is_sorted(run: np.ndarray) -> bool:
    """True iff the run is non-decreasing (vectorized, unaccounted)."""
    return run.size < 2 or bool((run[1:] >= run[:-1]).all())


def _merge_pair(
    left: np.ndarray,
    right: np.ndarray,
    left_ids: "np.ndarray | None",
    right_ids: "np.ndarray | None",
) -> "tuple[np.ndarray | list[int], np.ndarray | list[int] | None]":
    """Merge one run pair on already-read values (no memory accesses).

    Sorted runs take the two-``searchsorted`` stable permutation; a
    corrupted (unsorted) run falls back to the scalar two-pointer walk,
    whose output the vectorized path must replicate exactly.
    """
    if right.size == 0:
        return left, left_ids
    if not (_run_is_sorted(left) and _run_is_sorted(right)):
        return _merge_walk(
            left.tolist(), right.tolist(),
            left_ids.tolist() if left_ids is not None else None,
            right_ids.tolist() if right_ids is not None else None,
        )
    pos_left = np.arange(left.size) + np.searchsorted(right, left, side="left")
    pos_right = np.arange(right.size) + np.searchsorted(
        left, right, side="right"
    )
    merged_keys = np.empty(left.size + right.size, dtype=np.uint32)
    merged_keys[pos_left] = left
    merged_keys[pos_right] = right
    merged_ids = None
    if left_ids is not None and right_ids is not None:
        merged_ids = np.empty(merged_keys.size, dtype=np.uint32)
        merged_ids[pos_left] = left_ids
        merged_ids[pos_right] = right_ids
    return merged_keys, merged_ids


def _merge_level(
    values: np.ndarray, id_values: "np.ndarray | None", width: int
) -> "tuple[np.ndarray, np.ndarray | None]":
    """One bottom-up merge level of run width ``width``, fully in numpy.

    All full pairs whose runs are both sorted merge in a *single* pair of
    ``searchsorted`` calls: each pair's runs are keyed with a disjoint
    ``row << 32`` offset, making the concatenation of all left (and all
    right) runs globally sorted, and the within-pair merge positions drop
    out of the global ranks by subtracting each row's cross-pair
    contribution.  Pairs containing a corrupted (unsorted) run replay the
    scalar two-pointer walk; the trailing partial pair merges on its own.
    """
    n = values.size
    out = np.empty(n, dtype=np.uint32)
    out_ids = (
        np.empty(n, dtype=np.uint32) if id_values is not None else None
    )
    span = 2 * width
    nf = n // span
    tail = nf * span

    if nf:
        blocks = values[:tail].reshape(nf, span).astype(np.int64)
        left = blocks[:, :width]
        right = blocks[:, width:]
        dirty = (np.diff(left, axis=1) < 0).any(axis=1)
        dirty |= (np.diff(right, axis=1) < 0).any(axis=1)
        clean = np.flatnonzero(~dirty)
        if clean.size:
            m = clean.size
            row_key = (np.arange(m, dtype=np.int64) << np.int64(32))[:, None]
            left_keyed = (left[clean] + row_key).ravel()
            right_keyed = (right[clean] + row_key).ravel()
            col = np.tile(np.arange(width, dtype=np.int64), m)
            cross = np.repeat(np.arange(m, dtype=np.int64) * width, width)
            pos_left = col + np.searchsorted(
                right_keyed, left_keyed, side="left"
            ) - cross
            pos_right = col + np.searchsorted(
                left_keyed, right_keyed, side="right"
            ) - cross
            base = np.repeat(clean * span, width)
            out[base + pos_left] = (left_keyed & 0xFFFFFFFF).astype(np.uint32)
            out[base + pos_right] = (right_keyed & 0xFFFFFFFF).astype(
                np.uint32
            )
            if id_values is not None and out_ids is not None:
                id_blocks = id_values[:tail].reshape(nf, span)
                out_ids[base + pos_left] = id_blocks[clean, :width].ravel()
                out_ids[base + pos_right] = id_blocks[clean, width:].ravel()
        for row in np.flatnonzero(dirty).tolist():
            lo = row * span
            mid = lo + width
            hi = lo + span
            merged, merged_ids = _merge_walk(
                values[lo:mid].tolist(), values[mid:hi].tolist(),
                id_values[lo:mid].tolist() if id_values is not None else None,
                id_values[mid:hi].tolist() if id_values is not None else None,
            )
            out[lo:hi] = merged
            if out_ids is not None and merged_ids is not None:
                out_ids[lo:hi] = merged_ids

    if tail < n:
        mid = min(tail + width, n)
        merged, merged_ids = _merge_pair(
            values[tail:mid], values[mid:n],
            id_values[tail:mid] if id_values is not None else None,
            id_values[mid:n] if id_values is not None else None,
        )
        out[tail:n] = merged
        if out_ids is not None and merged_ids is not None:
            out_ids[tail:n] = merged_ids

    return out, out_ids


def _merge_walk(
    left: list[int],
    right: list[int],
    left_ids: "list[int] | None",
    right_ids: "list[int] | None",
) -> "tuple[list[int], list[int] | None]":
    """The scalar two-pointer merge on already-read values.

    The walk of :meth:`Mergesort._merge_runs`, and of the numpy kernel
    when corruption has left a run unsorted.  ``<=`` keeps it stable.
    """
    merged_keys: list[int] = []
    merged_ids: list[int] = []
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i] <= right[j]:
            merged_keys.append(left[i])
            if left_ids is not None:
                merged_ids.append(left_ids[i])
            i += 1
        else:
            merged_keys.append(right[j])
            if right_ids is not None:
                merged_ids.append(right_ids[j])
            j += 1
    merged_keys.extend(left[i:])
    merged_keys.extend(right[j:])
    if left_ids is not None and right_ids is not None:
        merged_ids.extend(left_ids[i:])
        merged_ids.extend(right_ids[j:])
    return merged_keys, merged_ids if left_ids is not None else None
