"""Queue-bucket radix sorts: LSD and MSD (paper Section 3.1).

The paper implements "a simple version of LSD and MSD using queues as
buckets" with multi-pass partitioning, evaluating 3-, 4-, 5- and 6-bit
digits (8–64 buckets).  Each pass of the queue-based scheme moves every
element twice through memory:

1. the element is appended to its bucket queue (one key write into the
   bucket region), then
2. the concatenated queues are copied back into the array for the next pass
   (a second key write).

The Appendix-B histogram-based scheme (see
:mod:`repro.sorting.radix_histogram`) eliminates the second write, which is
the write-volume difference the paper measures in Figure 15.

LSD is far more imprecision-tolerant than its write count suggests: an error
in an already-processed low digit never changes a later pass's bucket
assignment (paper Section 3.5).  MSD shares quicksort's divide structure and
degrades smoothly.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.memory.approx_array import InstrumentedArray
from repro.obs import get_tracer

from .base import BaseSorter, copy_block

#: Key width the digit plans cover (the paper's 32-bit integer keys).
KEY_BITS = 32


def lsd_digit_plan(bits: int) -> list[tuple[int, int]]:
    """Digit schedule for LSD: ``(shift, mask)`` pairs from least significant.

    Chunks are ``bits`` wide; the final chunk narrows to the bits remaining
    below 32 (e.g. 6-bit digits give five 6-bit passes plus one 2-bit pass,
    matching the paper's pass counts: 11/8/7/6 passes for 3/4/5/6 bits).
    """
    if not 1 <= bits <= KEY_BITS:
        raise ValueError(f"digit width must be in [1, {KEY_BITS}], got {bits}")
    plan = []
    shift = 0
    while shift < KEY_BITS:
        width = min(bits, KEY_BITS - shift)
        plan.append((shift, (1 << width) - 1))
        shift += width
    return plan


def msd_digit_plan(bits: int) -> list[tuple[int, int]]:
    """Digit schedule for MSD: ``(shift, mask)`` pairs from most significant.

    Chunks are taken greedily from the top of the key, so the *last* (least
    significant) chunk is the narrow one.
    """
    if not 1 <= bits <= KEY_BITS:
        raise ValueError(f"digit width must be in [1, {KEY_BITS}], got {bits}")
    plan = []
    top = KEY_BITS
    while top > 0:
        width = min(bits, top)
        shift = top - width
        plan.append((shift, (1 << width) - 1))
        top = shift
    return plan


def _digits_np(values: np.ndarray, shift: int, mask: int) -> np.ndarray:
    """Extract one digit column, narrowed for the stable argsort.

    ``np.argsort(kind="stable")`` on uint8/uint16 input runs in its radix
    regime — several times faster than comparison sorting the same digits
    held in a uint32 array.
    """
    digits = (values >> np.uint32(shift)) & np.uint32(mask)
    if mask <= 0xFF:
        return digits.astype(np.uint8)
    if mask <= 0xFFFF:
        return digits.astype(np.uint16)
    return digits


def _counting_order(
    values: "list[int]", shift: int, mask: int
) -> "tuple[list[int], list[int]]":
    """``(order, counts)``: the positions of ``values`` in stable digit
    order, and the bucket sizes.

    A counting pass, then a scatter through per-bucket offsets: the order
    ``np.argsort(digits, kind="stable")`` gives, on Python lists.
    """
    digits = [(value >> shift) & mask for value in values]
    counts = [0] * (mask + 1)
    for digit in digits:
        counts[digit] += 1
    offsets, total = [], 0
    for size in counts:
        offsets.append(total)
        total += size
    order = [0] * len(values)
    for pos, digit in enumerate(digits):
        order[offsets[digit]] = pos
        offsets[digit] += 1
    return order, counts


def _bucket_bounds(lo: int, sizes) -> "list[tuple[int, int]]":
    """The ``(start, end)`` of each non-empty bucket of a segment starting
    at ``lo``, in digit order."""
    bounds = []
    offset = lo
    for size in sizes:
        if size:
            bounds.append((offset, offset + size))
            offset += size
    return bounds


def _scratch(
    keys: InstrumentedArray, ids: Optional[InstrumentedArray], suffix: str
) -> "tuple[InstrumentedArray, Optional[InstrumentedArray]]":
    """Empty arrays in the same memory as ``keys`` and ``ids``."""
    return (
        keys.clone_empty(name=f"{keys.name}.{suffix}"),
        ids.clone_empty(name=f"{ids.name}.{suffix}") if ids is not None else None,
    )


def _distribute(
    src_keys: InstrumentedArray,
    src_ids: Optional[InstrumentedArray],
    dst_keys: InstrumentedArray,
    dst_ids: Optional[InstrumentedArray],
    lo: int,
    count: int,
    shift: int,
    mask: int,
    vector: bool,
    sizes: bool = False,
) -> "list[int] | None":
    """One digit pass: ``src[lo:lo+count]`` to ``dst[lo:lo+count]`` in
    stable digit order, keys then ids.

    The scalar pass orders by :func:`_counting_order` and writes lists; the
    vectorized one (``vector``) by a stable argsort of the narrowed digits,
    the same order, and writes arrays.  Both make the same reads and block
    writes, so outputs and accounted traffic are bit-identical.  ``dst``
    may be ``src``: the segment is read before it is written.  With
    ``sizes``, returns the bucket sizes in digit order (the scalar pass
    counts them anyway).
    """
    if vector:
        values = src_keys.read_block_np(lo, count)
        id_values = (
            src_ids.read_block_np(lo, count) if src_ids is not None else None
        )
        digits = _digits_np(values, shift, mask)
        order = np.argsort(digits, kind="stable")
        dst_keys.write_block(lo, values[order])
        if dst_ids is not None:
            dst_ids.write_block(lo, id_values[order])
        if sizes:
            return np.bincount(digits, minlength=mask + 1).tolist()
        return None
    values = src_keys.read_block(lo, count)
    id_values = src_ids.read_block(lo, count) if src_ids is not None else None
    order, counts = _counting_order(values, shift, mask)
    dst_keys.write_block(lo, [values[pos] for pos in order])
    if dst_ids is not None:
        dst_ids.write_block(lo, [id_values[pos] for pos in order])
    return counts


class LSDRadixSort(BaseSorter):
    """Least-significant-digit radix sort with queue buckets.

    Each pass distributes the whole array into the bucket region and
    copies the queues back.  The Appendix-B histogram variant
    (:class:`~repro.sorting.radix_histogram.HistogramLSDRadixSort`) clears
    :attr:`queues`: its passes ping-pong between the array and one buffer,
    with a copy home after an odd pass count.

    Parameters
    ----------
    bits:
        Digit width; the paper evaluates 3, 4, 5 and 6.
    """

    #: Registry name prefix: ``lsd3`` ... ``lsd6``.
    family = "lsd"
    #: Queue buckets: every pass writes each element twice (out, back).
    queues = True

    def __init__(self, bits: int = 6, kernels: Optional[str] = None) -> None:
        super().__init__(kernels)
        self.bits = bits
        self._plan = lsd_digit_plan(bits)
        self.name = f"{self.family}{bits}"

    def _sort(
        self, keys: InstrumentedArray, ids: Optional[InstrumentedArray]
    ) -> None:
        n = len(keys)
        vector = self._use_numpy_kernels(keys, ids)
        src = (keys, ids)
        dst = _scratch(keys, ids, "buckets" if self.queues else "radix-buffer")
        tracer = get_tracer()
        for index, (shift, mask) in enumerate(self._plan):
            with tracer.span(
                f"radix.pass{index}", stats=keys.stats,
                attrs={"algo": self.name, "shift": shift},
            ):
                _distribute(*src, *dst, 0, n, shift, mask, vector)
                if self.queues:
                    copy_block(*dst, *src, 0, n, vector)
                else:
                    src, dst = dst, src
        if src[0] is not keys:
            # Odd histogram pass count: the result sits in the buffer.
            copy_block(*src, keys, ids, 0, n, vector)

    def precise_schedule(self, n: int) -> "tuple[int, int]":
        """Per array, each pass moves every element out to the bucket region
        and back: ``2n`` reads and ``2n`` writes."""
        touches = 2 * len(self._plan) * n if n >= 2 else 0
        return touches, touches

    def expected_key_writes(self, n: int) -> float:
        """alpha(n): the key writes of :meth:`precise_schedule`."""
        return float(self.precise_schedule(n)[1])


class MSDRadixSort(BaseSorter):
    """Most-significant-digit radix sort with queue buckets.

    Recursion proceeds bucket by bucket; a segment stops recursing when it
    has at most one element or the digit plan is exhausted.  Like quicksort,
    the divide structure confines an imprecise element's damage to its own
    bucket (paper Section 3.5).  A queue pass distributes a segment into
    the bucket region and copies it back; the Appendix-B histogram variant
    (:class:`~repro.sorting.radix_histogram.HistogramMSDRadixSort`) clears
    :attr:`queues` and permutes the segment in place.
    """

    #: Registry name prefix: ``msd3`` ... ``msd6``.
    family = "msd"
    #: Queue buckets: every pass writes each element twice (out, back).
    queues = True

    def __init__(self, bits: int = 6, kernels: Optional[str] = None) -> None:
        super().__init__(kernels)
        self.bits = bits
        self._plan = msd_digit_plan(bits)
        self.name = f"{self.family}{bits}"

    def _sort(
        self, keys: InstrumentedArray, ids: Optional[InstrumentedArray]
    ) -> None:
        buckets = _scratch(keys, ids, "buckets") if self.queues else (keys, ids)
        walk = (
            self._level_pass if self._use_numpy_kernels(keys, ids)
            else self._segment_walk
        )
        tracer = get_tracer()
        # Per-depth rollup (segments partitioned, elements moved), emitted
        # as counters after the sort; only accumulated when tracing is on.
        by_depth: dict[int, list[int]] = {}
        walk(keys, ids, buckets, by_depth if tracer.enabled else None)
        for depth in sorted(by_depth):
            segments, elements = by_depth[depth]
            depth_attrs = {"algo": self.name, "depth": depth}
            tracer.counter("msd.depth.segments", segments, attrs=depth_attrs)
            tracer.counter("msd.depth.elements", elements, attrs=depth_attrs)

    def _segment_walk(
        self,
        keys: InstrumentedArray,
        ids: Optional[InstrumentedArray],
        buckets: tuple,
        by_depth: "dict[int, list[int]] | None",
    ) -> None:
        """The scalar reference: segments depth first, one pass each."""
        # Explicit work stack instead of recursion: segments can be numerous
        # (64-way fan-out) and Python's recursion limit is easy to trip.
        stack = [(0, len(keys), 0)]
        while stack:
            lo, hi, depth = stack.pop()
            if hi - lo <= 1 or depth >= len(self._plan):
                continue
            if by_depth is not None:
                rollup = by_depth.setdefault(depth, [0, 0])
                rollup[0] += 1
                rollup[1] += hi - lo
            shift, mask = self._plan[depth]
            sizes = _distribute(
                keys, ids, *buckets, lo, hi - lo, shift, mask, False,
                sizes=True,
            )
            if self.queues:
                copy_block(*buckets, keys, ids, lo, hi - lo, False)
            for sub_lo, sub_hi in _bucket_bounds(lo, sizes):
                if sub_hi - sub_lo > 1:
                    stack.append((sub_lo, sub_hi, depth + 1))

    def _level_pass(
        self,
        keys: InstrumentedArray,
        ids: Optional[InstrumentedArray],
        buckets: tuple,
        by_depth: "dict[int, list[int]] | None",
    ) -> None:
        """Every segment of one depth in one vectorized pass.

        At each depth, over the segments of at least 2 keys, it gathers the
        keys and ids (the walk's reads), orders them by (segment, digit)
        with one packed ``uint64`` sort, scatters them to the bucket region
        and back (MSD) or in place (HMSD), and splits each segment by the
        digits it read.  This is the level-per-pass radix sort of
        Wassenberg & Sanders, "Faster Radix Sort via Virtual Memory and
        Write-Combining".  Each position is written the same number of
        times with the same values as by :meth:`_segment_walk`, only in
        another order, so under the arrays' keyed corruption the two are
        bit-identical in stored words and stats.
        """
        los = np.zeros(1, dtype=np.int64)
        sizes = np.array([len(keys)], dtype=np.int64)
        for depth, (shift, mask) in enumerate(self._plan):
            if not los.size:
                break
            total = int(sizes.sum())
            if by_depth is not None:
                by_depth[depth] = [int(los.size), total]
            offsets = np.cumsum(sizes) - sizes
            order = np.arange(total, dtype=np.int64)
            positions = np.repeat(los - offsets, sizes) + order
            values = keys.gather_np(positions)
            id_values = ids.gather_np(positions) if ids is not None else None
            # (segment rank, digit) << 32 | rank in the pass: distinct, so
            # any sort of them is the stable sort by (segment, digit).
            width = mask.bit_length()
            if (los.size - 1) >> (32 - width):
                raise ValueError(f"{total} keys exceed the level pass's range")
            packed = np.repeat(
                np.arange(los.size, dtype=np.uint64) << np.uint64(width),
                sizes,
            )
            packed |= (values >> np.uint32(shift) & np.uint32(mask)).astype(
                np.uint64
            )
            packed <<= np.uint64(32)
            packed |= order.view(np.uint64)
            packed.sort()
            order = (packed & np.uint64(0xFFFFFFFF)).astype(np.int64)
            bucket_keys, bucket_ids = buckets
            bucket_keys.scatter_np(positions, values[order])
            if ids is not None:
                bucket_ids.scatter_np(positions, id_values[order])
            if self.queues:
                keys.scatter_np(positions, bucket_keys.gather_np(positions))
                if ids is not None:
                    ids.scatter_np(positions, bucket_ids.gather_np(positions))
            # Children: runs of equal (segment, digit), of at least 2 keys.
            packed >>= np.uint64(32)
            starts = np.flatnonzero(np.r_[True, packed[1:] != packed[:-1]])
            runs = np.diff(np.r_[starts, total])
            keep = runs >= 2
            los = positions[starts[keep]]
            sizes = runs[keep]

    def _levels(self, n: int) -> int:
        """Levels a sort of ``n`` uniform keys touches.

        A segment of size m fans out 2^bits ways, so recursion reaches
        roughly ``log_{2^bits}(n)`` levels (plus the level that reduces
        segments to single elements), capped by the digit-plan length.
        """
        if n < 2:
            return 0
        return min(
            len(self._plan),
            max(1, math.ceil(math.log(n) / math.log(2 ** self.bits))),
        )

    def expected_key_writes(self, n: int) -> float:
        """alpha_MSD(n): two writes per element per touched level."""
        return 2.0 * self._levels(n) * n
