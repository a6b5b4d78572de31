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

from .base import BaseSorter

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


class LSDRadixSort(BaseSorter):
    """Least-significant-digit radix sort with queue buckets.

    Parameters
    ----------
    bits:
        Digit width; the paper evaluates 3, 4, 5 and 6.
    """

    def __init__(self, bits: int = 6, kernels: Optional[str] = None) -> None:
        super().__init__(kernels)
        self.bits = bits
        self._plan = lsd_digit_plan(bits)
        self.name = f"lsd{bits}"

    def _sort(
        self, keys: InstrumentedArray, ids: Optional[InstrumentedArray]
    ) -> None:
        n = len(keys)
        bucket_keys = keys.clone_empty(name=f"{keys.name}.buckets")
        bucket_ids = (
            ids.clone_empty(name=f"{ids.name}.buckets") if ids is not None else None
        )
        one_pass = (
            self._pass_numpy
            if self._use_numpy_kernels(keys, ids)
            else self._pass_scalar
        )
        tracer = get_tracer()
        for index, (shift, mask) in enumerate(self._plan):
            if tracer.enabled:
                with tracer.span(
                    f"radix.pass{index}", stats=keys.stats,
                    attrs={"algo": self.name, "shift": shift},
                ):
                    one_pass(keys, ids, bucket_keys, bucket_ids, shift, mask)
            else:
                one_pass(keys, ids, bucket_keys, bucket_ids, shift, mask)

    def _pass_scalar(
        self,
        keys: InstrumentedArray,
        ids: Optional[InstrumentedArray],
        bucket_keys: InstrumentedArray,
        bucket_ids: Optional[InstrumentedArray],
        shift: int,
        mask: int,
    ) -> None:
        """One queue-distribution pass over the whole array."""
        n = len(keys)
        n_buckets = (1 << self.bits)
        values = keys.read_block(0, n)
        id_values = ids.read_block(0, n) if ids is not None else None

        # Stable distribution into queues (bucket contents preserve the
        # incoming order — the property LSD's correctness relies on).
        key_queues: list[list[int]] = [[] for _ in range(n_buckets)]
        id_queues: list[list[int]] = [[] for _ in range(n_buckets)]
        for pos, value in enumerate(values):
            digit = (value >> shift) & mask
            key_queues[digit].append(value)
            if id_values is not None:
                id_queues[digit].append(id_values[pos])

        # Write 1: append every element to its bucket queue.
        concatenated_keys = [v for queue in key_queues for v in queue]
        bucket_keys.write_block(0, concatenated_keys)
        if bucket_ids is not None and id_values is not None:
            concatenated_ids = [v for queue in id_queues for v in queue]
            bucket_ids.write_block(0, concatenated_ids)

        # Write 2: copy the concatenated queues back into the array.
        keys.write_block(0, bucket_keys.read_block(0, n))
        if ids is not None and bucket_ids is not None:
            ids.write_block(0, bucket_ids.read_block(0, n))

    def _pass_numpy(
        self,
        keys: InstrumentedArray,
        ids: Optional[InstrumentedArray],
        bucket_keys: InstrumentedArray,
        bucket_ids: Optional[InstrumentedArray],
        shift: int,
        mask: int,
    ) -> None:
        """Vectorized pass: stable argsort over the extracted digits.

        A stable sort by digit value yields exactly the queue-concatenation
        order of the scalar path, so outputs are bit-identical; the block
        reads/writes account the same ``2n`` reads and ``2n`` writes per
        pass as the scalar path.
        """
        n = len(keys)
        values = keys.read_block_np(0, n)
        id_values = ids.read_block_np(0, n) if ids is not None else None

        order = np.argsort(_digits_np(values, shift, mask), kind="stable")

        bucket_keys.write_block(0, values[order])
        if bucket_ids is not None and id_values is not None:
            bucket_ids.write_block(0, id_values[order])

        keys.write_block(0, bucket_keys.read_block_np(0, n))
        if ids is not None and bucket_ids is not None:
            ids.write_block(0, bucket_ids.read_block_np(0, n))

    def precise_schedule(self, n: int) -> "tuple[int, int]":
        """Per array, each pass moves every element out to the bucket region
        and back: ``2n`` reads and ``2n`` writes."""
        touches = 2 * len(self._plan) * n if n >= 2 else 0
        return touches, touches

    def expected_key_writes(self, n: int) -> float:
        """alpha_LSD(n): two writes per element per pass."""
        return float(self.precise_schedule(n)[1])


class MSDRadixSort(BaseSorter):
    """Most-significant-digit radix sort with queue buckets.

    Recursion proceeds bucket by bucket; a segment stops recursing when it
    has at most one element or the digit plan is exhausted.  Like quicksort,
    the divide structure confines an imprecise element's damage to its own
    bucket (paper Section 3.5).
    """

    def __init__(self, bits: int = 6, kernels: Optional[str] = None) -> None:
        super().__init__(kernels)
        self.bits = bits
        self._plan = msd_digit_plan(bits)
        self.name = f"msd{bits}"

    def _sort(
        self, keys: InstrumentedArray, ids: Optional[InstrumentedArray]
    ) -> None:
        bucket_keys = keys.clone_empty(name=f"{keys.name}.buckets")
        bucket_ids = (
            ids.clone_empty(name=f"{ids.name}.buckets") if ids is not None else None
        )
        partition = (
            self._partition_segment_np
            if self._use_numpy_kernels(keys, ids)
            else self._partition_segment
        )
        tracer = get_tracer()
        # Per-depth rollup (segments partitioned, elements moved) emitted as
        # counters after the walk; only accumulated when tracing is on.
        by_depth: dict[int, list[int]] = {}
        # Explicit work stack instead of recursion: segments can be numerous
        # (64-way fan-out) and Python's recursion limit is easy to trip.
        stack = [(0, len(keys), 0)]
        while stack:
            lo, hi, depth = stack.pop()
            if hi - lo <= 1 or depth >= len(self._plan):
                continue
            if tracer.enabled:
                rollup = by_depth.setdefault(depth, [0, 0])
                rollup[0] += 1
                rollup[1] += hi - lo
            shift, mask = self._plan[depth]
            sub_bounds = partition(
                keys, ids, bucket_keys, bucket_ids, lo, hi, shift, mask
            )
            for sub_lo, sub_hi in sub_bounds:
                if sub_hi - sub_lo > 1:
                    stack.append((sub_lo, sub_hi, depth + 1))
        for depth in sorted(by_depth):
            segments, elements = by_depth[depth]
            depth_attrs = {"algo": self.name, "depth": depth}
            tracer.counter("msd.depth.segments", segments, attrs=depth_attrs)
            tracer.counter("msd.depth.elements", elements, attrs=depth_attrs)

    @staticmethod
    def _partition_segment(
        keys: InstrumentedArray,
        ids: Optional[InstrumentedArray],
        bucket_keys: InstrumentedArray,
        bucket_ids: Optional[InstrumentedArray],
        lo: int,
        hi: int,
        shift: int,
        mask: int,
    ) -> list[tuple[int, int]]:
        """One queue-distribution pass over ``keys[lo:hi]``.

        Returns the sub-segment boundaries of the non-empty buckets, in
        digit order.
        """
        count = hi - lo
        values = keys.read_block(lo, count)
        id_values = ids.read_block(lo, count) if ids is not None else None

        key_queues: list[list[int]] = [[] for _ in range(mask + 1)]
        id_queues: list[list[int]] = [[] for _ in range(mask + 1)]
        for pos, value in enumerate(values):
            digit = (value >> shift) & mask
            key_queues[digit].append(value)
            if id_values is not None:
                id_queues[digit].append(id_values[pos])

        # Write 1: bucket-queue appends (into the bucket region).
        concatenated_keys = [v for queue in key_queues for v in queue]
        bucket_keys.write_block(lo, concatenated_keys)
        if bucket_ids is not None and id_values is not None:
            concatenated_ids = [v for queue in id_queues for v in queue]
            bucket_ids.write_block(lo, concatenated_ids)

        # Write 2: copy the concatenated queues back into the segment.
        keys.write_block(lo, bucket_keys.read_block(lo, count))
        if ids is not None and bucket_ids is not None:
            ids.write_block(lo, bucket_ids.read_block(lo, count))

        bounds = []
        offset = lo
        for queue in key_queues:
            if queue:
                bounds.append((offset, offset + len(queue)))
                offset += len(queue)
        return bounds

    @staticmethod
    def _partition_segment_np(
        keys: InstrumentedArray,
        ids: Optional[InstrumentedArray],
        bucket_keys: InstrumentedArray,
        bucket_ids: Optional[InstrumentedArray],
        lo: int,
        hi: int,
        shift: int,
        mask: int,
    ) -> list[tuple[int, int]]:
        """Vectorized queue-distribution pass over ``keys[lo:hi]``.

        Stable argsort by digit reproduces the scalar queue concatenation
        bit for bit; ``np.bincount`` gives the bucket sizes the boundary
        list is built from.  Accounted traffic matches the scalar pass.
        """
        count = hi - lo
        values = keys.read_block_np(lo, count)
        id_values = ids.read_block_np(lo, count) if ids is not None else None

        digits = _digits_np(values, shift, mask)
        order = np.argsort(digits, kind="stable")
        sizes = np.bincount(digits, minlength=mask + 1)

        bucket_keys.write_block(lo, values[order])
        if bucket_ids is not None and id_values is not None:
            bucket_ids.write_block(lo, id_values[order])

        keys.write_block(lo, bucket_keys.read_block_np(lo, count))
        if ids is not None and bucket_ids is not None:
            ids.write_block(lo, bucket_ids.read_block_np(lo, count))

        bounds = []
        offset = lo
        for size in sizes:
            if size:
                bounds.append((offset, offset + int(size)))
                offset += int(size)
        return bounds

    def expected_key_writes(self, n: int) -> float:
        """alpha_MSD(n): two writes per element per *touched* level.

        Under uniform keys a segment of size m fans out 2^bits ways, so
        recursion reaches roughly ``log_{2^bits}(n)`` levels (plus the level
        that reduces segments to single elements), capped by the digit-plan
        length.
        """
        if n < 2:
            return 0.0
        levels = min(
            len(self._plan),
            max(1, math.ceil(math.log(n) / math.log(2 ** self.bits))),
        )
        return 2.0 * levels * n
