"""Common plumbing of the instrumented sorting algorithms.

Every sorter operates on a *keys* array (precise or approximate memory) and
an optional *ids* array (always precise memory — the paper keeps record IDs
precise so the refine stage can recover exact results).  A sorter must mirror
every key move onto the ID array so that ``ids`` remains the permutation that
the keys underwent.

Sorters are written against :class:`repro.memory.InstrumentedArray` only, so
the same code runs on precise PCM, approximate PCM, and the spintronic model
— the portability property the approx-refine mechanism requires.
"""

from __future__ import annotations

import math
from typing import Optional, Protocol

import numpy as np

from repro.kernels import resolve_kernels
from repro.memory.approx_array import InstrumentedArray, PreciseArray
from repro.obs import get_tracer


class Sorter(Protocol):
    """Protocol all sorting algorithms implement."""

    #: Registry name, e.g. ``"quicksort"`` or ``"lsd6"``.
    name: str

    def sort(
        self, keys: InstrumentedArray, ids: Optional[InstrumentedArray] = None
    ) -> None:
        """Sort ``keys`` (and the parallel ``ids``) in place, ascending."""
        ...

    def expected_key_writes(self, n: int) -> float:
        """The paper's alpha_alg(n): expected key writes to sort n elements."""
        ...


class BaseSorter:
    """Shared helpers: element swap/move mirrored across keys and IDs.

    Every sorter carries a ``kernels`` mode: ``None`` (the default) or
    ``"numpy"`` routes the algorithm through the vectorized kernels built
    on the arrays' accounted batch primitives, and ``"scalar"`` selects the
    reference path.  Both modes produce bit-identical output and identical
    accounted counts, on precise and approximate memory (see DESIGN.md
    section 8 and ``tests/sorting/test_kernel_equivalence.py``).

    A sorter that publishes a :meth:`precise_schedule` also gets the fused
    precise path: :meth:`sort` replaces the pass-by-pass run with one stable
    sort plus the schedule's charge wherever that is bit-identical (see
    :meth:`_fused_schedule`).
    """

    name = "base"

    def __init__(self, kernels: Optional[str] = None) -> None:
        if kernels is not None:
            resolve_kernels(kernels)  # validate eagerly
        self.kernels = kernels

    def _use_numpy_kernels(
        self, keys: InstrumentedArray, ids: Optional[InstrumentedArray]
    ) -> bool:
        """Whether to take the vectorized path for this (keys, ids) pair.

        Falls back to scalar when a trace hook is attached (kernels batch
        accesses, so per-event trace *order* would differ from the scalar
        reference the pcmsim replay is calibrated against) or when either
        array's semantics depend on element access order
        (``kernel_safe = False``, e.g. the write-combining wrapper).
        """
        if resolve_kernels(self.kernels) != "numpy":
            return False
        if keys.trace is not None or not keys.kernel_safe:
            return False
        if ids is not None and (ids.trace is not None or not ids.kernel_safe):
            return False
        return True

    def sort(
        self, keys: InstrumentedArray, ids: Optional[InstrumentedArray] = None
    ) -> None:
        if ids is not None and len(ids) != len(keys):
            raise ValueError(
                f"ids length {len(ids)} does not match keys length {len(keys)}"
            )
        if len(keys) < 2:
            return
        tracer = get_tracer()
        schedule = self._fused_schedule(keys, ids)
        if tracer.enabled:
            # The path that runs, not the requested mode: a sorter stands
            # down to scalar where the batch primitives cannot apply.
            kernels = (
                "numpy" if self._use_numpy_kernels(keys, ids) else "scalar"
            )
            with tracer.span(
                f"sort.{self.name}", stats=keys.stats,
                attrs={"algo": self.name, "n": len(keys),
                       "kernels": kernels,
                       "region": keys.region,
                       "fused": schedule is not None},
            ):
                self._run(keys, ids, schedule)
        else:
            self._run(keys, ids, schedule)

    def _fused_schedule(
        self, keys: InstrumentedArray, ids: Optional[InstrumentedArray]
    ) -> "tuple[int, int] | None":
        """The schedule to charge if this sort may fuse, else ``None``.

        Fusing is bit-identical only when every pass is exact and
        unobserved: the sorter publishes a schedule, the kernels resolve to
        numpy (scalar is the reference path), and both operands are bare
        ``PreciseArray`` instances with no trace hook.  The strict type checks
        keep approximate memory (corruption is drawn pass by pass) and
        every wrapper (sanitizer shadows, write-combining fronts) on
        :meth:`_sort`.
        """
        if resolve_kernels(self.kernels) != "numpy" or not all(
            array is None
            or (type(array) is PreciseArray and array.trace is None)
            for array in (keys, ids)
        ):
            return None
        return self.precise_schedule(len(keys))

    def _run(
        self,
        keys: InstrumentedArray,
        ids: Optional[InstrumentedArray],
        schedule: "tuple[int, int] | None",
    ) -> None:
        """The fused sort when ``schedule`` is given, else :meth:`_sort`.

        A stable sort's output is the unique stable ascending order, so one
        stable sort by key reproduces it bit for bit, and ``schedule`` is
        what the pass-by-pass run would have charged each array.  The peek
        and the stores are unaccounted; the charge is the accounting.
        """
        if schedule is None:
            self._sort(keys, ids)
            return
        reads, writes = schedule
        n = len(keys)
        # ``key << 32 | position`` words are distinct, so any sort of them
        # is the stable sort by key (several times faster than a stable
        # argsort), and their low halves are its permutation.
        packed = keys.peek_block_np(0, n).astype(np.uint64)
        packed <<= np.uint64(32)
        packed |= np.arange(n, dtype=np.uint64)
        packed.sort()
        if ids is not None:
            order = packed & np.uint64(0xFFFFFFFF)
            ids.poke_block_np(0, ids.peek_block_np(0, n)[order])
            ids.stats.record_precise_read(reads)
            ids.stats.record_precise_write(writes)
        packed >>= np.uint64(32)
        keys.poke_block_np(0, packed.astype(np.uint32))
        keys.stats.record_precise_read(reads)
        keys.stats.record_precise_write(writes)

    # Subclasses implement the actual algorithm.
    def _sort(
        self, keys: InstrumentedArray, ids: Optional[InstrumentedArray]
    ) -> None:
        raise NotImplementedError

    def expected_key_writes(self, n: int) -> float:
        raise NotImplementedError

    def precise_schedule(self, n: int) -> "tuple[int, int] | None":
        """Per-array ``(reads, writes)`` of a whole precise sort of ``n`` keys.

        ``None`` (the default) means the traffic depends on the values
        (quicksort's swaps, MSD's bucket recursion) or the sorter is not
        stable.  A stable sorter whose traffic on each array (keys, and
        ids when present) is a closed form in ``n`` publishes it, and this
        is the one place that closed form lives: the fused path of
        :meth:`sort` charges it, and the ``write_budget`` oracle class in
        :mod:`repro.verify.oracle` holds measured write counts to it.
        """
        return None

    @staticmethod
    def _swap(
        keys: InstrumentedArray,
        ids: Optional[InstrumentedArray],
        i: int,
        j: int,
    ) -> None:
        """Swap positions ``i`` and ``j`` in keys and (if present) IDs."""
        ki = keys.read(i)
        kj = keys.read(j)
        keys.write(i, kj)
        keys.write(j, ki)
        if ids is not None:
            vi = ids.read(i)
            vj = ids.read(j)
            ids.write(i, vj)
            ids.write(j, vi)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def copy_block(
    src_keys: InstrumentedArray,
    src_ids: Optional[InstrumentedArray],
    dst_keys: InstrumentedArray,
    dst_ids: Optional[InstrumentedArray],
    lo: int,
    count: int,
    vector: bool,
) -> None:
    """Copy ``src[lo:lo+count]`` to the same positions of ``dst``, keys
    then ids, as arrays when ``vector`` and as lists otherwise."""
    for src, dst in ((src_keys, dst_keys), (src_ids, dst_ids)):
        if src is not None:
            read = src.read_block_np if vector else src.read_block
            dst.write_block(lo, read(lo, count))


def nlog2n(n: int) -> float:
    """``n * log2(n)`` with the small-n edge handled."""
    if n < 2:
        return 0.0
    return n * math.log2(n)
