"""ShadowSanitizer: per-operation invariant checking for instrumented arrays.

:class:`SanitizedArray` wraps any :class:`~repro.memory.approx_array.
InstrumentedArray` and re-checks, on every accounted operation, the
invariants the whole reproduction rests on:

* **bounds** — every index of every op lies in ``[0, n)``.  The backing
  memoryview would silently accept Python's negative indices, so a kernel
  that computes ``i - 1`` at the array head corrupts data without raising;
  the sanitizer turns that into an immediate :class:`SanitizerError`.
* **accounting** — each op moves the shared :class:`MemoryStats` by exactly
  the delta its scalar-equivalent would: a ``write_block`` of ``k`` words
  counts ``k`` writes in the op's region and nothing else, reads never
  count as writes, approximate write units are non-negative and finite.
  This is the "block ops count exactly as the equivalent scalar ops"
  conservation law that makes every TEPMW figure trustworthy.
* **integrity** — a read returns exactly the value the last write stored.
  Divergence between stored and written values may be introduced *only* at
  write time on approximate memory, and every such divergence must be
  counted in ``corrupted_writes`` (precise memory must never diverge).

The wrapper is observation-only: it delegates every operation to the inner
array unchanged (same call shapes, same RNG stream consumption) and reads
state back through unaccounted peeks, so a sanitized run is bit-identical
to an unsanitized one — regression-tested in
``tests/verify/test_sanitizer.py``.

Enablement follows the NullTracer pattern: the sanitizer is off unless the
``REPRO_SANITIZE`` environment variable is set (or an array is wrapped
explicitly via :func:`repro.verify.sanitize`); when off, arrays are simply
never wrapped, so the hot paths carry zero added work.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from repro.errors import SanitizerError
from repro.memory.approx_array import InstrumentedArray, WORD_LIMIT
from repro.memory.stats import MemoryStats
from repro.memory.write_combining import WriteCombiningArray

#: Process-wide count of invariant checks performed by sanitized arrays.
#: Exposed through :func:`repro.verify.checks_performed` so callers (tests,
#: the obs overhead counters) can assert the sanitizer actually engaged.
_CHECKS = 0


def checks_performed() -> int:
    """Total invariant checks performed by this process's sanitized arrays."""
    return _CHECKS


def _count_checks(k: int = 1) -> None:
    global _CHECKS
    _CHECKS += k


class SanitizedArray:
    """Invariant-checking proxy around one :class:`InstrumentedArray`.

    Implements the full accounted-array interface by delegation.  Unknown
    data attributes fall through to the inner array so technology-specific
    extras (``model``, ``precise_iterations``, ...) stay reachable; an
    unknown *method* is refused, since it would store or account where the
    shadow cannot see it.
    """

    def __init__(self, inner: InstrumentedArray) -> None:
        if isinstance(inner, SanitizedArray):
            inner = inner.inner  # never stack shadows
        self.inner = inner
        if isinstance(inner, WriteCombiningArray):
            # A buffered write charges nothing until it is evicted, so the
            # rule of one counted write per write cannot hold for it.
            self._fail(
                "interface", "sanitize",
                "a write-combining array defers its writes by design, so"
                " they cannot be checked one by one; sanitize the array it"
                " buffers instead",
            )
        # The shadow is the sanitizer's own record of the stored contents,
        # updated only from unaccounted peeks after each delegated write.
        self._shadow = inner.to_numpy()

    # -- pass-through surface ------------------------------------------- #

    @property
    def stats(self) -> MemoryStats:
        return self.inner.stats

    @property
    def region(self) -> str:
        return self.inner.region

    @property
    def kernel_safe(self) -> bool:
        return self.inner.kernel_safe

    @property
    def trace(self):
        return self.inner.trace

    @trace.setter
    def trace(self, hook) -> None:
        self.inner.trace = hook

    @property
    def name(self) -> str:
        return self.inner.name

    def __getattr__(self, attribute):
        # Only called for attributes not found on the proxy itself.  Every
        # method of the checked interface is defined here, so an inner
        # method that reaches this point (``poke_block_np``, ...) would run
        # unchecked.
        value = getattr(self.inner, attribute)
        if callable(value):
            self._fail(
                "interface", attribute,
                "method is not checked by the sanitizer; refusing to"
                " forward it",
            )
        return value

    def __len__(self) -> int:
        return len(self.inner)

    def __repr__(self) -> str:
        return f"SanitizedArray({self.inner!r})"

    # -- violation helpers ----------------------------------------------- #

    def _fail(self, invariant: str, op: str, detail: str) -> None:
        raise SanitizerError(
            invariant, self.inner.name or self.inner.region, op, detail
        )

    def _check_bounds(self, op: str, indices, count: int) -> None:
        """Indices must lie in [0, n) — no negative-index wraparound."""
        n = len(self.inner)
        _count_checks(count)
        if count == 0:
            return
        arr = np.asarray(indices)
        low = int(arr.min())
        high = int(arr.max())
        if low < 0 or high >= n:
            offender = low if low < 0 else high
            self._fail(
                "bounds", op,
                f"index {offender} outside [0, {n})",
            )

    def _check_block_bounds(self, op: str, start: int, count: int) -> None:
        n = len(self.inner)
        _count_checks(1)
        if count < 0 or start < 0 or start + count > n:
            self._fail(
                "bounds", op,
                f"block [{start}, {start + count}) outside [0, {n})",
            )

    def _expect_delta(
        self,
        op: str,
        before: MemoryStats,
        reads: int = 0,
        writes: int = 0,
        corrupted: "int | None" = 0,
        corrupted_max: "int | None" = None,
    ) -> MemoryStats:
        """Assert the op's accounting delta; returns the delta.

        ``reads``/``writes`` are charged to this array's region; the other
        region must not move.  ``corrupted`` pins the exact corrupted-write
        delta (``None`` defers to ``corrupted_max`` as an upper bound, for
        scatter ops whose overwritten duplicates hide per-element stored
        values).
        """
        delta = self.inner.stats.delta_since(before)
        _count_checks(1)
        approx = self.inner.region == "approx"
        expect = {
            "precise_reads": 0 if approx else reads,
            "approx_reads": reads if approx else 0,
            "precise_writes": 0 if approx else writes,
            "approx_writes": writes if approx else 0,
        }
        for field, want in expect.items():
            got = getattr(delta, field)
            if got != want:
                self._fail(
                    "accounting", op,
                    f"{field} moved by {got}, expected {want}",
                )
        if not approx:
            if delta.approx_write_units != 0.0 or delta.corrupted_writes != 0:
                self._fail(
                    "accounting", op,
                    "precise op moved approximate-write accounting"
                    f" (units {delta.approx_write_units},"
                    f" corrupted {delta.corrupted_writes})",
                )
        else:
            units = delta.approx_write_units
            if not np.isfinite(units) or units < 0.0 or (
                writes == 0 and units != 0.0
            ):
                self._fail(
                    "accounting", op,
                    f"approx write units moved by {units!r}"
                    f" across {writes} writes",
                )
            if corrupted is not None and delta.corrupted_writes != corrupted:
                self._fail(
                    "divergence", op,
                    f"{delta.corrupted_writes} corrupted writes recorded,"
                    f" {corrupted} observed stored-value divergences",
                )
            if corrupted is None and not (
                0 <= delta.corrupted_writes <= (corrupted_max or 0)
            ):
                self._fail(
                    "divergence", op,
                    f"{delta.corrupted_writes} corrupted writes recorded"
                    f" for {corrupted_max} write slots",
                )
        return delta

    def _check_read_integrity(self, op: str, positions, values) -> None:
        """Read values must equal the sanitizer's shadow of stored state."""
        got = np.asarray(values, dtype=np.uint32)
        want = self._shadow[np.asarray(positions, dtype=np.int64)]
        _count_checks(int(got.size))
        if got.shape != want.shape:
            self._fail(
                "integrity", op,
                f"result shape {got.shape} != requested {want.shape}",
            )
        if not np.array_equal(got, want):
            bad = np.flatnonzero(got != want)
            where = int(np.asarray(positions).reshape(-1)[bad[0]])
            self._fail(
                "integrity", op,
                f"read at index {where} returned"
                f" {int(got.reshape(-1)[bad[0]])}, last stored value was"
                f" {int(want.reshape(-1)[bad[0]])}",
            )

    def _precise_stored_check(self, op: str, positions, intended) -> None:
        """Precise memory must store written values verbatim."""
        idx = np.asarray(positions, dtype=np.int64)
        stored = self.inner.peek_gather_np(idx)
        want = np.asarray(intended, dtype=np.uint32)
        _count_checks(int(idx.size))
        if not np.array_equal(stored, want):
            bad = int(np.flatnonzero(stored != want)[0])
            self._fail(
                "divergence", op,
                f"precise write at index {int(idx[bad])} stored"
                f" {int(stored[bad])} instead of {int(want[bad])}",
            )
        self._shadow[idx] = stored

    # -- accounted reads -------------------------------------------------- #

    def read(self, index: int) -> int:
        self._check_bounds("read", index, 1)
        before = self.inner.stats.snapshot()
        value = self.inner.read(index)
        self._expect_delta("read", before, reads=1)
        self._check_read_integrity("read", [index], [value])
        return value

    def read_block(self, start: int, count: int) -> list[int]:
        self._check_block_bounds("read_block", start, count)
        before = self.inner.stats.snapshot()
        values = self.inner.read_block(start, count)
        self._expect_delta("read_block", before, reads=count)
        self._check_read_integrity(
            "read_block", np.arange(start, start + count), values
        )
        return values

    def read_block_np(self, start: int, count: int) -> np.ndarray:
        self._check_block_bounds("read_block_np", start, count)
        before = self.inner.stats.snapshot()
        values = self.inner.read_block_np(start, count)
        self._expect_delta("read_block_np", before, reads=count)
        self._check_read_integrity(
            "read_block_np", np.arange(start, start + count), values
        )
        return values

    def gather_np(self, indices: np.ndarray) -> np.ndarray:
        idx = np.asarray(indices, dtype=np.int64)
        self._check_bounds("gather_np", idx, int(idx.size))
        before = self.inner.stats.snapshot()
        values = self.inner.gather_np(indices)
        self._expect_delta("gather_np", before, reads=int(idx.size))
        self._check_read_integrity("gather_np", idx, values)
        return values

    def record_reads(self, count: int) -> None:
        """Reads charged without being issued: exactly ``count`` reads in
        this array's region, and no other counter moves."""
        _count_checks(1)
        if count < 0:
            self._fail("accounting", "record_reads", f"count {count} < 0")
        before = self.inner.stats.snapshot()
        self.inner.record_reads(count)
        self._expect_delta("record_reads", before, reads=count)

    # -- accounted writes ------------------------------------------------- #

    def write(self, index: int, value: int) -> None:
        self._check_bounds("write", index, 1)
        before = self.inner.stats.snapshot()
        self.inner.write(index, value)
        stored = self.inner.peek(index)
        if self.inner.region == "approx":
            self._expect_delta(
                "write", before, writes=1,
                corrupted=int(stored != value),
            )
            self._shadow[index] = stored
        else:
            self._expect_delta("write", before, writes=1)
            self._precise_stored_check("write", [index], [value])

    def write_block(self, start: int, values: Sequence[int]) -> None:
        intended = np.asarray(
            values if isinstance(values, np.ndarray) else list(values),
            dtype=np.uint32,
        )
        count = int(intended.size)
        self._check_block_bounds("write_block", start, count)
        before = self.inner.stats.snapshot()
        self.inner.write_block(start, values)
        positions = np.arange(start, start + count)
        if self.inner.region == "approx":
            stored = self.inner.peek_block_np(start, count)
            self._expect_delta(
                "write_block", before, writes=count,
                corrupted=int(np.count_nonzero(stored != intended)),
            )
            self._shadow[start : start + count] = stored
        else:
            self._expect_delta("write_block", before, writes=count)
            self._precise_stored_check("write_block", positions, intended)

    def scatter_np(self, indices: np.ndarray, values: np.ndarray) -> None:
        idx = np.asarray(indices, dtype=np.int64)
        vals = np.asarray(values, dtype=np.uint32)
        count = int(idx.size)
        self._check_bounds("scatter_np", idx, count)
        before = self.inner.stats.snapshot()
        self.inner.scatter_np(indices, values)
        stored = self.inner.peek_gather_np(idx)
        if self.inner.region == "approx":
            # Overwritten duplicate slots hide their per-element stored
            # values, so the corrupted count is bounded, not pinned; the
            # *surviving* slots must still be explainable: at least as many
            # corruptions were recorded as divergences remain visible.
            delta = self._expect_delta(
                "scatter_np", before, writes=count,
                corrupted=None, corrupted_max=count,
            )
            visible = int(np.count_nonzero(stored != vals))
            _count_checks(count)
            if delta.corrupted_writes < visible:
                self._fail(
                    "divergence", "scatter_np",
                    f"{visible} stored values diverge but only"
                    f" {delta.corrupted_writes} corrupted writes recorded",
                )
            self._shadow[idx] = stored
        else:
            self._expect_delta("scatter_np", before, writes=count)
            # Last write wins on duplicates: check the surviving values.
            self._precise_stored_check("scatter_np", idx, stored)
            _count_checks(count)
            survivors = np.full(len(self.inner), -1, dtype=np.int64)
            survivors[idx] = np.arange(count)
            winner = survivors[idx]
            if not np.array_equal(stored, vals[winner]):
                bad = int(np.flatnonzero(stored != vals[winner])[0])
                self._fail(
                    "divergence", "scatter_np",
                    f"precise scatter at index {int(idx[bad])} stored"
                    f" {int(stored[bad])} instead of"
                    f" {int(vals[winner][bad])}",
                )

    # -- unaccounted access ------------------------------------------------ #

    def peek(self, index: int) -> int:
        self._check_bounds("peek", index, 1)
        before = self.inner.stats.snapshot()
        value = self.inner.peek(index)
        self._expect_delta("peek", before)  # peeks must never account
        self._check_read_integrity("peek", [index], [value])
        return value

    def peek_block_np(self, start: int, count: int) -> np.ndarray:
        self._check_block_bounds("peek_block_np", start, count)
        values = self.inner.peek_block_np(start, count)
        self._check_read_integrity(
            "peek_block_np", np.arange(start, start + count), values
        )
        return values

    def peek_gather_np(self, indices: np.ndarray) -> np.ndarray:
        idx = np.asarray(indices, dtype=np.int64)
        self._check_bounds("peek_gather_np", idx, int(idx.size))
        values = self.inner.peek_gather_np(idx)
        self._check_read_integrity("peek_gather_np", idx, values)
        return values

    def to_list(self) -> list[int]:
        values = self.inner.to_list()
        self._check_read_integrity(
            "to_list", np.arange(len(self.inner)), values
        )
        return values

    def to_numpy(self) -> np.ndarray:
        values = self.inner.to_numpy()
        self._check_read_integrity(
            "to_numpy", np.arange(len(self.inner)), values
        )
        return values

    # -- structure --------------------------------------------------------- #

    def clone_empty(
        self, size: Optional[int] = None, name: str = ""
    ) -> "SanitizedArray":
        """Scratch allocations inherit the sanitizer."""
        return SanitizedArray(self.inner.clone_empty(size=size, name=name))

    def load_from(self, source: "InstrumentedArray | SanitizedArray") -> None:
        """Accounted approx-preparation copy, re-expressed through the
        checked block ops (identical accounting to the inner ``load_from``).
        """
        if len(source) != len(self):
            raise ValueError(
                f"size mismatch: source {len(source)} vs destination"
                f" {len(self)}"
            )
        self.write_block(0, source.read_block_np(0, len(source)))


def sanitize(array: "InstrumentedArray | SanitizedArray") -> SanitizedArray:
    """Wrap ``array`` in a :class:`SanitizedArray` (idempotent)."""
    if isinstance(array, SanitizedArray):
        return array
    return SanitizedArray(array)
