"""Instrumented array abstractions over precise and approximate memory.

The paper's hybrid system (Figure 3) exposes approximate memory to programs
through ``approx_alloc`` plus ``ld.approx`` / ``st.approx`` instructions.  The
Python equivalent here is an array object whose element reads and writes are
routed through the memory model and accounted in a :class:`MemoryStats`:

* :class:`PreciseArray` — ordinary storage; every write costs one precise
  write unit.
* :class:`ApproxArray` — MLC-PCM approximate storage; writes may corrupt the
  stored value (sampled from the compiled :class:`WordErrorModel`) and cost
  ``p(t)`` precise-write units.

Both classes share the small :class:`InstrumentedArray` interface that the
sorting algorithms are written against, so any sorter runs unmodified on
either memory — exactly the property the paper's approx-refine mechanism
relies on ("the sorting algorithm we deploy in this stage is almost the same
as the one in the precise memory, except for memory operations").

Values are 32-bit unsigned integers (the paper's key type: sixteen
concatenated 2-bit cells).  The backing store is a ``np.uint32`` array so
block operations move data through vectorized slices; the scalar interface
still trades in plain Python ints (``read`` never leaks numpy scalars into
the sorters' arithmetic).
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .error_model import WordErrorModel
from .stats import MemoryStats

#: Exclusive upper bound of representable key values.
WORD_LIMIT = 1 << 32

#: Uniform variates drawn per batch for the scalar approximate-write fast
#: path (amortizes the per-write RNG call across a chunk).
SCALAR_RNG_BATCH = 512

#: Type of the optional trace hook: ``(op, region, index)`` with ``op`` one of
#: ``"R"``/``"W"`` and ``region`` one of ``"precise"``/``"approx"``.
TraceHook = Callable[[str, str, int], None]


def _check_word(value: int) -> int:
    """Validate that ``value`` fits the 32-bit key format."""
    if not 0 <= value < WORD_LIMIT:
        raise ValueError(f"key value {value!r} outside 32-bit unsigned range")
    return value


def _as_words(values) -> np.ndarray:
    """Coerce ``values`` to a validated ``np.uint32`` array.

    Bounds are tested once on an int64 view (``min``/``max``), so a block of
    any size pays two reductions rather than a per-element range check.
    """
    if isinstance(values, np.ndarray) and values.dtype == np.uint32:
        return values
    try:
        wide = np.array(
            values if isinstance(values, (np.ndarray, list, tuple)) else list(values),
            dtype=np.int64,
        )
    except OverflowError as exc:
        raise ValueError(f"key value outside 32-bit unsigned range: {exc}")
    if wide.size and (int(wide.min()) < 0 or int(wide.max()) >= WORD_LIMIT):
        raise ValueError("key value outside 32-bit unsigned range")
    return wide.astype(np.uint32)


class InstrumentedArray:
    """Common interface of the memory-backed arrays.

    Subclasses implement :meth:`write`; reads, bulk helpers and unaccounted
    inspection are shared.  ``region`` labels the trace events the array
    emits.

    Besides the scalar interface, arrays expose *accounted batch
    primitives* (:meth:`read_block_np`, :meth:`write_block_np`,
    :meth:`gather_np`, :meth:`scatter_np`) that move numpy arrays in and
    out without per-element Python calls while charging exactly one
    accounted access per element — the foundation of the vectorized sort
    kernels (DESIGN.md section 8).  The base-class implementations fall
    back to the scalar path so any subclass stays correct; the concrete
    memory types override them with vectorized versions.
    """

    region = "precise"

    #: Whether the vectorized sort kernels may drive this array through the
    #: batch primitives.  Wrappers whose semantics depend on per-element
    #: access *order* (e.g. the write-combining buffer) set this False and
    #: the kernels fall back to the scalar path.
    kernel_safe = True

    def __init__(
        self,
        data: Iterable[int],
        stats: Optional[MemoryStats] = None,
        trace: Optional[TraceHook] = None,
        name: str = "",
        copy: bool = True,
    ) -> None:
        if not copy:
            # Buffer adoption: the array *aliases* the caller's uint32
            # buffer (a shared-memory view or a scratch-segment slice), so
            # several arrays — possibly in several processes — can expose
            # windows of one allocation.  The repro.parallel shard plan
            # relies on this: no pickling, no copies.
            if not (
                isinstance(data, np.ndarray)
                and data.dtype == np.uint32
                and data.ndim == 1
                and data.flags.c_contiguous
            ):
                raise ValueError(
                    "copy=False requires a contiguous 1-D uint32 ndarray"
                )
            self._data = data
        else:
            words = _as_words(data)
            # _as_words returns its argument unchanged only when it is
            # already a uint32 ndarray; copy then, so the array never
            # aliases caller data.
            self._data = words.copy() if words is data else words
        # Scalar element access goes through a memoryview of the same
        # buffer: it returns plain Python ints (no numpy scalars leak into
        # the sorters' arithmetic), rejects out-of-range values on write,
        # and is measurably faster than ndarray indexing.  Block operations
        # keep using the ndarray; both views share storage.
        self._mv = memoryview(self._data)
        self.stats = stats if stats is not None else MemoryStats()
        self.trace = trace
        self.name = name

    # -- unaccounted access (for assertions, metrics, test oracles) ----- #

    def peek(self, index: int) -> int:
        """Read without accounting — for metrics and test oracles only."""
        return self._mv[index]

    def to_list(self) -> list[int]:
        """Unaccounted copy of the current contents."""
        return self._data.tolist()

    def to_numpy(self) -> np.ndarray:
        """Unaccounted numpy copy of the current contents."""
        return self._data.copy()

    def __len__(self) -> int:
        return self._data.size

    # -- accounted access ------------------------------------------------ #

    def read(self, index: int) -> int:
        """Accounted element read (``ld`` / ``ld.approx``)."""
        raise NotImplementedError

    def write(self, index: int, value: int) -> None:
        """Accounted element write (``st`` / ``st.approx``)."""
        raise NotImplementedError

    def clone_empty(self, size: Optional[int] = None, name: str = "") -> "InstrumentedArray":
        """Allocate a zeroed array of the same memory kind and accounting.

        Scratch buffers of the sorting algorithms (mergesort's ping-pong
        buffer, radixsort's bucket region) must live in the *same* memory as
        the keys they shadow so their writes are costed and corrupted
        identically; this factory gives sorters a way to allocate them
        without knowing the concrete memory type.
        """
        raise NotImplementedError

    def read_block(self, start: int, count: int) -> list[int]:
        """Accounted sequential read of ``count`` elements from ``start``."""
        return [self.read(i) for i in range(start, start + count)]

    def write_block(self, start: int, values: Sequence[int]) -> None:
        """Accounted sequential write of ``values`` starting at ``start``."""
        for offset, value in enumerate(values):
            self.write(start + offset, value)

    # -- accounted batch primitives (numpy in, numpy out) ---------------- #

    def read_block_np(self, start: int, count: int) -> np.ndarray:
        """Accounted sequential read returning a ``np.uint32`` copy.

        Accounting is identical to :meth:`read_block` (one read per
        element); the result never round-trips through a Python list.
        """
        return np.asarray(self.read_block(start, count), dtype=np.uint32)

    def write_block_np(self, start: int, values: np.ndarray) -> None:
        """Accounted sequential write of a numpy block (same as write_block)."""
        self.write_block(start, values)

    def gather_np(self, indices: np.ndarray) -> np.ndarray:
        """Accounted read of arbitrary (possibly repeated) indices.

        Charges exactly ``len(indices)`` reads — the batched equivalent of
        a loop of scalar :meth:`read` calls over ``indices``.
        """
        return np.array(
            [self.read(int(i)) for i in np.asarray(indices)], dtype=np.uint32
        )

    def scatter_np(self, indices: np.ndarray, values: np.ndarray) -> None:
        """Accounted write of ``values[k]`` to ``indices[k]`` for every k.

        Charges exactly ``len(indices)`` writes; with repeated indices the
        last write wins, as in the scalar loop it replaces.
        """
        for i, v in zip(np.asarray(indices), np.asarray(values)):
            self.write(int(i), int(v))

    def peek_block_np(self, start: int, count: int) -> np.ndarray:
        """Unaccounted numpy copy of a slice — for kernels/metrics/oracles."""
        return np.array(
            [self.peek(i) for i in range(start, start + count)],
            dtype=np.uint32,
        )

    def peek_gather_np(self, indices: np.ndarray) -> np.ndarray:
        """Unaccounted read of arbitrary indices — for test/sanitizer oracles.

        The shadow bookkeeping of :mod:`repro.verify` uses this to inspect
        scattered-to positions without touching the accounting or any RNG
        stream (peeks must stay observationally invisible).
        """
        return self._data[np.asarray(indices, dtype=np.int64)]

    def poke_block_np(self, start: int, values: np.ndarray) -> None:
        """Unaccounted raw store — the write-side dual of :meth:`peek_block_np`.

        Only for kernels whose accounting is *analytic*: the fused precise
        path of :meth:`repro.sorting.base.BaseSorter.sort` computes a whole
        sort's result in one vectorized step and charges the sorter's
        ``precise_schedule`` separately, so the store itself must not touch
        the counters, any RNG stream, or tracing.  Never use this where
        per-access accounting or corruption applies.
        """
        vals = _as_words(values)
        self._data[start : start + vals.size] = vals

    def _trace_block(self, op: str, start: int, count: int) -> None:
        """Emit one trace event per element of a block access."""
        trace = self.trace
        for i in range(start, start + count):
            trace(op, self.region, i)

    def _trace_indices(self, op: str, indices: np.ndarray) -> None:
        """Emit one trace event per element of a gather/scatter access."""
        trace = self.trace
        for i in indices:
            trace(op, self.region, int(i))


class PreciseArray(InstrumentedArray):
    """Array in precise memory: reads/writes are exact, cost 1 unit each."""

    region = "precise"

    def clone_empty(self, size: Optional[int] = None, name: str = "") -> "PreciseArray":
        n = len(self) if size is None else size
        return PreciseArray(
            np.zeros(n, dtype=np.uint32), stats=self.stats, trace=self.trace,
            name=name or self.name,
        )

    def read_block(self, start: int, count: int) -> list[int]:
        self.stats.record_precise_read(count)
        if self.trace is not None:
            self._trace_block("R", start, count)
        return self._data[start : start + count].tolist()

    def read_block_np(self, start: int, count: int) -> np.ndarray:
        self.stats.record_precise_read(count)
        if self.trace is not None:
            self._trace_block("R", start, count)
        return self._data[start : start + count].copy()

    def write_block(self, start: int, values: Sequence[int]) -> None:
        checked = _as_words(values)
        self.stats.record_precise_write(checked.size)
        if self.trace is not None:
            self._trace_block("W", start, checked.size)
        self._data[start : start + checked.size] = checked

    def gather_np(self, indices: np.ndarray) -> np.ndarray:
        idx = np.asarray(indices, dtype=np.int64)
        self.stats.record_precise_read(idx.size)
        if self.trace is not None:
            self._trace_indices("R", idx)
        return self._data[idx]

    def scatter_np(self, indices: np.ndarray, values: np.ndarray) -> None:
        idx = np.asarray(indices, dtype=np.int64)
        checked = _as_words(values)
        self.stats.record_precise_write(idx.size)
        if self.trace is not None:
            self._trace_indices("W", idx)
        self._data[idx] = checked

    def peek_block_np(self, start: int, count: int) -> np.ndarray:
        return self._data[start : start + count].copy()

    def read(self, index: int) -> int:
        self.stats.record_precise_read()
        if self.trace is not None:
            self.trace("R", self.region, index)
        return self._mv[index]

    def write(self, index: int, value: int) -> None:
        try:
            # The uint32 memoryview rejects out-of-range values itself, so
            # the hot path needs no explicit bounds check.
            self._mv[index] = value
        except (ValueError, TypeError):
            self._data[index] = _check_word(value)  # canonical error message
        # Accounting and tracing happen only once the store is accepted: a
        # rejected out-of-range value must not move the write counters
        # (regression-tested in tests/verify/test_sanitizer.py).
        self.stats.record_precise_write()
        if self.trace is not None:
            self.trace("W", self.region, index)


class ApproxArray(InstrumentedArray):
    """Array in approximate MLC-PCM memory.

    Each write stores the *observed* digital value sampled once from the
    error model (the value all later reads will recover — see DESIGN.md
    section 3 on the error application point) and accrues a cost of
    ``E[#P(value)] / #P_precise`` precise-write units.

    Parameters
    ----------
    data:
        Initial contents.  The initial placement is **not** accounted: the
        paper's approx-preparation copy is an explicit, accounted step
        (:meth:`load_from`), so construction itself is free.
    model:
        Compiled error model for the configured ``T``.
    precise_iterations:
        Average #P of the matching precise configuration (the denominator of
        ``p(t)``); measured, not the paper's approximate constant 3.
    seed:
        Seed of the run-time corruption randomness.  Three independent,
        deterministically derived streams: a numpy generator drawing the
        scalar fast-path uniforms in batches of :data:`SCALAR_RNG_BATCH`, a
        Python ``random.Random`` feeding the rare scalar slow path (and
        clone-seed derivation), and a numpy generator for vectorized block
        writes.
    """

    region = "approx"

    def __init__(
        self,
        data: Iterable[int],
        model: WordErrorModel,
        precise_iterations: float,
        stats: Optional[MemoryStats] = None,
        seed: int = 0,
        trace: Optional[TraceHook] = None,
        name: str = "",
        copy: bool = True,
    ) -> None:
        super().__init__(data, stats=stats, trace=trace, name=name, copy=copy)
        if precise_iterations <= 0:
            raise ValueError("precise_iterations must be positive")
        self.model = model
        self.precise_iterations = precise_iterations
        self._seed = seed
        self._rng = random.Random(seed)
        self._np_rng = np.random.default_rng((seed, 0x5EED))
        self._scalar_rng = np.random.default_rng((seed, 0xFA57))
        self._u_buffer: list[float] = []
        self._u_pos = 0

    def clone_empty(self, size: Optional[int] = None, name: str = "") -> "ApproxArray":
        n = len(self) if size is None else size
        # Derive the scratch array's corruption stream from this array's so
        # clones stay deterministic under the parent's seed yet independent.
        return ApproxArray(
            np.zeros(n, dtype=np.uint32),
            model=self.model,
            precise_iterations=self.precise_iterations,
            stats=self.stats,
            seed=self._rng.getrandbits(32),
            trace=self.trace,
            name=name or self.name,
        )

    def read(self, index: int) -> int:
        self.stats.record_approx_read()
        if self.trace is not None:
            self.trace("R", self.region, index)
        return self._mv[index]

    def read_block(self, start: int, count: int) -> list[int]:
        self.stats.record_approx_read(count)
        if self.trace is not None:
            self._trace_block("R", start, count)
        return self._data[start : start + count].tolist()

    def read_block_np(self, start: int, count: int) -> np.ndarray:
        self.stats.record_approx_read(count)
        if self.trace is not None:
            self._trace_block("R", start, count)
        return self._data[start : start + count].copy()

    def gather_np(self, indices: np.ndarray) -> np.ndarray:
        idx = np.asarray(indices, dtype=np.int64)
        self.stats.record_approx_read(idx.size)
        if self.trace is not None:
            self._trace_indices("R", idx)
        return self._data[idx]

    def scatter_np(self, indices: np.ndarray, values: np.ndarray) -> None:
        """Accounted scatter: cost and corruption as a block write.

        Per-word corruption comes from the same batched block sampler
        (``corrupt_block`` on the block RNG stream) as :meth:`write_block`,
        so scalar-vs-kernel corruption rates agree in distribution.
        """
        idx = np.asarray(indices, dtype=np.int64)
        vals = _as_words(values)
        if idx.size == 0:
            return
        cost, p_ok = self.model.block_cost_and_no_error(vals)
        units = float(cost.sum() / self.precise_iterations)
        stored = self.model.corrupt_block(vals, self._np_rng, p_ok=p_ok)
        corrupted = int(np.count_nonzero(stored != vals))
        self.stats.record_approx_write_block(idx.size, units, corrupted)
        if self.trace is not None:
            self._trace_indices("W", idx)
        self._data[idx] = stored

    def peek_block_np(self, start: int, count: int) -> np.ndarray:
        return self._data[start : start + count].copy()

    def _next_uniform(self) -> float:
        """One fast-path uniform from the batched scalar stream."""
        pos = self._u_pos
        if pos >= len(self._u_buffer):
            self._u_buffer = self._scalar_rng.random(SCALAR_RNG_BATCH).tolist()
            pos = 0
        self._u_pos = pos + 1
        return self._u_buffer[pos]

    def write(self, index: int, value: int) -> None:
        value = _check_word(value)
        model = self.model
        units = model.word_write_cost(value) / self.precise_iterations
        stored = model.corrupt_word_given_u(value, self._next_uniform(), self._rng)
        self.stats.record_approx_write(units, corrupted=stored != value)
        if self.trace is not None:
            self.trace("W", self.region, index)
        self._mv[index] = stored

    def write_block(self, start: int, values: Sequence[int]) -> None:
        """Vectorized block write (numpy path; same distribution as scalar)."""
        vals = _as_words(values)
        if vals.size == 0:
            return
        cost, p_ok = self.model.block_cost_and_no_error(vals)
        units = float(cost.sum() / self.precise_iterations)
        stored = self.model.corrupt_block(vals, self._np_rng, p_ok=p_ok)
        corrupted = int(np.count_nonzero(stored != vals))
        self.stats.record_approx_write_block(vals.size, units, corrupted)
        if self.trace is not None:
            self._trace_block("W", start, vals.size)
        self._data[start : start + vals.size] = stored

    def load_from(self, source: InstrumentedArray) -> None:
        """Approx-preparation copy: read ``source``, write every element here.

        This is the accounted ``Key0 -> Key~`` copy of the paper's
        approx-preparation stage; some keys may become imprecise in transit.
        """
        if len(source) != len(self):
            raise ValueError(
                f"size mismatch: source {len(source)} vs destination {len(self)}"
            )
        self.write_block(0, source.read_block_np(0, len(source)))
