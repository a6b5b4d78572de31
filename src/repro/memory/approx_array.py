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

from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import keyed
from .error_model import WordErrorModel
from .stats import MemoryStats

#: Exclusive upper bound of representable key values.
WORD_LIMIT = 1 << 32

#: Largest block, in words, that ``write_block`` takes as a Python list
#: (the list lane): an approximate array then resolves it word by word with
#: the Python forms of its keyed sampler, which beat the numpy forms' fixed
#: per-call cost on such short lists.  Measured, not tuned per run
#: (DESIGN.md section 7).
LIST_LANE_MAX_WORDS = 16

#: Type of the optional trace hook: ``(op, region, index)`` with ``op`` one of
#: ``"R"``/``"W"`` and ``region`` one of ``"precise"``/``"approx"``.
TraceHook = Callable[[str, str, int], None]


def _check_word(value: int) -> int:
    """``value`` as the int of a 32-bit key word, or :class:`ValueError`.

    Integral floats, bools and numpy integers are words; a non-integral
    value is refused like an out-of-range one, never truncated.
    """
    if type(value) is not int:
        value = _integral(value)
    if not 0 <= value < WORD_LIMIT:
        raise ValueError(f"key value {value!r} outside 32-bit unsigned range")
    return value


def _integral(value) -> int:
    """The int equal to ``value``; :class:`ValueError` if there is none."""
    try:
        word = int(value)
    except (TypeError, ValueError, OverflowError):
        word = None
    if word is None or word != value:
        raise ValueError(f"key value {value!r} is not an integer")
    return word


def _index_error(index: int, size: int) -> IndexError:
    """The error a scalar write to ``index`` outside ``[0, size)`` raises."""
    return IndexError(f"write index {index} outside [0, {size})")


def _as_words(values) -> np.ndarray:
    """Coerce ``values`` to a validated ``np.uint32`` array.

    A ``uint32`` array is taken as it is.  Otherwise bounds are tested once
    on an integer view (``min``/``max``), so a block of any size pays two
    reductions rather than a per-element range check.  Floats must be
    integral (a cast would truncate them), and an object array (ints beyond
    64 bits, mixed types) is checked word by word.  A ``range`` (the ID
    array's initial contents) becomes an ``np.arange`` without passing
    through a list.
    """
    if isinstance(values, np.ndarray) and values.dtype == np.uint32:
        return values
    if isinstance(values, range):
        values = np.arange(values.start, values.stop, values.step, dtype=np.int64)
    elif not isinstance(values, (np.ndarray, list, tuple)):
        values = list(values)
    words = np.asarray(values)
    kind = words.dtype.kind
    if kind == "O":
        words = np.vectorize(_check_word, otypes=[np.int64])(words)
    elif kind == "f":
        if not np.array_equal(words, np.floor(words)):
            raise ValueError("key value is not an integer")
    elif kind not in "biu":
        raise ValueError(f"key values of dtype {words.dtype} are not integers")
    if words.size and (words.min() < 0 or words.max() >= WORD_LIMIT):
        raise ValueError("key value outside 32-bit unsigned range")
    return words.astype(np.uint32)


def _is_word_list(values) -> bool:
    """Whether ``values`` takes the list lane of a block write: a list of
    at most :data:`LIST_LANE_MAX_WORDS` valid words (Python ints in
    range).  Anything else goes through :func:`_as_words`, which converts
    it or raises."""
    if type(values) is not list or len(values) > LIST_LANE_MAX_WORDS:
        return False
    for value in values:
        if type(value) is not int or not 0 <= value < WORD_LIMIT:
            return False
    return True


class InstrumentedArray:
    """The one body of every memory kind's accounted accesses.

    Every access that does not depend on the technology lives here once:
    the reads, the block and scatter writes, :meth:`load_from`, the
    unaccounted views and :meth:`clone_empty`.  A memory kind supplies what
    differs: its ``region`` (the counter its reads charge, and its trace
    label), its scalar :meth:`write`, :meth:`_write_words` (the store of a
    checked block or scatter), and its constructor with
    :meth:`_clone_args`.

    The batch primitives (:meth:`read_block_np`, :meth:`write_block`,
    :meth:`gather_np`, :meth:`scatter_np`) move numpy arrays without
    per-element Python calls while charging exactly one accounted access
    per element (DESIGN.md section 8).
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
        # The region's read counter, bound once: the shared read bodies
        # make no more Python calls than a per-kind body would.  They call
        # it through a local, because CPython specializes the load of an
        # instance attribute but not a method call on one.
        self._count_reads = (
            self.stats.record_approx_read if self.region == "approx"
            else self.stats.record_precise_read
        )
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

    def peek_block_np(self, start: int, count: int) -> np.ndarray:
        """Unaccounted numpy copy of a slice — for kernels/metrics/oracles."""
        return self._data[start : start + count].copy()

    def peek_gather_np(self, indices: np.ndarray) -> np.ndarray:
        """Unaccounted read of arbitrary indices — for test/sanitizer oracles.

        The shadow bookkeeping of :mod:`repro.verify` uses this to inspect
        scattered-to positions without touching the accounting or the write
        counts (peeks must stay observationally invisible).
        """
        return self._data[np.asarray(indices, dtype=np.int64)]

    def poke_block_np(self, start: int, values: np.ndarray) -> None:
        """Unaccounted raw store — the write-side dual of :meth:`peek_block_np`.

        Only where the accounting happens elsewhere, so the store itself
        must not touch the counters, the write counts, or tracing.  Two
        callers: the fused precise path of
        :meth:`repro.sorting.base.BaseSorter.sort` computes a whole sort's
        result in one vectorized step and charges the sorter's
        ``precise_schedule`` separately; the sharded unload of
        :class:`repro.parallel.sharded.ShardedSorter` stores the shard
        buffer, whose every write the shard sorts already charged and
        corrupted.  Never use this where per-access accounting or
        corruption applies.
        """
        vals = _as_words(values)
        self._data[start : start + vals.size] = vals

    # -- accounted reads ------------------------------------------------- #

    def read(self, index: int) -> int:
        """Accounted element read (``ld`` / ``ld.approx``)."""
        count_reads = self._count_reads
        count_reads()
        if self.trace is not None:
            self.trace("R", self.region, index)
        return self._mv[index]

    def read_block(self, start: int, count: int) -> list[int]:
        """Accounted sequential read of ``count`` elements from ``start``."""
        count_reads = self._count_reads
        count_reads(count)
        if self.trace is not None:
            self._trace_indices("R", slice(start, start + count))
        return self._data[start : start + count].tolist()

    def read_block_np(self, start: int, count: int) -> np.ndarray:
        """Accounted sequential read returning a ``np.uint32`` copy.

        Accounting is identical to :meth:`read_block` (one read per
        element); the result never round-trips through a Python list.
        """
        count_reads = self._count_reads
        count_reads(count)
        if self.trace is not None:
            self._trace_indices("R", slice(start, start + count))
        return self._data[start : start + count].copy()

    def gather_np(self, indices: np.ndarray) -> np.ndarray:
        """Accounted read of arbitrary (possibly repeated) indices.

        Charges exactly ``len(indices)`` reads — the batched equivalent of
        a loop of scalar :meth:`read` calls over ``indices``.
        """
        idx = np.asarray(indices, dtype=np.int64)
        count_reads = self._count_reads
        count_reads(idx.size)
        if self.trace is not None:
            self._trace_indices("R", idx)
        return self._data[idx]

    def record_reads(self, count: int) -> None:
        """Charge ``count`` accounted reads of words the caller already holds.

        Reads have no side effect in any memory model here, so a kernel
        that kept the values (quicksort's list lane, the numpy refine
        merge) charges its repeat reads instead of re-issuing them.  Its
        callers run only on untraced arrays, so it emits no trace events.
        """
        count_reads = self._count_reads
        count_reads(count)

    # -- accounted writes ------------------------------------------------ #

    def write(self, index: int, value: int) -> None:
        """Accounted element write (``st`` / ``st.approx``)."""
        raise NotImplementedError

    def write_block(self, start: int, values: Sequence[int]) -> None:
        """Accounted sequential write of ``values`` starting at ``start``.

        A list of at most :data:`LIST_LANE_MAX_WORDS` valid words reaches
        :meth:`_write_words` as it is (the list lane); anything else is
        converted and checked by :func:`_as_words` first.
        """
        if not _is_word_list(values):
            values = _as_words(values)
        self._write_words(self._block_slots(start, len(values)), values)

    def scatter_np(self, indices: np.ndarray, values: np.ndarray) -> None:
        """Accounted write of ``values[k]`` to ``indices[k]`` for every k.

        Charges exactly ``len(indices)`` writes, costed and corrupted as a
        block write of ``values``; with repeated indices the last write
        wins, as in the scalar loop it replaces.
        """
        vals = _as_words(values)
        self._write_words(self._scatter_slots(indices, vals.size), vals)

    def _write_words(
        self, slots: "slice | np.ndarray", vals: "np.ndarray | list[int]"
    ) -> None:
        """Cost, corrupt, account, trace and store ``vals`` at ``slots``:
        the one store of :meth:`write_block` and :meth:`scatter_np`.
        ``vals`` is a checked ``uint32`` array or a list-lane list of valid
        words, and ``slots`` is checked, so no store is refused after it
        has been charged."""
        raise NotImplementedError

    def load_from(self, source: "InstrumentedArray") -> None:
        """Approx-preparation copy: read ``source``, write every element here.

        This is the accounted ``Key0 -> Key~`` copy of the paper's
        approx-preparation stage; some keys may become imprecise in transit.
        """
        if len(source) != len(self):
            raise ValueError(
                f"size mismatch: source {len(source)} vs destination {len(self)}"
            )
        self.write_block(0, source.read_block_np(0, len(source)))

    # -- structure --------------------------------------------------------- #

    def clone_empty(self, size: Optional[int] = None, name: str = "") -> "InstrumentedArray":
        """Allocate a zeroed array of the same memory kind and accounting.

        Scratch buffers of the sorting algorithms (mergesort's ping-pong
        buffer, radixsort's bucket region) must live in the *same* memory as
        the keys they shadow so their writes are costed and corrupted
        identically; this factory gives sorters a way to allocate them
        without knowing the concrete memory type.
        """
        n = len(self) if size is None else size
        return type(self)(
            np.zeros(n, dtype=np.uint32), stats=self.stats, trace=self.trace,
            name=name or self.name, **self._clone_args(),
        )

    def _clone_args(self) -> dict:
        """A clone's constructor arguments besides data, stats, trace, name."""
        return {}

    def _block_slots(self, start: int, count: int) -> slice:
        """The checked destination of a ``count``-word block write at ``start``.

        Block writes check their destination before any counter, write
        count or trace event moves, so a write that does not fit the array
        raises and leaves it and its accounting unchanged.
        """
        size = self._data.size
        start = int(start)
        if start < 0 or start + count > size:
            raise ValueError(
                f"block [{start}, {start + count}) outside [0, {size})"
            )
        return slice(start, start + count)

    def _scatter_slots(self, indices: np.ndarray, count: int) -> np.ndarray:
        """The checked ``int64`` destination of a ``count``-value scatter.

        As :meth:`_block_slots`: one index per value, each inside the array,
        or the scatter raises before anything is charged.
        """
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size != count:
            raise ValueError(f"scatter of {count} values to {idx.size} indices")
        size = self._data.size
        if idx.size and (int(idx.min()) < 0 or int(idx.max()) >= size):
            raise IndexError(f"scatter index outside [0, {size})")
        return idx

    def _trace_indices(self, op: str, indices: "np.ndarray | slice") -> None:
        """Emit one trace event per element of an access, given its indices
        or, for a block access, its slice."""
        if isinstance(indices, slice):
            indices = range(indices.start, indices.stop)
        trace = self.trace
        for i in indices:
            trace(op, self.region, int(i))


class PreciseArray(InstrumentedArray):
    """Array in precise memory: reads/writes are exact, cost 1 unit each."""

    region = "precise"

    # benchmarks/e2e/ledger.py times these by ``cls.__dict__[name]``, so
    # this class body names them too.
    write_block = InstrumentedArray.write_block
    scatter_np = InstrumentedArray.scatter_np

    def write(self, index: int, value: int) -> None:
        # The memoryview would store a negative index counted from the end.
        if not 0 <= index < len(self._mv):
            raise _index_error(index, len(self._mv))
        try:
            # The uint32 memoryview rejects out-of-range values itself, so
            # the hot path needs no explicit value check.
            self._mv[index] = value
        except (ValueError, TypeError):
            self._data[index] = _check_word(value)  # canonical error message
        # Accounting and tracing happen only once the store is accepted: a
        # rejected out-of-range value must not move the write counters
        # (regression-tested in tests/verify/test_sanitizer.py).
        self.stats.record_precise_write()
        if self.trace is not None:
            self.trace("W", self.region, index)

    def swap(self, i: int, j: int) -> "tuple[int, int]":
        """Accounted swap: ``read(i)``, ``read(j)``, ``write(i, old_j)``,
        ``write(j, old_i)`` as one call; returns the stored pair.  Only
        quicksort's small-partition lane calls it, on untraced arrays, so
        it emits no trace events (DESIGN.md section 8)."""
        mv = self._mv
        a, b = mv[i], mv[j]
        self.stats.record_precise_read(2)
        self.stats.record_precise_write(2)
        mv[i], mv[j] = b, a
        return b, a

    def _write_words(
        self, slots: "slice | np.ndarray", vals: "np.ndarray | list[int]"
    ) -> None:
        self.stats.record_precise_write(len(vals))
        if self.trace is not None:
            self._trace_indices("W", slots)
        self._data[slots] = vals


class KeyedArray(InstrumentedArray):
    """The write body of every approximate memory (DESIGN.md section 7).

    Each word keeps a ``uint32`` count of its accounted writes (scalar,
    block and scatter; not construction or :meth:`poke_block_np`), and the
    ``k``-th write of address ``a`` draws from ``(s, a, k)``
    (:mod:`repro.memory.keyed`).  The stream id ``s`` hashes the seed, or
    for a :meth:`clone_empty` scratch array the parent's id and the clone's
    ordinal.  So the same values written to the same addresses the same
    number of times store the same words and charge the same counts,
    whatever the order.  A memory kind supplies ``model`` (a
    :class:`~repro.memory.keyed.KeyedWordModel`), ``_weights`` (the cost
    weight of each count the model returns) and :meth:`_clone_args`.
    """

    region = "approx"

    def __init__(
        self,
        data: Iterable[int],
        stats: Optional[MemoryStats] = None,
        seed: int = 0,
        trace: Optional[TraceHook] = None,
        name: str = "",
        copy: bool = True,
    ) -> None:
        super().__init__(data, stats=stats, trace=trace, name=name, copy=copy)
        self._stream = keyed.stream_id(seed)
        self._clones = 0
        self._versions = np.zeros(self._data.size, dtype=np.uint32)
        self._version_mv = memoryview(self._versions)

    def _clone_seed(self) -> int:
        """The seed of the next scratch clone."""
        self._clones += 1
        return keyed.clone_seed(self._stream, self._clones)

    def write(self, index: int, value: int) -> None:
        # Checked before the cost, the write count and the store move.
        if not 0 <= index < len(self._mv):
            raise _index_error(index, len(self._mv))
        self._store(int(index), _check_word(value))

    def _store(self, index: int, value: int) -> int:
        """Cost, corrupt, account, trace and store one checked word at a
        checked ``index``; returns the stored word.  The one body of
        :meth:`write` and :meth:`swap`."""
        versions = self._version_mv
        version = versions[index]
        versions[index] = version + 1
        model = self.model
        stored = model.corrupt_word(value, self._stream, index, version)
        self.stats.charge_approx_writes(
            1, self._weights, model.word_write_cost(value), stored != value
        )
        if self.trace is not None:
            self.trace("W", self.region, index)
        self._mv[index] = stored
        return stored

    def swap(self, i: int, j: int) -> "tuple[int, int]":
        """Accounted swap: ``read(i)``, ``read(j)``, ``write(i, old_j)``,
        ``write(j, old_i)`` as one call; returns the stored pair.  The
        writes are :meth:`write`'s own.  Only quicksort's small-partition
        lane calls it, on untraced arrays, so it emits no read trace
        events."""
        mv = self._mv
        a, b = mv[i], mv[j]
        self.stats.record_approx_read(2)
        return self._store(i, b), self._store(j, a)

    def _write_words(
        self, slots: "slice | np.ndarray", vals: "np.ndarray | list[int]"
    ) -> None:
        if type(vals) is list:
            self._write_list(slots, vals)
            return
        if vals.size == 0:
            return
        model = self.model
        versions = self._bump(slots)
        counts, p_ok = model.block_cost_and_no_error(vals)
        stored = model.corrupt_block(vals, self._stream, slots, versions, p_ok)
        corrupted = (
            0 if stored is vals else int(np.count_nonzero(stored != vals))
        )
        self.stats.charge_approx_writes(
            vals.size, self._weights, counts, corrupted
        )
        if self.trace is not None:
            self._trace_indices("W", slots)
        self._data[slots] = stored

    def _write_list(self, slots: slice, words: "list[int]") -> None:
        """The list lane: a short block resolved word by word with the
        Python forms, which store and charge what the numpy forms would."""
        model, stream, versions = self.model, self._stream, self._version_mv
        stored = []
        for index, value in enumerate(words, slots.start):
            version = versions[index]
            versions[index] = version + 1
            stored.append(model.corrupt_word(value, stream, index, version))
        self.stats.charge_approx_writes(
            len(words), self._weights,
            [sum(level) for level in zip(*map(model.word_write_cost, words))],
            sum(map(int.__ne__, stored, words)),
        )
        if self.trace is not None:
            self._trace_indices("W", slots)
        self._data[slots] = stored

    def _bump(self, slots: "slice | np.ndarray") -> np.ndarray:
        """The write count each write of a block or scatter uses, counted.

        A scatter's repeated index takes consecutive counts in scatter
        order, as the scalar loop it replaces would, and its last write
        leaves the count past all of them (last write wins).
        """
        versions = self._versions
        if isinstance(slots, slice):
            used = versions[slots].copy()
            versions[slots] += np.uint32(1)
            return used
        used = versions[slots]
        tags = np.arange(slots.size, dtype=np.uint32)
        versions[slots] = tags
        if not np.array_equal(versions[slots], tags):
            # Repeated indices: each occurrence adds its rank among them.
            order = np.argsort(slots, kind="stable")
            ranked = slots[order]
            first = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
            sizes = np.diff(np.r_[first, ranked.size])
            rank = np.arange(ranked.size) - np.repeat(first, sizes)
            used[order] += rank.astype(np.uint32)
        versions[slots] = used + np.uint32(1)
        return used


class ApproxArray(KeyedArray):
    """Array in approximate MLC-PCM memory.

    Each write stores the *observed* digital value sampled once from the
    error model (the value all later reads will recover — see DESIGN.md
    section 3 on the error application point) and accrues a cost of
    ``E[#P(value)] / #P_precise`` precise-write units, charged as the
    integer counts of cells written at each level.

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
        Seed of the array's stream id: every corruption draw is keyed by
        it, the address and the address's write count.
    """

    # benchmarks/e2e/ledger.py times these by ``cls.__dict__[name]``, so
    # this class body names them too.
    write = KeyedArray.write
    read = InstrumentedArray.read
    read_block = InstrumentedArray.read_block
    read_block_np = InstrumentedArray.read_block_np
    gather_np = InstrumentedArray.gather_np
    write_block = InstrumentedArray.write_block
    scatter_np = InstrumentedArray.scatter_np

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
        if precise_iterations <= 0:
            raise ValueError("precise_iterations must be positive")
        super().__init__(
            data, stats=stats, seed=seed, trace=trace, name=name, copy=copy
        )
        self.model = model
        self.precise_iterations = precise_iterations
        self._weights = model.level_weights(precise_iterations)

    def _clone_args(self) -> dict:
        return {
            "model": self.model,
            "precise_iterations": self.precise_iterations,
            "seed": self._clone_seed(),
        }
