"""Software-managed write-combining buffer (paper Section 3.1).

The paper's sorting implementations adopt "write-optimized techniques
including write combining by software managed buffers" (Balkesen et al.
[4]).  A small SRAM-resident buffer absorbs repeated writes to the same
location: only the *last* value reaches memory when the entry is evicted or
flushed, so write-heavy access patterns (insertion shifts, swap chains) pay
fewer PCM writes — and, on approximate memory, suffer fewer corruption
opportunities, since corruption happens per *memory* write.

:class:`WriteCombiningArray` wraps any :class:`InstrumentedArray`; buffer
hits cost no memory traffic (the buffer lives on-chip), evictions are LRU.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Sequence

import numpy as np

from .approx_array import InstrumentedArray, _check_word


class WriteCombiningArray:
    """LRU write-combining front of a backing instrumented array.

    Parameters
    ----------
    backing:
        The memory-resident array every miss and eviction goes to.
    capacity:
        Buffer entries (elements, not bytes).  Zero disables combining
        (every access passes straight through).

    Notes
    -----
    The front stores no words of its own, so it is no
    :class:`InstrumentedArray`: it offers the accesses of the sorters'
    scalar path, and ``kernel_safe`` keeps the vectorized kernels away.
    Its unaccounted views (``len``, ``peek``, ``peek_block_np``,
    ``peek_gather_np``, ``to_list``, ``to_numpy``) see through the buffer,
    so metrics and assertions observe the logical contents; actual memory
    traffic is what reached ``backing``.  Call :meth:`flush` (or rely on
    the sorting helpers, which flush on completion) before measuring the
    backing store's final state directly.
    """

    #: Combining depends on per-element access *order*; the vectorized sort
    #: kernels must not reorder accesses through the batch primitives.
    kernel_safe = False

    def __init__(self, backing: InstrumentedArray, capacity: int = 64) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        # The front shares the backing array's accounting; it emits no
        # trace events (an absorbed write is no memory access).
        self.backing = backing
        self.stats = backing.stats
        self.trace = None
        self.name = f"{backing.name}+wc{capacity}"
        self.capacity = capacity
        self._buffer: "OrderedDict[int, int]" = OrderedDict()
        #: Writes absorbed by the buffer (would have been memory writes).
        self.combined_writes = 0

    @property
    def region(self) -> str:
        return self.backing.region

    def __len__(self) -> int:
        return len(self.backing)

    # ------------------------------------------------------------------ #
    # Accounted access
    # ------------------------------------------------------------------ #

    def read(self, index: int) -> int:
        if index in self._buffer:
            # Buffer hit: served on-chip, refreshes recency, no memory op.
            self._buffer.move_to_end(index)
            return self._buffer[index]
        return self.backing.read(index)

    def write(self, index: int, value: int) -> None:
        if self.capacity == 0:
            self.backing.write(index, value)
            return
        # Checked as the backing array would check it, before it is
        # buffered rather than when it is evicted.
        value = _check_word(value)
        if index in self._buffer:
            self._buffer.move_to_end(index)
            self._buffer[index] = value
            self.combined_writes += 1
            return
        self._buffer[index] = value
        if len(self._buffer) > self.capacity:
            evicted_index, evicted_value = self._buffer.popitem(last=False)
            self.backing.write(evicted_index, evicted_value)

    def read_block(self, start: int, count: int) -> list[int]:
        if not self._buffer:
            return self.backing.read_block(start, count)
        return [self.read(i) for i in range(start, start + count)]

    def write_block(self, start: int, values: Sequence[int]) -> None:
        # Block writes are already combined streams; route them directly.
        # Buffered entries they overwrite never reach memory — they were
        # combined away.
        if self._buffer:
            for offset in range(len(values)):
                if self._buffer.pop(start + offset, None) is not None:
                    self.combined_writes += 1
        self.backing.write_block(start, values)

    def flush(self) -> int:
        """Write every buffered entry to memory; returns how many."""
        flushed = len(self._buffer)
        for index, value in self._buffer.items():
            self.backing.write(index, value)
        self._buffer.clear()
        return flushed

    # ------------------------------------------------------------------ #
    # Unaccounted views (merge the buffer over the backing contents)
    # ------------------------------------------------------------------ #

    def peek(self, index: int) -> int:
        if index in self._buffer:
            return self._buffer[index]
        return self.backing.peek(index)

    def peek_block_np(self, start: int, count: int) -> np.ndarray:
        values = self.backing.peek_block_np(start, count)
        for index, value in self._buffer.items():
            if start <= index < start + count:
                values[index - start] = value
        return values

    def to_list(self) -> list[int]:
        return self.to_numpy().tolist()

    def to_numpy(self) -> np.ndarray:
        return self.peek_block_np(0, len(self))

    def peek_gather_np(self, indices: np.ndarray) -> np.ndarray:
        return self.to_numpy()[np.asarray(indices, dtype=np.int64)]

    def clone_empty(
        self, size: Optional[int] = None, name: str = ""
    ) -> "WriteCombiningArray":
        """A buffered clone over a clone of the backing array."""
        return WriteCombiningArray(
            self.backing.clone_empty(size, name), capacity=self.capacity
        )


def sort_with_write_combining(
    sorter,
    array: InstrumentedArray,
    ids: Optional[InstrumentedArray] = None,
    capacity: int = 64,
) -> WriteCombiningArray:
    """Sort through a write-combining buffer, flushing on completion.

    Returns the buffered wrapper (already flushed) so callers can inspect
    ``combined_writes``.
    """
    buffered = WriteCombiningArray(array, capacity=capacity)
    sorter.sort(buffered, ids)
    buffered.flush()
    return buffered
