"""Approximate spintronic memory model (paper Appendix A, Ranjan et al. [51]).

Spintronic (STT-MRAM-like) memories trade write *energy* for write *error
probability*: lowering the programming voltage/current of the magnetic tunnel
junction saves energy but leaves each bit a small probability of not being
switched.  The paper evaluates four configuration points::

    energy saving per write   5%     20%    33%    50%
    write error prob per bit  1e-7   1e-6   1e-5   1e-4

Reads are assumed precise (write energy dominates by an order of magnitude).

The unit of account is energy: a precise write costs 1.0, an approximate
write costs ``1 - energy_saving``.  :class:`SpintronicArray` plugs into the
same :class:`~repro.memory.approx_array.InstrumentedArray` interface as the
PCM model, so every sorting algorithm and the whole approx-refine mechanism
run on it unchanged — the property Appendix A uses to claim generality.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional

import numpy as np

from .approx_array import (
    InstrumentedArray, TraceHook, _check_word, _index_error,
)
from .config import SpintronicParams, WORD_BITS
from .stats import MemoryStats


class SpintronicErrorModel:
    """Per-bit independent write-flip model with energy accounting."""

    def __init__(self, params: SpintronicParams) -> None:
        self.params = params
        q = params.bit_error_rate
        self._q = q
        #: Probability a whole 32-bit word stores without any flipped bit.
        self.word_no_error_probability = (1.0 - q) ** WORD_BITS

    @property
    def write_cost(self) -> float:
        """Energy of one approximate write, in precise-write units."""
        return self.params.write_cost

    @property
    def word_error_rate(self) -> float:
        """Probability at least one bit of a word write is flipped."""
        return 1.0 - self.word_no_error_probability

    def corrupt_word(self, value: int, rng: random.Random) -> int:
        """Sample the stored value of one word write (scalar fast path)."""
        u = rng.random()
        if u < self.word_no_error_probability:
            return value
        # Rare branch: resample each bit exactly, conditioned on >= 1 flip
        # via the first-flip-index decomposition (as in the PCM model).
        q = self._q
        # u is uniform on [p_noerr, 1); shift it to a uniform on [0, p_any)
        # and use it to pick the first flipped bit from its exact law
        # P(first flip at i) = (1-q)^i * q.
        target = u - self.word_no_error_probability
        acc = 0.0
        prefix_ok = 1.0
        first = WORD_BITS - 1
        for i in range(WORD_BITS):
            acc += prefix_ok * q
            if target < acc:
                first = i
                break
            prefix_ok *= 1.0 - q
        out = value ^ (1 << first)
        for i in range(first + 1, WORD_BITS):
            if rng.random() < q:
                out ^= 1 << i
        return out

    def corrupt_block(
        self, values: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Vectorized corruption of an array of 32-bit words."""
        vals = np.asarray(values, dtype=np.uint32)
        out = vals.copy()
        # Expected flips are q * 32 * n; sample flip positions sparsely.
        n_bits = vals.size * WORD_BITS
        n_flips = rng.binomial(n_bits, self._q)
        if n_flips == 0:
            return out
        positions = rng.choice(n_bits, size=n_flips, replace=False)
        words = (positions // WORD_BITS).astype(np.int64)
        bits = (positions % WORD_BITS).astype(np.uint32)
        # A word can host several flips; xor.at accumulates them in place.
        np.bitwise_xor.at(out, words, np.uint32(1) << bits)
        return out


class SpintronicArray(InstrumentedArray):
    """Array in approximate spintronic memory (energy-accounted writes)."""

    region = "approx"

    def __init__(
        self,
        data: Iterable[int],
        model: SpintronicErrorModel,
        stats: Optional[MemoryStats] = None,
        seed: int = 0,
        trace: Optional[TraceHook] = None,
        name: str = "",
        copy: bool = True,
    ) -> None:
        super().__init__(data, stats=stats, trace=trace, name=name, copy=copy)
        self.model = model
        self._rng = random.Random(seed)
        self._np_rng = np.random.default_rng((seed, 0x5E17))

    def _clone_args(self) -> dict:
        return {"model": self.model, "seed": self._rng.getrandbits(32)}

    def write(self, index: int, value: int) -> None:
        if not 0 <= index < len(self._mv):
            raise _index_error(index, len(self._mv))
        value = _check_word(value)
        stored = self.model.corrupt_word(value, self._rng)
        self.stats.record_approx_write(
            self.model.write_cost, corrupted=stored != value
        )
        if self.trace is not None:
            self.trace("W", self.region, index)
        self._mv[index] = stored

    def _write_words(
        self, slots: "slice | np.ndarray", vals: "np.ndarray | list[int]"
    ) -> None:
        # A list-lane list is valid words already; the sampler takes arrays.
        vals = np.asarray(vals, dtype=np.uint32)
        if vals.size == 0:
            return
        stored = self.model.corrupt_block(vals, self._np_rng)
        corrupted = int(np.count_nonzero(stored != vals))
        self.stats.record_approx_write_block(
            vals.size, self.model.write_cost * vals.size, corrupted
        )
        if self.trace is not None:
            self._trace_indices("W", slots)
        self._data[slots] = stored
