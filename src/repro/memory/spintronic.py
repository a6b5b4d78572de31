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

from typing import Iterable, Optional

import numpy as np

from .approx_array import KeyedArray, TraceHook
from .config import SpintronicParams, WORD_BITS
from .keyed import CellLaw, KeyedWordModel
from .stats import MemoryStats


class SpintronicErrorModel(KeyedWordModel):
    """Per-bit independent write-flip model with energy accounting.

    A word is 32 one-bit cells that each flip with the bit error rate,
    sampled by the keyed sampler every approximate memory shares: a flipped
    cell at level 0 reads 1 and one at level 1 reads 0.
    """

    def __init__(self, params: SpintronicParams) -> None:
        self.params = params
        q = params.bit_error_rate
        self._q = q
        #: Probability a whole 32-bit word stores without any flipped bit.
        self._word_p_ok = (1.0 - q) ** WORD_BITS
        self.law = CellLaw(1, (q, q), ((0.0, 1.0), (1.0, 1.0)))
        self._set_floor(self._word_p_ok)

    @property
    def write_cost(self) -> float:
        """Energy of one approximate write, in precise-write units."""
        return self.params.write_cost

    @property
    def word_error_rate(self) -> float:
        """Probability at least one bit of a word write is flipped."""
        return 1.0 - self._word_p_ok

    def word_no_error_probability(self, value: int) -> float:
        """Probability a word write stores without a flip (any value)."""
        return self._word_p_ok

    def block_no_error_probability(self, values):
        """Every word's no-error probability is the same; the sampler's
        floor equals it, so no word above the floor is kept."""
        return np.full(len(values), self._word_p_ok)

    def word_write_cost(self, value: int) -> "tuple[int]":
        """One word at :attr:`write_cost`."""
        return (1,)

    def block_cost_and_no_error(self, values) -> "tuple[tuple[int], None]":
        """The block's words at :attr:`write_cost`; the sampler needs no
        per-word probabilities."""
        return (len(values),), None


class SpintronicArray(KeyedArray):
    """Array in approximate spintronic memory (energy-accounted writes)."""

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
        super().__init__(
            data, stats=stats, seed=seed, trace=trace, name=name, copy=copy
        )
        self.model = model
        self._weights = (model.write_cost,)

    def _clone_args(self) -> dict:
        return {"model": self.model, "seed": self._clone_seed()}
