"""Keyed uniforms: the one source of randomness of an approximate write.

The uniform of the ``k``-th accounted write of address ``a`` in an array
with stream id ``s`` is the splitmix64 finaliser of ``s + a·K_a + k·K_k``
(modulo 2**64), its top 53 bits times 2**-53; an erring word's cell
uniforms add ``(j + 1)·K_c`` to that key.  A counter-based generator
(Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3", SC'11) keeps
no state, so the same values written to the same addresses the same number
of times store the same words, whatever the order, the blocking or the
kernel mode (DESIGN.md section 7).  The numpy and Python forms are integer
arithmetic and one exact conversion to float, so they agree bit for bit.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

from .config import WORD_BITS

_MASK = (1 << 64) - 1
#: Odd multipliers that spread the address, the version and the cell index
#: over the 64-bit key.
_ADDRESS = 0x9E3779B97F4A7C15
_VERSION = 0xD1B54A32D192ED03
_CELL = 0xAEF17502108EF2D9
#: splitmix64's finaliser constants.
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
#: Salts of the stream ids of seeded arrays and of their clones.
_SEED = 0x5EED5EED5EED5EED
_CLONE = 0xC10E5C10E5C10E5D
#: A mantissa (a hash's top 53 bits) times this is a uniform in [0, 1).
UNIT = 2.0 ** -53
#: Mantissas are below this: the uniform of a no-error floor of 1.0.
MANTISSA_LIMIT = 1 << 53

#: Words hashed per numpy call: bounds the temporaries (an unchunked
#: 2**20-word hash spends most of its time allocating them).
CHUNK = 1 << 14

#: Most erring words of one block that :meth:`KeyedWordModel.corrupt_block`
#: resolves one by one in Python rather than in one numpy call: below it
#: the Python form is faster.  Measured, not tuned per run.
RESOLVE_LIST_MAX_WORDS = 6

_U_ADDRESS, _U_VERSION, _U_CELL = (
    np.uint64(_ADDRESS), np.uint64(_VERSION), np.uint64(_CELL),
)
_U_M1, _U_M2 = np.uint64(_M1), np.uint64(_M2)
#: ``i · K_a`` for the offsets ``i`` of one chunk of a block.
_ADDRESS_STEPS = np.arange(CHUNK, dtype=np.uint64) * _U_ADDRESS


def _mix(x: int) -> int:
    """splitmix64's finaliser of a 64-bit int."""
    x ^= x >> 30
    x = x * _M1 & _MASK
    x ^= x >> 27
    x = x * _M2 & _MASK
    return x ^ (x >> 31)


def _mix_np(x: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """:func:`_mix` in place over ``uint64`` words, via ``scratch``."""
    for shift, factor in ((30, _U_M1), (27, _U_M2)):
        np.right_shift(x, np.uint64(shift), out=scratch)
        x ^= scratch
        x *= factor
    np.right_shift(x, np.uint64(31), out=scratch)
    x ^= scratch
    return x


def stream_id(seed: int) -> int:
    """The stream id of an array seeded with ``seed``."""
    return _mix((int(seed) ^ _SEED) & _MASK)


def clone_seed(stream: int, ordinal: int) -> int:
    """The seed of the ``ordinal``-th clone (from 1) of stream ``stream``."""
    return _mix((stream + ordinal * _CLONE) & _MASK)


def word_key(stream: int, address: int, version: int) -> int:
    """The 64-bit key of one write (Python form)."""
    return (stream + address * _ADDRESS + version * _VERSION) & _MASK


def uniform(stream: int, address: int, version: int) -> float:
    """The uniform of one write (Python form)."""
    return (_mix(word_key(stream, address, version)) >> 11) * UNIT


def cell_uniform(key: int, j: int) -> float:
    """Uniform ``j`` of an erring word's cells (Python form)."""
    return (_mix((key + (j + 1) * _CELL) & _MASK) >> 11) * UNIT


def _keys_np(
    stream: int, addresses: "slice | np.ndarray", versions: np.ndarray,
    lo: int, hi: int, out: np.ndarray, scratch: np.ndarray,
) -> np.ndarray:
    """The keys of writes ``lo:hi`` of a block (``addresses`` a slice) or
    a scatter (an index array), in ``out``."""
    if isinstance(addresses, slice):
        np.add(
            _ADDRESS_STEPS[: hi - lo],
            np.uint64((stream + (addresses.start + lo) * _ADDRESS) & _MASK),
            out=out,
        )
    else:
        out[:] = addresses[lo:hi]
        out *= _U_ADDRESS
        out += np.uint64(stream)
    scratch[:] = versions[lo:hi]
    scratch *= _U_VERSION
    out += scratch
    return out


def reaching(
    stream: int, addresses: "slice | np.ndarray", versions: np.ndarray,
    floor_mantissa: int,
) -> "tuple[np.ndarray, np.ndarray]":
    """The writes of a block or scatter whose :func:`mantissa` is at least
    ``floor_mantissa`` (below :data:`MANTISSA_LIMIT`): their positions and
    mantissas (numpy form, hashed :data:`CHUNK` words at a time)."""
    n = versions.size
    # mantissa >= floor  <=>  hash >= floor << 11, for integers.
    threshold = np.uint64(floor_mantissa << 11)
    size = min(n, CHUNK)
    x, scratch = np.empty(size, np.uint64), np.empty(size, np.uint64)
    positions, found = [], []
    for lo in range(0, n, CHUNK):
        hi = min(lo + CHUNK, n)
        keys = _keys_np(
            stream, addresses, versions, lo, hi, x[: hi - lo],
            scratch[: hi - lo],
        )
        hashed = _mix_np(keys, scratch[: hi - lo])
        near = np.flatnonzero(hashed >= threshold)
        if near.size:
            positions.append(near + lo)
            found.append(hashed[near] >> np.uint64(11))
    if not positions:
        return np.empty(0, np.int64), np.empty(0, np.uint64)
    return np.concatenate(positions), np.concatenate(found)


def _uniforms_np(keys: np.ndarray) -> np.ndarray:
    """The uniforms of hashed keys, in place of ``keys`` (numpy form)."""
    _mix_np(keys, np.empty_like(keys))
    keys >>= np.uint64(11)
    return keys.astype(np.float64) * UNIT


class CellLaw:
    """How an erring word's ``32 / bits`` cells err.

    A cell at level ``l`` errs with probability ``q_l = p_err[l]`` and reads
    as the level its target uniform picks from the CDF ``cdf[l]``.  Given
    that the word errs, ``target`` (its uniform minus its no-error
    probability) picks the first erring cell from the exact law
    ``P(first = i) ∝ prod_{j<i}(1 - q_j) · q_i``; a later cell ``i`` errs
    when cell uniform ``i`` is below ``q_i``; erring cell ``i`` reads its
    target from cell uniform ``cells + i``.  :meth:`resolve` and
    :meth:`resolve_np` run the same float steps in the same order.
    """

    def __init__(self, bits: int, p_err, cdf) -> None:
        self.bits = bits
        self.cells = WORD_BITS // bits
        self.top = (1 << bits) - 1
        self._q = [float(q) for q in p_err]
        self._ok = [1.0 - q for q in self._q]
        self._cdf = [[float(c) for c in row] for row in cdf]
        self._q_np = np.array(self._q)
        self._ok_np = np.array(self._ok)
        self._cdf_np = np.array(self._cdf)

    def resolve(
        self, word: int, target: float, stream: int, address: int,
        version: int,
    ) -> int:
        """The stored word of one erring write (Python form)."""
        bits, top, q, cells = self.bits, self.top, self._q, self.cells
        first = cells - 1  # unless rounding leaves ``target`` past the sum
        acc, prefix = 0.0, 1.0
        for i in range(cells):
            level = word >> (bits * i) & top
            acc += prefix * q[level]
            if target < acc:
                first = i
                break
            prefix *= self._ok[level]
        key = word_key(stream, address, version)
        out = word
        for i in range(first, cells):
            shift = bits * i
            level = word >> shift & top
            if i > first and cell_uniform(key, i) >= q[level]:
                continue
            new = bisect_right(self._cdf[level], cell_uniform(key, cells + i))
            out = out & ~(top << shift) | min(new, top) << shift
        return out

    def resolve_np(
        self, words: np.ndarray, target: np.ndarray, stream: int,
        addresses: np.ndarray, versions: np.ndarray,
    ) -> np.ndarray:
        """:meth:`resolve` over erring words, one column per word (and
        ``cumprod``/``cumsum`` accumulate down it in cell order)."""
        cells, top = self.cells, self.top
        shifts = np.arange(cells, dtype=np.uint32) * np.uint32(self.bits)
        levels = (words[None, :] >> shifts[:, None]) & np.uint32(top)
        q = self._q_np[levels]
        prefix = np.ones_like(q)
        np.cumprod(self._ok_np[levels[:-1]], axis=0, out=prefix[1:])
        hit = target[None, :] < np.cumsum(prefix * q, axis=0)
        first = np.where(hit.any(axis=0), hit.argmax(axis=0), cells - 1)
        e = words.size
        keys = _keys_np(
            stream, addresses, versions, 0, e, np.empty(e, np.uint64),
            np.empty(e, np.uint64),
        )
        cell = np.arange(cells)
        later = _uniforms_np(keys[None, :] + _cell_step(cell)[:, None]) < q
        erring = (cell[:, None] == first) | ((cell[:, None] > first) & later)
        cols, rows = np.nonzero(erring)
        target_u = _uniforms_np(keys[rows] + _cell_step(cols + cells))
        new = (target_u[:, None] >= self._cdf_np[levels[cols, rows]]).sum(axis=1)
        levels[cols, rows] = np.minimum(new, top)
        return np.bitwise_or.reduce(levels << shifts[:, None], axis=0)


def _cell_step(j: np.ndarray) -> np.ndarray:
    """``(j + 1) · K_c`` modulo 2**64, cell uniform ``j``'s key offset."""
    return (j.astype(np.uint64) + np.uint64(1)) * _U_CELL


class KeyedWordModel:
    """The keyed sampler every word model shares: a write errs when its
    uniform reaches the word's no-error probability, and the model's
    :class:`CellLaw` (``law``) resolves it.  A model supplies ``law``,
    ``word_no_error_probability``, ``block_no_error_probability`` and its
    floor (:meth:`_set_floor`), below which no word's probability lies.
    """

    def _set_floor(self, floor: float) -> None:
        self._floor = floor
        # u < floor  <=>  mantissa < floor * 2**53 (exact: a power of two).
        self._floor_mantissa = math.ceil(floor * MANTISSA_LIMIT)

    def corrupt_word(
        self, value: int, stream: int, address: int, version: int
    ) -> int:
        """The stored word of the ``version``-th write of ``value`` to
        ``address`` in stream ``stream``: the scalar write's sampler."""
        if self._floor_mantissa >= MANTISSA_LIMIT:
            return value  # no uniform reaches a floor of 1.0
        u = uniform(stream, address, version)
        return self.corrupt_word_given_u(value, u, stream, address, version)

    def corrupt_word_given_u(
        self, value: int, u: float, stream: int, address: int, version: int
    ) -> int:
        """:meth:`corrupt_word` with its keyed uniform ``u`` supplied."""
        if u < self._floor:
            return value
        p_ok = self.word_no_error_probability(value)
        if u < p_ok:
            return value
        return self.law.resolve(value, u - p_ok, stream, address, version)

    def corrupt_block(
        self,
        values: np.ndarray,
        stream: int,
        addresses: "slice | np.ndarray",
        versions: np.ndarray,
        p_ok: "np.ndarray | None" = None,
    ) -> np.ndarray:
        """:meth:`corrupt_word` over a block (``addresses`` a slice) or a
        scatter (an index array); ``values`` itself when no word errs.
        Without ``p_ok`` (the per-word no-error array) the probability is
        evaluated only where the uniform reaches the floor, which changes
        no outcome."""
        vals = np.asarray(values, dtype=np.uint32)
        if vals.size == 0 or self._floor_mantissa >= MANTISSA_LIMIT:
            return vals
        near, m = reaching(stream, addresses, versions, self._floor_mantissa)
        if near.size == 0:
            return vals
        u = m.astype(np.float64) * UNIT
        q = (
            p_ok[near] if p_ok is not None
            else self.block_no_error_probability(vals[near])
        )
        hit = u >= q
        if not hit.any():
            return vals
        err = near[hit]
        if isinstance(addresses, slice):
            err_addresses = err + addresses.start
        else:
            err_addresses = addresses[err]
        out = vals.copy()
        targets = u[hit] - q[hit]
        if err.size > RESOLVE_LIST_MAX_WORDS:
            out[err] = self.law.resolve_np(
                vals[err], targets, stream, err_addresses, versions[err]
            )
            return out
        for i, target, address, version in zip(
            err.tolist(), targets.tolist(), err_addresses.tolist(),
            versions[err].tolist(),
        ):
            out[i] = self.law.resolve(
                int(vals[i]), target, stream, address, version
            )
        return out
