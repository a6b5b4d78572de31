"""Workload generators.

The paper's workload is an array of uniformly distributed 32-bit integer
keys plus a payload array of record IDs (Section 3.2).  Beyond that, this
module provides the input distributions customary in the sorting literature
(sorted, reverse, almost-sorted, Zipf-skewed, few-distinct) used by the
extension studies and the property tests.

Every generator returns a fresh 1-D, C-contiguous ``np.uint32`` array: the
one key type from the generator through the sorters to the result.  All
generators are seeded and deterministic, and each draws the very keys of
CPython's ``random.Random(seed)`` stream (see :func:`uniform_keys`).
"""

from __future__ import annotations

import random
from typing import Callable

import numpy as np

from repro.memory.approx_array import WORD_LIMIT

#: Registry of generator names to factory callables.
GeneratorFn = Callable[[int, int], np.ndarray]

#: Most draw attempts (two 32-bit outputs each) :func:`uniform_keys` makes
#: at once, which bounds its draw buffer to 16 MB whatever ``n`` is.
UNIFORM_CHUNK = 1 << 20

#: Mersenne Twister state words (the last entry of CPython's state tuple is
#: the position in them).
_MT_WORDS = 624


def _cpython_stream(seed) -> np.random.MT19937:
    """A numpy Mersenne Twister standing where ``random.Random(seed)`` does.

    CPython and numpy run the same MT19937, so handing numpy CPython's
    seeded state (624 words plus position) makes ``random_raw`` yield
    exactly the 32-bit outputs ``random.Random(seed)`` would consume, for
    every seed type ``random.Random`` accepts.
    """
    state = random.Random(seed).getstate()[1]
    bitgen = np.random.MT19937(0)
    bitgen.state = {
        "bit_generator": "MT19937",
        "state": {
            "key": np.array(state[:_MT_WORDS], dtype=np.uint32),
            "pos": state[_MT_WORDS],
        },
    }
    return bitgen


def uniform_keys(n: int, seed: int = 0) -> np.ndarray:
    """The paper's workload: n uniformly random 32-bit unsigned keys.

    The keys are those of ``[random.Random(seed).randrange(2**32) for _ in
    range(n)]``, drawn without a per-key Python call.  CPython's
    ``randrange(2**32)`` is ``getrandbits(33)``, rejected while it is
    ``>= 2**32``: two Mersenne Twister outputs per attempt, low word first,
    and the attempt is accepted iff the second output's top bit is clear,
    when the key is the first output.  So the stream is filtered in chunks
    of at most :data:`UNIFORM_CHUNK` attempts.
    """
    keys = np.empty(n, dtype=np.uint32)
    stream = _cpython_stream(seed)
    filled = 0
    while filled < n:
        # About half the attempts are accepted; overdrawing is harmless,
        # since the stream is not used afterwards.
        attempts = min(UNIFORM_CHUNK, 2 * (n - filled) + 64)
        pairs = stream.random_raw(2 * attempts).reshape(attempts, 2)
        accepted = pairs[pairs[:, 1] < (1 << 31), 0]
        take = min(accepted.size, n - filled)
        keys[filled : filled + take] = accepted[:take]
        filled += take
    return keys


def sorted_keys(n: int, seed: int = 0) -> np.ndarray:
    """Already-sorted uniform keys (best case for adaptive refinement)."""
    keys = uniform_keys(n, seed)
    keys.sort()
    return keys


def reverse_sorted_keys(n: int, seed: int = 0) -> np.ndarray:
    """Reverse-sorted uniform keys (worst case for Rem-style measures)."""
    return sorted_keys(n, seed)[::-1].copy()


def almost_sorted_keys(
    n: int, seed: int = 0, swap_fraction: float = 0.01
) -> np.ndarray:
    """Sorted keys with a fraction of random transpositions applied.

    Models the paper's refine-stage input regime: ``swap_fraction * n``
    random pairs are exchanged in an otherwise sorted array.
    """
    if not 0.0 <= swap_fraction <= 1.0:
        raise ValueError(f"swap_fraction must be in [0, 1], got {swap_fraction}")
    rng = random.Random(seed)
    keys = sorted_keys(n, seed)
    for _ in range(int(n * swap_fraction)):
        i = rng.randrange(n)
        j = rng.randrange(n)
        keys[i], keys[j] = keys[j], keys[i]
    return keys


def zipf_keys(
    n: int, seed: int = 0, s: float = 1.2, universe: int = 4096
) -> np.ndarray:
    """Zipf-skewed keys over a bounded universe (database-style skew).

    Rank ``r`` (1-based) is drawn with probability proportional to
    ``r**-s``; each rank maps to one fixed key value, spread across the key
    space so digit histograms are non-trivial for radix sorts and duplicate
    keys occur with true Zipf frequencies.
    """
    if s <= 0:
        raise ValueError(f"zipf exponent must be positive, got {s}")
    rng = random.Random(seed)
    weights = [r ** -s for r in range(1, universe + 1)]
    total = sum(weights)
    cdf = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cdf.append(acc)
    spread = max(1, WORD_LIMIT // universe)
    # One fixed, shuffled key value per rank: frequency skew follows Zipf,
    # value order does not leak the rank order.
    rank_values = [r * spread + spread // 2 for r in range(universe)]
    rng.shuffle(rank_values)

    def draw() -> int:
        u = rng.random()
        lo, hi = 0, universe - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cdf[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        return rank_values[lo]

    return np.array([draw() for _ in range(n)], dtype=np.uint32)


def few_distinct_keys(n: int, seed: int = 0, distinct: int = 16) -> np.ndarray:
    """Keys drawn from a tiny set of values (duplicate-heavy workload)."""
    if distinct < 1:
        raise ValueError(f"distinct must be >= 1, got {distinct}")
    rng = random.Random(seed)
    values = [rng.randrange(WORD_LIMIT) for _ in range(distinct)]
    return np.array(
        [values[rng.randrange(distinct)] for _ in range(n)], dtype=np.uint32
    )


def runs_keys(n: int, seed: int = 0, run_count: int = 8) -> np.ndarray:
    """Concatenation of ``run_count`` sorted runs (natural-mergesort shape).

    The runs are consecutive slices of :func:`uniform_keys`, each
    ``ceil(n / run_count)`` keys long but the last, sorted in place.
    """
    if run_count < 1:
        raise ValueError(f"run_count must be >= 1, got {run_count}")
    keys = uniform_keys(n, seed)
    base = -(-n // run_count)
    for start in range(0, n, base or 1):
        keys[start : start + base].sort()
    return keys


def all_equal_keys(n: int, seed: int = 0) -> np.ndarray:
    """Every key equal to one seed-derived value (degenerate duplicate case).

    The all-equal array is the first edge case the :mod:`repro.verify`
    fuzzer pins: comparison sorts do no useful work, radix sorts still pay
    full passes, and any off-by-one in the refine merge's tie handling
    surfaces immediately.
    """
    return np.full(n, random.Random(seed).randrange(WORD_LIMIT), dtype=np.uint32)


GENERATORS: dict[str, GeneratorFn] = {
    "uniform": uniform_keys,
    "sorted": sorted_keys,
    "reverse": reverse_sorted_keys,
    "almost_sorted": almost_sorted_keys,
    "zipf": zipf_keys,
    "few_distinct": few_distinct_keys,
    "runs": runs_keys,
    "all_equal": all_equal_keys,
}


def make_keys(name: str, n: int, seed: int = 0) -> np.ndarray:
    """Generate ``n`` keys from the named distribution (a ``uint32`` array)."""
    try:
        generator = GENERATORS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; available: {', '.join(sorted(GENERATORS))}"
        ) from None
    return generator(n, seed)
