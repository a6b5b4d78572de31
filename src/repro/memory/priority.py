"""Bit-priority approximate memory: per-cell precision profiles.

The approximate-storage design the paper builds on (Sampson et al.,
quoted in the paper's Section 2 background) lets accesses declare a data
element size so the memory can "prioritize the precision of each number's
sign bit and exponent over its mantissa in decreasing bit order" — i.e.
spend the error-protection budget on the bits whose corruption hurts most.

For sorting integers that idea is directly applicable: an error in a key's
low-order cells rarely reorders it among uniformly spread neighbours, while
a high-order error teleports it across the array.  This module implements a
word model whose sixteen cells each get their *own* target half-width
``T_k`` — typically tight (precise) for the high-order cells and relaxed
for the low-order ones — plus a calibration helper that picks the relaxed
width so the profile costs the same average #P as a given uniform-``T``
configuration.  The ``ext_priority`` experiment then shows the same write
latency buying far less unsortedness.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .approx_array import ApproxArray
from .config import CELLS_PER_WORD, MLCParams, PRECISE_T
from .error_model import (
    DEFAULT_FIT_SAMPLES,
    CellCharacteristics,
    characterize_cells_cached,
    get_model,
)
from .stats import MemoryStats


class PriorityWordErrorModel:
    """Word error model with a per-cell target-width profile.

    Parameters
    ----------
    profile:
        Sixteen ``T`` values, ``profile[k]`` for cell ``k`` (cell 0 holds
        the least significant bit pair).
    base:
        Cell parameters shared by every cell apart from ``T``.
    """

    def __init__(
        self,
        profile: Sequence[float],
        base: Optional[MLCParams] = None,
        samples_per_level: int = DEFAULT_FIT_SAMPLES,
        seed: int = 0,
    ) -> None:
        if len(profile) != CELLS_PER_WORD:
            raise ValueError(
                f"profile needs {CELLS_PER_WORD} T values, got {len(profile)}"
            )
        self.base = base if base is not None else MLCParams()
        self.profile = tuple(float(t) for t in profile)

        # Characterize each distinct T once; cells share fits (and the
        # persistent disk cache shares them across processes).
        by_t: dict[float, CellCharacteristics] = {}
        for t in set(self.profile):
            by_t[t] = characterize_cells_cached(
                self.base.with_t(t), samples_per_level, seed
            )
        self._cells = [by_t[t] for t in self.profile]

        self._p_err = np.stack(
            [cell.error_rate_by_level for cell in self._cells]
        )  # (16, 4)
        self._mean_iters = np.stack(
            [cell.mean_iterations for cell in self._cells]
        )
        cond_cdfs = []
        for cell in self._cells:
            cond = cell.transition.copy()
            np.fill_diagonal(cond, 0.0)
            row_sums = cond.sum(axis=1, keepdims=True)
            safe = np.where(row_sums > 0, row_sums, 1.0)
            cond_cdfs.append(np.cumsum(cond / safe, axis=1))
        self._cond_cdf = np.stack(cond_cdfs)  # (16, 4, 4)

        # Position-dependent per-byte tables: byte position b covers cells
        # 4b .. 4b+3.
        self._byte_p_ok = np.empty((4, 256), dtype=np.float64)
        self._byte_iters = np.empty((4, 256), dtype=np.float64)
        for position in range(4):
            for b in range(256):
                p_ok = 1.0
                iters = 0.0
                for k in range(4):
                    cell = 4 * position + k
                    level = (b >> (2 * k)) & 3
                    p_ok *= 1.0 - self._p_err[cell, level]
                    iters += self._mean_iters[cell, level]
                self._byte_p_ok[position, b] = p_ok
                self._byte_iters[position, b] = iters
        self._byte_p_ok_list = self._byte_p_ok.tolist()
        self._byte_iters_list = self._byte_iters.tolist()
        self._p_err_list = self._p_err.tolist()
        self._cond_cdf_list = [
            [row.tolist() for row in cell] for cell in self._cond_cdf
        ]

    # ------------------------------------------------------------------ #
    # Aggregate statistics
    # ------------------------------------------------------------------ #

    @property
    def avg_word_iterations(self) -> float:
        """Expected per-cell #P over random levels, averaged over cells."""
        return float(self._mean_iters.mean())

    @property
    def word_error_rate(self) -> float:
        """Probability at least one cell of a random word is misread."""
        p_ok_per_cell = 1.0 - self._p_err.mean(axis=1)
        return float(1.0 - np.prod(p_ok_per_cell))

    @property
    def cell_error_rate(self) -> float:
        """Average per-cell error probability over cells and levels."""
        return float(self._p_err.mean())

    def p_ratio(self, precise_iterations: float) -> float:
        """Average #P relative to a precise configuration's."""
        return self.avg_word_iterations / precise_iterations

    # ------------------------------------------------------------------ #
    # Scalar hot path (same protocol as WordErrorModel)
    # ------------------------------------------------------------------ #

    def word_no_error_probability(self, value: int) -> float:
        t = self._byte_p_ok_list
        return (
            t[0][value & 0xFF]
            * t[1][(value >> 8) & 0xFF]
            * t[2][(value >> 16) & 0xFF]
            * t[3][(value >> 24) & 0xFF]
        )

    def word_write_cost(self, value: int) -> float:
        t = self._byte_iters_list
        total = (
            t[0][value & 0xFF]
            + t[1][(value >> 8) & 0xFF]
            + t[2][(value >> 16) & 0xFF]
            + t[3][(value >> 24) & 0xFF]
        )
        return total / CELLS_PER_WORD

    def corrupt_word(self, value: int, rng) -> int:
        return self.corrupt_word_given_u(value, rng.random(), rng)

    def corrupt_word_given_u(self, value: int, u: float, rng) -> int:
        """:meth:`corrupt_word` with the fast-path uniform supplied (see the
        batched scalar-write path of ``ApproxArray``)."""
        p_ok = self.word_no_error_probability(value)
        if u < p_ok:
            return value
        return self._corrupt_word_slow(value, u - p_ok, rng)

    def _corrupt_word_slow(self, value: int, shifted_u: float, rng) -> int:
        p_err = self._p_err_list
        levels = [(value >> (2 * k)) & 3 for k in range(CELLS_PER_WORD)]
        qs = [p_err[k][levels[k]] for k in range(CELLS_PER_WORD)]

        target = shifted_u  # uniform on [0, p_any)
        acc = 0.0
        prefix_ok = 1.0
        first = CELLS_PER_WORD - 1
        for i, q in enumerate(qs):
            acc += prefix_ok * q
            if target < acc:
                first = i
                break
            prefix_ok *= 1.0 - q

        out = value
        for i in range(first, CELLS_PER_WORD):
            erred = True if i == first else rng.random() < qs[i]
            if erred:
                cdf = self._cond_cdf_list[i][levels[i]]
                u = rng.random()
                new_level = 3
                for j, c in enumerate(cdf):
                    if u < c:
                        new_level = j
                        break
                out = (out & ~(0b11 << (2 * i))) | (new_level << (2 * i))
        return out

    # ------------------------------------------------------------------ #
    # Vectorized block path
    # ------------------------------------------------------------------ #

    #: Same sparse/dense switch-over point as ``WordErrorModel``.
    _DENSE_ERROR_CUTOFF = 0.04

    def block_no_error_probability(self, values: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`word_no_error_probability` (position tables)."""
        vals = np.asarray(values, dtype=np.uint32)
        t = self._byte_p_ok
        return (
            t[0][vals & np.uint32(0xFF)]
            * t[1][(vals >> np.uint32(8)) & np.uint32(0xFF)]
            * t[2][(vals >> np.uint32(16)) & np.uint32(0xFF)]
            * t[3][(vals >> np.uint32(24)) & np.uint32(0xFF)]
        )

    def block_cost_and_no_error(
        self, values: np.ndarray
    ) -> "tuple[float, np.ndarray]":
        """The block's summed write cost and its per-word no-error array.

        The contract of ``WordErrorModel.block_cost_and_no_error``; this
        model has no no-error floor, so the array is always returned.
        """
        return (
            float(self.block_write_cost(values).sum()),
            self.block_no_error_probability(values),
        )

    def corrupt_block(
        self,
        values: np.ndarray,
        rng: np.random.Generator,
        p_ok: "np.ndarray | None" = None,
    ) -> np.ndarray:
        vals = np.asarray(values, dtype=np.uint32)
        if vals.size == 0:
            return vals.copy()
        if p_ok is None:
            p_ok = self.block_no_error_probability(vals)
        expected_errors = vals.size - float(p_ok.sum())
        if expected_errors > vals.size * self._DENSE_ERROR_CUTOFF:
            return self._corrupt_block_dense(vals, rng)
        out = vals.copy()
        u = rng.random(vals.shape)
        err_idx = np.nonzero(u >= p_ok)[0]
        for i in err_idx:
            i = int(i)
            out[i] = self._corrupt_word_slow(
                int(vals[i]), float(u[i]) - float(p_ok[i]), rng
            )
        return out

    def _corrupt_block_dense(
        self, vals: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        out = vals.copy()
        for k in range(CELLS_PER_WORD):
            levels = ((vals >> np.uint32(2 * k)) & np.uint32(3)).astype(np.int64)
            q = self._p_err[k][levels]
            err_mask = rng.random(vals.shape) < q
            if not err_mask.any():
                continue
            err_levels = levels[err_mask]
            u = rng.random(err_levels.shape)
            cdf = self._cond_cdf[k][err_levels]
            new_levels = (u[:, None] >= cdf).sum(axis=1).astype(np.uint32)
            new_levels = np.minimum(new_levels, np.uint32(3))
            cleared = out[err_mask] & ~np.uint32(0b11 << (2 * k))
            out[err_mask] = cleared | (new_levels << np.uint32(2 * k))
        return out

    def block_write_cost(self, values: np.ndarray) -> np.ndarray:
        vals = np.asarray(values, dtype=np.uint32)
        total = np.zeros(vals.shape, dtype=np.float64)
        for position, shift in enumerate((0, 8, 16, 24)):
            bytes_ = ((vals >> np.uint32(shift)) & np.uint32(0xFF)).astype(np.int64)
            total += self._byte_iters[position][bytes_]
        return total / CELLS_PER_WORD


def solve_relaxed_t(
    target_avg_iterations: float,
    base: Optional[MLCParams] = None,
    samples_per_level: int = 20_000,
    seed: int = 0,
    lo: float = PRECISE_T,
    hi: float = 0.124,
    iterations: int = 18,
) -> float:
    """Find ``T`` whose average #P equals ``target_avg_iterations``.

    Average #P is monotonically decreasing in ``T``; plain bisection.
    Used by the calibration below to relax low-order cells just enough to
    pay back the cost of protecting the high-order ones.
    """
    base = base if base is not None else MLCParams()

    def avg_iters(t: float) -> float:
        return characterize_cells_cached(
            base.with_t(t), samples_per_level, seed
        ).avg_iterations

    for _ in range(iterations):
        mid = (lo + hi) / 2
        if avg_iters(mid) > target_avg_iterations:
            lo = mid  # still too slow: relax further
        else:
            hi = mid
    return (lo + hi) / 2


def equal_cost_priority_profile(
    uniform_t: float,
    protected_cells: int = 4,
    protect_t: float = PRECISE_T,
    base: Optional[MLCParams] = None,
    samples_per_level: int = 20_000,
    seed: int = 0,
) -> list[float]:
    """A per-cell profile matching the avg #P of a uniform-``T`` memory.

    The ``protected_cells`` most significant cells run at ``protect_t``
    (near precise); the remaining cells are relaxed to the single ``T``
    that restores the uniform configuration's average write cost.
    """
    if not 0 <= protected_cells <= CELLS_PER_WORD:
        raise ValueError(
            f"protected_cells must be in [0, {CELLS_PER_WORD}],"
            f" got {protected_cells}"
        )
    base = base if base is not None else MLCParams()
    uniform_iters = characterize_cells_cached(
        base.with_t(uniform_t), samples_per_level, seed
    ).avg_iterations
    if protected_cells == 0:
        return [uniform_t] * CELLS_PER_WORD

    protect_iters = characterize_cells_cached(
        base.with_t(protect_t), samples_per_level, seed
    ).avg_iterations
    relaxed_cells = CELLS_PER_WORD - protected_cells
    if relaxed_cells == 0:
        return [protect_t] * CELLS_PER_WORD
    # uniform_iters * 16 = protect_iters * protected + relaxed * remaining
    target = (
        uniform_iters * CELLS_PER_WORD - protect_iters * protected_cells
    ) / relaxed_cells
    relaxed_t = solve_relaxed_t(
        target, base, samples_per_level, seed, lo=uniform_t
    )
    return [relaxed_t] * relaxed_cells + [protect_t] * protected_cells


class PriorityPCMMemoryFactory:
    """Memory factory for a bit-priority MLC-PCM configuration."""

    def __init__(
        self,
        profile: Sequence[float],
        base: Optional[MLCParams] = None,
        fit_samples: int = DEFAULT_FIT_SAMPLES,
        fit_seed: int = 0,
    ) -> None:
        self.base = base if base is not None else MLCParams()
        self.model = PriorityWordErrorModel(
            profile, self.base, fit_samples, fit_seed
        )
        precise = get_model(self.base.with_t(PRECISE_T), fit_samples, fit_seed)
        self.precise_iterations = precise.avg_word_iterations

    @property
    def p_ratio(self) -> float:
        return self.model.p_ratio(self.precise_iterations)

    @property
    def description(self) -> str:
        distinct = sorted(set(self.model.profile))
        return (
            f"MLC PCM priority profile T={distinct}"
            f" (p={self.p_ratio:.3f})"
        )

    def make_array(
        self,
        data,
        stats: "MemoryStats | None" = None,
        seed: int = 0,
    ) -> ApproxArray:
        if stats is None:
            stats = MemoryStats()
        return ApproxArray(
            data,
            model=self.model,
            precise_iterations=self.precise_iterations,
            stats=stats,
            seed=seed,
            name="approx-pcm-priority",
        )
