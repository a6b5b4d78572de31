"""Compiled per-``T`` error model for fast word-level memory simulation.

Running the analog P&V loop for every memory access of a sorting algorithm
would make large experiments intractable.  Instead, for a given cell
configuration we run the analog model once in a Monte-Carlo characterization
pass and *compile* it into:

* a per-level write-error probability and conditional error-target
  distribution (the 4x4 level-transition matrix),
* the expected number of P&V iterations per level (write-latency model),
* 256-entry per-byte lookup tables so that corrupting or costing a 32-bit
  word needs only four table lookups in the common case.

The compiled model is exact in distribution with respect to the analog model
it was fitted from (up to Monte-Carlo estimation error on the transition
probabilities) and is the engine behind :class:`repro.memory.approx_array.ApproxArray`.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from bisect import bisect_right
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .config import CELLS_PER_WORD, MLCParams, PRECISE_T
from .mlc import pv_write, drift_read

#: Number of Monte-Carlo writes per level used to fit the compiled model.
DEFAULT_FIT_SAMPLES = 100_000

#: Largest dense block, in words, that :meth:`WordErrorModel.corrupt_block`
#: corrupts by walking a peeked window of the stream in Python; larger
#: blocks take the vectorised walk.  Measured, not tuned per run (DESIGN.md
#: section 7).
DENSE_WALK_MAX_WORDS = 64

#: Largest block, in words, that ``ApproxArray.write_block`` takes as a
#: Python list down :meth:`WordErrorModel.corrupt_list`, the list lane of a
#: block write; larger lists take the block path.  Measured as the walk's
#: cutoff (DESIGN.md section 7).
LIST_LANE_MAX_WORDS = 16

#: Uniforms a :class:`UniformStream` draws per refill.  A request of this
#: many or more bypasses the buffer.  It must exceed the largest walk's
#: window, ``2 * 16 * DENSE_WALK_MAX_WORDS``.
STREAM_CHUNK = 4096

#: Number of Monte-Carlo fits executed by this process (cache-miss counter;
#: tests assert warm-cache paths leave it untouched).
FIT_CALLS = 0

#: Environment variable overriding the on-disk characterization cache
#: location.  Set it to ``off``/``none``/``0``/empty to disable the disk
#: layer entirely.
CACHE_DIR_ENV = "REPRO_MODEL_CACHE_DIR"

#: Version tag of the on-disk cache format; bump to invalidate old entries.
CACHE_VERSION = 1


@dataclass(frozen=True)
class CellCharacteristics:
    """Raw per-level statistics measured from the analog model.

    Attributes
    ----------
    transition:
        ``transition[i, j]`` is the probability that a cell written to level
        ``i`` is later read as level ``j``.
    mean_iterations:
        ``mean_iterations[i]`` is the expected number of P&V iterations when
        programming level ``i``.
    """

    transition: np.ndarray
    mean_iterations: np.ndarray

    @property
    def error_rate_by_level(self) -> np.ndarray:
        """Probability that a write of level ``i`` is misread as any other."""
        return 1.0 - np.diag(self.transition)

    @property
    def avg_error_rate(self) -> float:
        """Cell error probability for a uniformly random level."""
        return float(np.mean(self.error_rate_by_level))

    @property
    def avg_iterations(self) -> float:
        """Average #P for a uniformly random level."""
        return float(np.mean(self.mean_iterations))


def characterize_cells(
    params: MLCParams,
    samples_per_level: int = DEFAULT_FIT_SAMPLES,
    seed: int = 0,
) -> CellCharacteristics:
    """Monte-Carlo fit of the level-transition matrix and #P per level."""
    global FIT_CALLS
    FIT_CALLS += 1
    n = params.levels
    rng = np.random.default_rng(seed)
    transition = np.zeros((n, n), dtype=np.float64)
    mean_iters = np.zeros(n, dtype=np.float64)
    for level in range(n):
        targets = np.full(samples_per_level, level, dtype=np.int64)
        analog, iters = pv_write(targets, params, rng)
        observed = drift_read(analog, params, rng)
        counts = np.bincount(observed, minlength=n)
        transition[level] = counts / samples_per_level
        mean_iters[level] = iters.mean()
    return CellCharacteristics(transition=transition, mean_iterations=mean_iters)


# --------------------------------------------------------------------------- #
# Persistent characterization cache
#
# A Monte-Carlo fit is hundreds of thousands of analog writes; its output is
# twenty floats.  The disk layer persists those floats as a tiny ``.npz`` per
# configuration under ``~/.cache/repro-approx-sort/`` (override with
# ``REPRO_MODEL_CACHE_DIR``), so ``T``-sweeps and cross-process experiment
# runs pay for each fit once per machine rather than once per process.  The
# directory is safe to delete at any time; entries are re-fitted on demand.
# --------------------------------------------------------------------------- #


def model_cache_dir() -> "Path | None":
    """Resolve the disk-cache directory, or ``None`` when disabled."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override is not None:
        if override.strip().lower() in ("", "0", "off", "none"):
            return None
        return Path(override)
    return Path.home() / ".cache" / "repro-approx-sort"


def _cache_path(
    params: MLCParams, samples_per_level: int, seed: int
) -> "Path | None":
    """Cache file for one fit key, hashed over the full parameter set."""
    directory = model_cache_dir()
    if directory is None:
        return None
    payload = json.dumps(
        {
            "version": CACHE_VERSION,
            "params": asdict(params),
            "samples_per_level": samples_per_level,
            "seed": seed,
        },
        sort_keys=True,
    )
    digest = hashlib.sha256(payload.encode()).hexdigest()[:24]
    return directory / f"cells-v{CACHE_VERSION}-{digest}.npz"


def _load_characteristics(path: Path, levels: int) -> "CellCharacteristics | None":
    """Read one cached fit; ``None`` on any missing/corrupt/mismatched file."""
    try:
        with np.load(path) as data:
            transition = np.asarray(data["transition"], dtype=np.float64)
            mean_iterations = np.asarray(data["mean_iterations"], dtype=np.float64)
    except (OSError, KeyError, ValueError):
        return None
    if transition.shape != (levels, levels) or mean_iterations.shape != (levels,):
        return None
    return CellCharacteristics(
        transition=transition, mean_iterations=mean_iterations
    )


def _store_characteristics(path: Path, characteristics: CellCharacteristics) -> None:
    """Atomically persist one fit (best-effort: cache failures never raise)."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=path.stem, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                np.savez(
                    handle,
                    transition=characteristics.transition,
                    mean_iterations=characteristics.mean_iterations,
                )
            os.replace(tmp_name, path)
        except BaseException:
            os.unlink(tmp_name)
            raise
    except OSError:
        pass


def characterize_cells_cached(
    params: MLCParams,
    samples_per_level: int = DEFAULT_FIT_SAMPLES,
    seed: int = 0,
) -> CellCharacteristics:
    """Disk-cached :func:`characterize_cells`."""
    path = _cache_path(params, samples_per_level, seed)
    if path is not None:
        cached = _load_characteristics(path, params.levels)
        if cached is not None:
            return cached
    characteristics = characterize_cells(params, samples_per_level, seed)
    if path is not None:
        _store_characteristics(path, characteristics)
    return characteristics


def clear_disk_cache() -> int:
    """Delete every cached fit of the current :data:`CACHE_VERSION`.

    Returns the number of entries removed; a disabled or absent cache
    directory counts as empty.
    """
    directory = model_cache_dir()
    if directory is None or not directory.is_dir():
        return 0
    removed = 0
    for path in directory.glob(f"cells-v{CACHE_VERSION}-*.npz"):
        try:
            path.unlink()
            removed += 1
        except OSError:
            pass
    return removed


def pairwise_sum(terms: "list[float]") -> float:
    """``float(np.asarray(terms).sum())`` for at most 128 terms, bit for bit.

    numpy sums a contiguous float64 array pairwise: sequentially below 8
    terms, and in 8 interleaved accumulators, combined as
    ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))``, plus a
    sequential tail, up to 128 (larger arrays split in halves).  The list
    lanes add their per-word costs and no-error probabilities in this order
    so they match the block path's sums.
    """
    n = len(terms)
    if n < 8:
        total = 0.0
        for term in terms:
            total += term
        return total
    r0, r1, r2, r3, r4, r5, r6, r7 = terms[:8]
    full = n - n % 8
    for i in range(8, full, 8):
        r0 += terms[i]
        r1 += terms[i + 1]
        r2 += terms[i + 2]
        r3 += terms[i + 3]
        r4 += terms[i + 4]
        r5 += terms[i + 5]
        r6 += terms[i + 6]
        r7 += terms[i + 7]
    total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    for i in range(full, n):
        total += terms[i]
    return total


class UniformStream:
    """A generator's float64 uniforms, read through a buffer.

    Every block sampler of an :class:`~repro.memory.approx_array.ApproxArray`
    reads its array's one stream in order, so the uniform a sampler gets is
    the generator's next draw whatever the buffering: a float64 ``random``
    is one 64-bit step per value, and ``random(k)`` returns the next ``k``
    values of the same sequence.  :meth:`random` has the generator's
    signature, so the samplers take a stream or a bare generator alike.

    Small requests are served from a buffer refilled :data:`STREAM_CHUNK`
    uniforms at a time; a request of a chunk or more takes the buffered
    rest and draws the remainder straight into its result.  :meth:`peek`
    lets a walk look ahead without consuming; :meth:`skip` then consumes
    what it used.
    """

    __slots__ = ("_rng", "_buf", "_pos", "_drawn")

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._buf = np.empty(0)
        self._pos = 0
        self._drawn = 0

    @property
    def position(self) -> int:
        """Uniforms consumed so far: the stream's logical position."""
        return self._drawn - (self._buf.size - self._pos)

    def random(self, size=None):
        """The next uniform (``size=None``) or array of them, as
        :meth:`numpy.random.Generator.random` returns them."""
        if size is None:
            pos = self._pos
            if pos >= self._buf.size:
                self._refill()
                pos = 0
            self._pos = pos + 1
            return self._buf.item(pos)
        if isinstance(size, tuple):
            return self.take(math.prod(size)).reshape(size)
        return self.take(size)

    def take(self, count: int) -> np.ndarray:
        """The next ``count`` uniforms.  Read-only: may view the buffer."""
        pos = self._pos
        end = pos + count
        if end <= self._buf.size:
            self._pos = end
            return self._buf[pos:end]
        if count < STREAM_CHUNK:
            self._refill()
            self._pos = count
            return self._buf[:count]
        rest = self._buf[pos:]
        self._buf, self._pos = self._buf[:0], 0
        self._drawn += count - rest.size
        if rest.size == 0:
            return self._rng.random(count)
        out = np.empty(count)
        out[: rest.size] = rest
        self._rng.random(count - rest.size, out=out[rest.size :])
        return out

    def peek(self, count: int) -> "tuple[np.ndarray, int]":
        """``(buffer, start)`` with the next ``count`` uniforms at
        ``buffer[start:start + count]``, consuming none of them.  ``count``
        must be below :data:`STREAM_CHUNK`."""
        if self._pos + count > self._buf.size:
            self._refill()
        return self._buf, self._pos

    def skip(self, count: int) -> None:
        """Consume ``count`` uniforms a :meth:`peek` showed."""
        self._pos += count

    def _refill(self) -> None:
        """Keep the unread rest and draw one chunk behind it."""
        rest = self._buf[self._pos :]
        buf = np.empty(rest.size + STREAM_CHUNK)
        buf[: rest.size] = rest
        self._rng.random(STREAM_CHUNK, out=buf[rest.size :])
        self._drawn += STREAM_CHUNK
        self._buf, self._pos = buf, 0


class WordErrorModel:
    """Fast sampler of write corruption and write cost for 32-bit words.

    A word is sixteen concatenated 2-bit cells (paper Section 3.2); cell
    ``k`` stores bits ``2k`` and ``2k + 1`` of the integer, and those two
    bits are its level (the paper's binary mapping).  Errors are
    sampled cell-independently from the fitted transition matrix; the cost of
    a word write is the *average* #P over its sixteen cells, matching the
    paper's ``p(t)`` accounting (Section 2.2).

    Parameters
    ----------
    params:
        The cell configuration this model compiles.
    samples_per_level:
        Monte-Carlo sample count for the fit.
    seed:
        Seed of the fit (independent from run-time sampling randomness).
    """

    def __init__(
        self,
        params: MLCParams,
        samples_per_level: int = DEFAULT_FIT_SAMPLES,
        seed: int = 0,
        characteristics: "CellCharacteristics | None" = None,
    ) -> None:
        n = params.levels
        if n != 4:
            raise ValueError(
                "WordErrorModel compiles 2-bit (4-level) cells; "
                f"got {n} levels"
            )
        self.params = params
        # ``characteristics`` lets the cache layer inject a previously fitted
        # (possibly disk-loaded) measurement instead of re-running the
        # Monte-Carlo pass; compiling the lookup tables below is cheap.
        self.characteristics = (
            characteristics
            if characteristics is not None
            else characterize_cells(params, samples_per_level, seed)
        )

        trans = self.characteristics.transition
        self._p_err = self.characteristics.error_rate_by_level.copy()
        # Conditional CDF over target levels given an error, one row per level.
        cond = trans.copy()
        np.fill_diagonal(cond, 0.0)
        row_sums = cond.sum(axis=1, keepdims=True)
        safe = np.where(row_sums > 0, row_sums, 1.0)
        self._cond_cdf = np.cumsum(cond / safe, axis=1)
        self._mean_iters = self.characteristics.mean_iterations.copy()

        # Per-byte tables: a byte holds four 2-bit cells.
        byte_levels = (
            np.arange(256)[:, None] >> (2 * np.arange(4))[None, :]
        ) & 3
        p_ok = 1.0 - self._p_err
        self._byte_p_ok = np.prod(p_ok[byte_levels], axis=1)
        self._byte_iters = np.sum(self._mean_iters[byte_levels], axis=1)
        # Plain-Python copies for the scalar hot path (avoids numpy scalar
        # boxing overhead on every element access).
        self._byte_p_ok_list = self._byte_p_ok.tolist()
        self._byte_iters_list = self._byte_iters.tolist()
        self._p_err_list = self._p_err.tolist()
        self._cond_cdf_list = [row.tolist() for row in self._cond_cdf]
        self._max_p_err = max(self._p_err_list)
        # Per-halfword (16-bit) tables halve the lookup count of the block
        # paths; 2 x 64 KiB entries of float64 is well worth the two table
        # reads saved per word.
        half = np.arange(65536)
        self._half_p_ok = self._byte_p_ok[half & 0xFF] * self._byte_p_ok[half >> 8]
        self._half_iters = self._byte_iters[half & 0xFF] + self._byte_iters[half >> 8]
        # The no-error floor: IEEE multiplication is monotone, so no word's
        # ``_half_p_ok[lo] * _half_p_ok[hi]`` is below the smallest entry
        # squared, and a uniform below the floor never errs.  When every
        # word's error probability is inside the dense cutoff (by far more
        # than the rounding of a block's summed probabilities), no block can
        # take the dense path, and the block sampler needs the exact
        # per-word probability only for the uniforms at or above the floor.
        low = float(self._half_p_ok.min())
        self._no_error_floor = low * low
        self._floor_sparse = (
            1.0 - self._no_error_floor < self._DENSE_ERROR_CUTOFF - 1e-9
        )
        # The scalar path multiplies a word's four byte probabilities in
        # order, ``((t0 * t1) * t2) * t3``; by the same monotonicity no
        # word's product is below the smallest byte's taken that way.
        b = min(self._byte_p_ok_list)
        self._scalar_no_error_floor = ((b * b) * b) * b

    # ------------------------------------------------------------------ #
    # Aggregate statistics
    # ------------------------------------------------------------------ #

    @property
    def cell_error_rate(self) -> float:
        """Per-cell error probability for a uniformly random level."""
        return self.characteristics.avg_error_rate

    @property
    def word_error_rate(self) -> float:
        """Probability that at least one cell of a random word is misread."""
        p_ok = 1.0 - self._p_err
        return float(1.0 - np.mean(p_ok) ** CELLS_PER_WORD)

    @property
    def avg_word_iterations(self) -> float:
        """Expected per-cell #P of a random word write (= avg cell #P)."""
        return self.characteristics.avg_iterations

    def p_ratio(self, precise_model: "WordErrorModel" | None = None) -> float:
        """The paper's ``p(t)``: avg #P at this T over avg #P at T=0.025.

        The paper approximates the denominator by 3; we use the measured
        value of the precise configuration when one is supplied and fall back
        to the paper's constant otherwise.
        """
        if precise_model is not None:
            return self.avg_word_iterations / precise_model.avg_word_iterations
        return self.avg_word_iterations / 3.0

    # ------------------------------------------------------------------ #
    # Scalar hot path
    # ------------------------------------------------------------------ #

    def word_no_error_probability(self, value: int) -> float:
        """Probability that writing ``value`` stores it without corruption."""
        t = self._byte_p_ok_list
        return (
            t[value & 0xFF]
            * t[(value >> 8) & 0xFF]
            * t[(value >> 16) & 0xFF]
            * t[(value >> 24) & 0xFF]
        )

    def word_write_cost(self, value: int) -> float:
        """Expected #P (averaged over the word's cells) of writing ``value``."""
        t = self._byte_iters_list
        total = (
            t[value & 0xFF]
            + t[(value >> 8) & 0xFF]
            + t[(value >> 16) & 0xFF]
            + t[(value >> 24) & 0xFF]
        )
        return total / CELLS_PER_WORD

    def corrupt_word(self, value: int, rng: np.random.Generator) -> int:
        """Sample the digital value observed after writing ``value``.

        The common (no-error) case costs one uniform draw and four table
        lookups; the rare error case samples each cell exactly, conditioned
        on at least one error having occurred (first-error-index method, so
        the conditional distribution is exact rather than rejection-based).
        """
        return self.corrupt_word_given_u(value, rng.random(), rng)

    def corrupt_word_given_u(
        self, value: int, u: float, rng: np.random.Generator
    ) -> int:
        """:meth:`corrupt_word` with the fast-path uniform ``u`` supplied.

        Lets callers draw their fast-path variates in amortized batches (see
        :class:`~repro.memory.approx_array.ApproxArray`); ``rng`` only feeds
        the rare slow path.  A ``u`` below the scalar no-error floor keeps
        the word without its probability, which no word's can be below.
        """
        if u < self._scalar_no_error_floor:
            return value
        p_ok = self.word_no_error_probability(value)
        if u < p_ok:
            return value
        return self._corrupt_word_slow(value, (u - p_ok) / (1.0 - p_ok), rng)

    def _corrupt_word_slow(
        self, value: int, u_first: float, rng: np.random.Generator
    ) -> int:
        """Exact per-cell sampling given that at least one cell erred.

        ``u_first`` is a uniform variate (recycled from the fast-path draw)
        used to pick the index of the first erring cell from its exact
        conditional distribution; later cells err independently as usual.
        """
        p_err = self._p_err_list
        levels = [(value >> (2 * k)) & 3 for k in range(CELLS_PER_WORD)]
        qs = [p_err[lv] for lv in levels]

        # P(first error at cell i | >= 1 error) ~ prod_{j<i}(1-q_j) * q_i
        p_any = 1.0 - self.word_no_error_probability(value)
        target = u_first * p_any
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
            if i == first:
                erred = True
            else:
                erred = rng.random() < qs[i]
            if erred:
                new_level = self._sample_error_target(levels[i], rng)
                out = (out & ~(0b11 << (2 * i))) | (new_level << (2 * i))
        return out

    def _sample_error_target(self, level: int, rng: np.random.Generator) -> int:
        """Sample the misread level, given a cell at ``level`` erred."""
        cdf = self._cond_cdf_list[level]
        u = rng.random()
        for j, c in enumerate(cdf):
            if u < c:
                return j
        return self.params.levels - 1

    # ------------------------------------------------------------------ #
    # Vectorized block path
    # ------------------------------------------------------------------ #

    #: Fraction of erring words above which the per-cell dense path beats
    #: per-word scalar resampling.
    _DENSE_ERROR_CUTOFF = 0.04

    def block_no_error_probability(self, values: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`word_no_error_probability`."""
        vals = np.asarray(values, dtype=np.uint32)
        t = self._half_p_ok
        return t[vals & np.uint32(0xFFFF)] * t[vals >> np.uint32(16)]

    def block_cost_and_no_error(
        self, values: np.ndarray
    ) -> "tuple[float, np.ndarray | None]":
        """The block's summed write cost, and its per-word no-error array
        when the sampler needs it.

        The cost is the sum over words of :meth:`word_write_cost`, taken as
        one sum of halfword-table totals divided once by the cell count:
        division by 16 is exact, so this equals the sum of the per-word
        costs bit for bit.  The no-error array
        (:meth:`block_no_error_probability`) is returned only when the
        model's floor cannot prove every block sparse (``T`` >= 0.075 at
        the default fit); otherwise it is ``None`` and :meth:`corrupt_block`
        evaluates the probability only for the words whose uniform reaches
        the floor.
        """
        # One gather by the words' uint16 halves, which index the halfword
        # tables directly: on x86-64 it runs at twice the speed of two
        # gathers by masked uint32 halves.  Which half comes first depends
        # on byte order, and neither the sum nor the product cares.
        halves = np.ascontiguousarray(values, dtype=np.uint32).view(np.uint16)
        iters = self._half_iters[halves]
        cost = float((iters[0::2] + iters[1::2]).sum()) / CELLS_PER_WORD
        if self._floor_sparse:
            return cost, None
        p_ok = self._half_p_ok[halves]
        return cost, p_ok[0::2] * p_ok[1::2]

    def corrupt_block(
        self,
        values: np.ndarray,
        rng: "np.random.Generator | UniformStream",
        p_ok: "np.ndarray | None" = None,
    ) -> np.ndarray:
        """Vectorized :meth:`corrupt_word` over an array of 32-bit values.

        ``rng`` is a :class:`UniformStream` (an array's block stream) or a
        bare generator; both yield the same uniforms in the same order.
        ``p_ok`` lets the caller pass the per-word no-error probabilities
        that :meth:`block_cost_and_no_error` returned.  ``None`` means
        "evaluate what is needed": nothing up front when the model's floor
        proves the block sparse, the whole block otherwise.

        Two regimes, both exact in distribution:

        * **sparse** (the common case) — one uniform per word decides
          no-error; only the few erring words take the exact per-cell slow
          path.  Under a floor-sparse model the exact per-word probability
          is evaluated only where the uniform is at or above the
          no-error floor (about 0.1% of words at ``T`` = 0.055); below the
          floor no word can err, so the erring words, their probabilities
          and the draws are those of the full comparison.
        * **dense** — when the expected error fraction exceeds
          :data:`_DENSE_ERROR_CUTOFF`, sample every cell
          (:meth:`_corrupt_block_dense`).

        :meth:`corrupt_list` is this method's list lane for small blocks:
        same draws, same stored words.
        """
        vals = np.asarray(values, dtype=np.uint32)
        if vals.size == 0:
            return vals.copy()
        if p_ok is None and not self._floor_sparse:
            p_ok = self.block_no_error_probability(vals)
        if p_ok is not None:
            expected_errors = vals.size - float(p_ok.sum())
            if expected_errors > vals.size * self._DENSE_ERROR_CUTOFF:
                return self._corrupt_block_dense(vals, rng)
        out = vals.copy()
        u = rng.random(vals.size)
        if p_ok is None:
            near = np.flatnonzero(u >= self._no_error_floor)
            if near.size == 0:
                return out
            near_p_ok = self.block_no_error_probability(vals[near])
            erring = u[near] >= near_p_ok
            err_idx, err_p_ok = near[erring], near_p_ok[erring]
        else:
            err_idx = np.flatnonzero(u >= p_ok)
            err_p_ok = p_ok[err_idx]
        if err_idx.size == 0:
            return out
        u_resid = (u[err_idx] - err_p_ok) / (1.0 - err_p_ok)
        if err_idx.size <= 4:
            # Batch overhead beats the scalar loop only past a few words.
            for i, u_first in zip(err_idx.tolist(), u_resid.tolist()):
                out[i] = self._corrupt_word_slow(int(vals[i]), u_first, rng)
            return out
        out[err_idx] = self._corrupt_words_batch(vals[err_idx], u_resid, rng)
        return out

    def corrupt_list(
        self, words: "list[int]", stream: UniformStream
    ) -> "tuple[float, list[int], int]":
        """The list lane of a block write: ``(cost, stored, corrupted)``.

        For a block of at most :data:`LIST_LANE_MAX_WORDS` words held as a
        Python list, this is :meth:`block_cost_and_no_error` followed by
        :meth:`corrupt_block` on ``stream``, bit for bit, without numpy's
        per-call overhead.  It reproduces the block path's float orders:

        * a word's cost is ``(t[b0] + t[b1]) + (t[b2] + t[b3])`` over the
          256-entry byte table, as the halfword table holds it, and its
          no-error probability ``(p[b0] * p[b1]) * (p[b2] * p[b3])``;
        * the block's sums take numpy's pairwise order (:func:`pairwise_sum`);
        * the floor check, the sparse comparison, the slow path and the
          dense walk read the same uniforms in the same order.

        ``stored`` is ``words`` itself when no word erred.
        """
        t = self._byte_iters_list
        cost = pairwise_sum([
            (t[w & 0xFF] + t[w >> 8 & 0xFF]) + (t[w >> 16 & 0xFF] + t[w >> 24])
            for w in words
        ]) / CELLS_PER_WORD
        m = len(words)
        p = self._byte_p_ok_list
        if self._floor_sparse:
            u = stream.take(m).tolist()
            floor = self._no_error_floor
            if max(u) < floor:
                return cost, words, 0
            erring = []
            for i, ui in enumerate(u):
                if ui >= floor:
                    w = words[i]
                    q = (p[w & 0xFF] * p[w >> 8 & 0xFF]) * (
                        p[w >> 16 & 0xFF] * p[w >> 24]
                    )
                    if ui >= q:
                        erring.append((i, q))
        else:
            p_ok = [
                (p[w & 0xFF] * p[w >> 8 & 0xFF]) * (p[w >> 16 & 0xFF] * p[w >> 24])
                for w in words
            ]
            if m - pairwise_sum(p_ok) > m * self._DENSE_ERROR_CUTOFF:
                stored = self._walk(words, stream)
                return cost, stored, sum(map(int.__ne__, stored, words))
            u = stream.take(m).tolist()
            erring = [(i, q) for i, (ui, q) in enumerate(zip(u, p_ok)) if ui >= q]
        if not erring:
            return cost, words, 0
        stored = list(words)
        resid = [(u[i] - q) / (1.0 - q) for i, q in erring]
        if len(erring) <= 4:
            for (i, _), u_first in zip(erring, resid):
                stored[i] = self._corrupt_word_slow(words[i], u_first, stream)
        else:
            idx = [i for i, _ in erring]
            batch = self._corrupt_words_batch(
                np.array([words[i] for i in idx], dtype=np.uint32),
                np.array(resid), stream,
            )
            for i, word in zip(idx, batch.tolist()):
                stored[i] = word
        return cost, stored, sum(map(int.__ne__, stored, words))

    def _corrupt_words_batch(
        self, words: np.ndarray, u_first: np.ndarray, rng
    ) -> np.ndarray:
        """Vectorized :meth:`_corrupt_word_slow` over erring words.

        Same exact conditional distribution — the recycled residual uniform
        picks each word's first erring cell from its prefix-product CDF,
        later cells err independently, erring cells resample their level
        from the conditional transition CDF — with all draws batched.
        """
        e = words.size
        shifts = (np.arange(CELLS_PER_WORD, dtype=np.uint32) * np.uint32(2))
        levels = (words[:, None] >> shifts[None, :]) & np.uint32(3)
        q = self._p_err[levels]

        # P(first error at cell i) = prod_{j<i}(1 - q_j) * q_i.
        prefix_ok = np.cumprod(1.0 - q, axis=1)
        pmf = np.empty_like(q)
        pmf[:, 0] = q[:, 0]
        pmf[:, 1:] = prefix_ok[:, :-1] * q[:, 1:]
        cdf = np.cumsum(pmf, axis=1)
        target = (u_first * cdf[:, -1])[:, None]
        first = np.minimum(
            (target >= cdf).sum(axis=1), CELLS_PER_WORD - 1
        )

        cols = np.arange(CELLS_PER_WORD)
        err_mask = (cols[None, :] == first[:, None]) | (
            (cols[None, :] > first[:, None])
            & (rng.random((e, CELLS_PER_WORD)) < q)
        )
        new_levels = (
            rng.random((e, CELLS_PER_WORD))[:, :, None]
            >= self._cond_cdf[levels]
        ).sum(axis=2)
        new_levels = np.minimum(new_levels, self.params.levels - 1)

        stored = np.where(err_mask, new_levels, levels).astype(np.uint64)
        return (
            (stored << shifts[None, :].astype(np.uint64)).sum(axis=1)
        ).astype(np.uint32)

    def _corrupt_block_dense(
        self, vals: np.ndarray, rng: "np.random.Generator | UniformStream"
    ) -> np.ndarray:
        """Per-cell corruption (high-error-rate regime).

        The cells are sampled column by column, cell 0 of every word first.
        Each column draws one uniform per word, in word order; a cell errs
        when its uniform is below its level's error probability.  Then it
        draws one uniform per erring cell, in word order, which picks the
        misread level from the conditional transition CDF.

        The column loop below is the reference: about a dozen numpy calls
        per column whatever the block size.  On a :class:`UniformStream` a
        block of at most :data:`DENSE_WALK_MAX_WORDS` words is walked in
        Python over a peeked window (:meth:`_walk`), and a larger one takes
        the vectorised walk (:meth:`_sweep`).  Both consume the loop's draws
        in the loop's order, so the stored words and the stream's next
        uniform are the loop's.  A bare generator runs the loop.
        """
        if isinstance(rng, UniformStream):
            if vals.size <= DENSE_WALK_MAX_WORDS:
                return np.array(self._walk(vals.tolist(), rng), dtype=np.uint32)
            return self._sweep(vals, rng)
        out = vals.copy()
        for k in range(CELLS_PER_WORD):
            levels = (vals >> np.uint32(2 * k)) & np.uint32(3)
            q = self._p_err[levels]
            err_mask = rng.random(vals.size) < q
            if not err_mask.any():
                continue
            err_levels = levels[err_mask]
            u = rng.random(err_levels.size)
            cdf = self._cond_cdf[err_levels]
            new_levels = (u[:, None] >= cdf).sum(axis=1)
            new_levels = np.minimum(
                new_levels, self.params.levels - 1
            ).astype(np.uint32)
            cleared = out[err_mask] & ~np.uint32(0b11 << (2 * k))
            out[err_mask] = cleared | (new_levels << np.uint32(2 * k))
        return out

    def _walk(self, words: "list[int]", stream: UniformStream) -> "list[int]":
        """The dense column loop over a small block, walked in Python.

        The loop consumes ``m`` cell uniforms and then one target uniform
        per erring cell for each of the 16 columns, so it never needs more
        than ``2 * 16 * m`` uniforms.  This peeks that many, walks them in
        the loop's order and consumes only those the loop would draw.

        Only a uniform below the largest cell error probability can make a
        cell err, so only those become Python floats; each target uniform
        is read where the walk reaches it.
        """
        m = len(words)
        buf, start = stream.peek(2 * CELLS_PER_WORD * m)
        window = buf[start : start + 2 * CELLS_PER_WORD * m]
        near = np.flatnonzero(window < self._max_p_err)
        near_pos, near_u = near.tolist(), window[near].tolist()
        out = list(words)
        p_err, cdf = self._p_err_list, self._cond_cdf_list
        top = self.params.levels - 1
        pos = c = 0
        for shift in range(0, 2 * CELLS_PER_WORD, 2):
            end = pos + m
            erring = []
            while c < len(near_pos) and near_pos[c] < end:
                i = near_pos[c] - pos
                # i < 0: a target uniform of the previous column.
                if i >= 0 and near_u[c] < p_err[(words[i] >> shift) & 3]:
                    erring.append(i)
                c += 1
            for i in erring:
                # The CDF is nondecreasing, so bisect_right counts the
                # entries <= u, as the loop's ``(u >= cdf).sum()`` does.
                level = bisect_right(
                    cdf[(words[i] >> shift) & 3], window.item(end)
                )
                end += 1
                out[i] = (out[i] & ~(3 << shift)) | (min(level, top) << shift)
            pos = end
        stream.skip(pos)
        return out

    def _sweep(self, vals: np.ndarray, stream: UniformStream) -> np.ndarray:
        """The dense column loop, vectorised across columns.

        Per column it takes the ``m`` cell uniforms and, when cells err,
        one target uniform per erring cell, exactly as the loop draws them;
        the misread levels of every column's erring cells are then resolved
        in one pass.  Columns touch disjoint bits, so each word's cleared
        and new bits are sums of its erring cells' fields, exact in float64
        below 2**53.
        """
        m = vals.size
        cells, shifts, targets = [], [], []
        p_err = self._p_err
        for shift in range(0, 2 * CELLS_PER_WORD, 2):
            bits = (vals >> np.uint32(shift)) & np.uint32(3)
            erring = np.flatnonzero(stream.take(m) < p_err[bits])
            if erring.size:
                cells.append(erring)
                shifts.append(np.full(erring.size, shift, dtype=np.uint32))
                targets.append(stream.take(erring.size))
        if not cells:
            return vals.copy()
        idx = np.concatenate(cells)
        shift = np.concatenate(shifts)
        bits = (vals[idx] >> shift) & np.uint32(3)
        level = (
            np.concatenate(targets)[:, None] >= self._cond_cdf[bits]
        ).sum(axis=1)
        new_bits = np.minimum(level, self.params.levels - 1).astype(np.uint32)
        cleared = np.bincount(
            idx, weights=np.uint32(3) << shift, minlength=m
        ).astype(np.uint32)
        placed = np.bincount(
            idx, weights=new_bits << shift, minlength=m
        ).astype(np.uint32)
        return (vals & ~cleared) | placed

    def block_write_cost(self, values: np.ndarray) -> np.ndarray:
        """Vectorized expected per-word write cost (#P per cell, averaged)."""
        vals = np.asarray(values, dtype=np.uint32)
        it = self._half_iters
        total = it[vals & np.uint32(0xFFFF)] + it[vals >> np.uint32(16)]
        return total / CELLS_PER_WORD


class _ModelCache:
    """Process-wide cache of compiled :class:`WordErrorModel` instances.

    Compiling a model runs a Monte-Carlo fit (hundreds of thousands of analog
    writes), so experiments sweeping ``T`` share compiled models through this
    cache, keyed by the full parameter set and fit size.  Misses consult the
    persistent disk layer (:func:`characterize_cells_cached`) before
    re-running the fit, so warm-cache lookups — including in freshly forked
    worker processes — do no Monte-Carlo sampling at all.
    """

    def __init__(self) -> None:
        self._models: dict[tuple, WordErrorModel] = {}

    def get(
        self,
        params: MLCParams,
        samples_per_level: int = DEFAULT_FIT_SAMPLES,
        seed: int = 0,
    ) -> WordErrorModel:
        key = (params, samples_per_level, seed)
        model = self._models.get(key)
        if model is None:
            characteristics = characterize_cells_cached(
                params, samples_per_level, seed
            )
            model = WordErrorModel(
                params, samples_per_level, seed,
                characteristics=characteristics,
            )
            self._models[key] = model
        return model

    def clear(self) -> None:
        """Drop the in-memory models (the disk layer is left intact)."""
        self._models.clear()


#: Shared cache used by the experiment harness.
MODEL_CACHE = _ModelCache()


def get_model(
    params: MLCParams,
    samples_per_level: int = DEFAULT_FIT_SAMPLES,
    seed: int = 0,
) -> WordErrorModel:
    """Fetch (or compile and cache) the error model for ``params``."""
    return MODEL_CACHE.get(params, samples_per_level, seed)


def precise_reference_model(
    params: MLCParams,
    samples_per_level: int = DEFAULT_FIT_SAMPLES,
    seed: int = 0,
) -> WordErrorModel:
    """The T=0.025 model matching ``params`` in every other respect."""
    return get_model(params.with_t(PRECISE_T), samples_per_level, seed)
