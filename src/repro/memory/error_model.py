"""Compiled per-``T`` error model for fast word-level memory simulation.

Running the analog P&V loop for every memory access of a sorting algorithm
would make large experiments intractable.  Instead, for a given cell
configuration we run the analog model once in a Monte-Carlo characterization
pass and *compile* it into:

* a per-level write-error probability and conditional error-target
  distribution (the 4x4 level-transition matrix),
* the expected number of P&V iterations per level (write-latency model),
* per-byte and per-halfword no-error tables, so that deciding whether a
  32-bit word write errs needs a few table lookups.

The compiled model is exact in distribution with respect to the analog model
it was fitted from (up to Monte-Carlo estimation error on the transition
probabilities) and is the engine behind :class:`repro.memory.approx_array.ApproxArray`.
Its draws are keyed by write (:mod:`repro.memory.keyed`).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .config import CELLS_PER_WORD, MLCParams, PRECISE_T
from .keyed import CellLaw, KeyedWordModel
from .mlc import pv_write, drift_read

#: Number of Monte-Carlo writes per level used to fit the compiled model.
DEFAULT_FIT_SAMPLES = 100_000

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


class WordErrorModel(KeyedWordModel):
    """Keyed sampler of write corruption and write cost for 32-bit words.

    A word is sixteen concatenated 2-bit cells (paper Section 3.2); cell
    ``k`` stores bits ``2k`` and ``2k + 1`` of the integer, and those two
    bits are its level (the paper's binary mapping).  Errors are
    sampled cell-independently from the fitted transition matrix; the cost of
    a word write is the *average* #P over its sixteen cells, matching the
    paper's ``p(t)`` accounting (Section 2.2).  A write's cost is charged as
    the integer count of cells written at each level
    (:meth:`word_write_cost`, :meth:`block_cost_and_no_error`), weighted by
    :meth:`level_weights`.

    Parameters
    ----------
    params:
        The cell configuration this model compiles.
    samples_per_level:
        Monte-Carlo sample count for the fit.
    seed:
        Seed of the fit (independent from run-time sampling randomness).
    """

    #: Largest share of uniforms that can reach the no-error floor
    #: (``1 - floor``) for which :meth:`block_cost_and_no_error` leaves the
    #: per-word probabilities to :meth:`corrupt_block`, which then evaluates
    #: them only for those uniforms.  Measured, not tuned per run.
    _NEAR_FLOOR_CUTOFF = 0.04

    # benchmarks/e2e/ledger.py times these by ``cls.__dict__[name]``, so
    # this class body names them too.
    corrupt_block = KeyedWordModel.corrupt_block
    corrupt_word_given_u = KeyedWordModel.corrupt_word_given_u

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
        self.law = CellLaw(2, self._p_err, np.cumsum(cond / safe, axis=1))
        self._mean_iters = self.characteristics.mean_iterations.copy()

        # A byte holds four 2-bit cells, a halfword two bytes.  A word's
        # no-error probability is ``(p[b0] * p[b1]) * (p[b2] * p[b3])`` over
        # its bytes: the scalar path takes the byte list, the block path the
        # halfword table, whose entries are those inner products.
        byte_levels = (
            np.arange(256)[:, None] >> (2 * np.arange(4))[None, :]
        ) & 3
        byte_p_ok = np.prod(1.0 - self._p_err[byte_levels], axis=1)
        self._byte_p_ok_list = byte_p_ok.tolist()
        half = np.arange(65536)
        self._half_p_ok = byte_p_ok[half & 0xFF] * byte_p_ok[half >> 8]
        # The no-error floor: IEEE multiplication is monotone, so no word's
        # probability is below the smallest halfword entry squared, and a
        # uniform below the floor never errs.
        low = float(self._half_p_ok.min())
        self._set_floor(low * low)
        self._floor_sparse = 1.0 - self._floor < self._NEAR_FLOOR_CUTOFF

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
    # Cost: integer cell counts per level
    # ------------------------------------------------------------------ #

    def level_weights(self, precise_iterations: float) -> "tuple[float, ...]":
        """Precise-write units of one cell written at each level: its mean
        #P over the cell count and the precise configuration's #P."""
        return tuple(
            float(iters) / CELLS_PER_WORD / precise_iterations
            for iters in self._mean_iters
        )

    def word_write_cost(self, value: int) -> "tuple[int, int, int, int]":
        """The cells of ``value`` at levels 0 to 3 (its write cost in
        :meth:`level_weights` units)."""
        low = value & _LOW_BITS
        high = value >> 1 & _LOW_BITS
        threes = (low & high).bit_count()
        ones = low.bit_count() - threes
        twos = high.bit_count() - threes
        return CELLS_PER_WORD - ones - twos - threes, ones, twos, threes

    def block_cost_and_no_error(
        self, values: np.ndarray
    ) -> "tuple[tuple[int, int, int, int], np.ndarray | None]":
        """The block's cells at levels 0 to 3, summed over its words, and
        its per-word no-error array when the sampler needs it.

        The counts are three popcounts over a ``uint64`` view of the words
        (two words per element): of the cells' low bits, of their high bits,
        and of both.  The no-error array (:meth:`block_no_error_probability`)
        is returned only when the model's floor cannot prove that few
        uniforms reach it (``T`` >= 0.08 at the default fit); otherwise it is
        ``None`` and :meth:`corrupt_block` evaluates the probability only
        for the words whose uniform reaches the floor.
        """
        vals = np.ascontiguousarray(values, dtype=np.uint32)
        n = vals.size
        pairs = vals[: n & ~1].view(np.uint64)
        ones = twos = threes = 0
        for lo in range(0, pairs.size, _COUNT_CHUNK):
            block = pairs[lo : lo + _COUNT_CHUNK]
            low = block & _LOW_PAIR
            high = block >> np.uint64(1)
            high &= _LOW_PAIR
            ones += int(np.bitwise_count(low).sum())
            twos += int(np.bitwise_count(high).sum())
            low &= high
            threes += int(np.bitwise_count(low).sum())
        counts = (
            CELLS_PER_WORD * (n & ~1) - ones - twos + threes,
            ones - threes, twos - threes, threes,
        )
        if n & 1:
            counts = tuple(
                a + b for a, b in zip(counts, self.word_write_cost(int(vals[-1])))
            )
        if self._floor_sparse:
            return counts, None
        return counts, self.block_no_error_probability(vals)

    # ------------------------------------------------------------------ #
    # No-error probabilities (the keyed sampler's comparison)
    # ------------------------------------------------------------------ #

    def word_no_error_probability(self, value: int) -> float:
        """Probability that writing ``value`` stores it without corruption."""
        t = self._byte_p_ok_list
        return (t[value & 0xFF] * t[value >> 8 & 0xFF]) * (
            t[value >> 16 & 0xFF] * t[value >> 24]
        )

    def block_no_error_probability(self, values: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`word_no_error_probability`, bit for bit."""
        vals = np.asarray(values, dtype=np.uint32)
        t = self._half_p_ok
        return t[vals & np.uint32(0xFFFF)] * t[vals >> np.uint32(16)]


#: The low bit of every 2-bit cell of a word, and of a word pair.
_LOW_BITS = 0x55555555
_LOW_PAIR = np.uint64(0x5555555555555555)
#: Word pairs per popcount step of :meth:`WordErrorModel.block_cost_and_no_error`.
_COUNT_CHUNK = 1 << 15


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
