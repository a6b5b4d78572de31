"""Differential oracle: one configuration, several must-agree executions.

The repo has independently built execution paths that are required to be
observationally equivalent; each *equivalence class* here runs one
``(sorter, workload, memory config, seed)`` tuple through two such paths
and compares everything observable:

``scalar_numpy_precise``
    Scalar vs numpy kernels on precise memory — bit-identical final keys,
    final IDs, and :class:`MemoryStats` (DESIGN.md section 8's contract).
``scalar_numpy_approx``
    Scalar vs numpy kernels on approximate PCM.  Bit-identical for every
    sorter whose two paths write the same values to the same addresses
    (:data:`repro.sorting.registry.APPROX_KERNEL_EXACT`: the radix family
    and mergesort), because corruption is keyed by write, not by draw
    order; distributional for quicksort, whose numpy partition does not
    replay a crossing stop on a corrupted swapped-in value — compared over
    several seeds with a two-sample Kolmogorov–Smirnov test on per-run
    corruption rates (scipy when available, with a conservative built-in
    fallback).
``traced_untraced``
    The same run with a live file tracer vs the NullTracer default —
    bit-identical results *and* per-stage stats, plus the tiling law: the
    seven Listing-1 stage deltas must sum exactly to the run totals.
``write_order``
    The case's keys written twice each way to a fresh PCM array at the
    case's T and to a fresh spintronic array: as one block, as a random
    permutation through ``scatter_np``, as random re-splits into blocks
    and as scalar writes in random order.  Every way must store the same
    words and charge the same stats: a write's corruption depends on its
    value, its address and the address's write count alone.
``resumed_uninterrupted``
    A multi-cell computation journaled through
    :class:`repro.experiments.checkpoint.CellJournal`, interrupted halfway
    and resumed, vs the same cells computed in one pass — bit-identical
    per-cell digests.
``sharded_serial``
    The same sharded sort plan executed on the fork worker pool (keys in
    ``multiprocessing.shared_memory`` segments) vs entirely in-process —
    bit-identical keys, IDs, Rem~, and stats on both precise and
    approximate memory.  Sharded execution must be a pure performance
    decision, never an observable one.
``write_budget``
    Measured key-write counts vs the writes of the sorter's
    :meth:`~repro.sorting.base.BaseSorter.precise_schedule`, the formula
    the fused path charges.  For every sorter that publishes one
    (mergesort, ``lsd*`` and ``hlsd*``), both kernel modes are run on
    precise *and* approximate memory and the ``MemoryStats`` write
    counters must not exceed it.  Sorters whose traffic is
    value-dependent (quicksort's swaps, MSD recursion) publish ``None``
    and the class degenerates to a no-op.

Every divergence is reported as a :class:`Divergence` carrying the first
differing element/counter and a replayable description of the case; the
fuzzer (:mod:`repro.verify.fuzz`) shrinks failing cases by ``n`` before
persisting them.
"""

from __future__ import annotations

import hashlib
import math
import os
import tempfile
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.core.approx_refine import run_approx_refine, run_precise_baseline
from repro.memory.approx_array import WORD_LIMIT
from repro.memory.config import MLCParams
from repro.memory.factories import PCMMemoryFactory
from repro.memory.stats import MemoryStats
from repro.obs import NULL_TRACER, Tracer, set_tracer
from repro.sorting.registry import (
    APPROX_KERNEL_EXACT,
    available_sorters,
    make_sorter,
    with_kernels,
)
from repro.workloads.generators import GENERATORS, make_keys

#: Monte-Carlo fit size for oracle-scope memory models (cached per T).
ORACLE_FIT_SAMPLES = 8_000

#: T values the oracle/fuzzer draw from (paper Figure 9's sweep range).
T_CHOICES = (0.04, 0.055, 0.07, 0.1)

#: Seeds per kernel mode for the distributional class.
STAT_SEEDS = 8

#: KS-test significance level.  With derandomized seeds the test statistic
#: is deterministic, so this does not flake in CI.
KS_ALPHA = 1e-3

#: Oracle-only workloads beyond the registered generators.  ``max_word``
#: is seed-independent (every key is the largest representable word — the
#: P&V model's highest-cost, highest-error value), which disqualifies it
#: from the generator registry's seed-sensitivity contract but makes it a
#: prime fuzz edge case.
EXTRA_WORKLOADS: dict[str, Callable[[int, int], np.ndarray]] = {
    "max_word": lambda n, seed=0: np.full(n, WORD_LIMIT - 1, dtype=np.uint32),
}


@dataclass(frozen=True)
class OracleCase:
    """One fuzzable configuration: what to sort, where, and how."""

    algorithm: str
    workload: str = "uniform"
    n: int = 300
    t: float = 0.055
    seed: int = 0

    def keys(self) -> np.ndarray:
        if self.workload in EXTRA_WORKLOADS:
            return EXTRA_WORKLOADS[self.workload](self.n, self.seed)
        return make_keys(self.workload, self.n, seed=self.seed)

    def describe(self) -> str:
        return (
            f"algorithm={self.algorithm} workload={self.workload}"
            f" n={self.n} T={self.t} seed={self.seed}"
        )


@dataclass
class Divergence:
    """One observed disagreement between two must-agree executions."""

    equivalence: str
    field: str
    index: Optional[int]
    expected: object
    actual: object
    detail: str = ""

    def describe(self) -> str:
        where = f"[{self.index}]" if self.index is not None else ""
        text = (
            f"{self.equivalence}: {self.field}{where}:"
            f" expected {self.expected!r}, got {self.actual!r}"
        )
        if self.detail:
            text += f" ({self.detail})"
        return text


@dataclass
class CaseResult:
    """Outcome of running one case through a set of equivalence classes."""

    case: OracleCase
    classes_run: list[str] = field(default_factory=list)
    divergences: list[Divergence] = field(default_factory=list)
    #: The deadline passed before every selected class had started.
    truncated: bool = False

    @property
    def passed(self) -> bool:
        return not self.divergences

    def to_json(self) -> dict:
        return {
            "case": asdict(self.case),
            "classes_run": self.classes_run,
            "divergences": [asdict(d) for d in self.divergences],
        }


# --------------------------------------------------------------------- #
# Comparison helpers
# --------------------------------------------------------------------- #


def _first_mismatch(
    out: list[Divergence],
    equivalence: str,
    name: str,
    expected,
    actual,
) -> None:
    """Record the first divergent element of two key or ID sequences (if
    any), as Python ints so a finding stays JSON."""
    want = np.asarray(expected)
    got = np.asarray(actual)
    if want.size != got.size:
        out.append(Divergence(
            equivalence, name, None, int(want.size), int(got.size),
            detail="length mismatch",
        ))
        return
    differ = np.flatnonzero(want != got)
    if differ.size:
        i = int(differ[0])
        out.append(Divergence(equivalence, name, i, int(want[i]), int(got[i])))


def _compare_stats(
    out: list[Divergence],
    equivalence: str,
    name: str,
    expected: MemoryStats,
    actual: MemoryStats,
) -> None:
    """Record the first divergent counter of two stats payloads (if any)."""
    want = expected.as_dict()
    got = actual.as_dict()
    for counter in want:
        if want[counter] != got[counter]:
            out.append(Divergence(
                equivalence, f"{name}.{counter}", None,
                want[counter], got[counter],
            ))
            return


def digest_keys(keys) -> str:
    """Compact bit-exact digest of a key sequence: SHA-256 of its words as
    4-byte little-endian integers."""
    return hashlib.sha256(np.asarray(keys, "<u4").tobytes()).hexdigest()[:16]


_MEMORY_CACHE: dict[float, PCMMemoryFactory] = {}


def memory_for(t: float) -> PCMMemoryFactory:
    """PCM factory for ``T = t`` with the oracle fit size (process-cached)."""
    if t not in _MEMORY_CACHE:
        _MEMORY_CACHE[t] = PCMMemoryFactory(
            MLCParams(t=t), fit_samples=ORACLE_FIT_SAMPLES
        )
    return _MEMORY_CACHE[t]


# --------------------------------------------------------------------- #
# Equivalence classes
# --------------------------------------------------------------------- #


def check_scalar_numpy_precise(case: OracleCase) -> list[Divergence]:
    """Scalar ≡ numpy kernels on precise memory, bit for bit."""
    out: list[Divergence] = []
    keys = case.keys()
    scalar = run_precise_baseline(keys, case.algorithm, kernels="scalar")
    vector = run_precise_baseline(keys, case.algorithm, kernels="numpy")
    name = "scalar_numpy_precise"
    _first_mismatch(out, name, "final_keys", np.sort(keys), scalar.final_keys)
    _first_mismatch(out, name, "final_keys", scalar.final_keys,
                    vector.final_keys)
    _first_mismatch(out, name, "final_ids", scalar.final_ids,
                    vector.final_ids)
    _compare_stats(out, name, "stats", scalar.stats, vector.stats)
    return out


def check_scalar_numpy_approx(case: OracleCase) -> list[Divergence]:
    """Scalar vs numpy kernels on approximate memory.

    Exact for the block writers; distributional (KS on corruption rates,
    plus exact sortedness of every output) for quicksort/mergesort.
    """
    out: list[Divergence] = []
    name = "scalar_numpy_approx"
    memory = memory_for(case.t)
    keys = case.keys()
    if case.algorithm in APPROX_KERNEL_EXACT:
        scalar = run_approx_refine(
            keys, case.algorithm, memory, seed=case.seed, kernels="scalar"
        )
        vector = run_approx_refine(
            keys, case.algorithm, memory, seed=case.seed, kernels="numpy"
        )
        _first_mismatch(out, name, "final_keys", np.sort(keys),
                        scalar.final_keys)
        _first_mismatch(out, name, "final_keys", scalar.final_keys,
                        vector.final_keys)
        _first_mismatch(out, name, "final_ids", scalar.final_ids,
                        vector.final_ids)
        if scalar.rem_tilde != vector.rem_tilde:
            out.append(Divergence(
                name, "rem_tilde", None, scalar.rem_tilde, vector.rem_tilde
            ))
        _compare_stats(out, name, "stats", scalar.stats, vector.stats)
        return out

    # Distributional: per-run corruption rates across seeds per mode.
    rates: dict[str, list[float]] = {"scalar": [], "numpy": []}
    for mode in rates:
        for offset in range(STAT_SEEDS):
            result = run_approx_refine(
                keys, case.algorithm, memory,
                seed=case.seed * STAT_SEEDS + offset, kernels=mode,
            )
            if not np.array_equal(result.final_keys, np.sort(keys)):
                _first_mismatch(out, name, f"final_keys[{mode}]",
                                np.sort(keys), result.final_keys)
                return out
            rates[mode].append(
                result.stats.corrupted_writes
                / max(1, result.stats.approx_writes)
            )
    p_value = _ks_p_value(rates["scalar"], rates["numpy"])
    if p_value < KS_ALPHA:
        out.append(Divergence(
            name, "corruption_rate_distribution", None,
            f"KS p >= {KS_ALPHA}", f"p = {p_value:.2e}",
            detail=(
                f"scalar rates {rates['scalar']!r} vs"
                f" numpy rates {rates['numpy']!r}"
            ),
        ))
    return out


def check_traced_untraced(case: OracleCase) -> list[Divergence]:
    """A live tracer must never change an execution's observable output."""
    out: list[Divergence] = []
    name = "traced_untraced"
    memory = memory_for(case.t)
    keys = case.keys()

    previous = set_tracer(NULL_TRACER)
    try:
        untraced = run_approx_refine(
            keys, case.algorithm, memory, seed=case.seed
        )
        with tempfile.TemporaryDirectory(prefix="verify-trace-") as tmp:
            tracer = Tracer(path=os.path.join(tmp, "trace.jsonl"))
            set_tracer(tracer)
            try:
                traced = run_approx_refine(
                    keys, case.algorithm, memory, seed=case.seed
                )
            finally:
                tracer.close()
                set_tracer(NULL_TRACER)
    finally:
        set_tracer(previous)

    _first_mismatch(out, name, "final_keys", untraced.final_keys,
                    traced.final_keys)
    _first_mismatch(out, name, "final_ids", untraced.final_ids,
                    traced.final_ids)
    if untraced.rem_tilde != traced.rem_tilde:
        out.append(Divergence(
            name, "rem_tilde", None, untraced.rem_tilde, traced.rem_tilde
        ))
    _compare_stats(out, name, "stats", untraced.stats, traced.stats)
    for stage in untraced.stage_stats:
        if stage not in traced.stage_stats:
            out.append(Divergence(
                name, f"stage_stats.{stage}", None, "present", "missing"
            ))
            return out
        _compare_stats(
            out, name, f"stage_stats.{stage}",
            untraced.stage_stats[stage], traced.stage_stats[stage],
        )
        if out:
            return out
    # Conservation: the per-stage deltas must tile the run totals exactly.
    # ``approx_write_units`` too: a delta merges back as integer cost
    # counts, from which the total is derived.
    for result, label in ((untraced, "untraced"), (traced, "traced")):
        tiled = MemoryStats()
        for stage_delta in result.stage_stats.values():
            tiled.merge(stage_delta)
        want = result.stats.as_dict()
        got = tiled.as_dict()
        for counter in want:
            if want[counter] != got[counter]:
                out.append(Divergence(
                    name, f"stage_tiling[{label}].{counter}", None,
                    want[counter], got[counter],
                ))
                return out
    return out


def _write_ways(
    keys: np.ndarray, rng: np.random.Generator
) -> "dict[str, Callable]":
    """The four ways ``write_order`` writes ``keys`` to an array."""
    n = keys.size

    def scatter(array) -> None:
        order = rng.permutation(n)
        array.scatter_np(order, keys[order])

    def resplit(array) -> None:
        cuts = (
            sorted(rng.choice(n - 1, size=n // 8, replace=False) + 1)
            if n > 1 else []
        )
        bounds = list(zip([0, *cuts], [*cuts, n]))
        for index in rng.permutation(len(bounds)).tolist():
            lo, hi = bounds[index]
            # Odd pieces go as lists: short ones take the list lane.
            block = keys[lo:hi]
            array.write_block(lo, block.tolist() if index % 2 else block)

    def scalar(array) -> None:
        for index in rng.permutation(n).tolist():
            array.write(index, int(keys[index]))

    return {
        "block": lambda array: array.write_block(0, keys),
        "scatter": scatter,
        "resplit": resplit,
        "scalar": scalar,
    }


def check_write_order(case: OracleCase) -> list[Divergence]:
    """Writing the same values to the same addresses the same number of
    times stores the same words and charges the same stats, whatever the
    order and the blocking of the writes."""
    from repro.memory.config import SPINTRONIC_CONFIGS
    from repro.memory.factories import SpintronicMemoryFactory

    out: list[Divergence] = []
    name = "write_order"
    keys = case.keys()
    memories = {
        f"pcm[T={case.t}]": memory_for(case.t),
        "spintronic": SpintronicMemoryFactory(SPINTRONIC_CONFIGS[-1]),
    }
    rng = np.random.default_rng(case.seed)
    for label, memory in memories.items():
        reference = None
        for way, write in _write_ways(keys, rng).items():
            array = memory.make_array(
                np.zeros(keys.size, dtype=np.uint32), seed=case.seed
            )
            write(array)
            write(array)
            if reference is None:
                reference = (way, array)
                continue
            first, stored = reference
            where = f"{label}.{way} vs {first}"
            _first_mismatch(out, name, f"{where}.stored", stored.to_numpy(),
                            array.to_numpy())
            _compare_stats(out, name, f"{where}.stats", stored.stats,
                           array.stats)
            if out:
                return out
    return out


def check_resumed_uninterrupted(case: OracleCase) -> list[Divergence]:
    """Journal half the cells, resume, and require bit-identical digests."""
    from repro.experiments.checkpoint import CellJournal

    out: list[Divergence] = []
    name = "resumed_uninterrupted"
    memory = memory_for(case.t)
    cells = [(case.algorithm, case.seed + j) for j in range(4)]

    def compute(cell: tuple) -> dict:
        algorithm, seed = cell
        result = run_approx_refine(case.keys(), algorithm, memory, seed=seed)
        return {
            "keys": digest_keys(result.final_keys),
            "ids": digest_keys(result.final_ids),
            "rem": result.rem_tilde,
            "stats": result.stats.as_dict(),
        }

    straight = [compute(cell) for cell in cells]

    with tempfile.TemporaryDirectory(prefix="verify-resume-") as tmp:
        path = os.path.join(tmp, "cells.jsonl")
        # First attempt: complete half the cells, then "crash".
        journal = CellJournal(path)
        for index in range(len(cells) // 2):
            journal.record(index, cells[index], straight[index])
        journal.close()
        # Resume: restore completed cells, compute only the remainder.
        journal = CellJournal(path)
        restored = journal.load(cells)
        resumed: list[dict] = []
        for index, cell in enumerate(cells):
            if index in restored:
                resumed.append(restored[index])
            else:
                value = compute(cell)
                journal.record(index, cell, value)
                resumed.append(value)
        journal.close()

    for index, (want, got) in enumerate(zip(straight, resumed)):
        if want != got:
            bad = next(k for k in want if want[k] != got.get(k))
            out.append(Divergence(
                name, f"cell[{index}].{bad}", index, want[bad], got.get(bad)
            ))
            return out
    return out


def check_sharded_serial(case: OracleCase) -> list[Divergence]:
    """Pooled sharded execution ≡ in-process sharded execution, bit for bit.

    Both runs execute the *same* sharded plan (partition, per-shard seeds,
    stats reduction order are all fixed parent-side); only where the shard
    kernels run differs — forked workers over shared memory vs the calling
    process.  Any divergence means shard state leaked across the process
    boundary.  On platforms without fork both runs are in-process and the
    class degenerates to a self-consistency check.
    """
    from repro.parallel.sharded import ShardedSorter

    out: list[Divergence] = []
    name = "sharded_serial"
    memory = memory_for(case.t)
    keys = case.keys()

    def build(workers: int) -> ShardedSorter:
        return ShardedSorter(
            make_sorter(case.algorithm),
            shards=3, workers=workers, min_n=2, kernels="numpy",
        )

    pooled = run_approx_refine(keys, build(2), memory, seed=case.seed)
    local = run_approx_refine(keys, build(0), memory, seed=case.seed)
    _first_mismatch(out, name, "final_keys", np.sort(keys), pooled.final_keys)
    _first_mismatch(out, name, "final_keys", pooled.final_keys,
                    local.final_keys)
    _first_mismatch(out, name, "final_ids", pooled.final_ids,
                    local.final_ids)
    if pooled.rem_tilde != local.rem_tilde:
        out.append(Divergence(
            name, "rem_tilde", None, pooled.rem_tilde, local.rem_tilde
        ))
    _compare_stats(out, name, "stats", pooled.stats, local.stats)
    if out:
        return out

    pooled_precise = run_precise_baseline(keys, build(2))
    local_precise = run_precise_baseline(keys, build(0))
    _first_mismatch(out, name, "precise_final_keys", np.sort(keys),
                    pooled_precise.final_keys)
    _first_mismatch(out, name, "precise_final_ids",
                    pooled_precise.final_ids, local_precise.final_ids)
    if not np.array_equal(
        np.sort(pooled_precise.final_ids), np.arange(len(keys))
    ):
        out.append(Divergence(
            name, "precise_final_ids", None,
            "a permutation of input positions", "not a permutation",
        ))
    _compare_stats(out, name, "precise_stats", pooled_precise.stats,
                   local_precise.stats)
    return out


def check_write_budget(case: OracleCase) -> list[Divergence]:
    """Measured key writes never exceed the sorter's published schedule.

    This class sorts the case's keys (keys only: the schedule is per
    array, and key writes are the paper's TEPMW currency) in both kernel
    modes on precise and approximate memory, and compares the measured
    ``MemoryStats`` write counters with the writes of
    ``precise_schedule(n)``.  The numpy precise lane takes the fused path,
    which charges that very schedule, so the scalar lane and the two
    approximate lanes are the ones that measure ``_sort``.  Both precise
    lanes also require a correctly sorted output: a sorter must not buy
    writes back by not sorting.  A ``None`` schedule (value-dependent
    traffic) makes the class a no-op.
    """
    from repro.memory.approx_array import PreciseArray

    out: list[Divergence] = []
    name = "write_budget"
    sorter = make_sorter(case.algorithm)
    schedule = sorter.precise_schedule(case.n)
    if schedule is None:
        return out
    bound = schedule[1]
    keys = case.keys()
    memory = memory_for(case.t)
    for mode in ("scalar", "numpy"):
        runner = with_kernels(sorter, mode)
        stats = MemoryStats()
        array = PreciseArray(keys, stats=stats, name="budget-precise")
        runner.sort(array)
        if not np.array_equal(array.to_numpy(), np.sort(keys)):
            _first_mismatch(out, name, f"precise[{mode}].final_keys",
                            np.sort(keys), array.to_numpy())
            return out
        if stats.precise_writes > bound:
            out.append(Divergence(
                name, f"precise[{mode}].writes", None,
                f"<= {bound}", stats.precise_writes,
                detail=(f"n={case.n}, bound from"
                        f" {case.algorithm}.precise_schedule"),
            ))
            return out
        approx_stats = MemoryStats()
        runner.sort(memory.make_array(keys, stats=approx_stats, seed=case.seed))
        if approx_stats.approx_writes > bound:
            out.append(Divergence(
                name, f"approx[{mode}].writes", None,
                f"<= {bound}", approx_stats.approx_writes,
                detail=f"n={case.n}, T={case.t}",
            ))
            return out
    return out


#: Registry of equivalence classes.  ``bit`` classes are deterministic;
#: ``scalar_numpy_approx`` is distributional for non-block-writers.
EQUIVALENCE_CLASSES: dict[str, Callable[[OracleCase], list[Divergence]]] = {
    "scalar_numpy_precise": check_scalar_numpy_precise,
    "scalar_numpy_approx": check_scalar_numpy_approx,
    "traced_untraced": check_traced_untraced,
    "resumed_uninterrupted": check_resumed_uninterrupted,
    "sharded_serial": check_sharded_serial,
    "write_budget": check_write_budget,
    "write_order": check_write_order,
}

#: The deterministic subset (safe for tight CI gates and fuzz smoke).
BIT_CLASSES = (
    "scalar_numpy_precise",
    "traced_untraced",
    "resumed_uninterrupted",
    "sharded_serial",
    "write_budget",
    "write_order",
)


def resolve_classes(spec: "str | list[str] | None") -> list[str]:
    """Expand a class selection: ``None``/"all", "bit", or explicit names."""
    if spec is None or spec == "all":
        return list(EQUIVALENCE_CLASSES)
    if spec == "bit":
        return list(BIT_CLASSES)
    names = spec.split(",") if isinstance(spec, str) else list(spec)
    for class_name in names:
        if class_name not in EQUIVALENCE_CLASSES:
            raise ValueError(
                f"unknown equivalence class {class_name!r}; available:"
                f" {', '.join(EQUIVALENCE_CLASSES)}, or 'bit'/'all'"
            )
    return names


def run_case(
    case: OracleCase,
    classes: "str | list[str] | None" = None,
    deadline: Optional[float] = None,
) -> CaseResult:
    """Run ``case`` through the selected equivalence classes.

    No class starts once ``time.monotonic()`` has reached ``deadline``;
    such a case comes back ``truncated``.
    """
    if case.algorithm not in available_sorters():
        raise ValueError(f"unknown sorter {case.algorithm!r}")
    if case.workload not in GENERATORS and case.workload not in EXTRA_WORKLOADS:
        raise ValueError(f"unknown workload {case.workload!r}")
    result = CaseResult(case=case)
    for class_name in resolve_classes(classes):
        if deadline is not None and time.monotonic() >= deadline:
            result.truncated = True
            break
        check = EQUIVALENCE_CLASSES[class_name]
        result.classes_run.append(class_name)
        result.divergences.extend(check(case))
        if result.divergences:
            break  # report the first divergent class; fuzzer shrinks next
    return result


# --------------------------------------------------------------------- #
# KS test (scipy when present, exact small-sample fallback otherwise)
# --------------------------------------------------------------------- #


def _ks_p_value(a: list[float], b: list[float]) -> float:
    try:
        from scipy.stats import ks_2samp
    except ImportError:  # pragma: no cover - scipy is in the image
        return _ks_p_value_fallback(a, b)
    return float(ks_2samp(a, b, method="auto").pvalue)


def _ks_p_value_fallback(a: list[float], b: list[float]) -> float:
    """Asymptotic two-sample KS p-value (Smirnov), dependency-free."""
    xs = sorted(a)
    ys = sorted(b)
    d = 0.0
    i = j = 0
    while i < len(xs) and j < len(ys):
        if xs[i] <= ys[j]:
            i += 1
        else:
            j += 1
        d = max(d, abs(i / len(xs) - j / len(ys)))
    en = math.sqrt(len(xs) * len(ys) / (len(xs) + len(ys)))
    lam = (en + 0.12 + 0.11 / en) * d
    total = 0.0
    for k in range(1, 101):
        total += (-1) ** (k - 1) * math.exp(-2.0 * (lam * k) ** 2)
    return max(0.0, min(1.0, 2.0 * total))
