"""The benchmark's four workloads and the closed loop that measures them.

One workload runs in one process, started by ``run.py`` from a clean
environment, with one client: the next op starts when the previous one
returns.  The process

1. sets up :data:`SETUP_REPS` times from cold (key generation, model
   characterisation, the precise baselines that are the denominator of the
   TEPMW ratio, and a warm-up of every distinct (sorter, T) at
   n = :data:`WARMUP_N`) and keeps the median as ``setup_s``;
2. runs the untraced phase: whole cycles of the workload's ops until the next
   cycle would overrun ``seconds``.  Each op is timed around one public call,
   ``run_approx_refine`` or ``run_precise_baseline``, and checked outside its
   timed interval;
3. with ``trace``, runs whole cycles again for at most half of ``seconds``,
   each op once untraced and then replayed through the public layer
   functions ``run_approx_refine`` calls, under the timers of :mod:`ledger`.

A cycle repeats with the same inputs and seeds, so a repeat must reproduce
the first result of its position exactly; one that does not counts as a
failed op.  Counts, the TEPMW ratio and the digest are therefore the same
whatever number of cycles the time allowed.

The end-to-end timings are taken at a fixed host speed (:class:`HostSpeed`):
the same reference work is timed between every two timed regions, and each
region's wall-clock time is scaled by how much slower than
:data:`REFERENCE_S` the reference ran around it.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from multiprocessing import resource_tracker
from typing import Callable, Optional

import numpy as np

from ledger import APPROX_WRITE, Ledger, installed
from repro.core import (
    find_rem_ids,
    merge_refined,
    run_approx_refine,
    run_precise_baseline,
    sort_rem_ids,
)
from repro.memory import MODEL_CACHE, MemoryStats, MLCParams, PreciseArray
from repro.memory.factories import PCMMemoryFactory
from repro.metrics import rem_ratio
from repro.parallel import shutdown_pools
from repro.sorting import make_sorter
from repro.workloads import make_keys

#: Kernel mode every workload pins; the scalar kernels are the tests' oracle.
KERNELS = "numpy"
#: Cold set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Input size of the warm-up calls.
WARMUP_N = 256
#: ``--quick``: input sizes divided by this, and this many ops per phase.
QUICK_DIVISOR = 64
QUICK_OPS = 3
#: The speed at which end-to-end timings are reported: seconds per
#: :meth:`HostSpeed.measure`.  A round figure near the 7-10 ms it takes on
#: the 2-vCPU x86-64 Linux VM the bounds were measured on (Python 3.11,
#: numpy 2.4).
REFERENCE_S = 0.01

FIG09_ALGORITHMS = (
    "lsd3", "lsd4", "lsd5", "lsd6",
    "msd3", "msd4", "msd5", "msd6",
    "quicksort", "mergesort",
)
#: The low end, the paper's operating point and the high end of fig09's T
#: axis.  At n = 2048 a grid cycle takes about 2.5 s, so a run repeats it
#: about eight times and each cell's median has that many samples; the full
#: ten-value axis, or n = 4096, would leave two to four.
FIG09_T = (0.025, 0.055, 0.1)

SETUP_LAYERS = (
    "workloads.make_keys_s", "memory.model_build_s",
    "setup.baseline_s", "setup.warmup_s",
)
#: Per-op inclusive seconds of each family, by metric name.
TIMED_LAYERS = {
    "memory.approx_prep_s": "memory.approx_prep",
    "memory.approx_write_s": APPROX_WRITE,
    "memory.cost_lookup_s": "memory.cost_lookup",
    "memory.corruption_s": "memory.corruption",
    "memory.approx_read_s": "memory.approx_read",
    "memory.precise_write_s": "memory.precise_write",
    "sorting.sort_s": "sorting.sort",
    "metrics.rem_ratio_s": "metrics.rem_ratio",
    "core.find_rem_s": "core.find_rem",
    "core.sort_rem_s": "core.sort_rem",
    "core.merge_s": "core.merge",
    "core.alloc_s": "core.alloc",
    "parallel.pool_run_s": "parallel.pool_run",
}
#: Per-op means of the untraced ops' ``MemoryStats`` fields.
STATS_COUNTS = {
    "memory.approx_writes": "approx_writes",
    "memory.precise_writes": "precise_writes",
    "memory.approx_reads": "approx_reads",
    "memory.precise_reads": "precise_reads",
    "memory.corrupted_writes": "corrupted_writes",
}


@dataclass(frozen=True)
class Op:
    """One call: ``sorter`` on key set ``key_set``.

    ``t`` is the approximate memory's T, or ``None`` for the precise lane.
    The corruption seed is the run's seed plus ``seed_offset``.  ``baseline``
    names the serial sorter whose precise run on the same keys is the
    denominator of the op's TEPMW ratio.
    """

    sorter: str
    t: Optional[float]
    key_set: int
    seed_offset: int
    baseline: str


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    cycle: "tuple[Op, ...]"

    @property
    def key_sets(self) -> int:
        return 1 + max(op.key_set for op in self.cycle)


def _two_key_sets(sorter: str, t: Optional[float], baseline: str) -> tuple:
    return tuple(Op(sorter, t, k, k, baseline) for k in range(2))


WORKLOADS = {
    # The paper's headline figure with every fig09 sorter.  The MSD and
    # quicksort cells drive the memory layer at fine grain: scalar writes
    # and reads, and blocks of a few words.
    "fig09_grid": Workload("fig09_grid", 2048, tuple(
        Op(algorithm, t, 0, 0, algorithm)
        for t in FIG09_T for algorithm in FIG09_ALGORITHMS
    )),
    # The paper's per-element regime: block writes of ~1e6 (2^20) words per
    # call.
    "approx_lsd6": Workload(
        "approx_lsd6", 1 << 20, _two_key_sets("lsd6", 0.055, "lsd6")
    ),
    # The same keys and seeds through repro.parallel; serial lsd6 baseline.
    "approx_lsd6_sharded": Workload(
        "approx_lsd6_sharded", 1 << 20,
        _two_key_sets("sharded:lsd6:2", 0.055, "lsd6"),
    ),
    # The precise lane: no corruption sampling, the sorter kernel dominates.
    "precise_mergesort": Workload(
        "precise_mergesort", 1 << 20,
        _two_key_sets("mergesort", None, "mergesort"),
    ),
}


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def op_sorter(spec: str):
    """A fresh sorter per call: quicksort's pivot stream must restart."""
    if spec.startswith("sharded:"):
        shards = int(spec.rsplit(":", 1)[1])
        return make_sorter(
            spec, kernels=KERNELS, workers=min(shards, usable_cpus())
        )
    return make_sorter(spec, kernels=KERNELS)


# ---------------------------------------------------------------------- #
# Host speed
# ---------------------------------------------------------------------- #


class HostSpeed:
    """The host's speed right now, from timing a fixed piece of work.

    The benchmark runs on a few cores of a shared host, whose speed switches
    by up to 1.6x, from one second to the next and over whole runs, as other
    tenants load it; wall-clock medians of ten runs spread by up to 21%
    (README.md, "Spread and bounds").  Timed right before and right after a
    region, the same reference work slows with the host, so dividing the
    region's time by the reference's removes most of the drift.  The work
    mixes interpreted Python with a numpy sort, as the ops do.

    Anything that slows the reference as well as the program, such as a
    thread left running in the process, is hidden from the scaled times;
    the record keeps the wall-clock ones (``wall.*``) and the median
    slowdown (``host.slowdown``) to show it.
    """

    def __init__(self) -> None:
        self._array = np.random.default_rng(0).integers(0, 1 << 62, 1 << 17)
        self._last = self.measure()
        #: Mean reference time around each scaled region.
        self.samples: "list[float]" = []

    def measure(self) -> float:
        """Seconds the reference work takes now."""
        t0 = time.perf_counter()
        total = 0
        for i in range(60_000):
            total += i * i % 7
        np.sort(self._array)
        np.sort(self._array)
        return time.perf_counter() - t0

    def scale(self, elapsed: float) -> float:
        """``elapsed`` wall-clock seconds, which ended just now and began
        after the previous call, at the speed of :data:`REFERENCE_S`."""
        current = self.measure()
        reference = (self._last + current) / 2
        self._last = current
        self.samples.append(reference)
        return elapsed * REFERENCE_S / reference


# ---------------------------------------------------------------------- #
# Set-up
# ---------------------------------------------------------------------- #


@dataclass
class State:
    keys: list
    keys_np: list
    expected: list
    factories: dict
    #: (serial sorter, key set) -> TEPMW of its precise run.
    baseline: dict
    times: dict


def setup(workload: Workload, n: int, seed: int) -> State:
    """One cold set-up: no model, pool or key set survives from before."""
    MODEL_CACHE.clear()
    shutdown_pools()
    cycle = workload.cycle
    times = {}
    t0 = time.perf_counter()
    keys = [
        make_keys("uniform", n, seed=2 * seed + k)
        for k in range(workload.key_sets)
    ]
    times["workloads.make_keys_s"] = time.perf_counter() - t0
    keys_np = [np.asarray(k, dtype=np.int64) for k in keys]
    expected = [np.sort(k) for k in keys_np]

    t0 = time.perf_counter()
    factories = {
        t: PCMMemoryFactory(MLCParams(t=t))
        for t in dict.fromkeys(op.t for op in cycle if op.t is not None)
    }
    times["memory.model_build_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    baseline = {}
    for pair in dict.fromkeys((op.baseline, op.key_set) for op in cycle):
        result = run_precise_baseline(
            keys[pair[1]], op_sorter(pair[0]), kernels=KERNELS
        )
        baseline[pair] = result.total_units
    times["setup.baseline_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    warm_keys = make_keys("uniform", WARMUP_N, seed=seed)
    for spec, t in dict.fromkeys((op.sorter, op.t) for op in cycle):
        if t is None:
            run_precise_baseline(warm_keys, op_sorter(spec), kernels=KERNELS)
        else:
            run_approx_refine(
                warm_keys, op_sorter(spec), factories[t], seed=seed,
                kernels=KERNELS,
            )
    times["setup.warmup_s"] = time.perf_counter() - t0
    return State(keys, keys_np, expected, factories, baseline, times)


# ---------------------------------------------------------------------- #
# Ops
# ---------------------------------------------------------------------- #

#: (seconds, stats, rem_tilde, final_keys, final_ids, sorter) of one call.
CallResult = tuple


def call(op: Op, state: State, seed: int) -> CallResult:
    """The untraced op: one public call, timed."""
    sorter = op_sorter(op.sorter)
    keys = state.keys[op.key_set]
    t0 = time.perf_counter()
    if op.t is None:
        result = run_precise_baseline(keys, sorter, kernels=KERNELS)
        rem_tilde = 0
    else:
        result = run_approx_refine(
            keys, sorter, state.factories[op.t], seed=seed + op.seed_offset,
            kernels=KERNELS,
        )
        rem_tilde = result.rem_tilde
    elapsed = time.perf_counter() - t0
    return (elapsed, result.stats, rem_tilde, result.final_keys,
            result.final_ids, sorter)


def replay(op: Op, state: State, seed: int, ledger: Ledger) -> CallResult:
    """The traced op: the public calls ``run_approx_refine`` (or
    ``run_precise_baseline``) makes, each timed as one ledger step."""
    sorter = op_sorter(op.sorter)
    keys = state.keys[op.key_set]
    n = len(keys)
    stats = MemoryStats()
    step = ledger.step
    t0 = time.perf_counter()
    if op.t is None:
        with step("core.alloc"):
            key_array = PreciseArray(keys, stats=stats, name="Key")
            id_array = PreciseArray(range(n), stats=stats, name="ID")
        with step("sorting.sort"):
            sorter.sort(key_array, id_array)
        rem_tilde = 0
    else:
        with step("core.alloc"):
            key0 = PreciseArray(keys, stats=stats, name="Key0")
            ids = PreciseArray(range(n), stats=stats, name="ID")
        with step("memory.approx_prep"):
            approx_keys = state.factories[op.t].make_array(
                [0] * n, stats=stats, seed=seed + op.seed_offset
            )
            approx_keys.load_from(key0)
        with step("sorting.sort"):
            sorter.sort(approx_keys, ids)
        with step("metrics.rem_ratio"):
            rem_ratio(approx_keys.to_list())
        with step("core.find_rem"):
            rem_ids = find_rem_ids(ids, key0, kernels=KERNELS)
        with step("core.sort_rem"):
            sorted_rem_ids = sort_rem_ids(
                rem_ids, key0, sorter, stats, kernels=KERNELS
            )
        with step("core.alloc"):
            key_array = PreciseArray([0] * n, stats=stats, name="finalKey")
            id_array = PreciseArray([0] * n, stats=stats, name="finalID")
        with step("core.merge"):
            merge_refined(
                ids, key0, sorted_rem_ids, key_array, id_array,
                kernels=KERNELS,
            )
        rem_tilde = len(rem_ids)
    with step("core.alloc"):
        final_keys = key_array.to_list()
        final_ids = id_array.to_list()
    elapsed = time.perf_counter() - t0
    return elapsed, stats, rem_tilde, final_keys, final_ids, sorter


def output_problem(
    state: State, key_set: int, final_keys: list, final_ids: list
) -> Optional[str]:
    """Why an op's output is wrong, or ``None`` when it is right.

    Right means: ``final_keys`` is exactly ``sorted(keys)``, ``final_ids`` is
    a permutation of the input positions, and ``keys[final_ids[i]] ==
    final_keys[i]`` for every ``i``.
    """
    expected = state.expected[key_set]
    got_keys = np.asarray(final_keys, dtype=np.int64)
    got_ids = np.asarray(final_ids, dtype=np.int64)
    if got_keys.shape != expected.shape or got_ids.shape != expected.shape:
        return "output length differs from input length"
    if not np.array_equal(got_keys, expected):
        return "final keys are not sorted(keys)"
    if not np.array_equal(np.sort(got_ids), np.arange(expected.size)):
        return "final ids are not a permutation of the input positions"
    if not np.array_equal(state.keys_np[key_set][got_ids], got_keys):
        return "keys[final_ids[i]] != final_keys[i]"
    return None


@dataclass
class OpRecord:
    pos: int
    elapsed: Optional[float]
    #: ``(stats.as_dict(), rem_tilde)``; ``None`` when the call raised.
    result: Optional[tuple]
    #: TEPMW (Eq. 2) of the call; ``None`` when it raised.
    tepmw: Optional[float]
    ok: bool
    plan: Optional[dict]
    #: ``elapsed`` at the reference host speed; untraced phase only.
    scaled: Optional[float] = None


def attempt(
    workload: Workload, pos: int, run: Callable[[Op], CallResult],
    state: State,
) -> OpRecord:
    op = workload.cycle[pos]
    label = f"[{workload.name}] op {pos} ({op.sorter}, T={op.t})"
    try:
        elapsed, stats, rem_tilde, final_keys, final_ids, sorter = run(op)
    except Exception:
        # An op that raises is a failed op; the loop goes on to the next.
        print(f"{label} raised:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return OpRecord(pos, None, None, None, False, None)
    problem = output_problem(state, op.key_set, final_keys, final_ids)
    if problem is not None:
        print(f"{label}: {problem}", file=sys.stderr)
    plan = getattr(sorter, "last_plan", None)
    return OpRecord(
        pos, elapsed, (stats.as_dict(), rem_tilde),
        stats.equivalent_precise_writes, problem is None,
        {"pooled": plan["pooled"], "workers": plan["workers"]}
        if plan else None,
    )


def run_phase(
    workload: Workload, budget_s: float, max_ops: Optional[int],
    run_pos: Callable[[int], object],
) -> list:
    """Closed loop over the cycle: ``max_ops`` ops, or whole cycles until
    the next one, at the mean cycle time so far, would overrun
    ``budget_s``.  At least one cycle runs."""
    size = len(workload.cycle)
    records = []
    start = time.perf_counter()
    i = 0
    while True:
        if max_ops is not None:
            if i >= max_ops:
                break
        elif i and i % size == 0:
            cycles = i // size
            elapsed = time.perf_counter() - start
            if elapsed * (cycles + 1) / cycles > budget_s:
                break
        records.append(run_pos(i % size))
        i += 1
    return records


def first_by_position(records: "list[OpRecord]") -> "dict[int, OpRecord]":
    firsts: "dict[int, OpRecord]" = {}
    for record in records:
        firsts.setdefault(record.pos, record)
    return dict(sorted(firsts.items()))


# ---------------------------------------------------------------------- #
# The workload process
# ---------------------------------------------------------------------- #


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _p90(values: "list[float]") -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def _timings(times: "dict[int, list[float]]", n: int) -> dict:
    """``op_p50_s``, ``op_p90_s`` and ``keys_per_s`` of per-position op
    times: each position at its median over the cycles, so that every cycle
    position weighs the same."""
    op_s = [statistics.median(by_pos) for by_pos in times.values()]
    return {
        "op_p50_s": _metric(statistics.median(op_s), "s"),
        "op_p90_s": _metric(_p90(op_s), "s"),
        "keys_per_s": _metric(n * len(op_s) / sum(op_s), "keys/s"),
    }


def _peak_rss_mb() -> float:
    """Peak resident set of this process or any child it reaped, in MB."""
    scale = 1024.0 * (1024.0 if sys.platform == "darwin" else 1.0)
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / scale


def _end_children() -> None:
    """Reap the pool workers and the shared-memory resource tracker, so no
    process this one started outlives it."""
    shutdown_pools()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, quick: bool,
    imports_s: float,
) -> dict:
    """Set up, measure and check one workload; returns its record."""
    workload = WORKLOADS[name]
    n = workload.n // QUICK_DIVISOR if quick else workload.n
    max_ops = QUICK_OPS if quick else None

    speed = HostSpeed()
    # The imports ended just before the first reference run.
    imports_scaled = speed.scale(imports_s)
    state = None
    setups = []
    for _ in range(SETUP_REPS):
        state = None  # release the previous set-up's inputs first
        t0 = time.perf_counter()
        state = setup(workload, n, seed)
        elapsed = time.perf_counter() - t0
        setups.append((speed.scale(elapsed), elapsed, state.times))

    ledger = Ledger()

    def untraced_op(pos: int) -> OpRecord:
        return attempt(workload, pos, lambda op: call(op, state, seed), state)

    def timed_op(pos: int) -> OpRecord:
        record = untraced_op(pos)
        if record.elapsed is not None:
            record.scaled = speed.scale(record.elapsed)
        return record

    def traced_op(pos: int) -> OpRecord:
        with installed(ledger):
            return attempt(
                workload, pos, lambda op: replay(op, state, seed, ledger),
                state,
            )

    untraced = run_phase(workload, seconds, max_ops, timed_op)
    # Each traced op right after an untraced run of the same op, so that the
    # overhead compares the two under the same machine conditions.
    pairs = run_phase(
        workload, seconds / 2, max_ops,
        lambda pos: (untraced_op(pos), traced_op(pos)),
    ) if trace else []
    _end_children()

    reference = first_by_position(untraced)
    plain = untraced + [p for p, _ in pairs]
    for record in plain:
        first = reference[record.pos]
        if record is not first and record.result != first.result:
            print(
                f"[{name}] op {record.pos}: repeat differs from its first"
                " run with the same inputs and seeds", file=sys.stderr,
            )
            record.ok = False
    records = plain + [t for _, t in pairs]
    failed = sum(not r.ok for r in records)

    metrics = {
        "setup_s": _metric(
            imports_scaled + statistics.median(s for s, _, _ in setups), "s"
        ),
        "wall.setup_s": _metric(
            imports_s + statistics.median(s for _, s, _ in setups), "s"
        ),
    }
    scaled: "dict[int, list[float]]" = {}
    wall: "dict[int, list[float]]" = {}
    for record in untraced:
        if record.elapsed is not None:
            scaled.setdefault(record.pos, []).append(record.scaled)
            wall.setdefault(record.pos, []).append(record.elapsed)
    samples = sum(len(by_pos) for by_pos in scaled.values())
    if scaled:
        metrics.update(_timings(scaled, n))
        metrics.update({
            f"wall.{name}": metric
            for name, metric in _timings(wall, n).items()
        })
    metrics["host.slowdown"] = _metric(
        statistics.median(speed.samples) / REFERENCE_S, "ratio"
    )
    ratios = [
        r.tepmw / state.baseline[
            (workload.cycle[pos].baseline, workload.cycle[pos].key_set)
        ]
        for pos, r in reference.items() if r.tepmw is not None
    ]
    if ratios:
        tepmw_ratio = statistics.fmean(ratios)
        metrics["tepmw_ratio"] = _metric(tepmw_ratio, "ratio")
        metrics["write_reduction"] = _metric(1.0 - tepmw_ratio, "ratio")
    metrics["ok_frac"] = _metric(1.0 - failed / len(records), "ratio")
    metrics["fail_frac"] = _metric(failed / len(records), "ratio")
    metrics["peak_rss_mb"] = _metric(_peak_rss_mb(), "MB")

    firsts = [r.result for r in reference.values() if r.result is not None]
    if trace:
        metrics.update(
            _layer_metrics(setups, firsts, pairs, ledger, reference)
        )
    plans = [r.plan for r in untraced if r.plan is not None]
    return {
        "workload": name,
        "n": n,
        "cycle_ops": len(workload.cycle),
        "samples": samples,
        "attempted": len(records),
        "failed": failed,
        "traced_ops": len(pairs),
        "kernels": KERNELS,
        "engaged": plans[-1] if plans else {"pooled": False, "workers": 0},
        "digest": hashlib.sha256(
            json.dumps(firsts, sort_keys=True).encode()
        ).hexdigest(),
        "metrics": metrics,
    }


def _layer_metrics(
    setups: list, firsts: list, pairs: list, ledger: Ledger,
    reference: "dict[int, OpRecord]",
) -> dict:
    metrics = {}
    for layer in SETUP_LAYERS:
        metrics[layer] = _metric(
            statistics.median(times[layer] for _, _, times in setups), "s"
        )

    count = max(1, len(firsts))
    for name, field in STATS_COUNTS.items():
        metrics[name] = _metric(
            sum(stats[field] for stats, _ in firsts) / count, "count"
        )
    metrics["memory.tepmw"] = _metric(
        sum(r.tepmw for r in reference.values() if r.tepmw is not None)
        / count, "count"
    )
    metrics["core.rem_tilde"] = _metric(
        sum(rem for _, rem in firsts) / count, "count"
    )

    ops = max(1, len(pairs))
    for name, family in TIMED_LAYERS.items():
        metrics[name] = _metric(ledger.family(family).inclusive / ops, "s")
    metrics["sorting.self_s"] = _metric(
        ledger.family("sorting.sort").self_s / ops, "s"
    )
    writes = ledger.family(APPROX_WRITE)
    metrics["memory.approx_write_calls"] = _metric(
        writes.calls / ops, "count"
    )
    metrics["memory.words_per_write_call"] = _metric(
        writes.words / writes.calls if writes.calls else 0.0, "count"
    )
    plans = [t.plan for _, t in pairs if t.plan is not None]
    plan = plans[-1] if plans else {"pooled": False, "workers": 0}
    metrics["parallel.pooled"] = _metric(int(plan["pooled"]), "count")
    metrics["parallel.workers"] = _metric(plan["workers"], "count")

    done = [
        (p.elapsed, t.elapsed) for p, t in pairs
        if p.elapsed is not None and t.elapsed is not None
    ]
    plain_wall = sum(p for p, _ in done)
    traced_wall = sum(t for _, t in done)
    metrics["trace.op_s"] = _metric(traced_wall / max(1, len(done)), "s")
    metrics["trace.unattributed_frac"] = _metric(
        (traced_wall - ledger.covered) / traced_wall if traced_wall else 0.0,
        "ratio",
    )
    metrics["trace.overhead_frac"] = _metric(
        traced_wall / plain_wall - 1.0 if plain_wall else 0.0, "ratio"
    )
    metrics["trace.stats_mismatch"] = _metric(
        sum(t.result != reference[t.pos].result for _, t in pairs), "count"
    )
    return metrics
