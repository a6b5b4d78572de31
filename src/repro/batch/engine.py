"""The batched execution engine: B independent jobs, one kernel dispatch.

:func:`run_batch` takes a list of :class:`BatchJob` (sort/refine requests),
groups them by (memory config, algorithm, kernel mode), and routes each
group through segmented kernels that advance all of the group's jobs per
vectorized pass — the fourth execution substrate after scalar, numpy and
sharded, and the coalescing core ROADMAP item 1's batch server needs.

Contracts (tested in ``tests/batch`` and by the ``batched_loop`` oracle):

* every job's final keys/IDs, ``MemoryStats`` and per-stage stats are
  bit-identical to its looped :func:`repro.core.approx_refine` execution —
  on precise *and* approximate memory (each segment consumes its own
  corruption RNG streams exactly as the looped run would);
* the per-segment stats tile the batch aggregate exactly
  (:func:`repro.batch.segments.tiled_aggregate`);
* empty, singleton and heterogeneous-length jobs are first-class.

Algorithms without a segmented kernel (the recursive/value-dependent
sorters) run per-segment inside the engine with fresh per-job sorter
instances — same results, no cross-pass amortization.  Runs under the
sanitizer or ``REPRO_SHARDS`` fall back to the looped pipeline entirely:
those observers are calibrated against the looped access pattern.  An
enabled tracer does **not** stand the engine down: the engine synthesizes
per-segment ``batch.segment`` spans from its per-job stats after the
vectorized passes (tiling the ``batch.run`` aggregate bit-exactly — the
``batch_span_tiling`` oracle class), so traced runs measure the same fast
path they observe.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.approx_refine import run_approx_refine, run_precise_baseline
from repro.core.refine import merge_refined, sort_rem_ids
from repro.core.report import ApproxRefineResult, BaselineResult
from repro.errors import ConfigError
from repro.kernels import resolve_kernels
from repro.memory.approx_array import ApproxArray
from repro.memory.stats import MemoryStats
from repro.metrics.sortedness import rem_ratio
from repro.obs import get_metrics, get_tracer
from repro.obs.tracer import stats_to_dict
from repro.sorting.registry import SHARDS_ENV, make_base_sorter
from repro.verify import sanitizing

from .segmented_kernels import (
    find_rem_segments,
    lsd_sort_segments_approx,
    merge_sort_segments_approx,
    sort_rem_segments,
    sort_segments_precise,
)
from .segments import (
    SegmentPlan,
    approx_views,
    concat_segments,
    identity_ids,
    precise_views,
)

#: Sorters with a fully segmented kernel: the stable sorters that publish a
#: ``precise_schedule``.
LSD_BITS = {f"lsd{bits}": bits for bits in (3, 4, 5, 6)}
SEGMENTED_SORTERS = tuple(LSD_BITS) + ("mergesort",)


@dataclass
class BatchJob:
    """One sort/refine request for the batch engine.

    ``memory=None`` requests the precise baseline sort
    (:func:`repro.core.approx_refine.run_precise_baseline`); a memory
    factory requests the full approx-refine pipeline.  ``sorter`` is a
    registry name (grouping needs names, not instances).
    """

    keys: Sequence[int]
    sorter: str
    memory: object = None
    seed: int = 0
    kernels: Optional[str] = None


def _env_shards() -> int:
    raw_value = os.environ.get(SHARDS_ENV)
    try:
        return int(raw_value) if raw_value else 1
    except ValueError:
        return 1


def _needs_looped_run() -> bool:
    """Process-wide conditions under which the engine defers to the loop.

    The sanitizer shadows are calibrated against the looped access
    pattern; sharded sorters bring their own fan-out.  Both fall back to
    per-job looped execution — slower, identical results.  An enabled
    tracer is *not* a fallback condition: traced batches stay on the
    vectorized path and synthesize their span stream afterwards
    (:func:`_emit_batch_spans`).
    """
    return sanitizing() or _env_shards() >= 2


def _memory_batchable(memory) -> bool:
    """Whether the memory factory produces plain ApproxArrays.

    The segmented kernels manage corruption through :class:`ApproxArray`'s
    documented RNG streams; any other array type (spintronic, wrappers)
    runs looped.
    """
    probe = memory.make_array([0], stats=MemoryStats(), seed=0)
    return type(probe) is ApproxArray


def _run_one(job: BatchJob):
    if job.memory is None:
        return run_precise_baseline(job.keys, job.sorter, kernels=job.kernels)
    return run_approx_refine(
        job.keys, job.sorter, job.memory, seed=job.seed, kernels=job.kernels
    )


def run_batch(jobs: Sequence[BatchJob]) -> list:
    """Execute every job, batched where possible; results in job order."""
    results: list = [None] * len(jobs)
    tracer = get_tracer()
    metrics = get_metrics()
    looped = _needs_looped_run()
    groups: dict[tuple, list[int]] = {}
    for i, job in enumerate(jobs):
        if not isinstance(job.sorter, str) or job.sorter.startswith("sharded:"):
            if metrics.enabled:
                metrics.inc("batch.fallback", reason="sorter")
            results[i] = _run_one(job)
            continue
        key = (job.sorter, job.kernels, id(job.memory) if job.memory is not None else None)
        groups.setdefault(key, []).append(i)
    for indices in groups.values():
        first = jobs[indices[0]]
        if looped or (
            first.memory is not None and not _memory_batchable(first.memory)
        ):
            if metrics.enabled:
                reason = (
                    ("sanitize" if sanitizing() else "shards")
                    if looped else "memory"
                )
                metrics.inc("batch.fallback", value=len(indices),
                            reason=reason)
            for i in indices:
                results[i] = _run_one(jobs[i])
            continue
        t0 = time.perf_counter()
        if first.memory is None:
            lane = "precise"
            batch = run_precise_sort_batch(
                [jobs[i].keys for i in indices], first.sorter,
                kernels=first.kernels,
            )
        else:
            lane = "approx"
            batch = run_approx_refine_batch(
                [jobs[i].keys for i in indices], first.sorter, first.memory,
                seeds=[jobs[i].seed for i in indices], kernels=first.kernels,
            )
        wall_s = time.perf_counter() - t0
        for i, result in zip(indices, batch):
            results[i] = result
        if metrics.enabled:
            metrics.inc("batch.groups")
            metrics.inc("batch.jobs_coalesced", value=len(indices))
            metrics.observe("batch.segments_per_group", len(indices),
                            lane=lane)
        if tracer.enabled:
            _emit_batch_spans(
                tracer, first.sorter, first.kernels, lane, batch, wall_s
            )
    return results


def run_job_group(jobs: Sequence[BatchJob]) -> list:
    """Execute one *externally assembled* same-config job group.

    The admission scheduler of :mod:`repro.serve` (and any other caller
    that already buckets its requests) assembles coalescing groups itself.
    :func:`run_batch` would accept such a group as-is, but it would also
    silently *re-group* a caller mistake — jobs with mixed configs would
    quietly split into several kernel dispatches and the caller's batching
    arithmetic (window sizing, fairness accounting) would be wrong without
    any signal.  This entry point makes the contract explicit: every job
    must share the same ``(sorter, kernels)`` and the same ``memory``
    object (``ConfigError`` otherwise), and the validated group then runs
    through the engine as exactly one group — same fallbacks, same
    metrics, same synthesized span stream, same per-job bit-identity
    contract as :func:`run_batch`.

    Results are returned in job order.
    """
    if not jobs:
        return []
    first = jobs[0]
    for job in jobs:
        if (
            job.sorter != first.sorter
            or job.kernels != first.kernels
            or job.memory is not first.memory
        ):
            raise ConfigError(
                "run_job_group requires a same-config group: every job must"
                " share sorter, kernels and the memory factory instance"
                f" (got {job.sorter!r}/{job.kernels!r} vs"
                f" {first.sorter!r}/{first.kernels!r}); use run_batch for"
                " mixed-config batches"
            )
    return run_batch(list(jobs))


def _emit_batch_spans(
    tracer, name: str, kernels: Optional[str], lane: str,
    results: Sequence, wall_s: float,
) -> None:
    """Synthesize the span stream for one executed batch group.

    The vectorized passes advance all segments per pass, so there is no
    real per-job region to trace.  Instead the engine replays its per-job
    stats into a well-formed chain after the fact: one ``batch.run`` span
    carrying the group aggregate, and one ``batch.segment`` child per job
    whose ``cum_start``/``cum`` counters chain verbatim — adjacent
    segments tile the aggregate by pure dict equality, exactly the
    contract real nested spans satisfy (verified by the
    ``batch_span_tiling`` oracle class and ``report --check``).

    Each segment's ``stats`` field is recomputed as ``cum - cum_start``
    (not copied from the per-job stats), so the report's exactness check
    holds bit-for-bit even for the one float field, where re-summation
    can differ in the last ulp.  Wall-clock has no per-job measurement
    either; it is apportioned by segment length.
    """
    parent = tracer.current_span
    run_id = tracer.allocate_span_id()
    run_attrs = {"algo": name, "kernels": kernels, "lane": lane,
                 "jobs": len(results)}
    tracer.emit({"ev": "span_start", "id": run_id, "parent": parent,
                 "name": "batch.run", "attrs": run_attrs})
    total_n = sum(result.n for result in results)
    zero = stats_to_dict(MemoryStats())
    cum = dict(zero)
    for result in results:
        segment_id = tracer.allocate_span_id()
        attrs = {"algo": name, "n": result.n, "lane": lane}
        tracer.emit({"ev": "span_start", "id": segment_id, "parent": run_id,
                     "name": "batch.segment", "attrs": attrs})
        cum_start = cum
        job_stats = stats_to_dict(result.stats)
        cum = {
            field: cum_start[field] + job_stats[field] for field in cum_start
        }
        delta = {field: cum[field] - cum_start[field] for field in cum}
        share = (
            wall_s * (result.n / total_n) if total_n
            else wall_s / len(results)
        )
        tracer.emit({"ev": "span_end", "id": segment_id, "parent": run_id,
                     "name": "batch.segment", "wall_s": share,
                     "stats": delta, "cum_start": cum_start, "cum": cum,
                     "attrs": attrs})
    run_delta = {field: cum[field] - zero[field] for field in cum}
    tracer.emit({"ev": "span_end", "id": run_id, "parent": parent,
                 "name": "batch.run", "wall_s": wall_s,
                 "stats": run_delta, "cum_start": zero, "cum": dict(cum),
                 "attrs": run_attrs})


class _StageWindows:
    """Per-segment stage deltas via the StageRecorder snapshot arithmetic."""

    def __init__(self, stats_list: Sequence[MemoryStats]) -> None:
        self._stats_list = stats_list
        self.stage_maps: list[dict[str, MemoryStats]] = [
            {} for _ in stats_list
        ]
        self._name: Optional[str] = None
        self._snaps: list[MemoryStats] = []

    def stage(self, name: str) -> "_StageWindows":
        self._name = name
        self._snaps = [stats.snapshot() for stats in self._stats_list]
        return self

    def __enter__(self) -> "_StageWindows":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        for j, stats in enumerate(self._stats_list):
            self.stage_maps[j][self._name] = stats.delta_since(self._snaps[j])
        return False


def run_approx_refine_batch(
    keys_list: Sequence[Sequence[int]],
    sorter: str,
    memory,
    seeds: Optional[Sequence[int]] = None,
    kernels: Optional[str] = None,
) -> list[ApproxRefineResult]:
    """Batched approx-refine: the looped seven-stage pipeline, segmented.

    Every stage touches all segments before the next stage starts, through
    the segmented kernels where the algorithm has one and per-segment
    otherwise; per-job results are bit-identical to
    :func:`repro.core.approx_refine.run_approx_refine` with the same
    (keys, sorter, memory, seed, kernels).
    """
    name = sorter
    count = len(keys_list)
    job_seeds = list(seeds) if seeds is not None else [0] * count
    key0_buf, plan = concat_segments(keys_list)
    stats_list = [MemoryStats() for _ in range(count)]
    windows = _StageWindows(stats_list)

    with windows.stage("warm_up"):
        key0 = precise_views(key0_buf, plan, stats_list, "Key0")
        ids = precise_views(identity_ids(plan), plan, stats_list, "ID")

    with windows.stage("approx_preparation"):
        approx_buf = np.zeros(plan.total, dtype=np.uint32)
        approx = approx_views(approx_buf, plan, memory, stats_list, job_seeds)
        for j in range(count):
            approx[j].load_from(key0[j])

    instances = None
    with windows.stage("approx_stage"):
        if name in LSD_BITS:
            lsd_sort_segments_approx(approx, ids, LSD_BITS[name])
        elif name == "mergesort" and resolve_kernels(kernels) == "numpy":
            merge_sort_segments_approx(approx, ids)
        else:
            # No segmented kernel (or corruption semantics that are only
            # statistically equal across groupings): per-segment execution
            # with fresh instances, exactly the looped resolve.
            kwargs = {} if kernels is None else {"kernels": kernels}
            instances = [make_base_sorter(name, **kwargs) for _ in range(count)]
            for j in range(count):
                instances[j].sort(approx[j], ids[j])
    approx_rem = [rem_ratio(approx[j].to_list()) for j in range(count)]

    with windows.stage("refine_preparation"):
        pass

    with windows.stage("refine_find_rem"):
        rem_lists = find_rem_segments(ids, key0)

    with windows.stage("refine_sort_rem"):
        if name in SEGMENTED_SORTERS:
            # The REM sort always runs on a precise shadow, so the stable
            # closed-form sorters collapse even when the approx stage fell
            # back (e.g. mergesort in scalar mode) — they carry no state
            # between the two sorts.
            sorted_rem = sort_rem_segments(
                rem_lists, key0, make_base_sorter(name)
            )
        else:
            sorted_rem = [
                sort_rem_ids(
                    rem_lists[j], key0[j], instances[j], stats_list[j],
                    kernels=kernels,
                )
                for j in range(count)
            ]

    with windows.stage("refine_merge"):
        final_key_views = precise_views(
            np.zeros(plan.total, dtype=np.uint32), plan, stats_list, "finalKey"
        )
        final_id_views = precise_views(
            np.zeros(plan.total, dtype=np.uint32), plan, stats_list, "finalID"
        )
        for j in range(count):
            # The two merge kernels are bit-identical in outputs and
            # counts, so the vectorized one serves both kernel modes.
            merge_refined(
                ids[j], key0[j], sorted_rem[j], final_key_views[j],
                final_id_views[j], kernels="numpy",
            )

    return [
        ApproxRefineResult(
            final_keys=final_key_views[j].to_list(),
            final_ids=final_id_views[j].to_list(),
            stats=stats_list[j],
            stage_stats=windows.stage_maps[j],
            rem_tilde=len(rem_lists[j]),
            approx_rem_ratio=approx_rem[j],
            algorithm=name,
            memory_description=memory.description,
            n=plan.lengths[j],
        )
        for j in range(count)
    ]


def run_precise_sort_batch(
    keys_list: Sequence[Sequence[int]],
    sorter: str,
    kernels: Optional[str] = None,
) -> list[BaselineResult]:
    """Batched precise baseline sorts, bit-identical to the looped runs."""
    name = sorter
    count = len(keys_list)
    key_buf, plan = concat_segments(keys_list)
    stats_list = [MemoryStats() for _ in range(count)]
    key_views = precise_views(key_buf, plan, stats_list, "Key")
    id_views = precise_views(identity_ids(plan), plan, stats_list, "ID")
    if name in SEGMENTED_SORTERS:
        sort_segments_precise(key_views, id_views, make_base_sorter(name))
    else:
        kwargs = {} if kernels is None else {"kernels": kernels}
        for j in range(count):
            make_base_sorter(name, **kwargs).sort(key_views[j], id_views[j])
    return [
        BaselineResult(
            final_keys=key_views[j].to_list(),
            final_ids=id_views[j].to_list(),
            stats=stats_list[j],
            algorithm=name,
            n=plan.lengths[j],
        )
        for j in range(count)
    ]
