"""Sharded sorting over shared memory (DESIGN.md section 12).

:class:`ShardedSorter` wraps any registry sorter and splits one sort into
``shards`` key-range-disjoint sub-sorts.  Sharding is placement, not work:
the wrapper makes no accounted access of its own, so the operands' stats
are exactly the shard sorts' stats.

1. **Load** (parent, unaccounted): peek both operands, assign every key a
   shard by its radix prefix (equal slices of the 32-bit key space), and
   put the stably shard-ordered keys and ids straight into one contiguous
   uint32 buffer — the keys segment, then the ids segment when present.
2. **Shard sorts**: each shard is an array *adopting* a window of that
   buffer (``copy=False`` — no pickling, no copies), with a fresh
   ``MemoryStats`` and a parent-derived RNG seed.  With ``workers >= 2``
   the buffer is a ``multiprocessing.shared_memory`` segment and shards run
   on the persistent fork pool (:mod:`repro.parallel.pool`); otherwise the
   buffer is a plain allocation and shards run in-process.  Both paths
   build identical arrays with identical seeds and run the identical
   kernel, so they are bit-identical in output *and* stats — pooling is
   purely a placement decision.  A shard sort is a plain ``base.sort``, so
   precise shards take the base sorter's fused path exactly as a serial
   sort would (:meth:`repro.sorting.base.BaseSorter.sort`).
3. **Reduce**: per-shard stats merge into the operands' stats in shard
   order (fixed float summation order → bit-exact aggregate), each merge
   wrapped in a ``shard.<i>`` tracer span whose delta *is* that shard's
   stats — the aggregate tiles exactly the way ``repro.obs`` span deltas
   tile over a serial run.
4. **Unload** (parent, unaccounted): shard ranges are disjoint and
   ordered, so the sorted buffer is the sorted result, and
   ``poke_block_np`` stores it back into the operands.

The wrapper delegates to the base sorter unchanged whenever a sharded
plan could not be bit-faithful: per-access trace hooks attached, operand
types it does not know byte-for-byte (sanitizer shadows, write-combining
fronts — anything but the three concrete memory classes), or arrays below
``min_n``.
"""

from __future__ import annotations

from multiprocessing import shared_memory
from typing import Optional

import numpy as np

from repro.errors import ConfigError
from repro.kernels import resolve_kernels
from repro.memory.approx_array import ApproxArray, InstrumentedArray, PreciseArray
from repro.memory.spintronic import SpintronicArray
from repro.memory.stats import MemoryStats
from repro.obs import get_tracer
from repro.sorting.base import BaseSorter

from .pool import fork_available, get_pool, usable_cpus

#: Module path shipped to workers for late task binding.
_MODULE = "repro.parallel.sharded"

#: Memory kinds a shard plan can rebuild in a worker.  Strict type checks
#: (not isinstance) — a subclass or wrapper may carry extra semantics the
#: worker-side rebuild would silently drop.
_KINDS = {PreciseArray: "precise", ApproxArray: "pcm", SpintronicArray: "spin"}


def _memory_spec(array: InstrumentedArray) -> tuple:
    """Picklable recipe rebuilding ``array``'s memory kind over a buffer."""
    kind = _KINDS[type(array)]
    if kind == "pcm":
        return (kind, array.model, array.precise_iterations)
    if kind == "spin":
        return (kind, array.model)
    return (kind,)


def _build_shard_array(
    spec: tuple, segment: np.ndarray, stats: MemoryStats, seed: int, name: str
) -> InstrumentedArray:
    """Array of kind ``spec`` adopting ``segment`` (no copy, fresh write
    counts)."""
    kind = spec[0]
    if kind == "precise":
        return PreciseArray(segment, stats=stats, name=name, copy=False)
    if kind == "pcm":
        return ApproxArray(
            segment, model=spec[1], precise_iterations=spec[2],
            stats=stats, seed=seed, name=name, copy=False,
        )
    if kind == "spin":
        return SpintronicArray(
            segment, model=spec[1], stats=stats, seed=seed, name=name,
            copy=False,
        )
    raise ValueError(f"unknown memory spec {spec!r}")


def _sort_shard_segment(
    base: BaseSorter,
    spec: tuple,
    keys_segment: np.ndarray,
    ids_segment: Optional[np.ndarray],
    seed: int,
    name: str,
) -> "tuple[MemoryStats, MemoryStats]":
    """Sort one shard window in place; returns its (keys, ids) stats.

    This is the *single* implementation both execution paths run — the pool
    worker over a shared-memory view, the in-process path over a slice of
    the local shard buffer.  Bit-identity between the paths reduces to
    this function being deterministic in (contents, spec, seed, sorter).
    """
    keys_stats = MemoryStats()
    ids_stats = MemoryStats()
    keys = _build_shard_array(spec, keys_segment, keys_stats, seed, name)
    ids = (
        PreciseArray(ids_segment, stats=ids_stats, name=f"{name}.ids", copy=False)
        if ids_segment is not None
        else None
    )
    base.sort(keys, ids)
    return keys_stats, ids_stats


def _sort_shard_task(payload: dict) -> "tuple[MemoryStats, MemoryStats]":
    """Pool task: sort one shard of a shared-memory segment.

    The payload carries only names, offsets and the (small) picklable
    memory spec; the key data stays in the shared segment.  The worker
    attaches, sorts the window in place, detaches, and returns the shard's
    fresh stats.

    When the dispatching parent was tracing, the payload also carries a
    ``trace`` context (parent pid, open span id, run id); the worker wraps
    the shard in a ``shard.task`` span stamping that context into attrs,
    so the report can parent the worker's part-file spans back under the
    parent's ``sort.sharded:*`` span after the runner merges the parts.
    """
    # Attaching re-registers the segment with the resource tracker the
    # worker inherited from the parent at fork (the pool guarantees it was
    # already running) — a set-idempotent no-op, balanced by the single
    # unregister the parent's unlink sends.
    shm = shared_memory.SharedMemory(name=payload["shm"])
    try:
        tracer = get_tracer()
        context = payload.get("trace")
        if tracer.enabled and context is not None:
            attrs = {
                "name": payload["name"],
                "trace_parent_pid": context["pid"],
                "trace_parent_span": context["span"],
            }
            if context.get("run") is not None:
                attrs["run"] = context["run"]
            with tracer.span("shard.task", attrs=attrs):
                return _sort_shard_attached(shm, payload)
        return _sort_shard_attached(shm, payload)
    finally:
        # _sort_shard_attached's views died with its frame, so no exported
        # buffers remain and close() cannot raise BufferError.
        shm.close()


def _sort_shard_attached(
    shm: shared_memory.SharedMemory, payload: dict
) -> "tuple[MemoryStats, MemoryStats]":
    from repro.sorting.registry import make_sorter

    buf = np.frombuffer(shm.buf, dtype=np.uint32, count=payload["total"])
    offset = payload["offset"]
    count = payload["count"]
    keys_segment = buf[offset : offset + count]
    ids_offset = payload["ids_offset"]
    ids_segment = (
        buf[ids_offset : ids_offset + count] if ids_offset is not None else None
    )
    base = make_sorter(payload["algorithm"], **payload["sorter_kwargs"])
    return _sort_shard_segment(
        base, payload["mem"], keys_segment, ids_segment,
        payload["seed"], payload["name"],
    )


class ShardedSorter(BaseSorter):
    """Key-range sharding wrapper around any registry sorter.

    Parameters
    ----------
    base:
        The sorter run on each shard.  Nesting sharded sorters is rejected.
    shards:
        Number of key-range shards (>= 1; 1 delegates to ``base``).  Shard
        ``j`` owns the keys in ``[j * 2^32 / shards, (j+1) * 2^32 / shards)``.
    workers:
        Pool worker processes.  ``None`` defaults to
        ``min(shards, usable_cpus())``; values below 2 (or platforms without
        fork) run shards in-process — bit-identical to the pooled run by
        construction.
    min_n:
        Below this length sharding overhead cannot pay; delegate to base.
    kernels:
        Kernel mode forwarded to a *copy* of ``base`` (the wrapper itself
        runs no element kernels); ``None`` keeps ``base`` as given.
    """

    def __init__(
        self,
        base: BaseSorter,
        shards: int = 2,
        workers: Optional[int] = None,
        min_n: int = 64,
        kernels: Optional[str] = None,
    ) -> None:
        super().__init__(kernels)
        if isinstance(base, ShardedSorter):
            raise ConfigError("sharded sorters do not nest")
        if shards < 1:
            raise ConfigError(f"shards must be >= 1, got {shards}")
        if workers is not None and workers < 0:
            raise ConfigError(f"workers must be >= 0, got {workers}")
        if kernels is not None:
            from repro.sorting.registry import with_kernels

            base = with_kernels(base, kernels)
        self.base = base
        self.shards = shards
        self.workers = workers
        self.min_n = min_n
        self.name = f"sharded:{base.name}:{shards}"
        #: Introspection of the most recent sharded run (tests, bench, docs);
        #: ``None`` until a sort takes the sharded path.
        self.last_plan: Optional[dict] = None

    # ------------------------------------------------------------------ #
    # Plan gating
    # ------------------------------------------------------------------ #

    def _effective_workers(self) -> int:
        workers = (
            self.workers
            if self.workers is not None
            else min(self.shards, usable_cpus())
        )
        if workers >= 2 and not fork_available():
            workers = 0
        return workers

    def _shardable(
        self, keys: InstrumentedArray, ids: Optional[InstrumentedArray]
    ) -> bool:
        """Whether the sharded plan preserves the serial contract here.

        Wrappers (sanitizer shadows, write-combining fronts) and per-access
        trace hooks need to observe every element access, which the shard
        windows would hide from them; unknown array types cannot be rebuilt
        in a worker.  All of those delegate to the base sorter — same
        result, just unsharded.
        """
        if self.shards < 2 or len(keys) < max(2, self.min_n):
            return False
        if type(keys) not in _KINDS or keys.trace is not None:
            return False
        if ids is not None and (
            type(ids) is not PreciseArray or ids.trace is not None
        ):
            return False
        return True

    # ------------------------------------------------------------------ #
    # Sorter interface
    # ------------------------------------------------------------------ #

    def sort(
        self, keys: InstrumentedArray, ids: Optional[InstrumentedArray] = None
    ) -> None:
        if ids is not None and len(ids) != len(keys):
            raise ValueError(
                f"ids length {len(ids)} does not match keys length {len(keys)}"
            )
        if len(keys) < 2:
            return
        if not self._shardable(keys, ids):
            self.base.sort(keys, ids)
            return
        tracer = get_tracer()
        if tracer.enabled:
            with tracer.span(
                f"sort.{self.name}", stats=keys.stats,
                attrs={"algo": self.name, "n": len(keys),
                       "kernels": resolve_kernels(self.base.kernels),
                       "region": keys.region},
            ):
                self._sort_sharded(keys, ids)
        else:
            self._sort_sharded(keys, ids)

    def expected_key_writes(self, n: int) -> float:
        """The shard sorts' key writes, summed over shards.

        Shard sizes are taken as the even split — the uniform-keys
        expectation of the radix partition.
        """
        if n < 2:
            return 0.0
        if self.shards < 2 or n < max(2, self.min_n):
            return self.base.expected_key_writes(n)
        low = n // self.shards
        remainder = n - low * self.shards
        return sum(
            self.base.expected_key_writes(low + (1 if index < remainder else 0))
            for index in range(self.shards)
        )

    # ------------------------------------------------------------------ #
    # The sharded plan
    # ------------------------------------------------------------------ #

    def _sort_sharded(
        self, keys: InstrumentedArray, ids: Optional[InstrumentedArray]
    ) -> None:
        n = len(keys)
        tracer = get_tracer()

        # ---- load: unaccounted peek, stable shard order --------------- #
        values = keys.peek_block_np(0, n)
        splitters = (
            np.arange(1, self.shards, dtype=np.uint64) << np.uint64(32)
        ) // np.uint64(self.shards)
        shard_of = np.searchsorted(
            splitters, values.astype(np.uint64), side="right"
        )
        order = np.argsort(shard_of, kind="stable")
        counts = np.bincount(shard_of, minlength=self.shards).astype(np.int64)
        offsets = np.zeros(self.shards, dtype=np.int64)
        np.cumsum(counts[:-1], out=offsets[1:])

        # Parent-side seed derivation, in fixed order, *before* any
        # execution-mode branch: every shard's corruption stream is the
        # operand's next clone stream, exactly as clone_empty would derive
        # it, so pooled and in-process runs (and repeated runs under one
        # seed) see identical streams.
        clone_seed = getattr(keys, "_clone_seed", None)
        shard_seeds = [
            clone_seed() if clone_seed is not None else 0
            for _ in range(self.shards)
        ]

        workers = self._effective_workers()
        pooled = workers >= 2
        total = n + (n if ids is not None else 0)
        shm: Optional[shared_memory.SharedMemory] = None
        if pooled:
            shm = shared_memory.SharedMemory(create=True, size=4 * total)
            buffer = np.frombuffer(shm.buf, dtype=np.uint32, count=total)
        else:
            buffer = np.empty(total, dtype=np.uint32)

        try:
            buffer[:n] = values[order]
            if ids is not None:
                buffer[n:] = ids.peek_block_np(0, n)[order]

            # ---- shard sorts (pool or in-process; identical either way) #
            shard_stats = self._run_shards(
                shm, buffer, _memory_spec(keys), counts, offsets,
                shard_seeds, ids is not None, workers, keys.name,
            )

            # ---- stats reduction (fixed order; span delta == shard) --- #
            for index in range(self.shards):
                keys_stats, ids_stats = shard_stats[index]
                with tracer.span(
                    f"shard.{index}", stats=keys.stats,
                    attrs={"algo": self.name,
                           "count": int(counts[index]),
                           "pooled": pooled},
                ):
                    keys.stats.merge(keys_stats)
                if ids is not None:
                    ids.stats.merge(ids_stats)
            tracer.gauge("shard.workers", workers, attrs={"algo": self.name})
            tracer.gauge(
                "shard.max_count", int(counts.max()), attrs={"algo": self.name}
            )

            # ---- unload: the sorted buffer is the result -------------- #
            keys.poke_block_np(0, buffer[:n])
            if ids is not None:
                ids.poke_block_np(0, buffer[n:])

            self.last_plan = {
                "n": n,
                "shards": self.shards,
                "counts": counts.tolist(),
                "workers": workers,
                "pooled": pooled,
                # Each shard's keys stats; merged, they are the operand's.
                "shard_stats": [pair[0] for pair in shard_stats],
            }
        finally:
            if shm is not None:
                # Drop the view into the segment before closing: a numpy
                # array keeps the mapping pinned and close() would raise.
                del buffer
                shm.close()
                shm.unlink()

    def _run_shards(
        self,
        shm: Optional[shared_memory.SharedMemory],
        buffer: np.ndarray,
        spec: tuple,
        counts: np.ndarray,
        offsets: np.ndarray,
        shard_seeds: list,
        with_ids: bool,
        workers: int,
        keys_name: str,
    ) -> "list[tuple[MemoryStats, MemoryStats]]":
        """Sort every shard window, pooled or in-process, in shard order."""
        n = int(counts.sum())
        results: "list[tuple[MemoryStats, MemoryStats]]" = [
            (MemoryStats(), MemoryStats()) for _ in range(self.shards)
        ]
        live = [
            index for index in range(self.shards) if int(counts[index]) >= 2
        ]
        from repro.sorting.registry import _implicit_kwargs, make_sorter

        # Both execution paths rebuild a *fresh* base sorter per shard from
        # the same recipe: a stateful base (quicksort's pivot RNG) must not
        # leak state across shards, or in-process runs would diverge from
        # pooled runs, where every worker task rebuilds from scratch.  The
        # kernel mode is pinned to what the parent resolved — a worker's
        # inherited environment is frozen at fork time and must not decide.
        sorter_kwargs = dict(_implicit_kwargs(self.base))
        sorter_kwargs["kernels"] = resolve_kernels(self.base.kernels)
        if shm is not None and workers >= 2:
            # Cross-process trace context: workers write their own per-pid
            # part files, so the only way their spans can parent correctly
            # after the merge is to ship the parent's (pid, span, run id)
            # along with the task.
            tracer = get_tracer()
            trace_context = (
                {"pid": tracer.pid, "span": tracer.current_span,
                 "run": tracer.run}
                if tracer.enabled else None
            )
            calls = []
            for index in live:
                calls.append((
                    _MODULE,
                    "_sort_shard_task",
                    {
                        "shm": shm.name,
                        "total": buffer.size,
                        "offset": int(offsets[index]),
                        "ids_offset": (
                            n + int(offsets[index]) if with_ids else None
                        ),
                        "count": int(counts[index]),
                        "mem": spec,
                        "seed": shard_seeds[index],
                        "algorithm": self.base.name,
                        "sorter_kwargs": sorter_kwargs,
                        "name": f"{keys_name}.shard{index}",
                        "trace": trace_context,
                    },
                ))
            for index, pair in zip(live, get_pool(workers).run(calls)):
                results[index] = pair
        else:
            for index in live:
                offset = int(offsets[index])
                count = int(counts[index])
                results[index] = _sort_shard_segment(
                    make_sorter(self.base.name, **sorter_kwargs),
                    spec,
                    buffer[offset : offset + count],
                    (
                        buffer[n + offset : n + offset + count]
                        if with_ids
                        else None
                    ),
                    shard_seeds[index],
                    f"{keys_name}.shard{index}",
                )
        return results
