"""Persistent fork-based worker pool for shard tasks.

The pool exists to make multi-process shard execution *cheap enough to be
optional*: workers are forked once, kept alive across sorts (a 16M-key
fig09 run dispatches hundreds of shard waves), and receive only small
pickled payloads — the key data itself travels through
``multiprocessing.shared_memory`` segments that both sides map as numpy
views (:mod:`repro.parallel.sharded`).

Design constraints:

* **Fork only.**  Workers must inherit the parent's imported modules and
  compiled error models by address-space copy; spawn would re-import and
  re-pickle per task.  On platforms without fork (or inside a pool worker
  itself) callers fall back to in-process execution — which is bit-identical
  by construction, so the fallback is a pure performance decision.
* **Late task binding.**  A task is addressed as ``(module, function)`` and
  resolved by ``importlib`` *inside the worker*, so tasks registered after
  the pool forked still work; the worker imports the module on first use.
* **Deterministic results.**  ``run`` returns results in submission order
  regardless of completion order, and a worker failure re-raises in the
  parent with the worker's traceback text — shard errors must fail the sort,
  not silently drop a shard.
"""

from __future__ import annotations

import atexit
import importlib
import multiprocessing
import os
import time
import traceback
from typing import Any, Sequence

from repro.obs.flight import dump_flight, get_flight
from repro.obs.tracer import get_tracer

#: One dispatchable unit: (module name, function name, pickled payload).
Call = "tuple[str, str, Any]"


def fork_available() -> bool:
    """True when this platform can fork (the only pool start method)."""
    return "fork" in multiprocessing.get_all_start_methods()


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (``taskset`` and cgroup cpusets shrink it), else the host's
    count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _resolve_task(module_name: str, func_name: str):
    module = importlib.import_module(module_name)
    return getattr(module, func_name)


def _worker_main(tasks, results, worker_index: int = 0) -> None:
    """Worker loop: pull ``(task_id, module, func, payload)``, push results
    as ``(task_id, ok, value, worker_index, elapsed_s)``.

    Any exception (including KeyboardInterrupt cascades) is captured as a
    traceback string; the worker itself keeps serving — a poisoned payload
    must not take the whole pool down with it.  A failing task records the
    failure in the worker's flight ring and dumps it (when
    ``REPRO_FLIGHT_DIR`` is armed), so the poisoned shard leaves its own
    post-mortem with the events leading up to the raise.
    """
    flight = get_flight()
    while True:
        item = tasks.get()
        if item is None:
            return
        task_id, module_name, func_name, payload = item
        t0 = time.perf_counter()
        try:
            func = _resolve_task(module_name, func_name)
            value = func(payload)
            results.put(
                (task_id, True, value, worker_index,
                 time.perf_counter() - t0)
            )
        except BaseException:
            flight.record(
                "pool_task_failed", f"{module_name}.{func_name}",
                task=task_id, worker=worker_index,
                error=traceback.format_exc(limit=4),
            )
            dump_flight(f"pool-task-{task_id}")
            results.put(
                (task_id, False, traceback.format_exc(), worker_index,
                 time.perf_counter() - t0)
            )


class WorkerError(RuntimeError):
    """A shard task failed in a worker; carries the worker traceback."""


class WorkerPool:
    """Fixed set of forked daemon workers around a shared task queue."""

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if not fork_available():
            raise RuntimeError("WorkerPool requires the fork start method")
        # Start the parent's resource tracker *before* forking: workers then
        # inherit it, so their shared-memory attach registrations land in
        # the parent's (set-idempotent) cache instead of spawning per-worker
        # trackers that would try to clean up segments the parent owns.
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
        ctx = multiprocessing.get_context("fork")
        self.workers = workers
        self._closed = False
        self._tasks = ctx.SimpleQueue()
        self._results = ctx.SimpleQueue()
        self._procs = [
            ctx.Process(
                target=_worker_main,
                args=(self._tasks, self._results, i),
                daemon=True,
                name=f"repro-shard-{i}",
            )
            for i in range(workers)
        ]
        for proc in self._procs:
            proc.start()

    def alive(self) -> bool:
        return all(proc.is_alive() for proc in self._procs)

    def run(self, calls: Sequence[tuple]) -> list:
        """Execute ``(module, func, payload)`` calls; results in call order.

        Tasks are fed from a helper thread while this thread drains results.
        Feeding them inline would deadlock on large payloads: the task pipe
        fills, the parent blocks in ``put``, every worker blocks putting a
        result the parent is not yet reading, and nobody moves.  Failures
        are collected (not raised mid-drain) so the queues are empty and the
        pool reusable when the first failure finally raises.

        When tracing is on, each drained result emits ``pool.tasks`` (and
        ``pool.task_failures``) counters and a ``pool.task_s`` gauge (the
        worker-measured task seconds), attributed to the worker index, plus
        a ``pool.queue_depth`` gauge (results still outstanding).
        """
        import threading

        def feed() -> None:
            for task_id, (module_name, func_name, payload) in enumerate(calls):
                self._tasks.put((task_id, module_name, func_name, payload))

        feeder = threading.Thread(target=feed, name="repro-pool-feed",
                                  daemon=True)
        feeder.start()
        tracer = get_tracer()
        results: list = [None] * len(calls)
        failure: "tuple | None" = None
        outstanding = len(calls)
        for _ in range(len(calls)):
            task_id, ok, value, worker_index, elapsed_s = self._results.get()
            outstanding -= 1
            if tracer.enabled:
                attrs = {"worker": worker_index}
                tracer.counter("pool.tasks", attrs=attrs)
                if not ok:
                    tracer.counter("pool.task_failures", attrs=attrs)
                tracer.gauge("pool.task_s", elapsed_s, attrs=attrs)
                tracer.gauge("pool.queue_depth", outstanding)
            if not ok and failure is None:
                failure = (task_id, value)
            results[task_id] = value
        feeder.join()
        if failure is not None:
            task_id, value = failure
            get_flight().record(
                "pool_task_failed_parent",
                f"{calls[task_id][0]}.{calls[task_id][1]}", task=task_id,
            )
            dump_flight(f"pool-run-task-{task_id}")
            raise WorkerError(
                f"shard task {calls[task_id][0]}.{calls[task_id][1]} "
                f"failed in worker:\n{value}"
            )
        return results

    def shutdown(self) -> None:
        if self._closed:
            return
        self._closed = True
        for _ in self._procs:
            self._tasks.put(None)
        for proc in self._procs:
            proc.join(timeout=5)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1)
        self._tasks.close()
        self._results.close()


#: Pools by worker count, owned by the pid that built them.  The pid guard
#: drops inherited pool handles after a fork: a child must never enqueue
#: into its parent's queues.
_POOLS: dict[int, WorkerPool] = {}
_POOLS_PID: int | None = None


def get_pool(workers: int) -> WorkerPool:
    """The persistent pool with ``workers`` workers, built on first use."""
    global _POOLS_PID
    if _POOLS_PID != os.getpid():
        _POOLS.clear()
        _POOLS_PID = os.getpid()
    pool = _POOLS.get(workers)
    if pool is not None and not pool.alive():
        pool.shutdown()
        pool = None
    if pool is None:
        pool = WorkerPool(workers)
        _POOLS[workers] = pool
    return pool


def shutdown_pools() -> None:
    """Tear down every pool this process owns (atexit + test hygiene)."""
    if _POOLS_PID == os.getpid():
        for pool in _POOLS.values():
            pool.shutdown()
    _POOLS.clear()


atexit.register(shutdown_pools)
