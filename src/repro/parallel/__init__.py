"""Intra-sort parallelism: sharded sorting over shared memory.

Public surface:

* :class:`~repro.parallel.sharded.ShardedSorter` — key-range sharding
  wrapper around any registry sorter (partition → per-shard sorts in a
  persistent fork pool over ``multiprocessing.shared_memory`` → stats
  reduction → write-combined merge).
* :mod:`~repro.parallel.pool` — the persistent fork worker pool.

A shard sort is a plain ``base.sort`` over the shard window, so precise
shards get the base sorter's own fused path
(:meth:`repro.sorting.base.BaseSorter.sort`), exactly as a serial sort does;
sharding adds no kernels of its own.

Spec strings understood by :func:`repro.sorting.make_sorter`:
``"sharded:<base>"`` and ``"sharded:<base>:<shards>"``; the
``REPRO_SHARDS`` environment variable (set by ``runner.py --shards``)
wraps every plain registry sorter the same way.
"""

from .pool import WorkerPool, fork_available, get_pool, shutdown_pools
from .sharded import SHARD_WORKERS_ENV, ShardedSorter

__all__ = [
    "SHARD_WORKERS_ENV",
    "ShardedSorter",
    "WorkerPool",
    "fork_available",
    "get_pool",
    "shutdown_pools",
]
