"""Name-based factory for the sorting algorithms.

The experiment harness and the approx-refine mechanism refer to algorithms
by the short names the paper uses in its figures: ``quicksort``,
``mergesort``, ``lsd3``–``lsd6``, ``msd3``–``msd6`` (queue buckets), and the
Appendix-B histogram variants ``hlsd3``–``hlsd6`` / ``hmsd3``–``hmsd6``.
"""

from __future__ import annotations

import os
from typing import Callable

from repro.errors import ConfigError

from .base import BaseSorter
from .insertion import InsertionSort
from .mergesort import Mergesort
from .natural_merge import NaturalMergesort
from .quicksort import Quicksort
from .radix import LSDRadixSort, MSDRadixSort
from .radix_histogram import HistogramLSDRadixSort, HistogramMSDRadixSort

_FACTORIES: dict[str, Callable[[], BaseSorter]] = {
    "quicksort": Quicksort,
    "mergesort": Mergesort,
    "insertion": InsertionSort,
    "natural_merge": NaturalMergesort,
}
for _bits in (3, 4, 5, 6):
    _FACTORIES[f"lsd{_bits}"] = (lambda b: lambda: LSDRadixSort(bits=b))(_bits)
    _FACTORIES[f"msd{_bits}"] = (lambda b: lambda: MSDRadixSort(bits=b))(_bits)
    _FACTORIES[f"hlsd{_bits}"] = (
        lambda b: lambda: HistogramLSDRadixSort(bits=b)
    )(_bits)
    _FACTORIES[f"hmsd{_bits}"] = (
        lambda b: lambda: HistogramMSDRadixSort(bits=b)
    )(_bits)


#: Sorters whose scalar and numpy kernel paths consume the corruption RNG
#: streams identically on *approximate* memory, making whole approx-refine
#: runs bit-identical across kernel modes.  These are the per-pair/block
#: writers: their scalar path already moves keys through the same
#: ``write_block``-shaped accesses the kernels batch.  Quicksort (swap
#: scatters) and mergesort (level-grouped block writes) draw the same
#: distribution through differently-shaped sampler calls, so they agree
#: only statistically (DESIGN.md section 8).  The differential oracle in
#: :mod:`repro.verify` keys its exact-vs-statistical equivalence classes
#: off this set.
APPROX_KERNEL_EXACT = frozenset(
    name
    for name in (
        "insertion",
        "natural_merge",
        *(f"{fam}{bits}" for fam in ("lsd", "msd", "hlsd", "hmsd")
          for bits in (3, 4, 5, 6)),
    )
)


#: Environment variable wrapping every :func:`make_sorter` result in a
#: :class:`~repro.parallel.sharded.ShardedSorter` with this many shards
#: (values below 2 are a no-op).  Set by ``runner.py --shards`` so whole
#: experiments go sharded without any per-site plumbing.
SHARDS_ENV = "REPRO_SHARDS"


def available_sorters() -> list[str]:
    """Names accepted by :func:`make_sorter`, sorted alphabetically.

    Only base algorithm names are listed: the ``sharded:`` spec prefix and
    the :data:`SHARDS_ENV` wrap compose over these rather than extending
    the paper's algorithm set.
    """
    return sorted(_FACTORIES)


def make_base_sorter(name: str, **kwargs) -> BaseSorter:
    """Instantiate a plain (unsharded) sorter by its registry name.

    Keyword arguments are forwarded to the constructor (e.g.
    ``make_base_sorter("quicksort", seed=7)``).  This is the factory the
    shard pool workers rebuild from — it must never consult
    :data:`SHARDS_ENV`, or a worker would shard recursively.
    """
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ConfigError(
            f"unknown sorter {name!r}; available: {', '.join(available_sorters())}"
        ) from None
    if kwargs:
        # Factories for the radix family are zero-argument closures; rebuild
        # with explicit kwargs by dispatching on the class they produce.
        instance = factory()
        return type(instance)(**{**_implicit_kwargs(instance), **kwargs})
    return factory()


def env_shards() -> int:
    """The shard count :data:`SHARDS_ENV` requests (1 when it is unset).

    The one parser of the variable, called by :func:`make_sorter`: a bad
    value (not an integer, or below 1) raises
    :class:`~repro.errors.ConfigError`.
    """
    raw = os.environ.get(SHARDS_ENV)
    if raw is None:
        return 1
    try:
        shards = int(raw)
    except ValueError:
        raise ConfigError(
            f"{SHARDS_ENV} must be an integer, got {raw!r}"
        ) from None
    if shards < 1:
        raise ConfigError(f"{SHARDS_ENV} must be >= 1, got {shards}")
    return shards


def make_sorter(name: str, **kwargs) -> BaseSorter:
    """Instantiate a sorter by name, honouring sharding spec and environment.

    Accepts the plain registry names plus the sharded spec forms
    ``"sharded:<base>"`` (default shard count) and
    ``"sharded:<base>:<shards>"``.  When :data:`SHARDS_ENV` requests >= 2
    shards, plain names are wrapped in a
    :class:`~repro.parallel.sharded.ShardedSorter` too — experiments opt
    in with one environment variable and the PR-5 oracle/sanitizer lanes
    exercise the sharded path with zero changes.
    """
    if name.startswith("sharded:"):
        from repro.parallel.sharded import ShardedSorter

        parts = name.split(":")
        if len(parts) == 2:
            base_name, shards = parts[1], None
        elif len(parts) == 3:
            base_name, shards_raw = parts[1], parts[2]
            try:
                shards = int(shards_raw)
            except ValueError:
                raise ConfigError(
                    f"bad shard count in sorter spec {name!r}"
                ) from None
        else:
            raise ConfigError(
                f"bad sharded sorter spec {name!r}; expected "
                "'sharded:<base>' or 'sharded:<base>:<shards>'"
            )
        wrapper_kwargs = {
            key: kwargs.pop(key)
            for key in ("shards", "workers", "min_n")
            if key in kwargs
        }
        if shards is not None:
            wrapper_kwargs["shards"] = shards
        kernels = kwargs.pop("kernels", None)
        return ShardedSorter(
            make_base_sorter(base_name, **kwargs),
            kernels=kernels,
            **wrapper_kwargs,
        )
    sorter = make_base_sorter(name, **kwargs)
    shards = env_shards()
    if shards >= 2:
        from repro.parallel.sharded import ShardedSorter

        return ShardedSorter(sorter, shards=shards)
    return sorter


def _implicit_kwargs(instance: BaseSorter) -> dict:
    """Constructor kwargs that reproduce ``instance``'s configuration."""
    kwargs: dict = {}
    if hasattr(instance, "bits"):
        kwargs["bits"] = instance.bits
    if hasattr(instance, "seed"):
        kwargs["seed"] = instance.seed
    if hasattr(instance, "base"):
        # ShardedSorter: reproduce the wrapper around the same base sorter.
        kwargs.update(
            base=instance.base,
            shards=instance.shards,
            workers=instance.workers,
            min_n=instance.min_n,
        )
    if getattr(instance, "kernels", None) is not None:
        kwargs["kernels"] = instance.kernels
    return kwargs


def with_kernels(sorter: BaseSorter, kernels: "str | None") -> BaseSorter:
    """A copy of ``sorter`` configured for the given kernel mode."""
    return type(sorter)(**{**_implicit_kwargs(sorter), "kernels": kernels})
