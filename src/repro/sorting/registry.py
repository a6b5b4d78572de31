"""Name-based factory for the sorting algorithms.

The experiment harness and the approx-refine mechanism refer to algorithms
by the short names the paper uses in its figures: ``quicksort``,
``mergesort``, ``lsd3``–``lsd6``, ``msd3``–``msd6`` (queue buckets), and the
Appendix-B histogram variants ``hlsd3``–``hlsd6`` / ``hmsd3``–``hmsd6``.
"""

from __future__ import annotations

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


#: Sorters whose scalar and numpy kernel paths write the same values to the
#: same addresses the same number of times on *approximate* memory.  Under
#: the arrays' keyed corruption (DESIGN.md section 3) that makes whole
#: approx-refine runs bit-identical across kernel modes, whatever the order
#: or blocking of the writes: the radix family (MSD and HMSD by their level
#: pass), and mergesort, whose numpy level replays the scalar walk on every
#: run pair that corruption left unsorted.  Quicksort is not here: its numpy
#: partition does not replay a crossing stop on a corrupted swapped-in
#: value, so it agrees only statistically (DESIGN.md section 8).  The
#: differential oracle in :mod:`repro.verify` keys its exact-vs-statistical
#: equivalence classes off this set.
APPROX_KERNEL_EXACT = frozenset(
    name
    for name in (
        "insertion",
        "mergesort",
        "natural_merge",
        *(f"{fam}{bits}" for fam in ("lsd", "msd", "hlsd", "hmsd")
          for bits in (3, 4, 5, 6)),
    )
)


def available_sorters() -> list[str]:
    """Names accepted by :func:`make_sorter`, sorted alphabetically.

    Only base algorithm names are listed: the ``sharded:`` spec prefix
    composes over these rather than extending the paper's algorithm set.
    """
    return sorted(_FACTORIES)


def make_sorter(name: str, **kwargs) -> BaseSorter:
    """Instantiate a sorter by its registry name or sharded spec.

    Keyword arguments are forwarded to the constructor (e.g.
    ``make_sorter("quicksort", seed=7)``).  Besides the plain registry
    names it accepts the sharded spec forms ``"sharded:<base>"`` (default
    shard count) and ``"sharded:<base>:<shards>"``, which wrap the base
    sorter in a :class:`~repro.parallel.sharded.ShardedSorter`.
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
            make_sorter(base_name, **kwargs),
            kernels=kernels,
            **wrapper_kwargs,
        )
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
