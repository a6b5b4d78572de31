"""Registry tests: names, factories, kwargs forwarding."""

import pytest

from repro.sorting.mergesort import Mergesort
from repro.sorting.quicksort import Quicksort
from repro.sorting.radix import LSDRadixSort
from repro.sorting.registry import (
    available_sorters,
    make_sorter,
    with_kernels,
)


class TestRegistry:
    def test_all_expected_names_present(self):
        names = available_sorters()
        expected = {"quicksort", "mergesort", "insertion", "natural_merge"}
        for bits in (3, 4, 5, 6):
            expected.update(
                {f"lsd{bits}", f"msd{bits}", f"hlsd{bits}", f"hmsd{bits}"}
            )
        assert set(names) == expected
        assert len(names) == 20

    def test_sorted_listing(self):
        names = available_sorters()
        assert names == sorted(names)

    def test_make_basic(self):
        assert isinstance(make_sorter("quicksort"), Quicksort)
        assert isinstance(make_sorter("mergesort"), Mergesort)

    def test_radix_bits_baked_in(self):
        sorter = make_sorter("lsd5")
        assert isinstance(sorter, LSDRadixSort)
        assert sorter.bits == 5

    def test_each_call_returns_fresh_instance(self):
        assert make_sorter("quicksort") is not make_sorter("quicksort")

    def test_kwargs_forwarded(self):
        sorter = make_sorter("quicksort", seed=99)
        # The seed keys pivot choice; two sorters with the same seed pick
        # identical pivots.
        other = make_sorter("quicksort", seed=99)
        assert sorter.seed == 99
        assert sorter._pivot(3, 1000) == other._pivot(3, 1000)

    def test_kwargs_preserve_bits(self):
        sorter = make_sorter("msd4", bits=4)
        assert sorter.bits == 4

    @pytest.mark.parametrize("name", available_sorters())
    def test_with_kernels_preserves_configuration(self, name):
        """Non-default constructor kwargs survive a kernel-mode copy."""
        kwargs = {}
        if name.rstrip("3456") in ("lsd", "msd", "hlsd", "hmsd"):
            # A digit width other than the one the name registers.
            kwargs["bits"] = 3 if name.endswith("6") else 6
        if name == "quicksort":
            kwargs["seed"] = 99
        sorter = make_sorter(name, **kwargs)
        for kernels in ("numpy", "scalar", None):
            copy = with_kernels(sorter, kernels)
            assert type(copy) is type(sorter)
            assert copy is not sorter
            assert copy.kernels == kernels
            assert copy.name == sorter.name
            for attr, value in kwargs.items():
                assert getattr(copy, attr) == value

    def test_unknown_name_rejected_with_listing(self):
        with pytest.raises(ValueError, match="unknown sorter"):
            make_sorter("bogosort")


class TestShardedSpecs:
    def test_sharded_spec_with_count(self):
        from repro.parallel.sharded import ShardedSorter

        sorter = make_sorter("sharded:mergesort:4")
        assert isinstance(sorter, ShardedSorter)
        assert sorter.shards == 4
        assert isinstance(sorter.base, Mergesort)
        assert sorter.name == "sharded:mergesort:4"

    def test_sharded_spec_default_count(self):
        from repro.parallel.sharded import ShardedSorter

        sorter = make_sorter("sharded:lsd3")
        assert isinstance(sorter, ShardedSorter)
        assert isinstance(sorter.base, LSDRadixSort)
        assert sorter.base.bits == 3

    def test_sharded_spec_forwards_wrapper_kwargs(self):
        sorter = make_sorter(
            "sharded:quicksort", shards=5, min_n=8, workers=0, seed=99,
        )
        assert sorter.shards == 5
        assert sorter.min_n == 8
        assert sorter.workers == 0
        assert sorter.base.seed == 99

    def test_bad_sharded_specs_rejected(self):
        with pytest.raises(ValueError, match="shard count"):
            make_sorter("sharded:mergesort:lots")
        with pytest.raises(ValueError, match="sharded sorter spec"):
            make_sorter("sharded:mergesort:4:extra")
        with pytest.raises(ValueError, match="unknown sorter"):
            make_sorter("sharded:bogosort")

    def test_available_sorters_lists_base_names_only(self):
        assert not any(
            name.startswith("sharded:") for name in available_sorters()
        )
