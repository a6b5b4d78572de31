"""The fused precise path of ``BaseSorter.sort`` (DESIGN.md section 8).

A sorter that publishes ``precise_schedule`` sorts bare precise operands
under numpy kernels with one stable argsort plus the schedule's charge.
That must be bit-identical to the scalar reference (keys, ids and each
array's stats), and every operand or mode that needs the per-pass run must
still get ``_sort``.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.memory.approx_array import PreciseArray
from repro.memory.stats import MemoryStats
from repro.memory.write_combining import WriteCombiningArray
from repro.obs import Tracer, set_tracer
from repro.sorting.registry import available_sorters, make_sorter
from repro.verify import sanitize
from repro.workloads.generators import uniform_keys

#: Lengths straddling the power-of-two boundaries the mergesort level
#: count depends on.
SHAPES = (2, 3, 17, 100, 1023, 1024, 1025)

SCHEDULED = ("mergesort", "lsd3", "lsd6", "hlsd3", "hlsd6")


def _operands(keys: list[int], with_ids: bool, wrap=lambda array: array):
    keys_array = wrap(PreciseArray(keys, stats=MemoryStats(), name="keys"))
    ids_array = (
        wrap(PreciseArray(range(len(keys)), stats=MemoryStats(), name="ids"))
        if with_ids
        else None
    )
    return keys_array, ids_array


def _observed(keys_array, ids_array):
    return (
        keys_array.to_list(),
        ids_array.to_list() if ids_array is not None else None,
        keys_array.stats.as_dict(),
        ids_array.stats.as_dict() if ids_array is not None else None,
    )


def _sort(name, kernels, keys, with_ids, wrap=lambda array: array):
    keys_array, ids_array = _operands(keys, with_ids, wrap)
    make_sorter(name, kernels=kernels).sort(keys_array, ids_array)
    return _observed(keys_array, ids_array)


def _fused(name, keys, with_ids):
    keys_array, ids_array = _operands(keys, with_ids)
    sorter = make_sorter(name, kernels="numpy")
    assert sorter._fused_schedule(keys_array, ids_array) is not None
    sorter.sort(keys_array, ids_array)
    return _observed(keys_array, ids_array)


def _runs_sort(sorter, keys_array, ids_array=None) -> bool:
    """Whether ``sorter.sort`` reached the per-pass ``_sort``."""
    calls = []
    real = sorter._sort

    def spy(keys, ids):
        calls.append(len(keys))
        real(keys, ids)

    sorter._sort = spy
    sorter.sort(keys_array, ids_array)
    return bool(calls)


class TestFusedMatchesGeneric:
    """Fused ≡ the per-pass reference (scalar kernels), bit for bit."""

    @pytest.mark.parametrize("name", SCHEDULED)
    @pytest.mark.parametrize("n", SHAPES)
    def test_keys_only(self, name, n):
        keys = uniform_keys(n, seed=n)
        assert _fused(name, keys, False) == _sort(name, "scalar", keys, False)

    @pytest.mark.parametrize("name", SCHEDULED)
    def test_with_ids(self, name):
        for n in SHAPES:
            keys = uniform_keys(n, seed=n + 1)
            assert _fused(name, keys, True) == _sort(name, "scalar", keys, True)

    def test_duplicate_keys_stable(self):
        keys = [5, 1, 5, 1, 5, 1, 2] * 40
        for name in SCHEDULED:
            assert _fused(name, keys, True) == _sort(name, "scalar", keys, True)

    @pytest.mark.parametrize("name", SCHEDULED)
    def test_sanitized_numpy_kernels_match_scalar(self, name):
        # Sanitized precise operands never fuse, so this keeps the
        # per-pass numpy kernels covered on precise memory.
        keys = uniform_keys(257, seed=4)
        assert _sort(name, "numpy", keys, True, wrap=sanitize) == _sort(
            name, "scalar", keys, True
        )


class TestGating:
    def test_fused_exists_for_mergesort_and_lsd(self):
        for name in SCHEDULED:
            sorter = make_sorter(name, kernels="numpy")
            keys_array, ids_array = _operands(uniform_keys(64, seed=0), True)
            assert not _runs_sort(sorter, keys_array, ids_array)
            assert keys_array.to_list() == sorted(uniform_keys(64, seed=0))

    def test_no_fused_for_other_sorters(self):
        for name in ("msd6", "quicksort", "insertion", "natural_merge"):
            sorter = make_sorter(name, kernels="numpy")
            assert sorter.precise_schedule(64) is None
            operands = _operands(uniform_keys(64, seed=0), True)
            assert _runs_sort(sorter, *operands)

    def test_scalar_mode_disables_fusion(self):
        sorter = make_sorter("mergesort", kernels="scalar")
        assert _runs_sort(sorter, *_operands(uniform_keys(64, seed=0), True))

    def test_approx_memory_disables_fusion(self, pcm_sweet):
        sorter = make_sorter("lsd6", kernels="numpy")
        keys_array = pcm_sweet.make_array(uniform_keys(64, seed=0), seed=1)
        assert _runs_sort(sorter, keys_array)

    def test_trace_hook_disables_fusion(self):
        sorter = make_sorter("mergesort", kernels="numpy")
        keys_array, _ = _operands(uniform_keys(64, seed=0), False)
        keys_array.trace = lambda *event: None
        assert _runs_sort(sorter, keys_array)

    def test_trace_hook_on_ids_disables_fusion(self):
        sorter = make_sorter("lsd6", kernels="numpy")
        keys_array, ids_array = _operands(uniform_keys(64, seed=0), True)
        ids_array.trace = lambda *event: None
        assert _runs_sort(sorter, keys_array, ids_array)

    def test_sanitizer_disables_fusion(self):
        sorter = make_sorter("mergesort", kernels="numpy")
        operands = _operands(uniform_keys(64, seed=0), True, wrap=sanitize)
        assert _runs_sort(sorter, *operands)

    def test_write_combining_front_disables_fusion(self):
        sorter = make_sorter("lsd6", kernels="numpy")
        keys_array, _ = _operands(uniform_keys(64, seed=0), False)
        front = WriteCombiningArray(keys_array, capacity=8)
        assert _runs_sort(sorter, front)
        front.flush()
        assert keys_array.to_list() == sorted(uniform_keys(64, seed=0))


class TestSchedule:
    def test_only_mergesort_and_lsd_publish_a_schedule(self):
        published = {
            name for name in available_sorters()
            if make_sorter(name).precise_schedule(100) is not None
        }
        assert published == {
            "mergesort", "lsd3", "lsd4", "lsd5", "lsd6",
            "hlsd3", "hlsd4", "hlsd5", "hlsd6",
        }

    @pytest.mark.parametrize("name", ["mergesort", "lsd4", "hlsd3", "hlsd6"])
    @pytest.mark.parametrize("n", SHAPES)
    def test_cost_methods_read_the_schedule(self, name, n):
        sorter = make_sorter(name)
        reads, writes = sorter.precise_schedule(n)
        assert reads == writes
        assert sorter.expected_key_writes(n) == writes


@pytest.mark.parametrize("name", available_sorters())
def test_alpha_of_fewer_than_two_keys_is_zero(name):
    sorter = make_sorter(name)
    assert sorter.expected_key_writes(0) == sorter.expected_key_writes(1) == 0
    for kernels in ("scalar", "numpy"):
        keys_array, ids_array = _operands([7], True)
        make_sorter(name, kernels=kernels).sort(keys_array, ids_array)
        assert keys_array.stats.precise_writes == 0
        assert ids_array.stats.precise_writes == 0


def _sort_span_attrs(name, keys_array, kernels="numpy") -> dict:
    """The attrs of the ``sort.<name>`` span a traced sort emits."""
    sink = io.StringIO()
    previous = set_tracer(Tracer(sink=sink))
    try:
        make_sorter(name, kernels=kernels).sort(keys_array)
    finally:
        set_tracer(previous)
    (start,) = [
        event
        for event in map(json.loads, sink.getvalue().splitlines())
        if event["ev"] == "span_start" and event["name"] == f"sort.{name}"
    ]
    return start["attrs"]


class TestTraceSaysWhichPathRan:
    @staticmethod
    def _fused_attr(keys_array) -> bool:
        return _sort_span_attrs("mergesort", keys_array)["fused"]

    def test_precise_numpy_mergesort_reports_fused(self):
        keys_array, _ = _operands(uniform_keys(100, seed=2), False)
        assert self._fused_attr(keys_array) is True

    def test_approximate_memory_reports_not_fused(self, pcm_sweet):
        keys_array = pcm_sweet.make_array(uniform_keys(100, seed=2), seed=1)
        assert self._fused_attr(keys_array) is False

    def test_sanitized_precise_reports_not_fused(self):
        keys_array, _ = _operands(uniform_keys(100, seed=2), False, sanitize)
        assert self._fused_attr(keys_array) is False


class TestTraceNamesTheKernelPath:
    """``kernels`` on a ``sort.*`` span is the path that ran, not the
    mode the sorter was built with."""

    def test_numpy_sort_reports_numpy(self):
        keys_array, _ = _operands(uniform_keys(100, seed=2), False)
        assert _sort_span_attrs("lsd6", keys_array)["kernels"] == "numpy"

    def test_scalar_mode_reports_scalar(self):
        keys_array, _ = _operands(uniform_keys(100, seed=2), False)
        attrs = _sort_span_attrs("lsd6", keys_array, kernels="scalar")
        assert attrs["kernels"] == "scalar"

    def test_trace_hook_reports_scalar(self):
        keys_array, _ = _operands(uniform_keys(100, seed=2), False)
        keys_array.trace = lambda *event: None
        assert _sort_span_attrs("lsd6", keys_array)["kernels"] == "scalar"

    def test_write_combining_front_reports_scalar(self):
        keys_array, _ = _operands(uniform_keys(100, seed=2), False)
        front = WriteCombiningArray(keys_array, capacity=8)
        assert _sort_span_attrs("quicksort", front)["kernels"] == "scalar"
