"""Boundary inputs for every registered sorter, on both memory kinds.

The fuzzer's edge corpus (tests/verify) runs these through the full
differential oracle; this suite pins the same boundaries as plain, fast
unit tests so a regression is caught even with the verify lane skipped:

* ``n = 0`` and ``n = 1`` — empty passes, degenerate recursion bases;
* all-equal keys — zero inversions, every radix histogram concentrated
  in one bucket, quicksort's worst partition balance;
* all max-word keys — the P&V model's highest level on every write, the
  largest representable digit in every radix pass;
* duplicate-heavy, already-sorted and reverse-sorted keys — a tiny key
  universe leaves most radix buckets empty and one giant, and monotone
  inputs stress the stability of bucket concatenation and of the merge's
  tie-breaking.
"""

import pytest

from repro.core.approx_refine import run_approx_refine, run_precise_baseline
from repro.memory.approx_array import WORD_LIMIT
from repro.sorting.registry import available_sorters

EDGE_N = 16

WORKLOADS = {
    "empty": [],
    "singleton": [123_456_789],
    "all_equal": [7] * EDGE_N,
    "max_word": [WORD_LIMIT - 1] * EDGE_N,
    # Three-value universe: nearly every radix bucket is empty.
    "dup_heavy": [(i * 7) % 3 for i in range(EDGE_N)],
    "already_sorted": list(range(EDGE_N)),
    "reverse_sorted": list(range(EDGE_N - 1, -1, -1)),
}


def assert_valid(keys, result):
    assert result.final_keys.tolist() == sorted(keys)
    assert sorted(result.final_ids.tolist()) == list(range(len(keys)))
    for key, ident in zip(result.final_keys, result.final_ids):
        assert keys[ident] == key


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("name", available_sorters())
class TestEdgeCases:
    def test_precise_baseline(self, name, workload):
        keys = WORKLOADS[workload]
        assert_valid(keys, run_precise_baseline(keys, name))

    def test_approx_refine(self, name, workload, pcm_sweet):
        keys = WORKLOADS[workload]
        result = run_approx_refine(keys, name, pcm_sweet, seed=1)
        assert_valid(keys, result)
        assert 0 <= result.rem_tilde <= len(keys)

    def test_approx_refine_numpy_kernels(self, name, workload, pcm_sweet):
        keys = WORKLOADS[workload]
        result = run_approx_refine(
            keys, name, pcm_sweet, seed=1, kernels="numpy"
        )
        assert_valid(keys, result)
