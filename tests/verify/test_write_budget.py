"""The ``write_budget`` oracle class: measured writes vs the published schedule.

For every sorter that publishes a ``precise_schedule`` (mergesort,
``lsd*`` and ``hlsd*``), measured ``MemoryStats`` write counts must stay
within the schedule's writes on precise *and* approximate memory, in both
kernel modes.  The schedule is also what the fused path charges, so the
class holds the charged formula to the sorter's real ``_sort``.  These
tests pin the class's registration (in the default ``all`` selection, so
the CI oracle gate runs it for every sorter), its pass behaviour on the scheduled
sorters, its degeneration to a no-op for value-dependent sorters, and —
the part that proves the check has teeth — that a sorter whose schedule
under-reports its writes, or whose ``_sort`` does not sort, is caught.
"""

import pytest

from repro.sorting.mergesort import Mergesort
from repro.sorting.registry import available_sorters
from repro.verify.oracle import (
    EQUIVALENCE_CLASSES,
    OracleCase,
    check_write_budget,
    resolve_classes,
    run_case,
)

SCHEDULED = ("mergesort", "lsd3", "lsd6", "hlsd3", "hlsd6")
UNSCHEDULED = ("quicksort", "msd6", "hmsd6", "insertion")


class TestRegistration:
    def test_in_equivalence_classes_and_bit(self):
        assert "write_budget" in EQUIVALENCE_CLASSES
        assert "write_budget" in resolve_classes("all")
        assert "write_budget" in resolve_classes(None)

    def test_selectable_by_name(self):
        result = run_case(
            OracleCase(algorithm="mergesort", n=60), classes="write_budget"
        )
        assert result.classes_run == ["write_budget"]
        assert result.passed


class TestPasses:
    @pytest.mark.parametrize("algorithm", SCHEDULED)
    def test_bounded_sorters_pass(self, algorithm):
        case = OracleCase(algorithm=algorithm, n=120, seed=3)
        assert check_write_budget(case) == []

    @pytest.mark.parametrize("workload", ["sorted", "reverse", "few_distinct"])
    def test_adversarial_workloads_pass(self, workload):
        for algorithm in ("mergesort", "lsd3", "hlsd3"):
            case = OracleCase(algorithm=algorithm, workload=workload, n=90)
            assert check_write_budget(case) == []

    def test_max_word_workload_passes(self):
        # Highest write cost per word must not change the write *count*.
        for algorithm in ("mergesort", "lsd3", "hlsd3"):
            case = OracleCase(algorithm=algorithm, workload="max_word", n=64)
            assert check_write_budget(case) == []

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny_n_pass(self, n):
        for algorithm in ("mergesort", "lsd3", "hlsd3"):
            assert check_write_budget(OracleCase(algorithm=algorithm, n=n)) == []


class TestDegenerate:
    @pytest.mark.parametrize("algorithm", UNSCHEDULED)
    def test_value_dependent_sorters_are_a_noop(self, algorithm):
        # precise_schedule() is None: nothing to enforce, nothing to run.
        case = OracleCase(algorithm=algorithm, n=80)
        assert check_write_budget(case) == []

    def test_every_registry_sorter_is_accepted(self):
        for algorithm in available_sorters():
            case = OracleCase(algorithm=algorithm, n=40)
            assert check_write_budget(case) == []


class TestViolationDetected:
    def test_lying_bound_is_caught(self, monkeypatch):
        """A schedule that under-reports the sort's writes must diverge."""

        class UnderReporting(Mergesort):
            def precise_schedule(self, n):
                reads, writes = super().precise_schedule(n)
                return reads, writes // 2

        import repro.sorting.registry as registry

        monkeypatch.setitem(registry._FACTORIES, "mergesort", UnderReporting)
        divergences = check_write_budget(
            OracleCase(algorithm="mergesort", n=60)
        )
        assert divergences
        assert divergences[0].equivalence == "write_budget"
        assert divergences[0].field == "precise[scalar].writes"

    def test_unsorted_output_is_caught(self, monkeypatch):
        """Saving writes by not sorting must diverge in the precise lane."""

        class NoOpSorter(Mergesort):
            def _sort(self, keys, ids):
                pass  # zero writes, zero sorting

        import repro.sorting.registry as registry

        monkeypatch.setitem(registry._FACTORIES, "mergesort", NoOpSorter)
        divergences = check_write_budget(
            OracleCase(algorithm="mergesort", workload="reverse", n=60)
        )
        assert divergences
        assert divergences[0].equivalence == "write_budget"
        assert divergences[0].field == "precise[scalar].final_keys"
