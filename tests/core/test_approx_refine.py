"""End-to-end tests of the approx-refine mechanism."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.approx_refine import (
    run_approx_only,
    run_approx_refine,
    run_precise_baseline,
)
from repro.core.report import REFINE_STAGES, STAGES
from repro.verify import SANITIZE_ENV, checks_performed
from repro.workloads.generators import make_keys, uniform_keys

from ..conftest import make_pcm

ALGORITHMS = ("quicksort", "mergesort", "lsd3", "lsd6", "msd6", "hlsd6")


class TestExactness:
    """The paper's central guarantee: output is precise for any T."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_exact_at_sweet_spot(self, algorithm, pcm_sweet):
        keys = uniform_keys(800, seed=1)
        result = run_approx_refine(keys, algorithm, pcm_sweet, seed=2)
        assert result.final_keys.tolist() == sorted(keys)
        assert keys[result.final_ids].tolist() == result.final_keys.tolist()

    @pytest.mark.parametrize("algorithm", ("quicksort", "lsd6", "mergesort"))
    def test_exact_under_heavy_corruption(self, algorithm, pcm_aggressive):
        keys = uniform_keys(600, seed=2)
        result = run_approx_refine(keys, algorithm, pcm_aggressive, seed=3)
        assert result.final_keys.tolist() == sorted(keys)
        assert sorted(result.final_ids.tolist()) == list(range(len(keys)))

    def test_exact_on_spintronic_memory(self, stt_heavy):
        keys = uniform_keys(600, seed=3)
        result = run_approx_refine(keys, "msd6", stt_heavy, seed=4)
        assert result.final_keys.tolist() == sorted(keys)

    @pytest.mark.parametrize(
        "workload", ["sorted", "reverse", "few_distinct", "zipf", "runs"]
    )
    def test_exact_across_distributions(self, workload, pcm_aggressive):
        keys = make_keys(workload, 400, seed=4)
        result = run_approx_refine(keys, "quicksort", pcm_aggressive, seed=5)
        assert result.final_keys.tolist() == sorted(keys)

    def test_tiny_inputs(self, pcm_sweet):
        for keys in ([], [7], [9, 1], [3, 3, 3]):
            result = run_approx_refine(keys, "quicksort", pcm_sweet, seed=6)
            assert result.final_keys.tolist() == sorted(keys)

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=2**32 - 1), max_size=80)
    )
    def test_property_exact_for_any_input(self, keys):
        memory = make_pcm(0.1)  # cached fit; heavy corruption
        result = run_approx_refine(keys, "lsd6", memory, seed=7)
        assert result.final_keys.tolist() == sorted(keys)


class TestAccounting:
    def test_stage_stats_cover_all_stages(self, pcm_sweet):
        result = run_approx_refine(uniform_keys(300, seed=5), "lsd6", pcm_sweet)
        assert set(result.stage_stats) == set(STAGES)

    def test_stage_deltas_sum_to_total(self, pcm_sweet):
        result = run_approx_refine(uniform_keys(300, seed=6), "msd6", pcm_sweet)
        total = sum(
            s.equivalent_precise_writes for s in result.stage_stats.values()
        )
        assert total == pytest.approx(result.stats.equivalent_precise_writes)
        reads = sum(s.total_reads for s in result.stage_stats.values())
        assert reads == result.stats.total_reads

    def test_warm_up_and_refine_prep_are_free(self, pcm_sweet):
        result = run_approx_refine(uniform_keys(200, seed=7), "lsd3", pcm_sweet)
        assert result.stage_stats["warm_up"].total_writes == 0
        assert result.stage_stats["refine_preparation"].total_writes == 0

    def test_approx_preparation_cost(self, pcm_sweet):
        n = 250
        result = run_approx_refine(uniform_keys(n, seed=8), "lsd6", pcm_sweet)
        prep = result.stage_stats["approx_preparation"]
        assert prep.approx_writes == n
        assert prep.precise_reads == n
        # n approximate writes cost ~ p(t) * n precise units.
        assert prep.equivalent_precise_writes == pytest.approx(
            pcm_sweet.p_ratio * n, rel=0.1
        )

    def test_merge_stage_write_count(self, pcm_sweet):
        n = 300
        result = run_approx_refine(uniform_keys(n, seed=9), "lsd6", pcm_sweet)
        merge = result.stage_stats["refine_merge"]
        assert merge.precise_writes == 2 * n + result.rem_tilde

    def test_find_rem_write_count(self, pcm_sweet):
        result = run_approx_refine(uniform_keys(300, seed=10), "lsd6", pcm_sweet)
        assert (
            result.stage_stats["refine_find_rem"].precise_writes
            == result.rem_tilde
        )

    def test_refine_units_decompose(self, pcm_sweet):
        result = run_approx_refine(uniform_keys(300, seed=11), "lsd6", pcm_sweet)
        assert result.refine_units == pytest.approx(
            sum(
                result.stage_stats[name].equivalent_precise_writes
                for name in REFINE_STAGES
            )
        )
        assert result.total_units == pytest.approx(
            result.approx_units + result.refine_units
        )

    def test_only_keys_touch_approx_memory(self, pcm_sweet):
        """IDs and refine outputs stay precise: approximate writes happen
        only in approx-preparation and the approx stage."""
        result = run_approx_refine(uniform_keys(300, seed=12), "msd3", pcm_sweet)
        for name in ("refine_find_rem", "refine_sort_rem", "refine_merge"):
            assert result.stage_stats[name].approx_writes == 0


class TestBaselineAndReduction:
    def test_baseline_sorts(self):
        keys = uniform_keys(400, seed=13)
        baseline = run_precise_baseline(keys, "mergesort")
        assert baseline.final_keys.tolist() == sorted(keys)
        assert (
            keys[baseline.final_ids].tolist() == baseline.final_keys.tolist()
        )

    def test_baseline_cost_is_twice_alpha(self):
        """Keys + record IDs both rewritten: 2 * alpha(n) writes."""
        from repro.sorting.registry import make_sorter

        n = 512
        keys = uniform_keys(n, seed=14)
        baseline = run_precise_baseline(keys, "lsd6")
        assert baseline.total_units == pytest.approx(
            2 * make_sorter("lsd6").expected_key_writes(n)
        )

    @pytest.mark.parametrize("algorithm", ["mergesort", "quicksort", "lsd6"])
    def test_stale_shards_env_is_ignored(
        self, algorithm, pcm_sweet, monkeypatch
    ):
        """A leftover ``REPRO_SHARDS`` from a retired option shards neither
        the approx stage nor Equation 2's baseline."""
        keys = uniform_keys(8_000, seed=21)

        def runs():
            return (
                run_approx_refine(keys, algorithm, pcm_sweet, seed=22),
                run_precise_baseline(keys, algorithm),
            )

        monkeypatch.delenv("REPRO_SHARDS", raising=False)
        unset = runs()
        monkeypatch.setenv("REPRO_SHARDS", "4")
        stale = runs()
        assert stale[0].rem_tilde == unset[0].rem_tilde
        for before, after in zip(unset, stale):
            assert after.algorithm == before.algorithm == algorithm
            assert after.stats.as_dict() == before.stats.as_dict()
            assert np.array_equal(after.final_keys, before.final_keys)
            assert np.array_equal(after.final_ids, before.final_ids)

    def test_radix_beats_baseline_at_sweet_spot(self, pcm_sweet):
        """The headline: positive write reduction for 3-bit LSD at T=0.055."""
        keys = uniform_keys(4_000, seed=15)
        baseline = run_precise_baseline(keys, "lsd3")
        result = run_approx_refine(keys, "lsd3", pcm_sweet, seed=16)
        assert 0.05 < result.write_reduction_vs(baseline) < 0.15

    def test_mergesort_loses_at_scale(self, pcm_sweet):
        """Mergesort's Rem~ amplification grows with n (spikes displace
        whole run suffixes); by n = 64000 the hybrid clearly loses, and the
        loss deepens toward the paper's 16M regime.  (At n = 16000 the
        write reduction still straddles 0 across corruption seeds.)"""
        keys = uniform_keys(64_000, seed=17)
        baseline = run_precise_baseline(keys, "mergesort")
        result = run_approx_refine(keys, "mergesort", pcm_sweet, seed=18)
        assert result.write_reduction_vs(baseline) < 0
        assert result.rem_tilde / len(keys) > 0.1

    def test_precise_t_loses(self, pcm_precise):
        """p(t) ~ 1: the copy/refine overhead makes the hybrid lose."""
        keys = uniform_keys(1_000, seed=19)
        baseline = run_precise_baseline(keys, "lsd3")
        result = run_approx_refine(keys, "lsd3", pcm_precise, seed=20)
        assert result.write_reduction_vs(baseline) < 0


class TestApproxOnly:
    def test_fields_consistent(self, pcm_sweet):
        keys = uniform_keys(500, seed=21)
        result = run_approx_only(keys, "quicksort", pcm_sweet, seed=22)
        assert result.n == 500
        assert len(result.output_keys) == 500
        assert 0.0 <= result.rem_ratio <= 1.0
        assert 0.0 <= result.error_rate <= 1.0
        assert result.stats.approx_writes > 0
        assert result.stats.precise_writes == 0  # no payload accessed

    def test_include_ids_adds_precise_traffic(self, pcm_sweet):
        keys = uniform_keys(300, seed=23)
        result = run_approx_only(
            keys, "quicksort", pcm_sweet, seed=24, include_ids=True
        )
        assert result.stats.precise_writes > 0

    def test_precise_t_sorts_exactly(self, pcm_precise):
        keys = uniform_keys(500, seed=25)
        result = run_approx_only(keys, "lsd6", pcm_precise, seed=26)
        assert result.output_keys.tolist() == sorted(keys)
        assert result.rem_ratio == 0.0

    def test_corruption_increases_with_t(self):
        keys = uniform_keys(1_500, seed=27)
        rems = []
        for t in (0.055, 0.08, 0.1):
            result = run_approx_only(keys, "quicksort", make_pcm(t), seed=28)
            rems.append(result.rem_ratio)
        assert rems[0] < rems[-1]


class TestDeterminism:
    def test_same_seed_same_everything(self, pcm_sweet):
        keys = uniform_keys(400, seed=29)
        a = run_approx_refine(keys, "quicksort", pcm_sweet, seed=30)
        b = run_approx_refine(keys, "quicksort", pcm_sweet, seed=30)
        assert a.final_ids.tolist() == b.final_ids.tolist()
        assert a.rem_tilde == b.rem_tilde
        assert a.total_units == pytest.approx(b.total_units)

    def test_different_seed_different_corruption(self, pcm_aggressive):
        keys = uniform_keys(800, seed=31)
        a = run_approx_refine(keys, "quicksort", pcm_aggressive, seed=1)
        b = run_approx_refine(keys, "quicksort", pcm_aggressive, seed=2)
        assert (
            a.final_keys.tolist() == b.final_keys.tolist() == sorted(keys)
        )
        assert a.rem_tilde != b.rem_tilde


class TestRefineFollowsSorterMode:
    def test_scalar_sorter_refines_on_scalar(self, pcm_aggressive, monkeypatch):
        """With ``kernels=None`` the refine stage keeps a scalar-built
        sorter's mode, and its output is the numpy run's, bit for bit."""
        from repro.core import refine
        from repro.sorting.registry import make_sorter

        keys = uniform_keys(600, seed=5)
        numpy_run = run_approx_refine(keys, "quicksort", pcm_aggressive, seed=3)
        gate = refine._use_np

        def scalar_only(kernels, *arrays):
            if gate(kernels, *arrays):
                raise AssertionError("a numpy refine helper ran")
            return False

        monkeypatch.setattr(refine, "_use_np", scalar_only)
        result = run_approx_refine(
            keys, make_sorter("quicksort", kernels="scalar"), pcm_aggressive,
            seed=3,
        )
        assert result.final_ids.tolist() == numpy_run.final_ids.tolist()
        assert result.rem_tilde == numpy_run.rem_tilde
        assert result.stats.as_dict() == numpy_run.stats.as_dict()


class TestGridDigest:
    """Every count of a small fig09 grid, pinned.

    The ten fig09 sorters x T in {0.025, 0.055, 0.1} at n = 512 under both
    kernel modes: the sha256 of each run's ``(stats.as_dict(), rem_tilde,
    approx_rem_ratio)``, floats included.  T = 0.025 takes the keyed
    sampler's floor-1.0 path, T = 0.055 its floor-sparse path and T = 0.1
    the full-probability check, so a change to any of them that moves one
    draw, one cost unit or one Rem~ changes the digest.  Regenerate it only
    for an intentional change to the draws, and say so.
    """

    SORTERS = (
        "lsd3", "lsd4", "lsd5", "lsd6", "msd3", "msd4", "msd5", "msd6",
        "quicksort", "mergesort",
    )
    DIGEST = "16cf912615a29fff0633fb30cb10e17cf853242b6e04422b768af3162946bddc"

    def test_grid_digest_pinned(self):
        keys = uniform_keys(512, seed=0)
        rows = []
        for kernels in ("scalar", "numpy"):
            for t in (0.025, 0.055, 0.1):
                memory = make_pcm(t)
                for sorter in self.SORTERS:
                    result = run_approx_refine(
                        keys, sorter, memory, seed=0, kernels=kernels
                    )
                    assert result.final_keys.tolist() == sorted(keys)
                    rows.append([
                        kernels, t, sorter, result.stats.as_dict(),
                        result.rem_tilde, result.approx_rem_ratio,
                    ])
        blob = json.dumps(rows, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == self.DIGEST


def _entry_approx_refine(keys, kernels):
    return run_approx_refine(keys, "lsd6", make_pcm(0.1), seed=3,
                             kernels=kernels)


def _entry_precise_baseline(keys, kernels):
    return run_precise_baseline(keys, "mergesort", kernels=kernels)


def _entry_approx_only(keys, kernels):
    return run_approx_only(keys, "quicksort", make_pcm(0.1), seed=3,
                           include_ids=True, kernels=kernels)


class TestArrayBoundary:
    """Keys go in and results come out as ``uint32`` arrays.

    A list input and the equal array run the same execution: every output
    and every counter agree.  The input is copied, so neither the run nor
    a later change to its outputs touches the caller's array.  Each entry
    point runs under both kernel modes, and under the sanitizer, which
    checks the result read-out against its shadow.
    """

    ENTRY_POINTS = {
        "approx_refine": _entry_approx_refine,
        "precise_baseline": _entry_precise_baseline,
        "approx_only": _entry_approx_only,
    }

    @staticmethod
    def outputs(result):
        if hasattr(result, "output_keys"):
            return [result.output_keys]
        return [result.final_keys, result.final_ids]

    @pytest.mark.parametrize("sanitized", [False, True],
                             ids=["plain", "sanitized"])
    @pytest.mark.parametrize("kernels", ["scalar", "numpy"])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("n", [0, 5, 300])
    def test_list_and_array_inputs_agree(
        self, entry, kernels, sanitized, n, monkeypatch
    ):
        if sanitized:
            monkeypatch.setenv(SANITIZE_ENV, "1")
        else:
            monkeypatch.delenv(SANITIZE_ENV, raising=False)
        run = self.ENTRY_POINTS[entry]
        keys = uniform_keys(n, seed=4)
        snapshot = keys.copy()
        checks = checks_performed()

        from_array = run(keys, kernels)
        from_list = run(keys.tolist(), kernels)

        if n:
            assert (checks_performed() > checks) == sanitized
        assert np.array_equal(keys, snapshot)
        assert from_array.stats.as_dict() == from_list.stats.as_dict()
        for got, want in zip(self.outputs(from_array),
                             self.outputs(from_list)):
            for output in (got, want):
                assert isinstance(output, np.ndarray)
                assert output.dtype == np.uint32
                assert output.shape == (n,)
                assert not np.shares_memory(output, keys)
            assert got.tolist() == want.tolist()
            got[:] = 0
        assert np.array_equal(keys, snapshot)
