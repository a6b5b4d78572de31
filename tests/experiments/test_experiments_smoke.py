"""Smoke-scale runs of every experiment, with robust shape assertions.

These are integration tests of the whole stack: each experiment runs at
``smoke`` scale and its table is checked for structure plus the paper-shape
properties that survive small inputs (monotonicities, orderings, signs that
are insensitive to n).  Quantitative paper-vs-measured comparison happens in
the benchmark suite at ``default`` scale.
"""

from pathlib import Path

import pytest

from repro.experiments import (
    fig02_cell,
    fig04_sortedness,
    fig05_07_shapes,
    fig09_write_reduction_t,
    fig10_write_reduction_n,
    fig11_breakdown,
    fig12_spintronic_rem,
    fig13_spintronic_saving,
    fig14_spintronic_breakdown,
    fig15_histogram_radix,
    pcmsim_consistency,
    table3_rem,
)
from repro.experiments.runner import EXPERIMENTS

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestFig02:
    @pytest.fixture(scope="class")
    def table(self):
        return fig02_cell.run(scale="smoke", seed=1)

    def test_structure(self, table):
        assert table.experiment == "fig02"
        assert len(table.rows) == len(fig02_cell.FIG2_T_VALUES)

    def test_iterations_monotone_decreasing(self, table):
        iters = table.column("avg_#P")
        assert all(a >= b for a, b in zip(iters, iters[1:]))

    def test_precise_anchor(self, table):
        assert table.rows[0][1] == pytest.approx(2.98, abs=0.25)

    def test_word_error_exceeds_cell_error(self, table):
        last = table.rows[-1]
        assert last[4] > last[3] > 0


class TestFig04:
    @pytest.fixture(scope="class")
    def table(self):
        return fig04_sortedness.run(
            scale="smoke", seed=1, t_values=[0.025, 0.055, 0.1]
        )

    def test_structure(self, table):
        assert len(table.rows) == 3 * 4

    def test_rem_grows_with_t(self, table):
        for algorithm in fig04_sortedness.ALGORITHMS:
            rems = [
                row[3] for row in table.rows if row[1] == algorithm
            ]
            assert rems[0] <= rems[-1]

    def test_write_reduction_grows_with_t(self, table):
        for algorithm in fig04_sortedness.ALGORITHMS:
            reductions = [row[4] for row in table.rows if row[1] == algorithm]
            assert reductions[0] < reductions[-1]
            assert reductions[-1] > 0.3  # ~50% at T=0.1 in the paper


class TestTable3:
    @pytest.fixture(scope="class")
    def table(self):
        return table3_rem.run(scale="smoke", seed=1)

    def test_structure(self, table):
        assert len(table.rows) == 12

    def test_mergesort_worst_at_aggressive_t(self, table):
        """At T = 0.1 the mergesort >> others separation is robust even at
        smoke scale (at T = 0.055 it needs the default-scale input sizes)."""
        at_aggressive = {row[1]: row[2] for row in table.rows if row[0] == 0.1}
        assert at_aggressive["mergesort"] >= max(
            at_aggressive["quicksort"],
            at_aggressive["lsd6"],
            at_aggressive["msd6"],
        )

    def test_near_clean_at_t_003(self, table):
        for row in table.rows:
            if row[0] == 0.03:
                assert row[2] < 0.01

    def test_chaos_at_t_01(self, table):
        for row in table.rows:
            if row[0] == 0.1:
                assert row[2] > 0.1


class TestFig05_07:
    @pytest.fixture(scope="class")
    def table(self):
        return fig05_07_shapes.run(scale="smoke", seed=1)

    def test_structure(self, table):
        assert len(table.rows) == 3 * 4
        assert "series" in table.extra
        assert len(table.extra["series"]) == 12

    def test_clean_line_at_low_t(self, table):
        for row in table.rows:
            if row[0] == "fig05":
                assert row[5] > 0.99  # rank correlation ~ 1

    def test_chaos_at_high_t(self, table):
        quicksort_row = next(
            row
            for row in table.rows
            if row[0] == "fig07" and row[2] == "quicksort"
        )
        assert quicksort_row[4] < 0.9  # in-order fraction degraded


class TestFig09:
    @pytest.fixture(scope="class")
    def table(self):
        return fig09_write_reduction_t.run(
            scale="smoke",
            seed=1,
            t_values=[0.025, 0.055],
            algorithms=("lsd3", "mergesort"),
        )

    def test_structure(self, table):
        assert len(table.rows) == 4

    def test_lsd3_better_at_sweet_spot_than_precise_t(self, table):
        lsd3 = {row[0]: row[2] for row in table.rows if row[1] == "lsd3"}
        assert lsd3[0.055] > lsd3[0.025]

    def test_negative_at_precise_t(self, table):
        for row in table.rows:
            if row[0] == 0.025:
                assert row[2] < 0


class TestFig10:
    def test_runs_and_reports(self):
        table = fig10_write_reduction_n.run(
            scale="smoke", seed=1, algorithms=("lsd3", "quicksort")
        )
        assert {row[1] for row in table.rows} == {"lsd3", "quicksort"}
        assert all(-1.5 < row[2] < 0.5 for row in table.rows)


class TestFig11:
    @pytest.fixture(scope="class")
    def table(self):
        return fig11_breakdown.run(scale="smoke", seed=1)

    def test_reference_normalization(self, table):
        lsd3 = next(row for row in table.rows if row[0] == "lsd3")
        assert lsd3[1] == pytest.approx(1.0)

    def test_totals_decompose(self, table):
        for row in table.rows:
            assert row[3] == pytest.approx(row[1] + row[2])

    def test_more_bins_cheaper(self, table):
        totals = {row[0]: row[3] for row in table.rows}
        assert totals["lsd6"] < totals["lsd3"]
        assert totals["msd6"] < totals["msd3"]

    def test_mergesort_refine_share_exceeds_lsd3(self, table):
        """Mergesort's Rem~ systematically beats LSD's while its alpha is
        smaller, so its refine share is larger at every scale (the full
        "mergesort's refine dwarfs everything" claim needs default scale)."""
        shares = {row[0]: row[4] for row in table.rows}
        assert shares["mergesort"] > shares["lsd3"]


class TestSpintronicExperiments:
    def test_fig12_rem_monotone_in_error_rate(self):
        table = fig12_spintronic_rem.run(scale="smoke", seed=1)
        for algorithm in fig12_spintronic_rem.ALGORITHMS:
            rems = [row[3] for row in table.rows if row[2] == algorithm]
            assert rems[0] <= rems[-1] + 1e-9

    def test_fig13_structure(self):
        table = fig13_spintronic_saving.run(
            scale="smoke", seed=1, algorithms=("lsd3", "quicksort")
        )
        assert len(table.rows) == 4 * 2
        # 5%-saving configuration cannot beat its own overhead.
        for row in table.rows:
            if row[0] == 0.05:
                assert row[2] < 0.05

    def test_fig14_breakdown(self):
        table = fig14_spintronic_breakdown.run(scale="smoke", seed=1)
        lsd3 = next(row for row in table.rows if row[0] == "lsd3")
        assert lsd3[1] == pytest.approx(1.0)
        for row in table.rows:
            assert row[3] == pytest.approx(row[1] + row[2])


class TestFig15:
    def test_histogram_reduction_smaller_than_queue(self):
        """Appendix-B claim at matched settings: histogram LSD gains less
        than queue-bucket LSD."""
        t_values = [0.055]
        queue = fig09_write_reduction_t.run(
            scale="smoke", seed=1, t_values=t_values, algorithms=("lsd6",)
        )
        hist = fig15_histogram_radix.run(
            scale="smoke", seed=1, t_values=t_values
        )
        queue_wr = queue.rows[0][2]
        hist_wr = next(row[2] for row in hist.rows if row[1] == "hlsd6")
        assert hist_wr < queue_wr


class TestPCMSimConsistency:
    def test_models_agree(self):
        table = pcmsim_consistency.run(scale="smoke", seed=1)
        for row in table.rows:
            sim_ratio, analytic_ratio = row[3], row[4]
            assert sim_ratio == pytest.approx(analytic_ratio, abs=0.08)


def inventory_rows() -> list[list[str]]:
    """Cells of the "Experiment inventory" table in docs/reproducing.md."""
    text = (REPO_ROOT / "docs" / "reproducing.md").read_text()
    section = text.split("## Experiment inventory", 1)[1].split("\n## ", 1)[0]
    return [
        [cell.strip().strip("`") for cell in line.strip("|").split("|")]
        for line in section.splitlines()
        if line.startswith("| `")
    ]


class TestRegistry:
    def test_all_experiments_registered(self):
        assert set(EXPERIMENTS) == {
            "fig02", "fig04", "fig05_07", "table3", "fig09", "fig10",
            "fig11", "fig12", "fig13", "fig14", "fig15", "pcmsim",
            "ablation_refine", "ext_density", "ext_distributions",
            "ext_pipeline_sim", "ext_sequential", "ext_total_time",
            "ext_variance", "ext_write_combining",
        }

    def test_docs_inventory_matches_registry(self):
        rows = inventory_rows()
        ids = [row[0] for row in rows]
        assert len(ids) == len(set(ids))
        assert set(ids) == set(EXPERIMENTS)
        for row in rows:
            assert (REPO_ROOT / "benchmarks" / row[3]).is_file(), row


class TestExtensions:
    def test_ablation_refine_smoke(self):
        from repro.experiments import ablation_refine

        table = ablation_refine.run(scale="smoke", seed=1)
        costs = {
            (row[0], row[1]): row[2] for row in table.rows
        }
        for t in ablation_refine.T_VALUES:
            # The heuristic stays close to the 2n lower bound...
            assert costs[(t, "heuristic")] < 4.0
            # ...while exact LIS pays its >= 2n intermediate-state writes.
            assert costs[(t, "exact_lis")] > costs[(t, "heuristic")]

    def test_ext_density_smoke(self):
        from repro.experiments import ext_density

        table = ext_density.run(scale="smoke", seed=1)
        assert len(table.rows) == len(ext_density.LEVELS) * len(
            ext_density.BAND_FRACTIONS
        )
        # Denser cells cost more iterations at every band fraction.
        for fraction in ext_density.BAND_FRACTIONS:
            iters = [
                row[4] for row in table.rows if row[2] == fraction
            ]
            assert iters == sorted(iters)

    def test_ext_distributions_smoke(self):
        from repro.experiments import ext_distributions

        table = ext_distributions.run(scale="smoke", seed=1)
        assert len(table.rows) == len(ext_distributions.DISTRIBUTIONS) * len(
            ext_distributions.ALGORITHMS
        )
        # Robust algorithms stay nearly sorted on every distribution.
        for row in table.rows:
            if row[1] in ("quicksort", "lsd6", "msd6"):
                assert row[2] < 0.1

    def test_ext_variance_smoke(self):
        from repro.experiments import ext_variance

        table = ext_variance.run(scale="smoke", seed=1)
        assert len(table.rows) == len(ext_variance.ALGORITHMS)
        for row in table.rows:
            algorithm, mean, std, lo, hi = row
            assert lo <= mean <= hi
            assert std >= 0

    def test_ext_write_combining_smoke(self):
        from repro.experiments import ext_write_combining

        table = ext_write_combining.run(scale="smoke", seed=1)
        by = {(row[0], row[1]): row[2] for row in table.rows}
        # Radix streams are already combined: nothing to absorb.
        assert by[("lsd6", 256)] == 0.0
        # Insertion sort with a buffer approaching n collapses strongly.
        assert by[("insertion", 256)] > 0.3
        # Quicksort's small tail-recursion ranges live inside the buffer.
        assert by[("quicksort", 64)] > 0.2
        # Reductions grow (weakly) with capacity for every algorithm.
        for algorithm in ext_write_combining.ALGORITHMS:
            values = [by[(algorithm, c)] for c in (16, 64, 256)]
            assert values[0] <= values[-1] + 1e-9

    def test_ext_pipeline_sim_smoke(self):
        from repro.experiments import ext_pipeline_sim

        table = ext_pipeline_sim.run(scale="smoke", seed=1)
        for row in table.rows:
            t, algorithm, analytic, simulated = row
            # Divergence between the models is a bounded read-stall effect.
            assert abs(simulated - analytic) < 0.2
        # At the sweet spot the two models agree on the radix headline.
        lsd3_sweet = next(
            row for row in table.rows if row[0] == 0.055 and row[1] == "lsd3"
        )
        assert abs(lsd3_sweet[2] - lsd3_sweet[3]) < 0.05

    def test_ext_total_time_smoke(self):
        from repro.experiments import ext_total_time

        table = ext_total_time.run(scale="smoke", seed=1)
        for row in table.rows:
            # Reads only ever subtract from the write-only reduction.
            assert row[3] <= row[2] + 1e-9
            assert 0 < row[4] < 0.3

    def test_ext_sequential_smoke(self):
        from repro.experiments import ext_sequential

        table = ext_sequential.run(scale="smoke", seed=1)
        speedups = {row[0]: row[3] for row in table.rows}
        # The refine stage's sequential output benefits far more from the
        # discount than the approx stage's scattered writes.
        assert speedups["refine"] > speedups["approx_sort"]
        assert speedups["refine"] > 1.2
