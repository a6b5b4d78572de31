"""Result records of the approx-refine mechanism and the baseline runs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.memory.stats import MemoryStats, write_reduction

#: Stage names of the mechanism, in execution order (paper Section 4.1).
STAGES = (
    "warm_up",
    "approx_preparation",
    "approx_stage",
    "refine_preparation",
    "refine_find_rem",
    "refine_sort_rem",
    "refine_merge",
)

#: Stages that together form "refine" in the paper's breakdown figures.
REFINE_STAGES = ("refine_find_rem", "refine_sort_rem", "refine_merge")


@dataclass
class ApproxRefineResult:
    """Everything measured from one approx-refine execution.

    Attributes
    ----------
    final_keys, final_ids:
        The exactly sorted output: key values and the permutation of input
        positions that produced them, as ``uint32`` arrays.
    stats:
        Accumulated accounting over all stages.
    stage_stats:
        Per-stage accounting deltas, keyed by :data:`STAGES` names.
    rem_tilde:
        ``Rem~`` — size of the REMID~ set the refine heuristic extracted.
    approx_rem_ratio:
        Rem ratio of the key sequence as it stood right after the approx
        stage (sortedness of the nearly sorted intermediate).
    algorithm:
        Registry name of the sorting algorithm used.
    memory_description:
        Label of the approximate-memory configuration.
    n:
        Input size.
    """

    final_keys: np.ndarray
    final_ids: np.ndarray
    stats: MemoryStats
    stage_stats: dict[str, MemoryStats]
    rem_tilde: int
    approx_rem_ratio: float
    algorithm: str
    memory_description: str
    n: int

    @property
    def approx_units(self) -> float:
        """TEPMW of approx-preparation + approx stage ("Approx" in Fig 11)."""
        prep = self.stage_stats["approx_preparation"]
        approx = self.stage_stats["approx_stage"]
        return prep.equivalent_precise_writes + approx.equivalent_precise_writes

    @property
    def refine_units(self) -> float:
        """TEPMW of the three refine steps ("Refine" in Fig 11)."""
        return sum(
            self.stage_stats[name].equivalent_precise_writes
            for name in REFINE_STAGES
        )

    @property
    def total_units(self) -> float:
        """TEPMW of the whole hybrid execution."""
        return self.stats.equivalent_precise_writes

    def write_reduction_vs(self, baseline: "BaselineResult") -> float:
        """The paper's Equation-2 write reduction against a precise run."""
        return write_reduction(baseline.total_units, self.total_units)


@dataclass
class BaselineResult:
    """Measurement of the traditional precise-memory-only sort."""

    final_keys: np.ndarray
    final_ids: np.ndarray
    stats: MemoryStats
    algorithm: str
    n: int

    @property
    def total_units(self) -> float:
        """TEPMW of the baseline (every write is a precise write)."""
        return self.stats.equivalent_precise_writes


def format_stage_table(result: ApproxRefineResult) -> str:
    """Render the per-stage accounting as an aligned text table."""
    lines = [
        f"approx-refine[{result.algorithm}] n={result.n}"
        f"  ({result.memory_description})",
        f"{'stage':22s} {'writes':>10s} {'reads':>10s} {'TEPMW':>12s}",
    ]
    for name in STAGES:
        stage = result.stage_stats[name]
        lines.append(
            f"{name:22s} {stage.total_writes:>10d} {stage.total_reads:>10d}"
            f" {stage.equivalent_precise_writes:>12.1f}"
        )
    lines.append(
        f"{'TOTAL':22s} {result.stats.total_writes:>10d}"
        f" {result.stats.total_reads:>10d} {result.total_units:>12.1f}"
    )
    lines.append(
        f"Rem~ = {result.rem_tilde} ({result.rem_tilde / max(result.n, 1):.2%});"
        f" approx-stage Rem ratio = {result.approx_rem_ratio:.2%}"
    )
    return "\n".join(lines)
