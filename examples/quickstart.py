"""Quickstart: sort precisely on approximate memory and measure the savings.

Runs the paper's headline experiment at laptop scale: sort uniform 32-bit
keys with 3-bit LSD radix sort under the approx-refine mechanism on
approximate MLC PCM (T = 0.055), verify the output is *exactly* sorted, and
compare the total write cost against sorting in precise memory only.

    python examples/quickstart.py [n]
"""

import sys

import numpy as np

from repro import (
    MLCParams,
    PCMMemoryFactory,
    format_stage_table,
    run_approx_refine,
    run_precise_baseline,
)
from repro.workloads import uniform_keys


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 20_000
    keys = uniform_keys(n, seed=42)

    # Approximate memory with a shrunken guard band: T = 0.055 is the
    # paper's sweet spot (~33% faster writes, ~1% unsortedness).
    memory = PCMMemoryFactory(MLCParams(t=0.055))
    print(f"Sorting {n} keys on: {memory.description}\n")

    result = run_approx_refine(keys, "lsd3", memory, seed=7)
    assert np.array_equal(result.final_keys, np.sort(keys)), (
        "approx-refine must be exact"
    )
    print("Output is exactly sorted — corruption never leaks into results.\n")

    print(format_stage_table(result))

    baseline = run_precise_baseline(keys, "lsd3")
    reduction = result.write_reduction_vs(baseline)
    print(
        f"\nTotal write cost: {result.total_units:,.0f} precise-write units"
        f" vs {baseline.total_units:,.0f} baseline"
        f" -> write reduction {reduction:+.1%}"
        f" (paper: up to +11% at 16M keys)"
    )


if __name__ == "__main__":
    main()
