"""Binary insertion sort — a write-heavy reference point and ablation tool.

Not one of the paper's three studied algorithms, but useful in two places:

* as an *adaptive* refinement baseline: on a nearly-sorted sequence its
  write count is ``O(n + Inv)``, which lets tests and ablation benches
  quantify why the paper built a bespoke refine stage instead of reaching
  for an adaptive sort (Section 4.2: adaptive sorts "typically introduce 3n
  or even more memory writes");
* as a brute-force oracle in property tests.
"""

from __future__ import annotations

from typing import Optional

from repro.memory.approx_array import InstrumentedArray

from .base import BaseSorter


class InsertionSort(BaseSorter):
    """Classic shift-based insertion sort over (keys, ids)."""

    name = "insertion"

    def _sort(
        self, keys: InstrumentedArray, ids: Optional[InstrumentedArray]
    ) -> None:
        n = len(keys)
        for i in range(1, n):
            key = keys.read(i)
            id_value = ids.read(i) if ids is not None else 0
            j = i - 1
            moved = False
            while j >= 0:
                current = keys.read(j)
                if current <= key:
                    break
                keys.write(j + 1, current)
                if ids is not None:
                    ids.write(j + 1, ids.read(j))
                j -= 1
                moved = True
            if moved:
                keys.write(j + 1, key)
                if ids is not None:
                    ids.write(j + 1, id_value)

    def expected_key_writes(self, n: int) -> float:
        """Average-case writes on random input: ~ n^2/4 shifts."""
        if n < 2:
            return 0.0
        return n * n / 4.0
