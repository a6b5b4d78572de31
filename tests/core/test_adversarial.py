"""Adversarial-memory robustness of the approx-refine mechanism.

The exactness guarantee must not depend on the error model being benign.
These tests drive the mechanism with worst-case memories — every write
corrupted, corruption to extreme values, anti-sorted corruption — and check
that the output is still exactly sorted and the costs stay bounded by the
degenerate-case analysis (Rem~ <= n, refine <= 3n + alpha(n)).
"""

import numpy as np
import pytest

from repro.core.approx_refine import run_approx_refine
from repro.core.cost_model import hybrid_cost
from repro.kernels import KERNEL_MODES
from repro.memory.approx_array import InstrumentedArray, WORD_LIMIT, _check_word
from repro.memory.stats import MemoryStats
from repro.sorting.registry import make_sorter
from repro.workloads.generators import uniform_keys


class _AdversarialArray(InstrumentedArray):
    """Approximate array whose every write stores an adversarial value.

    It supplies the two store hooks of a real memory kind: the scalar
    :meth:`write` and :meth:`_write_words`, the store of every block write
    and scatter, so both kernel paths drive it.
    """

    region = "approx"

    def __init__(self, data, corrupt, stats=None, trace=None,
                 name="adversarial"):
        super().__init__(data, stats=stats, trace=trace, name=name)
        self._corrupt = corrupt

    def _clone_args(self):
        return {"corrupt": self._corrupt}

    def write(self, index, value):
        self._write_words([index], [_check_word(value)])

    def _write_words(self, slots, vals):
        indices = range(len(self))[slots] if isinstance(slots, slice) else slots
        # Python ints, so a corruption's arithmetic cannot wrap at 32 bits.
        for index, value in zip(np.asarray(indices).tolist(),
                                np.asarray(vals).tolist()):
            stored = self._corrupt(index, value)
            self.stats.record_approx_write(0.5, corrupted=stored != value)
            self._data[index] = stored


class _AdversarialFactory:
    description = "adversarial memory (every write corrupted)"

    def __init__(self, corrupt):
        self._corrupt = corrupt
        self.p_ratio = 0.5

    def make_array(self, data, stats=None, seed=0):
        return _AdversarialArray(
            data, self._corrupt, stats=stats if stats is not None else MemoryStats()
        )


CORRUPTIONS = {
    # Every stored key becomes the maximum value.
    "all_max": lambda index, value: WORD_LIMIT - 1,
    # Every stored key becomes zero.
    "all_zero": lambda index, value: 0,
    # Values are bit-complemented (anti-sorts the data).
    "complement": lambda index, value: WORD_LIMIT - 1 - value,
    # Value depends on the position it lands in (reverse ramp).
    "position_ramp": lambda index, value: (WORD_LIMIT - 1 - index) % WORD_LIMIT,
    # Deterministic pseudo-random garbage.
    "hash_garbage": lambda index, value: (value * 2654435761 + index) % WORD_LIMIT,
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
@pytest.mark.parametrize("algorithm", ["quicksort", "lsd6", "mergesort"])
def test_exact_under_total_corruption(corruption, algorithm):
    keys = uniform_keys(300, seed=1)
    memory = _AdversarialFactory(CORRUPTIONS[corruption])
    results = [
        run_approx_refine(keys, algorithm, memory, seed=2, kernels=kernels)
        for kernels in KERNEL_MODES
    ]
    for result in results:
        assert result.final_keys.tolist() == sorted(keys)
        assert sorted(result.final_ids.tolist()) == list(range(len(keys)))
    # Both paths store the same values at the same addresses, so even a
    # total adversary cannot tell them apart.
    scalar, vector = results
    assert scalar.final_ids.tolist() == vector.final_ids.tolist()
    assert scalar.rem_tilde == vector.rem_tilde
    assert scalar.stats == vector.stats


@pytest.mark.parametrize("corruption", ["all_max", "complement"])
def test_costs_bounded_by_degenerate_case(corruption):
    """Even with Rem~ -> n, refine cost stays within the analytic bound."""
    n = 400
    keys = uniform_keys(n, seed=3)
    memory = _AdversarialFactory(CORRUPTIONS[corruption])
    result = run_approx_refine(keys, "lsd6", memory, seed=4)
    assert result.final_keys.tolist() == sorted(keys)
    assert result.rem_tilde <= n
    bound = hybrid_cost(
        make_sorter("lsd6"), n, 1.0, n
    ).refine  # worst case: everything in REM at precise write cost
    assert result.refine_units <= bound * 1.05


def test_adversary_flagged_as_corrupted():
    keys = uniform_keys(100, seed=5)
    memory = _AdversarialFactory(CORRUPTIONS["complement"])
    result = run_approx_refine(keys, "quicksort", memory, seed=6)
    # Essentially every write corrupted something.
    assert result.stats.corrupted_writes > 0.9 * result.stats.approx_writes


def test_rng_independent_adversary_is_deterministic():
    keys = uniform_keys(200, seed=7)
    a = run_approx_refine(
        keys, "quicksort", _AdversarialFactory(CORRUPTIONS["hash_garbage"]),
        seed=8,
    )
    b = run_approx_refine(
        keys, "quicksort", _AdversarialFactory(CORRUPTIONS["hash_garbage"]),
        seed=8,
    )
    assert a.final_ids.tolist() == b.final_ids.tolist()
    assert a.rem_tilde == b.rem_tilde
