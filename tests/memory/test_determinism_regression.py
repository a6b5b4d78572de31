"""Determinism regression tests for the keyed ApproxArray backend.

The keyed corruption draws must never silently change: experiment tables
are reproduced from (configuration, seed) pairs, so a drive-by change to
the hash, its keys or the stream ids would invalidate every recorded
number.  These tests pin the exact stored words and accounting of one
(T, seed) pair, which the scalar and the block write path share, the block
sampler's no-error-floor paths at two more T, plus distribution-level
agreement with the model's expectation.

If an intentional change to the corruption draws lands, regenerate the
golden values below and say so loudly in the commit message.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core.approx_refine import run_approx_refine
from repro.memory import keyed
from repro.memory.approx_array import ApproxArray
from repro.memory.config import MLCParams
from repro.memory.error_model import get_model
from repro.workloads.generators import uniform_keys

from ..conftest import make_pcm

#: Golden configuration: T = 0.1 (dense corruption makes the pinned values
#: exercise the error paths), fit of 8_000 samples/level, array seed 11.
GOLDEN_T = 0.1
GOLDEN_FIT = 8_000
GOLDEN_SEED = 11
GOLDEN_KEYS = uniform_keys(64, seed=9)

#: What the 64 golden keys store, written once each, in any order or
#: blocking: the scalar and the block path store the same words.
GOLDEN_STORED = [
    1603366640, 595022250, 27638352, 2159432598, 615531735, 1628925379,
    3114132053, 674984870, 1022254636, 476516009, 2804306394, 1250600339,
    2895821580, 901471505, 1207677876, 3476821989, 3807057864, 3776944635,
    2111885832, 100859404, 2563432515, 2485498850, 872106831, 358645241,
    4223783890, 1804347661, 1709980152, 2490222688, 4115978434, 232672212,
    4286223921, 4103704952, 1016988545, 1491204725, 3582603280, 1938318765,
    1727308309, 78884026, 1412856526, 1862179684, 916662877, 1908141737,
    448573093, 2703725597, 3367678611, 109053898, 3468400066, 2136022773,
    3168056242, 991936988, 1586389040, 2866913749, 1112018821, 741982018,
    4066317607, 4235551418, 2605145270, 319502596, 261609510, 1670221073,
    2626581644, 1522699514, 604063555, 2413480199,
]
GOLDEN_CORRUPTED = 21

GOLDEN_WRITE_UNITS = 31.684875

#: Floor-sparse goldens, same fit and array seed.  At T = 0.07 the model's
#: no-error floor (0.9646 at this fit) proves every block sparse, so the
#: block sampler evaluates the exact per-word probability only where the
#: uniform reaches the floor; the 64 golden keys give 2 erring words (each
#: resolved in Python), ``uniform_keys(1024, seed=9)`` gives 24 (resolved in
#: numpy).  At T = 0.025 the floor is 1.0 and no word can err.
#: ``scatter_np`` writes the same values to the positions in reverse order,
#: so other (value, address) pairs err.  Each entry is ``(corrupted position
#: -> stored word, approx_write_units)``; every other position holds the
#: word written.
SPARSE_GOLDENS = {
    (0.07, 64, 'write_block'): (
        {
            31: 3029979512, 34: 2509910032,
        },
        37.5609140625,
    ),
    (0.07, 64, 'scatter_np'): (
        {
            24: 1862179700, 31: 1016988609, 34: 232688532,
        },
        37.5609140625,
    ),
    (0.07, 1024, 'write_block'): (
        {
            31: 3029979512, 34: 2509910032, 75: 1667929274, 99: 2300514126,
            101: 1702221592, 124: 3658813055, 143: 1727293200,
            257: 2747410793, 294: 3791889809, 301: 413842605,
            373: 861155246, 490: 1108323785, 561: 2243835136,
            627: 1770282259, 631: 4131889652, 635: 4217356844,
            654: 813473895, 691: 1031419686, 716: 1601394393,
            785: 738828017, 849: 237280753, 929: 149840606,
            952: 1425226208, 967: 3764114099,
        },
        603.1911119791666,
    ),
    (0.07, 1024, 'scatter_np'): (
        {
            24: 159817702, 31: 2549494286, 34: 378597745, 75: 2967384352,
            99: 2186380992, 101: 3319420604, 111: 2443740767,
            124: 47264855, 143: 2908482967, 257: 4041743147,
            294: 3809890188, 326: 75718954, 370: 1907492529,
            373: 494073569, 490: 1287841637, 561: 2661261642,
            627: 2857722580, 631: 1351002932, 635: 1789853156,
            654: 580197547, 691: 820100991, 716: 1157221485,
            785: 1411407594, 849: 1426039701, 929: 2916422444,
            952: 2271602819, 967: 2672254134,
        },
        603.1911119791666,
    ),
    (0.025, 64, 'write_block'): (
        {},
        64.59311458333335,
    ),
    (0.025, 1024, 'scatter_np'): (
        {},
        1035.9050026041668,
    ),
}


#: Small-block goldens, same fit, array seed and keys: ``(T, m)`` ->
#: ``(corrupted position -> stored word, approx_write_units, corrupted
#: count)`` after one ``write_block`` of the first ``m`` golden keys.
#: T = 0.055 is floor-sparse, T = 0.075 and 0.1 take the full-probability
#: check.  Lists of at most 16 words take the list lane, the rest the numpy
#: forms; the words that err are those of the 64-word block, whatever the
#: block's length.
SMALL_BLOCK_GOLDENS = {
    (0.055, 1): ({}, 0.672328125, 0),
    (0.055, 7): ({}, 4.6045859375000004, 0),
    (0.055, 8): ({}, 5.275643229166667, 0),
    (0.055, 9): ({}, 5.951486979166667, 0),
    (0.055, 16): ({}, 10.647567708333334, 0),
    (0.055, 17): ({}, 11.321018229166667, 0),
    (0.055, 64): ({}, 42.442335937500005, 0),
    (0.075, 1): ({}, 0.5745703125, 0),
    (0.075, 7): ({4: 347096295}, 3.928450520833333, 1),
    (0.075, 8): ({4: 347096295}, 4.5047109375000005, 1),
    (0.075, 9): ({4: 347096295}, 5.085434895833333, 1),
    (0.075, 16): ({4: 347096295, 10: 2535871194}, 9.107309895833334, 2),
    (0.075, 17): ({4: 347096295, 10: 2535871194}, 9.685802083333334, 2),
    (0.075, 64): ({4: 347096295, 10: 2535871194, 24: 3955352530, 31: 3034157432, 34: 2575970320}, 36.308276041666666, 5),
    (0.1, 1): ({0: 1603366640}, 0.5011640625, 1),
    (0.1, 7): ({0: 1603366640, 3: 2159432598, 4: 615531735, 5: 1628925379}, 3.4262760416666667, 4),
    (0.1, 8): ({0: 1603366640, 3: 2159432598, 4: 615531735, 5: 1628925379}, 3.9296927083333335, 4),
    (0.1, 9): ({0: 1603366640, 3: 2159432598, 4: 615531735, 5: 1628925379}, 4.436828125, 4),
    (0.1, 16): ({0: 1603366640, 3: 2159432598, 4: 615531735, 5: 1628925379, 10: 2804306394, 13: 901471505}, 7.9478229166666665, 6),
    (0.1, 17): ({0: 1603366640, 3: 2159432598, 4: 615531735, 5: 1628925379, 10: 2804306394, 13: 901471505}, 8.453098958333333, 6),
    (0.1, 64): ({0: 1603366640, 3: 2159432598, 4: 615531735, 5: 1628925379, 10: 2804306394, 13: 901471505, 17: 3776944635, 24: 4223783890, 26: 1709980152, 29: 232672212, 31: 4103704952, 34: 3582603280, 38: 1412856526, 41: 1908141737, 42: 448573093, 47: 2136022773, 48: 3168056242, 54: 4066317607, 55: 4235551418, 57: 319502596, 60: 2626581644}, 31.684875, 21),
}

#: Approx-refine goldens at n = 300 (test-scope fit, keys
#: ``uniform_keys(300, seed=4)``, run seed 5): ``(kernels, T, sorter)`` ->
#: ``(sha256 prefix of the final ids, Rem~, stats dict)``.  MSD, HMSD and
#: quicksort take the level pass under numpy kernels and the depth-first
#: walk under scalar ones, and agree.
APPROX_REFINE_GOLDENS = {
    ('scalar', 0.055, 'msd3'): ('ffb806e18f1c3fea', 0, {'precise_reads': 4488, 'precise_writes': 2692, 'approx_reads': 2092, 'approx_writes': 2392, 'approx_write_units': 1573.8772876221096, 'corrupted_writes': 1}),
    ('scalar', 0.055, 'hmsd3'): ('ffb806e18f1c3fea', 0, {'precise_reads': 3442, 'precise_writes': 1646, 'approx_reads': 1046, 'approx_writes': 1346, 'approx_write_units': 885.5585868265941, 'corrupted_writes': 0}),
    ('scalar', 0.055, 'quicksort'): ('ffb806e18f1c3fea', 0, {'precise_reads': 4010, 'precise_writes': 2214, 'approx_reads': 6192, 'approx_writes': 1914, 'approx_write_units': 1258.6392976381849, 'corrupted_writes': 2}),
    ('scalar', 0.1, 'msd3'): ('ffb806e18f1c3fea', 127, {'precise_reads': 6847, 'precise_writes': 3724, 'approx_reads': 2096, 'approx_writes': 2396, 'approx_write_units': 1190.5154569061458, 'corrupted_writes': 836}),
    ('scalar', 0.1, 'hmsd3'): ('ffb806e18f1c3fea', 99, {'precise_reads': 4715, 'precise_writes': 2127, 'approx_reads': 1034, 'approx_writes': 1334, 'approx_write_units': 659.0667197353778, 'corrupted_writes': 477}),
    ('scalar', 0.1, 'quicksort'): ('ffb806e18f1c3fea', 166, {'precise_reads': 8403, 'precise_writes': 3204, 'approx_reads': 5995, 'approx_writes': 1924, 'approx_write_units': 952.3960471538685, 'corrupted_writes': 664}),
    ('numpy', 0.055, 'msd3'): ('ffb806e18f1c3fea', 0, {'precise_reads': 4488, 'precise_writes': 2692, 'approx_reads': 2092, 'approx_writes': 2392, 'approx_write_units': 1573.8772876221096, 'corrupted_writes': 1}),
    ('numpy', 0.055, 'hmsd3'): ('ffb806e18f1c3fea', 0, {'precise_reads': 3442, 'precise_writes': 1646, 'approx_reads': 1046, 'approx_writes': 1346, 'approx_write_units': 885.5585868265941, 'corrupted_writes': 0}),
    ('numpy', 0.055, 'quicksort'): ('ffb806e18f1c3fea', 0, {'precise_reads': 4010, 'precise_writes': 2214, 'approx_reads': 6192, 'approx_writes': 1914, 'approx_write_units': 1258.6392976381849, 'corrupted_writes': 2}),
    ('numpy', 0.1, 'msd3'): ('ffb806e18f1c3fea', 127, {'precise_reads': 6847, 'precise_writes': 3724, 'approx_reads': 2096, 'approx_writes': 2396, 'approx_write_units': 1190.5154569061458, 'corrupted_writes': 836}),
    ('numpy', 0.1, 'hmsd3'): ('ffb806e18f1c3fea', 99, {'precise_reads': 4715, 'precise_writes': 2127, 'approx_reads': 1034, 'approx_writes': 1334, 'approx_write_units': 659.0667197353778, 'corrupted_writes': 477}),
    ('numpy', 0.1, 'quicksort'): ('ffb806e18f1c3fea', 166, {'precise_reads': 8403, 'precise_writes': 3204, 'approx_reads': 5995, 'approx_writes': 1924, 'approx_write_units': 952.3960471538685, 'corrupted_writes': 664}),
}


@pytest.fixture(scope="module")
def model():
    return get_model(MLCParams(t=GOLDEN_T), samples_per_level=GOLDEN_FIT)


def fresh_array(model, n=len(GOLDEN_KEYS)):
    return ApproxArray(
        [0] * n, model=model, precise_iterations=3.0, seed=GOLDEN_SEED
    )


class TestGoldenValues:
    def test_scalar_write_stream_pinned(self, model):
        array = fresh_array(model)
        for index in reversed(range(len(GOLDEN_KEYS))):
            array.write(index, int(GOLDEN_KEYS[index]))
        assert array.to_list() == GOLDEN_STORED
        assert array.stats.approx_writes == len(GOLDEN_KEYS)
        assert array.stats.corrupted_writes == GOLDEN_CORRUPTED
        assert array.stats.approx_write_units == GOLDEN_WRITE_UNITS

    def test_block_write_stream_pinned(self, model):
        array = fresh_array(model)
        array.write_block(0, GOLDEN_KEYS)
        assert array.to_list() == GOLDEN_STORED
        assert array.stats.approx_writes == len(GOLDEN_KEYS)
        assert array.stats.corrupted_writes == GOLDEN_CORRUPTED
        assert array.stats.approx_write_units == GOLDEN_WRITE_UNITS
        # The draws are keyed by (stream, address, write count).
        assert array._stream == keyed.stream_id(GOLDEN_SEED)
        assert keyed.uniform(array._stream, 0, 1) == 0.08336833579585767

    def test_same_seed_same_stream(self, model):
        """Two arrays with the same seed replay identical corruption."""
        a, b = fresh_array(model), fresh_array(model)
        for index, key in enumerate(GOLDEN_KEYS):
            a.write(index, key)
            b.write(index, key)
        assert a.to_list() == b.to_list()

    def test_streams_independent_of_batch_boundary(self, model):
        """Interleaving scalar and block writes couples nothing: a write's
        draws depend on its address and write count alone."""
        a = fresh_array(model, n=2 * len(GOLDEN_KEYS))
        b = fresh_array(model, n=2 * len(GOLDEN_KEYS))
        # a: all scalar writes first, then the block; b: block first.
        for index, key in enumerate(GOLDEN_KEYS):
            a.write(index, key)
        a.write_block(len(GOLDEN_KEYS), GOLDEN_KEYS)
        b.write_block(len(GOLDEN_KEYS), GOLDEN_KEYS)
        for index, key in enumerate(GOLDEN_KEYS):
            b.write(index, key)
        assert a.to_list() == b.to_list()

    @pytest.mark.parametrize(
        "case", list(SPARSE_GOLDENS), ids=lambda c: f"T{c[0]}-n{c[1]}-{c[2]}"
    )
    def test_floor_sparse_block_paths_pinned(self, case):
        t, n, path = case
        corrupted, units = SPARSE_GOLDENS[case]
        model = get_model(MLCParams(t=t), samples_per_level=GOLDEN_FIT)
        keys = np.asarray(uniform_keys(n, seed=9), dtype=np.uint32)
        array = fresh_array(model, n)
        if path == "write_block":
            slots = np.arange(n)
            array.write_block(0, keys)
        else:
            slots = np.arange(n)[::-1]
            array.scatter_np(slots, keys)
        expected = np.empty_like(keys)
        expected[slots] = keys
        for position, word in corrupted.items():
            expected[position] = word
        assert array.to_list() == expected.tolist()
        assert array.stats.approx_writes == n
        assert array.stats.corrupted_writes == len(corrupted)
        assert array.stats.approx_write_units == units

    @pytest.mark.parametrize(
        "case", list(SMALL_BLOCK_GOLDENS), ids=lambda c: f"T{c[0]}-m{c[1]}"
    )
    @pytest.mark.parametrize("container", ["ndarray", "list"])
    def test_small_block_pinned(self, case, container):
        """The numpy block path and the list lane (a ``list`` of at most
        ``LIST_LANE_MAX_WORDS`` words) both reproduce the goldens."""
        t, m = case
        corrupted, units, count = SMALL_BLOCK_GOLDENS[case]
        small_model = get_model(MLCParams(t=t), samples_per_level=GOLDEN_FIT)
        keys = np.asarray(GOLDEN_KEYS[:m], dtype=np.uint32)
        array = fresh_array(small_model)
        array.write_block(0, keys if container == "ndarray" else keys.tolist())
        expected = keys.tolist()
        for position, word in corrupted.items():
            expected[position] = word
        assert array.to_list()[:m] == expected
        assert array.stats.approx_write_units == units
        assert array.stats.corrupted_writes == count
        assert array._versions.tolist() == [1] * m + [0] * (64 - m)

    @pytest.mark.parametrize(
        "case", list(APPROX_REFINE_GOLDENS), ids=lambda c: "-".join(map(str, c))
    )
    def test_approx_refine_pinned(self, case):
        kernels, t, sorter = case
        digest, rem_tilde, stats = APPROX_REFINE_GOLDENS[case]
        keys = uniform_keys(300, seed=4)
        result = run_approx_refine(
            keys, sorter, make_pcm(t), seed=5, kernels=kernels
        )
        assert result.final_keys.tolist() == sorted(keys)
        ids = json.dumps(result.final_ids.tolist()).encode()
        assert hashlib.sha256(ids).hexdigest()[:16] == digest
        assert result.rem_tilde == rem_tilde
        assert result.stats.as_dict() == stats

    def test_write_cost_identical_across_paths(self, model):
        """Write-unit accounting depends only on values, never on the path:
        integer cell counts, summed once when read."""
        scalar, block = fresh_array(model), fresh_array(model)
        for index, key in enumerate(GOLDEN_KEYS):
            scalar.write(index, key)
        block.write_block(0, GOLDEN_KEYS)
        assert scalar.stats.approx_write_units == (
            block.stats.approx_write_units
        )


class TestPathAgreement:
    """Scalar and block corruption sample the same per-word distribution;
    check their observed rates against the model's exact expectation with a
    binomial tolerance."""

    @pytest.mark.parametrize("t,n", [(0.1, 20_000), (0.055, 50_000)])
    def test_corruption_rate_matches_expectation(self, t, n):
        model = get_model(MLCParams(t=t), samples_per_level=GOLDEN_FIT)
        keys = uniform_keys(n, seed=17)
        vals = np.asarray(keys, dtype=np.uint32)
        p_err = 1.0 - model.block_no_error_probability(vals)
        expected = float(p_err.sum())
        sigma = float(np.sqrt((p_err * (1.0 - p_err)).sum()))

        block = ApproxArray([0] * n, model=model, precise_iterations=3.0,
                            seed=23)
        block.write_block(0, keys)
        assert abs(block.stats.corrupted_writes - expected) < 5 * sigma + 1

        scalar = ApproxArray([0] * n, model=model, precise_iterations=3.0,
                             seed=29)
        for index, key in enumerate(keys):
            scalar.write(index, key)
        assert abs(scalar.stats.corrupted_writes - expected) < 5 * sigma + 1

    def test_scalar_batch_refill_preserves_distribution(self, model):
        """A long run of scalar writes keeps its rate: the halves of 2,048
        keyed writes err alike."""
        n = 2048
        keys = uniform_keys(n, seed=31)
        array = ApproxArray([0] * n, model=model, precise_iterations=3.0,
                            seed=37)
        for index, key in enumerate(keys):
            array.write(index, key)
        stored = array.to_numpy()
        vals = np.asarray(keys, dtype=np.uint32)
        corrupted = stored != vals
        half = n // 2
        rate_lo = corrupted[:half].mean()
        rate_hi = corrupted[half:].mean()
        # Independent keyed draws: the halves' rates agree loosely.
        assert abs(rate_lo - rate_hi) < 0.1
