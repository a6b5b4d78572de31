"""Determinism regression tests for the vectorized ApproxArray backend.

The numpy backing store and the batched corruption RNG must never silently
change the sampled corruption stream: experiment tables are reproduced from
(configuration, seed) pairs, so a drive-by change to RNG consumption order
would invalidate every recorded number.  These tests pin the exact stored
words and accounting of one (T, seed) pair for both the scalar and the
block write path, the block sampler's no-error-floor paths at two more T,
plus distribution-level agreement between the two paths.

If an intentional change to the corruption streams lands, regenerate the
golden values below and say so loudly in the commit message.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core.approx_refine import run_approx_refine
from repro.memory.approx_array import ApproxArray, SCALAR_RNG_BATCH
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

GOLDEN_SCALAR_STORED = [
    1603362544, 595284394, 27638352, 2159432582, 347096279, 1627876803,
    3114132053, 675247014, 1022271021, 476516009, 2535870938, 1250600339,
    2895821580, 918248465, 1207677876, 3476822005, 3807057864, 3776879099,
    2111885832, 100859404, 2563432515, 2485498850, 872106831, 358645241,
    4290892754, 1804347661, 1709976312, 2490222688, 4115978434, 232672148,
    4286223985, 3029963192, 1016988545, 1759640181, 2509123600, 1938319021,
    1727308313, 78900410, 1412922062, 1878956900, 916663134, 1907027625,
    381464229, 2703725597, 3367678611, 109053898, 3468400067, 2136018677,
    3168039858, 991936988, 1586389040, 2866913749, 1112018821, 741982018,
    4065269031, 4235551146, 2605145270, 51067140, 261609510, 1670221073,
    2895017036, 1522699514, 604063555, 2414532871,
]
GOLDEN_SCALAR_CORRUPTED = 21

GOLDEN_BLOCK_STORED = [
    1603362544, 595022250, 27638352, 2159432582, 347096279, 1628138947,
    3115180629, 675247014, 1022254636, 476516009, 2535870938, 1267377555,
    2895821580, 901733393, 1207677876, 3476821989, 3807057864, 3776879099,
    2111885832, 117636620, 2563432515, 2485498850, 872106831, 358645242,
    3955348434, 1804347661, 1978427900, 2490288288, 4132755650, 232672148,
    4286223921, 3097071992, 1016988545, 1491204725, 2508926992, 1938384301,
    1727308309, 78884026, 1411807950, 1862183780, 916925021, 1907027625,
    381464229, 2720506909, 3367678611, 109053898, 3468400066, 2136018681,
    3168039858, 2065678812, 1586389040, 2866913749, 1112018821, 741982019,
    4065269031, 4235551146, 2605145270, 55261444, 261609510, 1737329937,
    2626581580, 1522699514, 604063555, 2681915655,
]
GOLDEN_BLOCK_CORRUPTED = 22

GOLDEN_WRITE_UNITS = 31.684875

#: Floor-sparse goldens, same fit and array seed.  At T = 0.07 the model's
#: no-error floor (0.9646 at this fit) proves every block sparse, so the
#: block sampler evaluates the exact per-word probability only where the
#: uniform reaches the floor; the 64 golden keys give 4 erring words (the
#: scalar slow path), ``uniform_keys(1024, seed=9)`` gives 22 (the batched
#: one).  At T = 0.025 the floor is 1.0 and no word can err.  ``scatter_np``
#: writes the same values to the positions in reverse order.  Each entry is
#: ``(corrupted position -> stored word, approx_write_units)``; every other
#: position holds the word written.  The values were generated with the
#: full per-word comparison, so they also pin that the floor changes none.
SPARSE_GOLDENS = {
    (0.07, 64, "write_block"): (
        {25: 1804348685, 40: 916663901, 48: 3184817074, 56: 2873580726},
        37.5609140625,
    ),
    (0.07, 64, "scatter_np"): (
        {7: 2873580726, 15: 3184817074, 23: 916663901, 38: 1804348685},
        37.5609140625,
    ),
    (0.07, 1024, "write_block"): (
        {
            25: 1804348685, 40: 916663901, 48: 3184817074, 56: 2873580726,
            138: 1187079457, 145: 732582653, 263: 3820680359,
            266: 3064038283, 291: 1943651511, 372: 2123197492,
            438: 720651801, 476: 62416579, 499: 1968806531, 545: 3806040834,
            563: 3630152173, 702: 4268881700, 732: 4130178167,
            824: 3179795014, 881: 1647096541, 994: 998930984,
            996: 2978114086, 1018: 4142306151,
        },
        603.1911119791666,
    ),
    (0.07, 1024, "scatter_np"): (
        {
            5: 4142306151, 27: 2978114086, 29: 998930984, 142: 1647096541,
            199: 3179795014, 291: 4130178167, 321: 4268881700,
            460: 3630152173, 478: 3806040834, 524: 1968806531,
            547: 62416579, 585: 720651801, 651: 2123197492,
            732: 1943651511, 757: 3064038283, 760: 3820680359,
            878: 732582653, 885: 1187079457, 967: 2873580726,
            975: 3184817074, 983: 916663901, 998: 1804348685,
        },
        603.1911119791666,
    ),
    (0.025, 64, "write_block"): ({}, 64.59311458333333),
    (0.025, 1024, "scatter_np"): ({}, 1035.9050026041666),
}


#: Small-block goldens, same fit, array seed and keys: ``(T, m)`` ->
#: ``(corrupted position -> stored word, approx_write_units, corrupted
#: count, next block uniform)`` after one ``write_block`` of the first
#: ``m`` golden keys.  T = 0.055 is floor-sparse, T = 0.075 and 0.1 take the
#: full-probability check, and T = 0.1 sends every block down the dense
#: path.  The sizes straddle the pairwise summation's 8-term switch.  The
#: values were recorded before the list lanes existed, so they pin that a
#: lane moves no word, no cost unit and no draw.
SMALL_BLOCK_GOLDENS = {
    (0.055, 1): ({}, 0.6723281249999999, 0, 0.5363488879319318),
    (0.055, 7): ({}, 4.6045859375000004, 0, 0.4108568623003571),
    (0.055, 8): ({}, 5.2756432291666675, 0, 0.2533865894972911),
    (0.055, 9): ({}, 5.951486979166667, 0, 0.9664653994992017),
    (0.055, 16): ({}, 10.647567708333334, 0, 0.7397646977858421),
    (0.055, 17): ({}, 11.321018229166668, 0, 0.7606183101613906),
    (0.055, 64): ({}, 42.4423359375, 0, 0.6847408786448789),
    (0.075, 1): ({}, 0.5745703125, 0, 0.7397646977858421),
    (0.075, 7): ({}, 3.9284505208333336, 0, 0.2010355233423089),
    (0.075, 8): ({}, 4.5047109375000005, 0, 0.8079660767416383),
    (0.075, 9): ({}, 5.085434895833334, 0, 0.7146504942076014),
    (0.075, 16): ({}, 9.107309895833334, 0, 0.39585050586791304),
    (0.075, 17): ({}, 9.685802083333334, 0, 0.44993873268942586),
    (0.075, 64): ({7: 691762086, 16: 3807320008, 25: 1804364045, 26: 1726753272, 51: 2867175893}, 36.308276041666666, 5, 0.9230064004968445),
    (0.1, 1): ({}, 0.5011640625, 0, 0.7397646977858421),
    (0.1, 7): ({2: 27638416, 3: 2159448966, 5: 2701618627, 6: 3130909269}, 3.4262760416666667, 4, 0.38531755326847483),
    (0.1, 8): ({3: 2163626886, 7: 742093750}, 3.929692708333334, 2, 0.02226014582931235),
    (0.1, 9): ({3: 2427868038, 4: 363873495, 5: 1627876819}, 4.436828125000001, 3, 0.3419066052030254),
    (0.1, 16): ({0: 1603428080, 7: 674984874, 11: 1317710227, 15: 3476826085}, 7.9478229166666665, 4, 0.7479274218092993),
    (0.1, 17): ({1: 595022314, 6: 3114132057, 9: 476536489}, 8.453098958333333, 3, 0.5642355185212128),
    (0.1, 64): ({5: 1628138947, 6: 3115180629, 7: 675247014, 11: 1267377555, 13: 901733393, 19: 117636620, 23: 358645242, 26: 1978427900, 27: 2490288288, 28: 4132755650, 31: 3097071992, 34: 2508926992, 35: 1938384301, 39: 1862183780, 40: 916925021, 43: 2720506909, 47: 2136018681, 49: 2065678812, 53: 741982019, 57: 55261444, 59: 1737329937, 63: 2681915655}, 31.684875000000005, 22, 0.2225379262796513),
}

#: Approx-refine goldens at n = 300 (test-scope fit, keys
#: ``uniform_keys(300, seed=4)``, run seed 5): ``(kernels, T, sorter)`` ->
#: ``(sha256 prefix of the final ids, Rem~, stats dict)``.  Recorded before
#: the MSD, HMSD and quicksort lanes existed.
APPROX_REFINE_GOLDENS = {
    ('scalar', 0.055, 'msd3'): ('ffb806e18f1c3fea', 0, {'precise_reads': 4488, 'precise_writes': 2692, 'approx_reads': 2092, 'approx_writes': 2392, 'approx_write_units': 1573.8689924158116, 'corrupted_writes': 0}),
    ('scalar', 0.055, 'hmsd3'): ('ffb806e18f1c3fea', 0, {'precise_reads': 3442, 'precise_writes': 1646, 'approx_reads': 1046, 'approx_writes': 1346, 'approx_write_units': 885.5585868265947, 'corrupted_writes': 0}),
    ('scalar', 0.055, 'quicksort'): ('ffb806e18f1c3fea', 0, {'precise_reads': 4018, 'precise_writes': 2222, 'approx_reads': 5277, 'approx_writes': 1922, 'approx_write_units': 1263.801803820946, 'corrupted_writes': 1}),
    ('scalar', 0.1, 'msd3'): ('ffb806e18f1c3fea', 114, {'precise_reads': 6657, 'precise_writes': 3648, 'approx_reads': 2134, 'approx_writes': 2434, 'approx_write_units': 1209.197577902807, 'corrupted_writes': 836}),
    ('scalar', 0.1, 'hmsd3'): ('ffb806e18f1c3fea', 82, {'precise_reads': 4522, 'precise_writes': 2040, 'approx_reads': 1053, 'approx_writes': 1353, 'approx_write_units': 668.6285319030546, 'corrupted_writes': 486}),
    ('scalar', 0.1, 'quicksort'): ('ffb806e18f1c3fea', 134, {'precise_reads': 7233, 'precise_writes': 2940, 'approx_reads': 5509, 'approx_writes': 1868, 'approx_write_units': 925.611044989903, 'corrupted_writes': 639}),
    ('numpy', 0.055, 'msd3'): ('ffb806e18f1c3fea', 0, {'precise_reads': 4488, 'precise_writes': 2692, 'approx_reads': 2092, 'approx_writes': 2392, 'approx_write_units': 1573.8689924158116, 'corrupted_writes': 0}),
    ('numpy', 0.055, 'hmsd3'): ('ffb806e18f1c3fea', 0, {'precise_reads': 3442, 'precise_writes': 1646, 'approx_reads': 1046, 'approx_writes': 1346, 'approx_write_units': 885.5585868265947, 'corrupted_writes': 0}),
    ('numpy', 0.055, 'quicksort'): ('ffb806e18f1c3fea', 0, {'precise_reads': 4018, 'precise_writes': 2222, 'approx_reads': 5277, 'approx_writes': 1922, 'approx_write_units': 1263.7686229957533, 'corrupted_writes': 0}),
    ('numpy', 0.1, 'msd3'): ('ffb806e18f1c3fea', 114, {'precise_reads': 6657, 'precise_writes': 3648, 'approx_reads': 2134, 'approx_writes': 2434, 'approx_write_units': 1209.197577902807, 'corrupted_writes': 836}),
    ('numpy', 0.1, 'hmsd3'): ('ffb806e18f1c3fea', 82, {'precise_reads': 4522, 'precise_writes': 2040, 'approx_reads': 1053, 'approx_writes': 1353, 'approx_write_units': 668.6285319030546, 'corrupted_writes': 486}),
    ('numpy', 0.1, 'quicksort'): ('ffb806e18f1c3fea', 140, {'precise_reads': 7369, 'precise_writes': 2998, 'approx_reads': 5395, 'approx_writes': 1868, 'approx_write_units': 923.6570215572347, 'corrupted_writes': 646}),
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
        for index, key in enumerate(GOLDEN_KEYS):
            array.write(index, key)
        assert array.to_list() == GOLDEN_SCALAR_STORED
        assert array.stats.approx_writes == len(GOLDEN_KEYS)
        assert array.stats.corrupted_writes == GOLDEN_SCALAR_CORRUPTED
        assert array.stats.approx_write_units == pytest.approx(
            GOLDEN_WRITE_UNITS, rel=1e-12
        )

    def test_block_write_stream_pinned(self, model):
        array = fresh_array(model)
        array.write_block(0, GOLDEN_KEYS)
        assert array.to_list() == GOLDEN_BLOCK_STORED
        assert array.stats.approx_writes == len(GOLDEN_KEYS)
        assert array.stats.corrupted_writes == GOLDEN_BLOCK_CORRUPTED
        assert array.stats.approx_write_units == pytest.approx(
            GOLDEN_WRITE_UNITS, rel=1e-12
        )

    def test_same_seed_same_stream(self, model):
        """Two arrays with the same seed replay identical corruption."""
        a, b = fresh_array(model), fresh_array(model)
        for index, key in enumerate(GOLDEN_KEYS):
            a.write(index, key)
            b.write(index, key)
        assert a.to_list() == b.to_list()

    def test_streams_independent_of_batch_boundary(self, model):
        """Interleaving scalar and block writes must not couple the two
        streams: the block path draws from its own generator."""
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
        ``LIST_LANE_MAX_WORDS`` words) both reproduce the parent goldens."""
        t, m = case
        corrupted, units, count, next_uniform = SMALL_BLOCK_GOLDENS[case]
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
        assert array._stream.random() == next_uniform

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
        """Write-unit accounting depends only on values, never on the path."""
        scalar, block = fresh_array(model), fresh_array(model)
        for index, key in enumerate(GOLDEN_KEYS):
            scalar.write(index, key)
        block.write_block(0, GOLDEN_KEYS)
        assert scalar.stats.approx_write_units == pytest.approx(
            block.stats.approx_write_units, rel=1e-12
        )


class TestPathAgreement:
    """Scalar, sparse-block and dense-block corruption sample the same
    per-word distribution; check their observed rates against the model's
    exact expectation with a binomial tolerance."""

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
        """Crossing the uniform-batch boundary must not skew rates: write
        more words than SCALAR_RNG_BATCH and compare halves."""
        n = 4 * SCALAR_RNG_BATCH
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
        # Both halves straddle refills; rates must agree loosely.
        assert abs(rate_lo - rate_hi) < 0.1
