"""Tests for the differential oracle: classes pass, plumbing behaves."""

import hashlib
import json

import numpy as np
import pytest

from repro.sorting.registry import available_sorters
from repro.verify import oracle
from repro.verify.oracle import (
    EQUIVALENCE_CLASSES,
    EXTRA_WORKLOADS,
    CaseResult,
    Divergence,
    OracleCase,
    _first_mismatch,
    digest_keys,
    resolve_classes,
    run_case,
)

# Representative sorters: one comparison sort, one radix block-writer, one
# hybrid — small n keeps the full class battery cheap.
REPRESENTATIVES = ["quicksort", "lsd4", "hmsd4"]


class TestCasePlumbing:
    def test_keys_from_registry_workload(self):
        case = OracleCase("quicksort", workload="uniform", n=50, seed=3)
        assert (
            case.keys().tolist()
            == OracleCase("lsd4", n=50, seed=3).keys().tolist()
        )
        assert len(case.keys()) == 50

    def test_keys_from_extra_workload(self):
        case = OracleCase("quicksort", workload="max_word", n=5)
        keys = case.keys()
        assert len(set(keys)) == 1
        assert keys[0] == 2**32 - 1
        assert "max_word" in EXTRA_WORKLOADS

    def test_describe_is_replayable(self):
        text = OracleCase("lsd4", workload="zipf", n=77, t=0.07, seed=9).describe()
        for fragment in ("lsd4", "zipf", "n=77", "T=0.07", "seed=9"):
            assert fragment in text

    def test_unknown_sorter_rejected(self):
        with pytest.raises(ValueError, match="unknown sorter"):
            run_case(OracleCase("bogosort"))

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            run_case(OracleCase("quicksort", workload="adversarial"))


class TestResolveClasses:
    def test_all_and_none(self):
        assert resolve_classes(None) == list(EQUIVALENCE_CLASSES)
        assert resolve_classes("all") == list(EQUIVALENCE_CLASSES)

    def test_bit_selector_refused(self):
        """Every class is bit-exact, so there is no ``bit`` subset."""
        with pytest.raises(ValueError, match="unknown equivalence class"):
            resolve_classes("bit")

    def test_comma_string_and_list(self):
        spec = "traced_untraced,scalar_numpy_precise"
        assert resolve_classes(spec) == [
            "traced_untraced", "scalar_numpy_precise",
        ]
        assert resolve_classes(["traced_untraced"]) == ["traced_untraced"]

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown equivalence class"):
            resolve_classes("scalar_numpy_precise,quantum")


class TestBitClasses:
    """Every equivalence class is a bit-identity class."""

    @pytest.mark.parametrize("algorithm", REPRESENTATIVES)
    def test_bit_classes_pass(self, algorithm):
        result = run_case(OracleCase(algorithm, n=120, seed=1))
        assert result.passed, [d.describe() for d in result.divergences]
        assert result.classes_run == list(EQUIVALENCE_CLASSES)

    def test_edge_workloads_pass(self):
        for workload in ("all_equal", "max_word"):
            result = run_case(OracleCase("lsd4", workload=workload, n=40))
            assert result.passed, [d.describe() for d in result.divergences]

    def test_tiny_n_pass(self):
        for n in (0, 1, 2):
            result = run_case(OracleCase("quicksort", n=n))
            assert result.passed, [d.describe() for d in result.divergences]


class TestApproxClass:
    def test_block_writer_exact(self):
        result = run_case(
            OracleCase("lsd4", n=150, t=0.055, seed=2),
            classes=["scalar_numpy_approx"],
        )
        assert result.passed, [d.describe() for d in result.divergences]

    def test_quicksort_exact(self, monkeypatch):
        """Quicksort's two paths store the same words where its crossing
        scans meet corrupted swapped-in values (T = 0.1), and the class
        compares them exactly: one extra read on one path diverges."""
        case = OracleCase("quicksort", n=200, t=0.1, seed=1)
        result = run_case(case, classes=["scalar_numpy_approx"])
        assert result.passed, [d.describe() for d in result.divergences]

        real = oracle.run_approx_refine

        def one_more_read(*args, kernels=None, **kwargs):
            result = real(*args, kernels=kernels, **kwargs)
            if kernels == "numpy":
                result.stats.record_approx_read()
            return result

        monkeypatch.setattr(oracle, "run_approx_refine", one_more_read)
        result = run_case(case, classes=["scalar_numpy_approx"])
        assert [d.field for d in result.divergences] == [
            "stats.approx_reads"
        ]


class TestReporting:
    def test_divergence_describe(self):
        d = Divergence(
            "traced_untraced", "final_keys", 17, 4, 5, detail="first diff"
        )
        text = d.describe()
        assert "traced_untraced" in text
        assert "final_keys[17]" in text
        assert "expected 4" in text and "got 5" in text
        assert "first diff" in text
        assert "[" not in Divergence("c", "rem_tilde", None, 1, 2).describe()

    def test_case_result_json_roundtrip(self):
        result = CaseResult(
            case=OracleCase("lsd4", n=10),
            classes_run=["scalar_numpy_precise"],
            divergences=[Divergence("scalar_numpy_precise", "stats.x", None, 1, 2)],
        )
        payload = result.to_json()
        assert payload["case"]["algorithm"] == "lsd4"
        assert payload["classes_run"] == ["scalar_numpy_precise"]
        assert payload["divergences"][0]["field"] == "stats.x"
        assert not result.passed

    def test_first_divergent_class_stops_the_run(self, monkeypatch):
        calls = []

        def fail(case):
            calls.append("fail")
            return [Divergence("injected", "x", None, 0, 1)]

        def never(case):  # pragma: no cover - must not run
            calls.append("never")
            return []

        monkeypatch.setitem(EQUIVALENCE_CLASSES, "injected", fail)
        monkeypatch.setitem(EQUIVALENCE_CLASSES, "after", never)
        result = run_case(
            OracleCase("quicksort", n=10), classes=["injected", "after"]
        )
        assert calls == ["fail"]
        assert result.classes_run == ["injected"]
        assert not result.passed


class TestHelpers:
    def test_digest_deterministic_and_sensitive(self):
        keys = list(range(100))
        assert digest_keys(keys) == digest_keys(list(range(100)))
        assert digest_keys(keys) != digest_keys(keys[::-1])
        assert len(digest_keys([])) == 16

    def test_digest_of_array_equals_digest_of_words(self):
        """One hash of the little-endian words, whatever the sequence."""
        keys = [0, 1, 2**32 - 1, 123_456_789]
        h = hashlib.sha256()
        for key in keys:
            h.update(key.to_bytes(4, "little"))
        assert digest_keys(keys) == h.hexdigest()[:16]
        assert digest_keys(np.array(keys, dtype=np.uint32)) == digest_keys(keys)

    def test_first_mismatch_records_json_ints(self):
        out = []
        _first_mismatch(out, "cls", "final_keys",
                        np.array([1, 2, 3], dtype=np.uint32), [1, 5, 3])
        _first_mismatch(out, "cls", "final_ids",
                        np.arange(3, dtype=np.uint32), [0, 1])
        _first_mismatch(out, "cls", "same",
                        np.arange(3, dtype=np.uint32), [0, 1, 2])
        assert [(d.field, d.index, d.expected, d.actual) for d in out] == [
            ("final_keys", 1, 2, 5), ("final_ids", None, 3, 2),
        ]
        assert out[1].detail == "length mismatch"
        json.dumps([d.__dict__ for d in out])

    def test_all_sorters_known_to_registry(self):
        # The oracle CLI's "all" is the live registry.
        from repro.verify.__main__ import _algorithms

        assert _algorithms("all") == available_sorters()


class TestShardedSerialClass:
    def test_registered_and_bit(self):
        assert "sharded_serial" in EQUIVALENCE_CLASSES
        assert "sharded_serial" in resolve_classes(None)

    @pytest.mark.parametrize("algorithm", ["lsd3", "quicksort"])
    def test_passes_for_representative_sorters(self, algorithm):
        result = run_case(
            OracleCase(algorithm=algorithm, n=150),
            classes=["sharded_serial"],
        )
        assert result.passed, [d.describe() for d in result.divergences]

    def test_passes_on_degenerate_workload(self):
        result = run_case(
            OracleCase(algorithm="mergesort", workload="max_word", n=40),
            classes=["sharded_serial"],
        )
        assert result.passed, [d.describe() for d in result.divergences]
