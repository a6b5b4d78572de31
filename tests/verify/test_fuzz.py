"""Tests for the fuzzer: corpus shape, determinism, shrinking, replay, CLI."""

import argparse
import json
import time
from random import Random

import pytest

from repro.sorting.registry import available_sorters
from repro.verify import SANITIZE_ENV
from repro.verify.__main__ import main, parse_budget
from repro.verify.fuzz import (
    CASE_SCHEMA,
    EDGE_DEGENERATE_N,
    EDGE_SIZES,
    draw_case,
    edge_corpus,
    load_case,
    replay,
    run_fuzz,
    save_case,
    shrink,
)
from repro.verify.oracle import (
    CaseResult,
    Divergence,
    EQUIVALENCE_CLASSES,
    OracleCase,
    T_CHOICES,
)
from repro.workloads.generators import GENERATORS


class TestEdgeCorpus:
    def test_covers_every_sorter_and_boundary(self):
        cases = edge_corpus()
        per_sorter = {name: [] for name in available_sorters()}
        for case in cases:
            per_sorter[case.algorithm].append(case)
        for name, group in per_sorter.items():
            sizes = {c.n for c in group if c.workload == "uniform"}
            assert sizes == set(EDGE_SIZES), name
            workloads = {c.workload for c in group}
            assert {"all_equal", "max_word"} <= workloads, name
            degenerate = [c for c in group if c.workload != "uniform"]
            assert all(c.n == EDGE_DEGENERATE_N for c in degenerate)

    def test_respects_algorithm_filter(self):
        cases = edge_corpus(["quicksort"], seed=7)
        assert {c.algorithm for c in cases} == {"quicksort"}
        assert all(c.seed == 7 for c in cases)


class TestDrawCase:
    def test_deterministic_per_seed(self):
        names = available_sorters()
        a = [draw_case(Random(42), 400, names) for _ in range(50)]
        b = [draw_case(Random(42), 400, names) for _ in range(50)]
        assert a == b
        assert a != [draw_case(Random(43), 400, names) for _ in range(50)]

    def test_draws_within_bounds(self):
        rng = Random(3)
        names = available_sorters()
        for _ in range(200):
            case = draw_case(rng, 100, names)
            assert 0 <= case.n <= 100
            assert case.algorithm in names
            assert case.workload in GENERATORS
            assert case.t in T_CHOICES
            assert 0 <= case.seed < 1 << 16


ALWAYS_FAIL = "always_fail_injected"


@pytest.fixture
def injected_failure(monkeypatch):
    """An equivalence class that fails for every n > 2 (shrinkable)."""

    def check(case):
        if case.n > 2:
            return [Divergence(ALWAYS_FAIL, "final_keys", 0, 0, 1)]
        return []

    monkeypatch.setitem(EQUIVALENCE_CLASSES, ALWAYS_FAIL, check)
    return [ALWAYS_FAIL]


class TestShrink:
    def test_shrinks_to_smaller_failing_n(self, injected_failure):
        case = OracleCase("quicksort", n=200)
        small, result = shrink(case, injected_failure)
        assert not result.passed
        assert small.n < case.n
        assert small.n > 2  # n <= 2 passes, so the shrink stops above it
        assert small.algorithm == case.algorithm

    def test_requires_a_failing_case(self):
        with pytest.raises(ValueError, match="failing"):
            shrink(OracleCase("quicksort", n=20), ["scalar_numpy_precise"])

    def test_crash_during_shrink_is_a_finding(self, monkeypatch):
        def crash(case):
            raise RuntimeError("boom at n=%d" % case.n)

        monkeypatch.setitem(EQUIVALENCE_CLASSES, ALWAYS_FAIL, crash)
        small, result = shrink(OracleCase("quicksort", n=100), [ALWAYS_FAIL])
        assert not result.passed
        assert result.divergences[0].equivalence == "crash"
        assert result.divergences[0].field == "RuntimeError"
        assert small.n == 0  # crashes at every rung, so the ladder bottoms out


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        case = OracleCase("lsd4", workload="zipf", n=37, t=0.07, seed=12)
        result = CaseResult(
            case=case, classes_run=["traced_untraced"],
            divergences=[Divergence("traced_untraced", "rem_tilde", None, 1, 2)],
        )
        path = save_case(result, ["traced_untraced"], tmp_path)
        assert path.name == "case-lsd4-zipf-n37-t0.07-s12.json"
        loaded_case, classes = load_case(path)
        assert loaded_case == case
        assert classes == ["traced_untraced"]
        payload = json.loads(path.read_text())
        assert payload["schema"] == CASE_SCHEMA

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "case.json"
        path.write_text(json.dumps({"schema": 999, "case": {}, "classes": []}))
        with pytest.raises(ValueError, match="schema"):
            load_case(path)

    def test_replay_of_passing_case(self, tmp_path):
        case = OracleCase("lsd4", n=30, seed=5)
        result = CaseResult(case=case)
        path = save_case(result, ["scalar_numpy_precise"], tmp_path)
        replayed = replay(path)
        assert replayed.passed
        assert replayed.case == case


class TestRunFuzz:
    def test_tiny_budget_is_clean(self, tmp_path, monkeypatch):
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
        stats = run_fuzz(
            budget_s=3.0, seed=1, classes=["scalar_numpy_precise"],
            max_n=60, algorithms=["lsd4", "quicksort"], case_dir=tmp_path,
        )
        assert stats.ok
        assert stats.cases_run > 0
        assert stats.edge_cases > 0
        assert stats.cases_run == stats.edge_cases + stats.random_cases
        assert stats.elapsed_s >= 3.0 or stats.random_cases == 0
        assert list(tmp_path.iterdir()) == []  # no findings persisted
        # The sanitizer env toggle must have been restored.
        import os

        assert SANITIZE_ENV not in os.environ

    def test_failure_is_shrunk_and_persisted(self, tmp_path, injected_failure):
        lines = []
        stats = run_fuzz(
            budget_s=2.0, seed=0, classes=injected_failure,
            max_n=50, algorithms=["lsd4"], case_dir=tmp_path,
            report=lines.append,
        )
        assert not stats.ok
        assert stats.findings
        assert stats.case_files
        for file in stats.case_files:
            loaded_case, classes = load_case(file)
            assert classes == injected_failure
            replayed = replay(file)
            assert not replayed.passed  # still fails on replay
        assert any(line.startswith("FAIL") for line in lines)

    def test_budget_spent_in_first_class_starts_no_second(
        self, tmp_path, monkeypatch
    ):
        budget_s = 0.2
        started = []

        def slow(case):
            started.append("slow")
            time.sleep(budget_s + 0.05)
            return []

        def second(case):
            started.append("second")
            return []

        monkeypatch.setitem(EQUIVALENCE_CLASSES, "slow_injected", slow)
        monkeypatch.setitem(EQUIVALENCE_CLASSES, "second_injected", second)
        lines = []
        stats = run_fuzz(
            budget_s=budget_s, classes=["slow_injected", "second_injected"],
            algorithms=["lsd4"], case_dir=tmp_path, report=lines.append,
        )
        assert started == ["slow"]
        assert stats.cases_run == stats.edge_cases == 1
        assert stats.truncated_cases == 1
        assert stats.ok  # a truncated case is never a finding...
        assert list(tmp_path.iterdir()) == []  # ...so nothing is persisted
        assert any(
            line.startswith("CUT") and "[slow_injected]" in line
            for line in lines
        )


class TestParseBudget:
    @pytest.mark.parametrize(
        ("text", "seconds"),
        [("45", 45.0), ("60s", 60.0), ("2m", 120.0), ("0.5m", 30.0),
         (" 10S ", 10.0)],
    )
    def test_accepted_forms(self, text, seconds):
        assert parse_budget(text) == seconds

    @pytest.mark.parametrize("text", ["", "abc", "10h", "-5", "0"])
    def test_rejected_forms(self, text):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_budget(text)


class TestCli:
    def test_oracle_subcommand_passes(self, capsys):
        code = main([
            "oracle", "--algorithm", "lsd4", "--n", "60", "--classes",
            "scalar_numpy_precise",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "ok   algorithm=lsd4" in out

    def test_oracle_unknown_algorithm_errors(self):
        with pytest.raises(SystemExit):
            main(["oracle", "--algorithm", "bogosort"])

    def test_bit_classes_refused(self, capsys):
        """Every class is exact: there is no ``bit`` subset to select."""
        for command in ("oracle", "fuzz"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--classes", "bit"])
            assert exc.value.code == 2
            assert "unknown equivalence class 'bit'" in capsys.readouterr().err

    def test_fuzz_subcommand_smoke(self, tmp_path, capsys):
        code = main([
            "fuzz", "--budget", "2", "--algorithm", "lsd4", "--classes",
            "scalar_numpy_precise", "--max-n", "40", "--out", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "fuzz:" in out
        assert "0 finding(s)" in out
        assert "truncated)" in out
        assert "sanitizer checks" in out

    def test_fuzz_replay_exit_codes(self, tmp_path, capsys):
        passing = save_case(
            CaseResult(case=OracleCase("lsd4", n=20)),
            ["scalar_numpy_precise"], tmp_path,
        )
        assert main(["fuzz", "--replay", str(passing)]) == 0
        assert "replayed, no divergence" in capsys.readouterr().out
