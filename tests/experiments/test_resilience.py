"""Tests for the runner's resilience layer: crash isolation, fault
injection, and checkpoint/resume (DESIGN.md section 10).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ConfigError
from repro.experiments.common import (
    FAULT_CRASH_EXIT,
    parse_fault_spec,
)
from repro.experiments.runner import EXIT_PARTIAL, main


@pytest.fixture()
def sandbox(tmp_path, monkeypatch):
    """Isolated cwd + checkpoint root, no injected faults."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))
    monkeypatch.delenv("REPRO_FAULT", raising=False)
    return tmp_path


def tables(text: str) -> list[str]:
    """Strip status/timing lines; what remains is the measured output."""
    return [
        line for line in text.splitlines()
        if not line.startswith("[") and not line.startswith("merged")
        and not line.startswith("bench record")
    ]


class TestFaultSpec:
    def test_parses_clauses(self):
        assert parse_fault_spec("crash:fig09") == ["fig09"]
        assert parse_fault_spec("crash:fig09, crash:table3") == [
            "fig09", "table3",
        ]

    def test_rejects_bad_kind(self):
        for spec in ("explode:fig09", "hang:fig09", "crash"):
            with pytest.raises(ConfigError, match="clause"):
                parse_fault_spec(spec)

    def test_rejects_bad_limit(self):
        # A clause fires on every run of its experiment: no attempt count.
        for spec in ("crash:fig09:1", "crash:fig09:soon"):
            with pytest.raises(ConfigError, match="clause"):
                parse_fault_spec(spec)

    @pytest.mark.parametrize("spec", ["hang:fig02", "crash:fig02:1"])
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_runner_refuses_bad_spec_before_any_work(
        self, sandbox, monkeypatch, capsys, spec, jobs
    ):
        monkeypatch.setenv("REPRO_FAULT", spec)
        assert main(
            ["--exp", "fig02", "--exp", "table3", "--scale", "smoke",
             "--jobs", jobs, "--checkpoint", "demo"]
        ) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: bad REPRO_FAULT clause")
        assert "== " not in captured.out
        assert not (sandbox / "runs" / "demo").exists()

    def test_no_spec_is_a_noop(self, monkeypatch):
        from repro.experiments.common import maybe_inject_fault

        monkeypatch.delenv("REPRO_FAULT", raising=False)
        maybe_inject_fault("fig02")  # must not raise or exit


class TestSupervision:
    """--jobs over several experiments runs each in its own process group."""

    def test_crash_is_isolated_from_other_experiments(
        self, sandbox, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_FAULT", "crash:fig02")
        code = main(
            ["--exp", "fig02", "--exp", "table3", "--scale", "smoke",
             "--jobs", "2"]
        )
        assert code == EXIT_PARTIAL
        captured = capsys.readouterr()
        # The crashed worker must not take down its sibling.
        assert "== table3" in captured.out
        assert "== FAILED" in captured.out
        assert "fig02" in captured.out.split("== FAILED")[1]
        assert f"[fig02 failed: crashed (exit code {FAULT_CRASH_EXIT})]" in (
            captured.err
        )

    def test_worker_exception_is_reported_not_raised(
        self, sandbox, monkeypatch, capsys
    ):
        # An in-experiment exception under supervision becomes a FAILED row
        # naming the exception, not a traceback (workers fork, so patching
        # the registry here is visible to them).
        from repro.experiments import runner

        def boom(scale=None, seed=0, **kwargs):
            raise ValueError("the experiment itself broke")

        monkeypatch.setitem(runner.EXPERIMENTS, "fig02", boom)
        code = main(
            ["--exp", "fig02", "--exp", "table3", "--scale", "smoke",
             "--jobs", "2"]
        )
        assert code == EXIT_PARTIAL
        captured = capsys.readouterr()
        assert "ValueError: the experiment itself broke" in captured.err
        assert "== table3" in captured.out
        assert "== FAILED" in captured.out

    def test_queued_jobs_do_not_clamp_wait_to_zero(self, monkeypatch):
        # Experiments queued because max_workers is reached must not bound
        # the supervisor's wait: a zero timeout makes _mp_wait return
        # immediately and the loop hot-spin for the whole run whenever
        # pending experiments exceed --jobs.
        from repro.experiments import runner as runner_mod
        from repro.experiments.runner import _Job, _Supervisor

        sup = _Supervisor.__new__(_Supervisor)
        process = type("H", (), {"sentinel": object()})()
        sup.running = [_Job("fig02", process, object())]
        sup.waiting = ["fig03", "fig04"]
        sup._poll = lambda job: None

        captured = {}

        def fake_wait(handles, timeout=None):
            captured["timeout"] = timeout
            return []

        monkeypatch.setattr(runner_mod, "_mp_wait", fake_wait)
        sup._await_events()
        assert captured["timeout"] is None  # block until a child event

    def test_supervised_output_identical_to_sequential(
        self, sandbox, capsys
    ):
        argv = ["--exp", "fig02", "--exp", "table3", "--scale", "smoke"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        supervised = capsys.readouterr().out
        assert tables(supervised) == tables(plain)


class TestCheckpointResumeCLI:
    def test_resume_restores_and_matches(self, sandbox, capsys):
        argv = ["--exp", "fig02", "--exp", "table3", "--scale", "smoke"]
        assert main(argv) == 0
        plain = capsys.readouterr().out

        assert main(argv + ["--checkpoint", "demo"]) == 0
        capsys.readouterr()
        assert main(["--resume", "demo"]) == 0
        captured = capsys.readouterr()
        assert "2/2 experiments restored" in captured.err
        assert "restored from checkpoint" in captured.out
        assert tables(captured.out) == tables(plain)

    def test_resume_reuses_recorded_selection_and_seed(
        self, sandbox, capsys
    ):
        assert main(
            ["--exp", "fig02", "--scale", "smoke", "--seed", "3",
             "--checkpoint", "demo"]
        ) == 0
        capsys.readouterr()
        # No --exp/--scale/--seed: everything comes from the manifest.
        assert main(["--resume", "demo"]) == 0
        out = capsys.readouterr().out
        assert "fig02 restored" in out

    def test_resume_config_mismatch_exits_2(self, sandbox, capsys):
        assert main(
            ["--exp", "fig02", "--scale", "smoke", "--checkpoint", "demo"]
        ) == 0
        capsys.readouterr()
        assert main(["--resume", "demo", "--seed", "9"]) == 2
        err = capsys.readouterr().err
        assert "cannot resume" in err and "seed" in err

    def test_resume_unknown_run_exits_2(self, sandbox, capsys):
        assert main(["--resume", "nope"]) == 2
        assert "unknown run id" in capsys.readouterr().err

    def test_corrupt_journal_exits_2_with_path(self, sandbox, capsys):
        assert main(
            ["--exp", "fig02", "--scale", "smoke", "--checkpoint", "demo"]
        ) == 0
        capsys.readouterr()
        journal = sandbox / "runs" / "demo" / "journal.jsonl"
        with open(journal, "a") as sink:
            sink.write("garbage line\n")
        assert main(["--resume", "demo"]) == 2
        err = capsys.readouterr().err
        assert "corrupt checkpoint" in err
        assert str(journal) in err

    def test_resume_tolerates_retired_journal_events(self, sandbox, capsys):
        # Older runners journaled numbered attempts and retries; a run
        # directory they left behind still resumes.
        argv = ["--exp", "fig02", "--scale", "smoke"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--checkpoint", "demo"]) == 0
        capsys.readouterr()
        journal = sandbox / "runs" / "demo" / "journal.jsonl"
        with open(journal, "a") as sink:
            for event in (
                {"ev": "attempt", "experiment": "fig02", "attempt": 1,
                 "pid": 1},
                {"ev": "retry", "experiment": "fig02", "attempt": 1,
                 "reason": "crashed (exit code 86)"},
            ):
                sink.write(json.dumps({"schema": 1, "t": 0.0, **event}) + "\n")
        assert main(["--resume", "demo"]) == 0
        captured = capsys.readouterr()
        assert "1/1 experiments restored" in captured.err
        assert tables(captured.out) == tables(plain)

    def test_resume_plus_checkpoint_rejected(self, sandbox):
        with pytest.raises(SystemExit):
            main(["--resume", "a", "--checkpoint", "b"])

    def test_checkpoint_id_collision_exits_2(self, sandbox, capsys):
        argv = ["--exp", "fig02", "--scale", "smoke", "--checkpoint", "demo"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 2
        assert "already exists" in capsys.readouterr().err

    def test_list_marks_cell_parallel_experiments(self, sandbox, capsys):
        assert main(["--list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        marked = {
            line.split()[0] for line in lines if "cell-parallel" in line
        }
        assert marked == {"fig09", "ext_variance"}


@pytest.mark.slow
class TestInterruptedRunRegression:
    """The acceptance criterion: a run interrupted by a crash and then
    resumed produces bit-identical tables to an uninterrupted run.

    Driven through real subprocesses because the injected crash takes the
    whole worker (or, unsupervised, the whole runner) down via os._exit.
    """

    ARGV = [
        "--exp", "ext_variance", "--exp", "fig02", "--exp", "table3",
        "--scale", "smoke", "--jobs", "2",
    ]

    def _run(self, tmp_path, extra, fault=None):
        env = dict(
            os.environ,
            PYTHONPATH=str(Path(__file__).resolve().parents[2] / "src"),
            REPRO_RUNS_DIR=str(tmp_path / "runs"),
        )
        env.pop("REPRO_FAULT", None)
        if fault is not None:
            env["REPRO_FAULT"] = fault
        return subprocess.run(
            [sys.executable, "-m", "repro.experiments.runner"]
            + self.ARGV + extra,
            capture_output=True, text=True, timeout=300,
            cwd=tmp_path, env=env,
        )

    def test_crash_interrupt_then_resume_bit_identical(self, tmp_path):
        plain = self._run(tmp_path, [])
        assert plain.returncode == 0, plain.stderr

        broken = self._run(
            tmp_path, ["--checkpoint", "bits"], fault="crash:fig02"
        )
        assert broken.returncode == EXIT_PARTIAL, broken.stderr
        run_dir = tmp_path / "runs" / "bits"
        assert (run_dir / "result-table3.json").exists()
        # The cell-parallel experiment journaled its cells too.
        assert (run_dir / "cells-ext_variance.jsonl").exists()

        resumed = self._run(tmp_path, ["--resume", "bits"])
        assert resumed.returncode == 0, resumed.stderr
        assert "restored from checkpoint" in resumed.stdout
        assert tables(resumed.stdout) == tables(plain.stdout)

    def test_unsupervised_crash_then_resume(self, tmp_path):
        # jobs=1, unsupervised: the injected crash kills the runner
        # itself mid-run — the closest simulation of a real OOM kill or
        # power loss — and the journaled prefix still resumes cleanly.
        plain = self._run(tmp_path, ["--jobs", "1"])
        assert plain.returncode == 0, plain.stderr

        killed = self._run(
            tmp_path, ["--jobs", "1", "--checkpoint", "bits"],
            fault="crash:table3",
        )
        assert killed.returncode == FAULT_CRASH_EXIT

        resumed = self._run(tmp_path, ["--jobs", "1", "--resume", "bits"])
        assert resumed.returncode == 0, resumed.stderr
        assert tables(resumed.stdout) == tables(plain.stdout)


class TestResumeTracing:
    def test_resume_emits_span_and_counters(self, sandbox, capsys):
        from repro.obs.io import iter_events

        assert main(
            ["--exp", "fig02", "--scale", "smoke", "--checkpoint", "demo"]
        ) == 0
        capsys.readouterr()
        trace = sandbox / "trace.jsonl"
        assert main(["--resume", "demo", "--trace", str(trace)]) == 0
        events = list(iter_events(trace))
        spans = {e["name"] for e in events if e.get("ev") == "span_end"}
        assert "run.resume" in spans
        counters = {e["name"] for e in events if e.get("ev") == "counter"}
        assert "run.restored" in counters

    def test_failure_emits_counter(self, sandbox, monkeypatch, capsys):
        from repro.obs.io import iter_events

        monkeypatch.setenv("REPRO_FAULT", "crash:fig02")
        trace = sandbox / "trace.jsonl"
        assert main(
            ["--exp", "fig02", "--exp", "table3", "--scale", "smoke",
             "--jobs", "2", "--trace", str(trace)]
        ) == EXIT_PARTIAL
        events = list(iter_events(trace))
        failed = [
            e for e in events
            if e.get("ev") == "counter"
            and e["name"] == "run.experiment_failed"
        ]
        assert len(failed) == 1
        assert failed[0]["attrs"]["experiment"] == "fig02"
