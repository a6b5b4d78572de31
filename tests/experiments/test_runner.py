"""Tests for the CLI experiment runner."""

import json

import pytest

from repro.experiments.runner import main


class TestRunnerCLI:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig09" in out
        assert "pcmsim" in out

    def test_list_includes_descriptions(self, capsys):
        assert main(["--list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        by_name = dict(line.split(None, 1) for line in lines)
        # Each line is "<name>  <first docstring line>".
        assert by_name["fig09"].startswith("Figure 9:")
        assert all(desc.strip() for desc in by_name.values())

    def test_single_experiment(self, capsys):
        assert main(["--exp", "fig02", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "fig02" in out
        assert "avg_#P" in out
        assert "finished in" in out

    def test_multiple_experiments(self, capsys):
        assert main(
            ["--exp", "fig02", "--exp", "table3", "--scale", "smoke"]
        ) == 0
        out = capsys.readouterr().out
        assert "fig02" in out
        assert "table3" in out

    def test_save_writes_json(self, capsys, tmp_path, monkeypatch):
        import repro.experiments.common as common

        monkeypatch.setattr(common, "RESULTS_DIR", tmp_path)
        assert main(["--exp", "fig02", "--scale", "smoke", "--save"]) == 0
        assert (tmp_path / "fig02.json").exists()

    def test_heartbeat_default_and_value(self):
        from repro.experiments.runner import _build_parser

        parse = _build_parser().parse_args
        assert parse([]).heartbeat == 30.0
        assert parse(["--heartbeat", "2.5"]).heartbeat == 2.5
        assert parse(["--heartbeat", "0"]).heartbeat == 0.0  # disabled

    def test_requires_selection(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["--exp", "fig99"])

    def test_invalid_jobs_rejected(self):
        with pytest.raises(SystemExit):
            main(["--exp", "fig02", "--jobs", "0"])

    def test_metrics_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--exp", "fig02", "--metrics", "x"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_quiet_suppresses_tables_keeps_timings(self, capsys):
        assert main(["--exp", "fig02", "--scale", "smoke", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "== fig02" not in out
        assert "[fig02 finished in" in out

    def test_bench_json_appends_records(self, capsys, tmp_path):
        path = tmp_path / "bench.json"
        for _ in range(2):
            assert main(
                ["--exp", "fig02", "--scale", "smoke",
                 "--bench-json", str(path)]
            ) == 0
        records = json.loads(path.read_text())
        assert len(records) == 2
        for record in records:
            assert record["schema"] == 1
            assert record["scale"] == "smoke"
            assert record["jobs"] == 1
            assert set(record["experiments"]) == {"fig02"}
            assert record["total_s"] >= record["experiments"]["fig02"]

    def test_bench_json_backs_up_corrupt_history(self, capsys, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text("{not json")
        assert main(
            ["--exp", "fig02", "--scale", "smoke", "--bench-json", str(path)]
        ) == 0
        err = capsys.readouterr().err
        assert "unreadable" in err
        # The corrupt file is preserved, not silently discarded.
        assert (tmp_path / "bench.json.bad").read_text() == "{not json"
        records = json.loads(path.read_text())
        assert len(records) == 1


class TestParallelJobs:
    def test_multi_experiment_fanout_prints_in_order(self, capsys):
        assert main(
            ["--exp", "fig02", "--exp", "table3", "--scale", "smoke",
             "--jobs", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert out.index("== fig02") < out.index("== table3")

    def test_cell_parallel_experiment_via_cli(self, capsys):
        assert main(
            ["--exp", "ext_variance", "--scale", "smoke", "--jobs", "2"]
        ) == 0
        captured = capsys.readouterr()
        assert "ext_variance" in captured.out
        # --jobs is the fan-out for a single cell-parallel experiment (same
        # tables, real speedup), so nothing steers the user elsewhere.
        assert "[hint]" not in captured.err

    def test_fig09_jobs_bit_identical(self):
        from repro.experiments import fig09_write_reduction_t as fig09

        kwargs = dict(
            scale="smoke", seed=0, t_values=[0.055],
            algorithms=("lsd3", "quicksort"),
        )
        sequential = fig09.run(**kwargs, jobs=1)
        parallel = fig09.run(**kwargs, jobs=2)
        assert sequential.rows == parallel.rows

    def test_ext_variance_jobs_bit_identical(self):
        from repro.experiments import ext_variance

        sequential = ext_variance.run(scale="smoke", seed=0, jobs=1)
        parallel = ext_variance.run(scale="smoke", seed=0, jobs=2)
        assert sequential.rows == parallel.rows


class TestTracing:
    def test_trace_merges_and_validates(self, capsys, tmp_path, monkeypatch):
        from repro.obs.io import iter_events
        from repro.obs.report import check_events

        monkeypatch.chdir(tmp_path)
        trace = tmp_path / "out" / "trace.jsonl"
        assert main(
            ["--exp", "fig02", "--scale", "smoke", "--quiet",
             "--trace", str(trace)]
        ) == 0
        out = capsys.readouterr().out
        assert "merged" in out and "trace events" in out
        events = list(iter_events(trace))
        assert events, "merged trace must not be empty"
        assert check_events(events) == []
        assert not (tmp_path / "out" / "trace.jsonl.parts").exists()
        names = {
            e["name"] for e in events if e.get("ev") == "span_end"
        }
        assert "experiment.fig02" in names

    def test_trace_with_worker_fanout(self, capsys, tmp_path, monkeypatch):
        from repro.obs.io import iter_events
        from repro.obs.report import check_events

        trace = tmp_path / "trace.jsonl"
        assert main(
            ["--exp", "fig02", "--exp", "table3", "--scale", "smoke",
             "--quiet", "--jobs", "2", "--trace", str(trace)]
        ) == 0
        events = list(iter_events(trace))
        assert check_events(events) == []
        # Two worker processes plus the parent's part file.
        pids = {e["pid"] for e in events}
        assert len(pids) >= 2
        names = {e["name"] for e in events if e.get("ev") == "span_end"}
        assert {"experiment.fig02", "experiment.table3"} <= names

    def test_tracing_output_identical_to_untraced(self, capsys, tmp_path):
        assert main(["--exp", "table3", "--scale", "smoke"]) == 0
        plain = capsys.readouterr().out
        trace = tmp_path / "trace.jsonl"
        assert main(
            ["--exp", "table3", "--scale", "smoke", "--trace", str(trace)]
        ) == 0
        traced = capsys.readouterr().out
        # Strip the timing/merge reporting lines; the tables themselves
        # (every measured number) must be bit-identical.
        def tables(text):
            return [
                line for line in text.splitlines()
                if not line.startswith("[") and not line.startswith("merged")
            ]

        assert tables(traced) == tables(plain)

    def test_profile_dumps_next_to_trace(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert main(
            ["--exp", "fig02", "--scale", "smoke", "--quiet", "--profile",
             "--trace", str(trace)]
        ) == 0
        assert (tmp_path / "fig02.prof").stat().st_size > 0


class TestModuleEntryPoint:
    def test_python_dash_m_repro(self):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "repro", "--list"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0
        assert "fig09" in result.stdout


class TestRetiredOptions:
    def test_shards_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--exp", "fig02", "--shards", "2"])
        assert exc.value.code == 2

    def test_no_kernel_option(self, capsys):
        """Both kernel paths give the same tables, so no option chooses
        between them."""
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "kernel" not in capsys.readouterr().out

    def test_no_retry_or_timeout_option(self, capsys):
        """A table is a deterministic function of its configuration, so a
        failed experiment is re-run with --resume, not retried in place."""
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--retries" not in out and "--timeout" not in out
        for flag in (["--retries", "1"], ["--timeout", "5"]):
            with pytest.raises(SystemExit) as exc:
                main(["--exp", "fig02", *flag])
            assert exc.value.code == 2


class TestBenchScalingFields:
    def test_record_carries_machine_and_parallelism(self, capsys, tmp_path):
        import os

        path = tmp_path / "bench.json"
        assert main(
            ["--exp", "fig02", "--scale", "smoke", "--bench-json", str(path)]
        ) == 0
        record = json.loads(path.read_text())[0]
        assert record["cpus"] == os.cpu_count()
        assert record["workers_effective"] == 1
        assert record["kernels"] == "numpy"
        assert "shards" not in record

    def test_speedup_vs_serial_baseline(self, capsys, tmp_path):
        path = tmp_path / "bench.json"
        # First a serial baseline record, then a two-worker run of the same
        # configuration: the second record gains the scaling fields.
        experiments = ["--exp", "fig02", "--exp", "table3", "--scale", "smoke"]
        assert main([*experiments, "--bench-json", str(path)]) == 0
        assert main(
            [*experiments, "--jobs", "2", "--bench-json", str(path)]
        ) == 0
        records = json.loads(path.read_text())
        assert "speedup_vs_serial" not in records[0]
        assert records[1]["workers_effective"] == 2
        assert "speedup_vs_serial" in records[1]
        assert records[1]["scaling_efficiency"] == pytest.approx(
            records[1]["speedup_vs_serial"] / 2, abs=1e-3
        )

    def test_no_speedup_without_matching_baseline(self, capsys, tmp_path):
        path = tmp_path / "bench.json"
        assert main(
            ["--exp", "fig02", "--exp", "table3", "--scale", "smoke",
             "--jobs", "2", "--bench-json", str(path)]
        ) == 0
        assert "speedup_vs_serial" not in json.loads(path.read_text())[0]


class TestMalformedEnvironment:
    """Malformed seconds fail as usage errors (exit 2), not with a
    traceback."""

    @pytest.mark.parametrize("raw", ["abc", "-0.5", "-1", "inf", "nan"])
    def test_bad_heartbeat_exits_2(self, capsys, raw):
        with pytest.raises(SystemExit) as exc:
            main(["--exp", "fig02", "--scale", "smoke", "--heartbeat", raw])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "argument --heartbeat: must be a finite number" in captured.err
        assert "Traceback" not in captured.err
        assert "== fig02" not in captured.out
