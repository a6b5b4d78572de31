"""Tests for the journaled checkpoint store (DESIGN.md section 10)."""

import json

import pytest

from repro.errors import CheckpointCorruptError, ConfigError
from repro.experiments.checkpoint import (
    CHECKPOINT_SCHEMA,
    CellJournal,
    RunCheckpoint,
    iter_runs,
    read_journal,
    resolve_runs_root,
)
from repro.experiments.common import ExperimentTable


CONFIG = {
    "experiments": ["fig02", "table3"],
    "scale": "smoke",
    "seed": 0,
}


def make_table(name="fig02"):
    table = ExperimentTable(
        experiment=name,
        title="a small table",
        columns=["x", "y"],
        notes=["n=3"],
        paper_reference=["shape only"],
    )
    # Deliberately awkward floats: resume promises *bit-identical* output,
    # which hinges on JSON's exact (shortest-repr) float round-trip.
    table.add_row(0.1 + 0.2, 1 / 3)
    table.add_row(-0.0055, 2.0**-40)
    return table


class TestRunsRoot:
    def test_explicit_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "env"))
        assert resolve_runs_root(tmp_path / "arg") == tmp_path / "arg"
        assert resolve_runs_root() == tmp_path / "env"

    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_RUNS_DIR", raising=False)
        assert str(resolve_runs_root()) == ".repro_runs"


class TestRunCheckpoint:
    def test_create_load_roundtrip_is_exact(self, tmp_path):
        checkpoint = RunCheckpoint.create(CONFIG, run_id="r1", root=tmp_path)
        table = make_table()
        checkpoint.record("fig02", table, elapsed=1.25)
        checkpoint.close()

        loaded = RunCheckpoint.load("r1", root=tmp_path)
        assert loaded.config == CONFIG
        restored, elapsed = loaded.completed()["fig02"]
        assert restored.rows == table.rows
        assert restored.to_text() == table.to_text()
        assert restored.to_json() == table.to_json()
        assert elapsed == 1.25

    def test_auto_run_id_is_unique(self, tmp_path):
        first = RunCheckpoint.create(CONFIG, root=tmp_path)
        second = RunCheckpoint.create(CONFIG, root=tmp_path)
        assert first.run_id != second.run_id

    def test_existing_id_rejected(self, tmp_path):
        RunCheckpoint.create(CONFIG, run_id="dup", root=tmp_path)
        with pytest.raises(ConfigError, match="already exists"):
            RunCheckpoint.create(CONFIG, run_id="dup", root=tmp_path)

    def test_unknown_run_id_lists_known_runs(self, tmp_path):
        RunCheckpoint.create(CONFIG, run_id="known", root=tmp_path)
        with pytest.raises(ConfigError, match="known"):
            RunCheckpoint.load("nope", root=tmp_path)

    def test_config_mismatch_names_keys(self, tmp_path):
        checkpoint = RunCheckpoint.create(CONFIG, run_id="r1", root=tmp_path)
        changed = dict(CONFIG, seed=7)
        with pytest.raises(ConfigError, match="seed"):
            checkpoint.check_config(changed)
        checkpoint.check_config(dict(CONFIG))  # identical config passes

    def test_manifest_recording_kernels_resumes(
        self, tmp_path, monkeypatch, capsys
    ):
        """A run checkpointed while the runner still had a kernel option
        recorded ``"kernels": "scalar"`` in its manifest.  It passes the
        config check and resumes to the tables of an uninterrupted run."""
        from repro.experiments.runner import main

        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs"))

        def tables(text):
            return [line for line in text.splitlines()
                    if not line.startswith("[")]

        argv = ["--exp", "fig02", "--exp", "table3", "--scale", "smoke"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--checkpoint", "old"]) == 0
        capsys.readouterr()
        directory = tmp_path / "runs" / "old"
        manifest = json.loads((directory / "manifest.json").read_text())
        manifest["config"]["kernels"] = "scalar"
        (directory / "manifest.json").write_text(json.dumps(manifest))
        (directory / "result-table3.json").unlink()  # interrupted before it

        RunCheckpoint.load("old").check_config(CONFIG)
        assert main(["--resume", "old"]) == 0
        captured = capsys.readouterr()
        assert "1/2 experiments restored" in captured.err
        assert tables(captured.out) == tables(plain)

    def test_journal_records_events(self, tmp_path):
        checkpoint = RunCheckpoint.create(CONFIG, run_id="r1", root=tmp_path)
        checkpoint.journal_event("retry", experiment="fig02", attempt=1)
        events = checkpoint.history()
        assert [e["ev"] for e in events] == ["start", "retry"]
        assert events[1]["experiment"] == "fig02"


class TestCorruption:
    """Torn tails are the expected crash artifact; garbage is corruption."""

    def _run(self, tmp_path) -> RunCheckpoint:
        checkpoint = RunCheckpoint.create(CONFIG, run_id="r1", root=tmp_path)
        checkpoint.record("fig02", make_table(), elapsed=1.0)
        checkpoint.close()
        return checkpoint

    def test_torn_journal_tail_is_tolerated(self, tmp_path):
        checkpoint = self._run(tmp_path)
        journal = checkpoint.directory / "journal.jsonl"
        with open(journal, "a") as sink:
            sink.write('{"schema": 1, "ev": "do')  # killed mid-append
        loaded = RunCheckpoint.load("r1", root=tmp_path)
        assert "fig02" in loaded.completed()

    def test_append_after_torn_tail_keeps_journal_readable(self, tmp_path):
        # The documented crash scenario, twice over: a resume that journals
        # new events after a SIGKILL mid-append must not merge them into the
        # torn fragment — the *second* resume has to succeed too.
        checkpoint = self._run(tmp_path)
        journal = checkpoint.directory / "journal.jsonl"
        with open(journal, "a") as sink:
            sink.write('{"schema": 1, "ev": "do')  # killed mid-append
        resumed = RunCheckpoint.load("r1", root=tmp_path)
        resumed.journal_event("resume")
        resumed.close()
        events = read_journal(journal)
        assert events[-1]["ev"] == "resume"
        assert "fig02" in RunCheckpoint.load("r1", root=tmp_path).completed()

    def test_result_record_missing_experiment_raises_with_path(self, tmp_path):
        checkpoint = self._run(tmp_path)
        result = checkpoint.directory / "result-fig02.json"
        payload = json.loads(result.read_text())
        del payload["experiment"]
        result.write_text(json.dumps(payload))
        with pytest.raises(
            CheckpointCorruptError, match="experiment name"
        ) as excinfo:
            RunCheckpoint.load("r1", root=tmp_path)
        assert excinfo.value.path == result

    def test_garbage_journal_line_raises_with_path(self, tmp_path):
        checkpoint = self._run(tmp_path)
        journal = checkpoint.directory / "journal.jsonl"
        with open(journal, "a") as sink:
            sink.write("!! not json !!\n")
        with pytest.raises(CheckpointCorruptError) as excinfo:
            RunCheckpoint.load("r1", root=tmp_path)
        # The offending path and line, never a bare json.JSONDecodeError.
        assert not isinstance(excinfo.value, json.JSONDecodeError)
        assert excinfo.value.path == journal
        assert "line 3" in str(excinfo.value)  # after the start/done events

    def test_truncated_result_record_raises_with_path(self, tmp_path):
        checkpoint = self._run(tmp_path)
        result = checkpoint.directory / "result-fig02.json"
        result.write_text(result.read_text()[: len(result.read_text()) // 2])
        with pytest.raises(CheckpointCorruptError) as excinfo:
            RunCheckpoint.load("r1", root=tmp_path)
        assert excinfo.value.path == result

    def test_garbage_manifest_raises_with_path(self, tmp_path):
        checkpoint = self._run(tmp_path)
        manifest = checkpoint.directory / "manifest.json"
        manifest.write_text("not json at all")
        with pytest.raises(CheckpointCorruptError) as excinfo:
            RunCheckpoint.load("r1", root=tmp_path)
        assert excinfo.value.path == manifest

    def test_unknown_schema_version_raises(self, tmp_path):
        checkpoint = self._run(tmp_path)
        manifest = checkpoint.directory / "manifest.json"
        payload = json.loads(manifest.read_text())
        payload["schema"] = CHECKPOINT_SCHEMA + 1
        manifest.write_text(json.dumps(payload))
        with pytest.raises(CheckpointCorruptError, match="schema"):
            RunCheckpoint.load("r1", root=tmp_path)

    def test_read_journal_empty_file(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text("")
        assert read_journal(path) == []


class TestCellJournal:
    CELLS = [(0.055, "lsd3", 7), (0.055, "quicksort", 7), (0.06, "lsd3", 7)]

    def test_partial_restore_computes_only_missing(self, tmp_path):
        path = tmp_path / "cells.jsonl"
        journal = CellJournal(path)
        journal.record(0, self.CELLS[0], 0.125)
        journal.record(2, self.CELLS[2], -0.5)
        journal.close()

        restored = CellJournal(path).load(self.CELLS)
        assert restored == {0: 0.125, 2: -0.5}

    def test_map_cells_resumes_without_recompute(self, tmp_path):
        from repro.experiments.common import map_cells

        calls = []

        def fn(t, algorithm, seed):
            calls.append((t, algorithm, seed))
            return (t * seed, algorithm.upper())

        path = tmp_path / "cells.jsonl"
        first = map_cells(fn, self.CELLS, journal=CellJournal(path))
        assert len(calls) == len(self.CELLS)

        calls.clear()
        second = map_cells(fn, self.CELLS, journal=CellJournal(path))
        assert calls == []  # everything restored, nothing recomputed
        # Restored values round-trip through JSON: tuples come back as
        # lists, but every number is exact.
        assert [list(value) for value in first] == second

    def test_changed_arguments_raise_corrupt(self, tmp_path):
        path = tmp_path / "cells.jsonl"
        journal = CellJournal(path)
        journal.record(0, self.CELLS[0], 1.0)
        journal.close()
        changed = [(0.9, "lsd3", 7)] + self.CELLS[1:]
        with pytest.raises(CheckpointCorruptError, match="different arguments"):
            CellJournal(path).load(changed)

    def test_out_of_range_index_raises_corrupt(self, tmp_path):
        path = tmp_path / "cells.jsonl"
        journal = CellJournal(path)
        journal.record(2, self.CELLS[2], 1.0)
        journal.close()
        with pytest.raises(CheckpointCorruptError, match="outside"):
            CellJournal(path).load(self.CELLS[:1])

    def test_garbage_line_raises_with_path(self, tmp_path):
        path = tmp_path / "cells.jsonl"
        path.write_text('{"schema": 1, "cell": 0}\nnot json\n')
        with pytest.raises(CheckpointCorruptError) as excinfo:
            CellJournal(path).load(self.CELLS)
        assert excinfo.value.path == path

    def test_torn_tail_drops_only_last_cell(self, tmp_path):
        path = tmp_path / "cells.jsonl"
        journal = CellJournal(path)
        journal.record(0, self.CELLS[0], 1.5)
        journal.close()
        with open(path, "a") as sink:
            sink.write('{"schema": 1, "cell": 1, "ke')  # killed mid-append
        assert CellJournal(path).load(self.CELLS) == {0: 1.5}

    def test_record_after_torn_tail_keeps_journal_readable(self, tmp_path):
        # A retried experiment appends fresh cells after a mid-append kill;
        # the next load (second recovery) must still parse the journal.
        path = tmp_path / "cells.jsonl"
        journal = CellJournal(path)
        journal.record(0, self.CELLS[0], 1.5)
        journal.close()
        with open(path, "a") as sink:
            sink.write('{"schema": 1, "cell": 1, "ke')  # killed mid-append
        retry = CellJournal(path)
        assert retry.load(self.CELLS) == {0: 1.5}
        retry.record(1, self.CELLS[1], 2.5)
        retry.close()
        assert CellJournal(path).load(self.CELLS) == {0: 1.5, 1: 2.5}


class TestIterRuns:
    def test_yields_manifests(self, tmp_path):
        RunCheckpoint.create(CONFIG, run_id="a", root=tmp_path)
        RunCheckpoint.create(dict(CONFIG, seed=1), run_id="b", root=tmp_path)
        runs = dict(iter_runs(tmp_path))
        assert set(runs) == {"a", "b"}
        assert runs["a"]["config"]["seed"] == 0
        assert runs["b"]["config"]["seed"] == 1
