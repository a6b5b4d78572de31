"""Tests for the experiment-harness infrastructure."""

import json

import pytest

from repro.experiments.common import (
    ExperimentTable,
    Heartbeat,
    current_heartbeat,
    fmt_pct,
    map_cells,
    resolve_scale,
    scaled,
    set_current_heartbeat,
)


class TestResolveScale:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "large")
        assert resolve_scale("smoke") == "smoke"

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "large")
        assert resolve_scale(None) == "large"

    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert resolve_scale(None) == "default"

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            resolve_scale("huge")

    def test_scaled_selection(self):
        assert scaled("smoke", 1, 2, 3) == 1
        assert scaled("default", 1, 2, 3) == 2
        assert scaled("large", 1, 2, 3) == 3


class TestExperimentTable:
    def make(self) -> ExperimentTable:
        table = ExperimentTable(
            experiment="test_exp",
            title="A table",
            columns=["x", "value"],
            paper_reference=["claims X"],
        )
        table.add_row(1, 0.5)
        table.add_row(2, 0.25)
        return table

    def test_add_row_validates_width(self):
        table = self.make()
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_column_access(self):
        table = self.make()
        assert table.column("x") == [1, 2]
        assert table.column("value") == [0.5, 0.25]

    def test_to_text_contains_everything(self):
        table = self.make()
        table.notes.append("a note")
        text = table.to_text()
        assert "test_exp" in text
        assert "0.5000" in text
        assert "note: a note" in text
        assert "paper: claims X" in text

    def test_to_json_roundtrip(self):
        table = self.make()
        table.extra["series"] = {"a": [1, 2]}
        payload = json.loads(table.to_json())
        assert payload["experiment"] == "test_exp"
        assert payload["rows"] == [[1, 0.5], [2, 0.25]]
        assert payload["extra"]["series"]["a"] == [1, 2]

    def test_save(self, tmp_path):
        table = self.make()
        path = table.save(directory=tmp_path)
        assert path.name == "test_exp.json"
        assert json.loads(path.read_text())["title"] == "A table"

    def test_fmt_pct(self):
        assert fmt_pct(0.113) == "+11.3%"
        assert fmt_pct(-0.05) == "-5.0%"


def _identity(x):
    return x


class TestHeartbeatDetail:
    def test_set_detail_shown_until_advance(self):
        heartbeat = Heartbeat("run", total=3, interval=0)
        heartbeat.set_detail("5/9 cells")
        assert heartbeat._detail == "5/9 cells"
        heartbeat.advance()
        # A finished unit invalidates the finer-grained detail under it.
        assert heartbeat._detail == ""

    def test_map_cells_reports_per_cell_progress(self):
        heartbeat = Heartbeat("run", total=1, interval=0)
        previous = set_current_heartbeat(heartbeat)
        try:
            assert current_heartbeat() is heartbeat
            out = map_cells(_identity, [(1,), (2,), (3,)])
        finally:
            set_current_heartbeat(previous)
        assert out == [1, 2, 3]
        assert heartbeat._detail == "3/3 cells"

    def test_map_cells_counts_restored_cells(self, tmp_path):
        from repro.experiments.checkpoint import CellJournal

        cells = [(1,), (2,), (3,), (4,)]
        path = tmp_path / "cells.jsonl"
        journal = CellJournal(str(path))
        journal.record(0, cells[0], 1)
        journal.record(1, cells[1], 2)
        journal.close()
        heartbeat = Heartbeat("run", total=1, interval=0)
        previous = set_current_heartbeat(heartbeat)
        try:
            journal = CellJournal(str(path))
            out = map_cells(_identity, cells, journal=journal)
            journal.close()
        finally:
            set_current_heartbeat(previous)
        assert out == [1, 2, 3, 4]
        # Restored cells count toward the completed/total detail.
        assert heartbeat._detail == "4/4 cells"

    def test_map_cells_without_heartbeat_is_silent(self):
        assert current_heartbeat() is None
        assert map_cells(_identity, [(7,)]) == [7]
