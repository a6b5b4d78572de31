"""Tests for the repro.errors exception hierarchy."""

import pytest

import repro
from repro.errors import (
    CheckpointCorruptError,
    ConfigError,
    ReproError,
)


class TestHierarchy:
    def test_all_derive_from_repro_error(self):
        assert issubclass(ConfigError, ReproError)
        assert issubclass(CheckpointCorruptError, ReproError)

    def test_config_error_is_a_value_error(self):
        # Pre-hierarchy callers catch ValueError for bad scales/sorter
        # names; ConfigError keeps that contract.
        assert issubclass(ConfigError, ValueError)
        with pytest.raises(ValueError):
            raise ConfigError("bad knob")

    def test_exported_from_package_root(self):
        for name in (
            "ReproError", "ConfigError", "CheckpointCorruptError",
        ):
            assert getattr(repro, name) is not None
            assert name in repro.__all__


class TestMessages:
    def test_checkpoint_corrupt_error_names_path(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        error = CheckpointCorruptError(journal, "line 3 is not valid JSON")
        assert error.path == journal
        assert str(journal) in str(error)
        assert "line 3" in str(error)
