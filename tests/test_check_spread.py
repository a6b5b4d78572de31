"""``tools/check_spread.py`` on synthetic result directories."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "check_spread.py"


@pytest.fixture(scope="module")
def spread():
    spec = importlib.util.spec_from_file_location("check_spread", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_runs(root: Path, seeds, rows_for) -> Path:
    """``root/<seed>/demo.json`` for each seed, rows from ``rows_for``."""
    for seed in seeds:
        (root / str(seed)).mkdir(parents=True)
        table = {
            "experiment": "demo",
            "columns": ["T", "algorithm", "write_reduction", "precise"],
            "rows": rows_for(seed),
        }
        (root / str(seed) / "demo.json").write_text(json.dumps(table))
    return root


def rows(draw_seed: int, shift: float = 0.0, precise: float = 1.0):
    """Two configurations whose write reduction is a draw around a mean;
    the ``precise`` column does not depend on the draws."""
    rng = np.random.default_rng(draw_seed)
    return [
        [0.055, "lsd6", 0.05 + shift + 0.01 * rng.standard_normal(), precise],
        [0.1, "msd3", -0.02 + 0.01 * rng.standard_normal(), precise],
    ]


SEEDS = range(10)


def test_reseeded_rows_pass(spread, tmp_path, capsys):
    parent = write_runs(tmp_path / "parent", SEEDS, lambda s: rows(s))
    change = write_runs(tmp_path / "change", SEEDS, lambda s: rows(s + 100))
    assert spread.main([str(parent), str(change)]) == 0
    assert "2 cells over 10 seeds, 0 outside the spread" in (
        capsys.readouterr().out
    )


def test_shifted_row_fails(spread, tmp_path, capsys):
    parent = write_runs(tmp_path / "parent", SEEDS, lambda s: rows(s))
    change = write_runs(
        tmp_path / "change", SEEDS, lambda s: rows(s + 100, shift=0.03)
    )
    assert spread.main([str(parent), str(change)]) == 1
    out = capsys.readouterr().out
    assert "FAIL demo [T=0.055, algorithm='lsd6', precise=1.0]" in out
    assert "msd3" not in out.split("FAIL", 1)[1]


def test_constant_column_must_agree(spread, tmp_path, capsys):
    parent = write_runs(tmp_path / "parent", SEEDS, lambda s: rows(s))
    change = write_runs(
        tmp_path / "change", SEEDS, lambda s: rows(s + 100, precise=1.001)
    )
    assert spread.main([str(parent), str(change)]) == 1
    assert "precise: constant 1.0 across parent seeds" in (
        capsys.readouterr().out
    )
