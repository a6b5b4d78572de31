#!/usr/bin/env python3
"""Check that a change moved experiment results only within their seed spread.

A change that alters how approximate memory draws its corruption moves
every approximate row of every table, and a regenerated record is only
trustworthy if each move is one the seed-to-seed spread explains.  This
tool compares two sets of ``--save`` outputs (``REPRO_RESULTS_DIR``
directories) made with the same ``--seed`` values, one from the parent
commit and one from the change::

    PARENT/<seed>/<experiment>.json    CHANGE/<seed>/<experiment>.json

for example, per seed ``s`` and per checkout::

    REPRO_RESULTS_DIR=PARENT/s python -m repro --exp fig09 --scale smoke \\
        --seed s --save --quiet

Rows are paired by seed (the subdirectory name) and by their configuration
columns: the columns whose value at each row position is the same in every
run of both sets.  Every other column is a measurement.  For each
(experiment, row, measurement column) the tool takes the paired
differences ``change - parent`` over the seeds, and fails the cell when

* the mean difference exceeds :data:`MAX_STANDARD_ERRORS` standard errors
  of the differences and :data:`CONSTANT_RTOL` relative (a move below that
  is float rounding, not a distribution shift); or
* the values vary across the seeds of neither set (a deterministic cell),
  and the two constants differ by more than :data:`CONSTANT_RTOL`
  relative.

A cell whose parent values are constant but whose change values vary is a
rare event the parent's seeds happened not to show (say, one corrupted key
in ten runs at a bit error rate of 1e-7): the standard-error test judges
it, and the summary lists it as a note.

Usage::

    python tools/check_spread.py PARENT CHANGE
    python tools/check_spread.py PARENT CHANGE --experiments fig09,fig15

Exits 1 when a cell fails (each failure is printed), 0 otherwise.  With 10
seeds a 4-standard-error bound is Student-t with 9 degrees of freedom, so
about 3 cells in 1,000 fail by chance alone; the summary states that
expectation next to the count.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import defaultdict
from pathlib import Path

#: A varying cell fails when its mean paired difference exceeds this many
#: standard errors of the differences.
MAX_STANDARD_ERRORS = 4.0
#: A cell whose parent values do not vary must agree to this relative
#: tolerance (values below 1 are compared absolutely).
CONSTANT_RTOL = 1e-9
#: Two-sided tail of Student's t beyond 4 for 9 degrees of freedom (10
#: seeds): the chance that a cell fails with nothing moved.
T4_TAIL_9DOF = 0.0031


def load_runs(root: Path, experiments: "list[str] | None") -> dict:
    """``{experiment: {seed: rows}}`` from ``root/<seed>/<experiment>.json``,
    with each experiment's columns checked equal across seeds."""
    runs: dict = defaultdict(dict)
    columns: dict = {}
    for seed_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        for path in sorted(seed_dir.glob("*.json")):
            table = json.loads(path.read_text())
            name = table["experiment"]
            if experiments is not None and name not in experiments:
                continue
            if columns.setdefault(name, table["columns"]) != table["columns"]:
                raise SystemExit(f"{path}: columns differ from other seeds")
            runs[name][seed_dir.name] = table["rows"]
    return {"columns": columns, "runs": dict(runs)}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def key_columns(row_sets: "list[list[list]]", width: int) -> "list[int]":
    """Columns whose value at each row position is equal in every run."""
    keys = []
    for column in range(width):
        if all(
            len({repr(rows[i][column]) for rows in row_sets}) == 1
            for i in range(len(row_sets[0]))
        ):
            keys.append(column)
    return keys


def _paired(rows: "list[list]", keys: "list[int]") -> dict:
    """Rows by ``(configuration key, occurrence)``."""
    seen: dict = defaultdict(int)
    out = {}
    for row in rows:
        key = tuple(repr(row[c]) for c in keys)
        out[(key, seen[key])] = row
        seen[key] += 1
    return out


def check_experiment(
    name: str, columns: "list[str]", parent: dict, change: dict
) -> "tuple[int, list[str], list[str]]":
    """``(cells checked, failure lines, note lines)`` for one experiment."""
    seeds = sorted(set(parent) & set(change))
    if not seeds:
        return 0, [f"{name}: no seed present in both sets"], []
    runs = [parent[s] for s in seeds] + [change[s] for s in seeds]
    if len({len(rows) for rows in runs}) != 1:
        return 0, [f"{name}: row counts differ between runs"], []
    keys = key_columns(runs, len(columns))
    measured = [c for c in range(len(columns)) if c not in keys]
    by_seed = {
        s: (_paired(parent[s], keys), _paired(change[s], keys)) for s in seeds
    }
    failures, notes = [], []
    checked = 0
    for row_key in by_seed[seeds[0]][0]:
        label = ", ".join(
            f"{columns[c]}={v}" for c, v in zip(keys, row_key[0])
        ) or f"row {row_key[1]}"
        for column in measured:
            before, after = [], []
            for s in seeds:
                p_rows, c_rows = by_seed[s]
                if row_key not in c_rows:
                    failures.append(f"{name} [{label}]: missing in change")
                    break
                before.append(p_rows[row_key][column])
                after.append(c_rows[row_key][column])
            else:
                if not all(map(_is_number, before + after)):
                    if before != after:
                        failures.append(
                            f"{name} [{label}] {columns[column]}:"
                            f" {before!r} -> {after!r}"
                        )
                    checked += 1
                    continue
                checked += 1
                where = f"{name} [{label}] {columns[column]}"
                problem = _cell_problem(before, after)
                if problem:
                    failures.append(f"{where}: {problem}")
                elif len(set(before)) == 1 and len(set(after)) > 1:
                    notes.append(
                        f"{where}: constant {before[0]!r} across parent"
                        f" seeds, {after!r} across the change's"
                    )
    return checked, failures, notes


def _cell_problem(before: "list[float]", after: "list[float]") -> str:
    """Why one cell fails, or ``""``."""
    diffs = [a - b for a, b in zip(after, before)]
    k = len(diffs)
    mean = sum(diffs) / k
    resolution = CONSTANT_RTOL * max(max(map(abs, before + after)), 1.0)
    if len(set(before)) == 1 and len(set(after)) == 1:
        if abs(mean) > resolution:
            return (
                f"constant {before[0]!r} across parent seeds, constant"
                f" {after[0]!r} across the change's"
            )
        return ""
    sd = math.sqrt(sum((d - mean) ** 2 for d in diffs) / (k - 1))
    se = sd / math.sqrt(k)
    if abs(mean) > max(MAX_STANDARD_ERRORS * se, resolution):
        return (
            f"mean paired difference {mean:+.4g} is"
            f" {abs(mean) / se if se else math.inf:.1f} standard errors"
            f" (se {se:.3g}, {k} seeds)"
        )
    return ""


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument(
        "--experiments", default=None,
        help="comma-separated experiment names (default: every one found)",
    )
    args = parser.parse_args(argv)
    wanted = args.experiments.split(",") if args.experiments else None
    parent = load_runs(args.parent, wanted)
    change = load_runs(args.change, wanted)
    total = 0
    failures, notes = [], []
    for name in sorted(parent["runs"]):
        if name not in change["runs"]:
            failures.append(f"{name}: missing from {args.change}")
            continue
        if parent["columns"][name] != change["columns"].get(name):
            failures.append(f"{name}: columns differ")
            continue
        checked, problems, rare = check_experiment(
            name, parent["columns"][name], parent["runs"][name],
            change["runs"][name],
        )
        seeds = len(set(parent["runs"][name]) & set(change["runs"][name]))
        print(f"{name}: {checked} cells over {seeds} seeds,"
              f" {len(problems)} outside the spread")
        total += checked
        failures.extend(problems)
        notes.extend(rare)
    for line in notes:
        print(f"NOTE {line}")
    for line in failures:
        print(f"FAIL {line}")
    print(
        f"spread check: {total} cells, {len(failures)} failed"
        f" (about {total * T4_TAIL_9DOF:.1f} expected by chance at 10 seeds)"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
