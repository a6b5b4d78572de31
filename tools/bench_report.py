#!/usr/bin/env python3
"""Aggregate the repo's ``BENCH_*.json`` histories into one trajectory table.

Every bench harness in the repo appends records to an append-only JSON
array file at the repository root (``BENCH_sorters.json``,
``BENCH_runner.json``, ``BENCH_parallel.json``, ``BENCH_obs.json``, ...).
Each file accumulates its own shape of record, so reading performance
history means opening four files and eyeballing timestamps.  This tool
folds them into one table: records are grouped into *series* (all
identifying fields equal — algorithm, n, kernels, mode, ... — everything
except timestamps and measured values), and each series shows its first
and latest timing plus the improvement ratio between them, so kernel and
engine work shows up as a trajectory rather than a point.

Speedup columns recorded by the harnesses themselves (``speedup_vs_loop``
in the retired batch sweeps' records, ``speedup_vs_serial``/``speedup`` for
the parallel benches) are carried through from the latest record of each
series.

Usage::

    python tools/bench_report.py              # table over the repo root
    python tools/bench_report.py --check      # validate record schemas
    python tools/bench_report.py --root DIR   # read BENCH_*.json from DIR

``--check`` exits non-zero when a bench file has drifted from the shared
conventions: not a JSON array of objects, a record without a timestamp or
without any recognized metric field, a field changing type within a
series, or a missing integer ``schema`` stamp in files that require one
(every bench file the repo's harnesses write; any other file adopts the
rule as soon as one record carries the stamp).  CI can run it to catch a
harness silently changing its record shape.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Measured (per-run) fields; everything else identifies the series.
MEASURED_FIELDS = frozenset({
    "timestamp", "seconds", "loop_seconds", "total_s", "serial_s",
    "sharded_s", "serial_wall_s", "sharded_wall_s", "null_s", "active_s",
    "sanitized_s", "sanitizer_multiplier", "sanitize_gate_ns",
    "sanitize_gate_sites", "est_sanitize_disabled_overhead_frac",
    "speedup", "speedup_vs_loop", "speedup_vs_serial",
    "scaling_efficiency", "active_overhead_frac", "guard_ns",
    "guard_sites", "est_disabled_overhead_frac", "rem_tilde",
    "rem_tilde_serial", "rem_tilde_sharded", "write_reduction_serial",
    "write_reduction_sharded", "pass", "digest_serial", "digest_sharded",
    "digests_match", "pooled_matches_inprocess", "experiments", "failed",
    "resumed", "workers_effective", "cpus", "key_writes", "write_bound",
    "writes_mergesort", "write_ratio", "bound_ratio",
    "write_reduction_serial_mean", "write_reduction_serial_min",
    "write_reduction_serial_max", "write_reduction_sharded_mean",
    "write_reduction_sharded_min", "write_reduction_sharded_max",
    "rem_tilde_serial_mean", "rem_tilde_serial_min", "rem_tilde_serial_max",
    "rem_tilde_sharded_mean", "rem_tilde_sharded_min",
    "rem_tilde_sharded_max", "within_serial_range", "median_s", "max_s",
    "repeats",
})

#: Files whose records must carry an integer ``schema`` stamp (``--check``
#: enforces it); other files adopt the rule as soon as one record has it.
SCHEMA_REQUIRED = frozenset({
    "BENCH_obs.json", "BENCH_parallel.json", "BENCH_runner.json",
    "BENCH_sorters.json",
})

#: Primary timing metric, first match wins (seconds-like, lower is better).
METRIC_FIELDS = ("seconds", "total_s", "sharded_s", "sharded_wall_s", "active_s")

#: Recorded speedup ratios carried through to the report (higher is better).
SPEEDUP_FIELDS = ("speedup_vs_loop", "speedup_vs_serial", "speedup")


def series_key(record: dict) -> tuple:
    """The identifying fields of a record, as a hashable sorted tuple.

    A null-valued field identifies nothing, so a record that carries it and
    one that omits it belong to the same series.
    """
    return tuple(sorted(
        (key, json.dumps(value, sort_keys=True))
        for key, value in record.items()
        if key not in MEASURED_FIELDS and value is not None
    ))


def series_label(key: tuple) -> str:
    """Compact ``k=v`` rendering of a series key for the table."""
    parts = [f"{name}={json.loads(encoded)}" for name, encoded in key]
    return " ".join(parts) or "-"


def primary_metric(record: dict) -> "tuple[str, float] | None":
    for name in METRIC_FIELDS:
        value = record.get(name)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return name, float(value)
    return None


def load_bench_files(root: Path) -> "dict[str, list[dict]]":
    """All ``BENCH_*.json`` arrays under ``root``, by file name."""
    files = {}
    for path in sorted(root.glob("BENCH_*.json")):
        files[path.name] = json.loads(path.read_text())
    return files


def check_file(name: str, records) -> list[str]:
    """Schema-drift findings for one bench file (empty = clean)."""
    problems = []
    if not isinstance(records, list):
        return [f"{name}: not a JSON array"]
    needs_schema = name in SCHEMA_REQUIRED or any(
        isinstance(r, dict) and "schema" in r for r in records
    )
    field_types: dict[tuple, dict[str, type]] = {}
    for i, record in enumerate(records):
        if not isinstance(record, dict):
            problems.append(f"{name}[{i}]: not an object")
            continue
        if not isinstance(record.get("timestamp"), str):
            problems.append(f"{name}[{i}]: missing/non-string timestamp")
        if needs_schema and not (
            isinstance(record.get("schema"), int)
            and not isinstance(record.get("schema"), bool)
        ):
            problems.append(f"{name}[{i}]: missing/non-integer schema stamp")
        if primary_metric(record) is None:
            problems.append(
                f"{name}[{i}]: no recognized metric field"
                f" (one of {', '.join(METRIC_FIELDS)})"
            )
        key = series_key(record)
        seen = field_types.setdefault(key, {})
        for field, value in record.items():
            if value is None:
                continue
            if field in seen and seen[field] is not type(value):
                problems.append(
                    f"{name}[{i}]: field {field!r} changed type"
                    f" {seen[field].__name__} -> {type(value).__name__}"
                    " within a series"
                )
            seen[field] = type(value)
    return problems


def build_rows(files: "dict[str, list[dict]]") -> list[list[str]]:
    """One table row per series: first vs latest metric and improvement."""
    rows = []
    for name, records in files.items():
        series: dict[tuple, list[dict]] = {}
        for record in records:
            if isinstance(record, dict):
                series.setdefault(series_key(record), []).append(record)
        for key, group in series.items():
            first, latest = group[0], group[-1]
            first_metric = primary_metric(first)
            latest_metric = primary_metric(latest)
            if first_metric is None or latest_metric is None:
                continue
            metric_name, first_value = first_metric
            _, latest_value = latest_metric
            trend = (
                f"{first_value / latest_value:.2f}x"
                if latest_value > 0 and len(group) > 1 else "-"
            )
            recorded = "-"
            for field in SPEEDUP_FIELDS:
                value = latest.get(field)
                if isinstance(value, (int, float)):
                    recorded = f"{value:.2f}x ({field})"
                    break
            rows.append([
                name, series_label(key), str(len(group)), metric_name,
                f"{first_value:.4g}s", f"{latest_value:.4g}s", trend,
                recorded,
            ])
    return rows


def render(rows: list[list[str]]) -> str:
    header = [
        "file", "series", "runs", "metric", "first", "latest",
        "first/latest", "recorded speedup",
    ]
    cells = [header] + rows
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    lines = [
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in cells
    ]
    lines.insert(1, "  ".join("-" * width for width in widths))
    return "\n".join(lines)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_report",
        description="Aggregate BENCH_*.json histories into one table.",
    )
    parser.add_argument(
        "--root", default=None, metavar="DIR",
        help="directory holding the BENCH_*.json files (default: repo root)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="validate record schemas instead of printing the table",
    )
    args = parser.parse_args(argv)

    root = Path(args.root) if args.root else Path(__file__).resolve().parent.parent
    try:
        files = load_bench_files(root)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not files:
        print(f"no BENCH_*.json files under {root}", file=sys.stderr)
        return 1

    if args.check:
        problems = []
        for name, records in files.items():
            problems.extend(check_file(name, records))
        if problems:
            for problem in problems:
                print(f"drift: {problem}", file=sys.stderr)
            return 1
        total = sum(len(records) for records in files.values())
        print(f"{len(files)} bench files, {total} records: schemas OK")
        return 0

    print(render(build_rows(files)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
