"""Trace-analysis CLI: aggregate trace JSONL files into per-phase tables.

Usage::

    python -m repro.obs.report trace.jsonl [more.jsonl ...]
    python -m repro.obs.report trace.jsonl --format markdown
    python -m repro.obs.report trace.jsonl --check          # validate too

Sections (any of which may be empty for a given trace):

* **spans** — writes/reads/TEPMW and wall-clock rolled up by span name,
  with exact nearest-rank p50/p95/p99 of each name's span ``wall_s``
  (e.g. per-sort latency from ``sort.*``, per-experiment latency from
  ``experiment.*``).
* **breakdown** — the Figure-11-style sort/refine/copy TEPMW split of every
  ``approx_refine`` run, grouped by algorithm (copy is the approx-prep
  ``Key0 -> Key~`` transfer, sort the approx stage, refine the three
  Listing-1/2 steps).
* **counters / gauges** — e.g. the sorters' per-depth rollups, the
  worker pool's task counts, task latencies and queue depth, and the
  pcmsim per-bank queue-depth gauges, with nearest-rank percentiles over
  the gauge samples.

Spans emitted by pooled workers carry ``trace_parent_pid``/
``trace_parent_span`` attrs (stamped by :mod:`repro.parallel.sharded`);
the report adopts those as cross-process parent links, so a merged trace
rolls worker spans up under the dispatching span.

``--check`` validates every event against the schema
(:mod:`repro.obs.schema`) and verifies the exactness invariants: each
span's ``stats`` delta equals ``cum - cum_start`` field by field, and the
stage spans of every ``approx_refine`` run tile their parent — adjacent
``cum``/``cum_start`` payloads are equal verbatim, so per-phase TEPMW sums
match the aggregate exactly, not approximately.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from repro.core.report import STAGES

from .io import read_traces
from .schema import validate_events
from .tracer import STATS_FIELDS

#: Stage -> Fig-11 category of the breakdown section.
BREAKDOWN_CATEGORIES = {
    "warm_up": "copy",
    "approx_preparation": "copy",
    "approx_stage": "sort",
    "refine_preparation": "refine",
    "refine_find_rem": "refine",
    "refine_sort_rem": "refine",
    "refine_merge": "refine",
}

FORMATS = ("text", "json", "markdown")

#: Percentiles carried by span rows (over ``wall_s``) and gauge rows.
PERCENTILES = ((0.5, "p50"), (0.95, "p95"), (0.99, "p99"))


def tepmw(stats: dict) -> float:
    """TEPMW of a stats payload: precise writes + cost-weighted approx."""
    return stats["precise_writes"] + stats["approx_write_units"]


def percentile(samples: "list[float]", q: float) -> Optional[float]:
    """Nearest-rank percentile of *sorted* ``samples`` (exact, no lerp)."""
    if not samples:
        return None
    rank = max(1, -(-int(q * 1_000_000) * len(samples) // 1_000_000))
    # Equivalent to ceil(q * n) without float rank arithmetic.
    rank = min(rank, len(samples))
    return samples[rank - 1]


def _add_percentiles(row: dict, values: "list[float]") -> None:
    values = sorted(values)
    for q, label in PERCENTILES:
        row[label] = percentile(values, q)


def _fmt(value) -> str:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return str(value)
    if isinstance(value, int):
        return str(value)
    return format(value, ".6g")


# ---------------------------------------------------------------------- #
# Aggregation
# ---------------------------------------------------------------------- #


def build_report(events: list[dict]) -> dict:
    """Aggregate decoded events into the report sections."""
    span_ends = [e for e in events if e.get("ev") == "span_end"]
    children: dict[tuple[int, int], list[dict]] = {}
    cross_process_children = 0
    for event in span_ends:
        if event.get("parent") is not None:
            children.setdefault((event["pid"], event["parent"]), []).append(
                event
            )
        attrs = event.get("attrs") or {}
        parent_pid = attrs.get("trace_parent_pid")
        parent_span = attrs.get("trace_parent_span")
        if parent_pid is not None and parent_span is not None:
            children.setdefault((parent_pid, parent_span), []).append(event)
            cross_process_children += 1

    # -- spans by name ------------------------------------------------- #
    spans: dict[str, dict] = {}
    for event in span_ends:
        row = spans.setdefault(
            event["name"],
            {"name": event["name"], "count": 0, "wall_s": 0.0,
             "reads": 0, "writes": 0, "tepmw": 0.0, "walls": []},
        )
        row["count"] += 1
        row["wall_s"] += event["wall_s"]
        row["walls"].append(event["wall_s"])
        stats = event.get("stats")
        if stats is not None:
            row["reads"] += stats["precise_reads"] + stats["approx_reads"]
            row["writes"] += stats["precise_writes"] + stats["approx_writes"]
            row["tepmw"] += tepmw(stats)
    for row in spans.values():
        _add_percentiles(row, row.pop("walls"))

    # -- Fig-11-style breakdown of approx_refine runs ------------------ #
    breakdown: dict[str, dict] = {}
    for event in span_ends:
        if event["name"] != "approx_refine":
            continue
        algorithm = (event.get("attrs") or {}).get("algorithm", "?")
        row = breakdown.setdefault(
            algorithm,
            {"algorithm": algorithm, "runs": 0, "copy": 0.0, "sort": 0.0,
             "refine": 0.0, "total": 0.0, "refine_frac": 0.0, "wall_s": 0.0},
        )
        row["runs"] += 1
        row["wall_s"] += event["wall_s"]
        if event.get("stats") is not None:
            row["total"] += tepmw(event["stats"])
        for child in children.get((event["pid"], event["id"]), ()):
            if (
                child["name"] in BREAKDOWN_CATEGORIES
                and child.get("stats") is not None
            ):
                row[BREAKDOWN_CATEGORIES[child["name"]]] += tepmw(
                    child["stats"]
                )
    for row in breakdown.values():
        if row["total"]:
            row["refine_frac"] = row["refine"] / row["total"]

    # -- counters and gauges ------------------------------------------- #
    counters: dict[str, dict] = {}
    gauges: dict[str, dict] = {}
    for event in events:
        if event.get("ev") == "counter":
            row = counters.setdefault(
                event["name"],
                {"name": event["name"], "events": 0, "total": 0},
            )
            row["events"] += 1
            row["total"] += event["value"]
        elif event.get("ev") == "gauge":
            row = gauges.setdefault(
                event["name"],
                {"name": event["name"], "events": 0,
                 "min": event["value"], "max": event["value"],
                 "values": []},
            )
            row["events"] += 1
            row["min"] = min(row["min"], event["value"])
            row["max"] = max(row["max"], event["value"])
            row["values"].append(event["value"])
    for row in gauges.values():
        _add_percentiles(row, row.pop("values"))

    return {
        "events": len(events),
        "processes": len({e["pid"] for e in events if "pid" in e}),
        "cross_process_children": cross_process_children,
        "spans": sorted(spans.values(), key=lambda r: r["name"]),
        "breakdown": sorted(
            breakdown.values(), key=lambda r: r["algorithm"]
        ),
        "counters": sorted(counters.values(), key=lambda r: r["name"]),
        "gauges": sorted(gauges.values(), key=lambda r: r["name"]),
    }


# ---------------------------------------------------------------------- #
# Consistency checks (--check)
# ---------------------------------------------------------------------- #


def check_events(events: list[dict]) -> list[str]:
    """Schema validation plus the span-exactness invariants."""
    problems = validate_events(events)
    span_ends = [e for e in events if e.get("ev") == "span_end"]

    seen: set[tuple[int, int]] = set()
    for event in span_ends:
        key = (event.get("pid"), event.get("id"))
        if key in seen:
            problems.append(f"duplicate span_end for pid/id {key}")
        seen.add(key)
        stats = event.get("stats")
        if stats is None:
            continue
        for field in STATS_FIELDS:
            if event["cum"][field] - event["cum_start"][field] != stats[field]:
                problems.append(
                    f"span {event['name']} (pid {event['pid']}, id"
                    f" {event['id']}): stats.{field} != cum - cum_start"
                )

    # Stage spans must tile their approx_refine parent: adjacent cumulative
    # payloads equal verbatim, endpoints matching the parent's.
    for run in span_ends:
        if run["name"] != "approx_refine" or run.get("stats") is None:
            continue
        stages = sorted(
            (
                e for e in span_ends
                if e["pid"] == run["pid"] and e.get("parent") == run["id"]
                and e["name"] in STAGES and e.get("stats") is not None
            ),
            key=lambda e: e["id"],
        )
        label = (
            f"approx_refine run (pid {run['pid']}, id {run['id']},"
            f" {(run.get('attrs') or {}).get('algorithm', '?')})"
        )
        if [e["name"] for e in stages] != list(STAGES):
            problems.append(
                f"{label}: stages {[e['name'] for e in stages]} !="
                f" {list(STAGES)}"
            )
            continue
        if stages[0]["cum_start"] != run["cum_start"]:
            problems.append(f"{label}: first stage does not start at parent")
        for before, after in zip(stages, stages[1:]):
            if after["cum_start"] != before["cum"]:
                problems.append(
                    f"{label}: gap between {before['name']} and"
                    f" {after['name']}"
                )
        if stages[-1]["cum"] != run["cum"]:
            problems.append(f"{label}: last stage does not end at parent")

    return problems


# ---------------------------------------------------------------------- #
# Rendering
# ---------------------------------------------------------------------- #

_SECTIONS = (
    ("spans", "Spans (rolled up by name)",
     ["name", "count", "wall_s", "p50", "p95", "p99", "reads", "writes",
      "tepmw"]),
    ("breakdown", "Sort/refine/copy TEPMW breakdown (Fig-11 style)",
     ["algorithm", "runs", "copy", "sort", "refine", "total",
      "refine_frac", "wall_s"]),
    ("counters", "Counters", ["name", "events", "total"]),
    ("gauges", "Gauges",
     ["name", "events", "min", "max", "p50", "p95", "p99"]),
)


def _table_lines(
    title: str, columns: list[str], rows: list[dict], markdown: bool
) -> list[str]:
    cells = [columns] + [
        [_fmt(row[column]) for column in columns] for row in rows
    ]
    if markdown:
        lines = [f"### {title}", ""]
        lines.append("| " + " | ".join(columns) + " |")
        lines.append("|" + "|".join(" --- " for _ in columns) + "|")
        for row in cells[1:]:
            lines.append("| " + " | ".join(row) + " |")
        return lines
    widths = [max(len(row[i]) for row in cells) for i in range(len(columns))]
    lines = [f"== {title} =="]
    for row in cells:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    return lines


def render(report: dict, fmt: str = "text") -> str:
    """Render the report sections in the requested format."""
    if fmt == "json":
        return json.dumps(report, indent=2)
    markdown = fmt == "markdown"
    lines: list[str] = []
    header = (
        f"trace report: {report['events']} events from"
        f" {report['processes']} process(es)"
    )
    lines.append(f"# {header}" if markdown else header)
    for key, title, columns in _SECTIONS:
        if not report[key]:
            continue
        lines.append("")
        lines.extend(_table_lines(title, columns, report[key], markdown))
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.obs.report",
        description="Aggregate trace JSONL files into per-phase tables.",
    )
    parser.add_argument("traces", nargs="+", metavar="TRACE",
                        help="trace JSONL file(s) to aggregate")
    parser.add_argument("--format", choices=FORMATS, default="text")
    parser.add_argument(
        "--check", action="store_true",
        help="validate every event against the schema and verify the"
        " span-exactness invariants before rendering",
    )
    args = parser.parse_args(argv)

    events = read_traces(args.traces)
    if args.check:
        problems = check_events(events)
        if problems:
            for problem in problems:
                print(f"check failed: {problem}", file=sys.stderr)
            return 1
        print(f"check ok: {len(events)} events", file=sys.stderr)
    print(render(build_report(events), args.format))
    return 0


if __name__ == "__main__":
    sys.exit(main())
