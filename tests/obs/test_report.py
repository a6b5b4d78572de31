"""Report CLI: aggregation golden, rendering, and the --check invariants."""

from __future__ import annotations

import io
import json
import random

import pytest

from repro.core.report import STAGES
from repro.memory.stats import MemoryStats
from repro.obs import StageRecorder, Tracer
from repro.obs.report import (
    build_report,
    check_events,
    main,
    percentile,
    render,
)


def _stats(pr=0, pw=0, ar=0, aw=0, awu=0.0, cw=0) -> dict:
    return {
        "precise_reads": pr, "precise_writes": pw, "approx_reads": ar,
        "approx_writes": aw, "approx_write_units": awu,
        "corrupted_writes": cw,
    }


def _env(seq: int, **fields) -> dict:
    fields.update({"ts": float(seq), "seq": seq, "pid": 1})
    return fields


#: Canned trace: two sort spans (scalar + numpy), a counter, two gauges.
def _canned_events() -> list[dict]:
    zero = _stats()
    s1 = _stats(pr=10, pw=20)
    s2 = _stats(pr=20, pw=40)
    return [
        _env(0, ev="meta", schema=1, epoch=0.0),
        _env(1, ev="span_start", id=1, parent=None, name="sort.lsd3",
             attrs={"algo": "lsd3", "kernels": "scalar"}),
        _env(2, ev="span_end", id=1, parent=None, name="sort.lsd3",
             wall_s=0.5, attrs={"algo": "lsd3", "kernels": "scalar"},
             stats=s1, cum_start=zero, cum=s1),
        _env(3, ev="span_start", id=2, parent=None, name="sort.lsd3",
             attrs={"algo": "lsd3", "kernels": "numpy"}),
        _env(4, ev="span_end", id=2, parent=None, name="sort.lsd3",
             wall_s=0.25, attrs={"algo": "lsd3", "kernels": "numpy"},
             stats=s1, cum_start=s1, cum=s2),
        _env(5, ev="counter", name="refine.rem_count", value=5, span=None),
        _env(6, ev="gauge", name="pcmsim.queued_writes", value=3, span=None),
        _env(7, ev="gauge", name="pcmsim.queued_writes", value=1, span=None),
    ]


class TestPercentile:
    def test_nearest_rank_matches_definition(self):
        rng = random.Random(7)
        for n in (1, 2, 3, 10, 97):
            samples = sorted(rng.random() for _ in range(n))
            for q in (0.5, 0.95, 0.99):
                # ceil(q * n), clamped to [1, n] — the textbook nearest rank.
                rank = min(max(1, -(-int(q * 1_000_000) * n // 1_000_000)), n)
                assert percentile(samples, q) == samples[rank - 1]

    def test_empty_is_none(self):
        assert percentile([], 0.5) is None


class TestBuildReport:
    def test_canned_trace_golden(self):
        assert build_report(_canned_events()) == {
            "events": 8,
            "processes": 1,
            "cross_process_children": 0,
            "spans": [
                {"name": "sort.lsd3", "count": 2, "wall_s": 0.75,
                 "reads": 20, "writes": 40, "tepmw": 40.0,
                 "p50": 0.25, "p95": 0.5, "p99": 0.5},
            ],
            "breakdown": [],
            "counters": [
                {"name": "refine.rem_count", "events": 1, "total": 5},
            ],
            "gauges": [
                {"name": "pcmsim.queued_writes", "events": 2,
                 "min": 1, "max": 3, "p50": 1, "p95": 3, "p99": 3},
            ],
        }

    def test_span_rows_carry_exact_wall_percentiles(self):
        rng = random.Random(3)
        walls = [round(rng.uniform(0.001, 2.0), 6) for _ in range(37)]
        events = [_env(0, ev="meta", schema=1, epoch=0.0)]
        for index, wall in enumerate(walls, start=1):
            events.append(_env(
                index, ev="span_end", id=index, parent=None,
                name="experiment.fig09", wall_s=wall, attrs={},
                stats=None, cum_start=None, cum=None,
            ))
        (row,) = build_report(events)["spans"]
        ordered = sorted(walls)
        # Nearest rank over 37 samples: ceil(0.5*37)=19, ceil(0.95*37)=36,
        # ceil(0.99*37)=37 — actual samples, never interpolated.
        assert row["count"] == 37
        assert row["p50"] == ordered[18]
        assert row["p95"] == ordered[35]
        assert row["p99"] == ordered[36]

    def test_breakdown_groups_stages_by_category(self):
        events = _approx_refine_events()
        report = build_report(events)
        (row,) = report["breakdown"]
        assert row["algorithm"] == "lsd3"
        assert row["runs"] == 1
        # 7 stages x (1 precise write + 0.3 approx units) = 1.3 TEPMW each:
        # copy = warm_up + approx_preparation, sort = approx_stage, refine
        # = the four refine_* stages; they tile the run's total.
        assert row["copy"] == pytest.approx(2.6)
        assert row["sort"] == pytest.approx(1.3)
        assert row["refine"] == pytest.approx(5.2)
        assert row["total"] == pytest.approx(9.1)
        assert row["refine_frac"] == pytest.approx(5.2 / 9.1)


class TestRender:
    def test_text_golden(self):
        report = build_report([
            _env(0, ev="meta", schema=1, epoch=0.0),
            _env(1, ev="counter", name="refine.rem_count", value=5,
                 span=None),
        ])
        assert render(report, "text") == "\n".join([
            "trace report: 2 events from 1 process(es)",
            "",
            "== Counters ==",
            "            name  events  total",
            "refine.rem_count       1      5",
        ])

    def test_markdown_golden(self):
        report = build_report([
            _env(0, ev="meta", schema=1, epoch=0.0),
            _env(1, ev="counter", name="refine.rem_count", value=5,
                 span=None),
        ])
        assert render(report, "markdown") == "\n".join([
            "# trace report: 2 events from 1 process(es)",
            "",
            "### Counters",
            "",
            "| name | events | total |",
            "| --- | --- | --- |",
            "| refine.rem_count | 1 | 5 |",
        ])

    def test_json_round_trips(self):
        report = build_report(_canned_events())
        assert json.loads(render(report, "json")) == report


def _approx_refine_events(mutate=None) -> list[dict]:
    """A real approx_refine-shaped trace via the tracer itself."""
    sink = io.StringIO()
    tracer = Tracer(sink=sink)
    stats = MemoryStats()
    recorder = StageRecorder(stats, tracer)
    with tracer.span(
        "approx_refine", stats=stats, attrs={"algorithm": "lsd3", "n": 8}
    ):
        for name in STAGES:
            with recorder.stage(name):
                stats.record_precise_write(1)
                stats.record_approx_write(0.3)
    events = [json.loads(line) for line in sink.getvalue().splitlines()]
    if mutate is not None:
        mutate(events)
    return events


class TestCheckEvents:
    def test_real_trace_passes(self):
        # Floating write-units accumulate inexactly, yet the verbatim
        # cumulative payloads must tile exactly — the design invariant.
        assert check_events(_approx_refine_events()) == []

    def test_stats_cum_mismatch_detected(self):
        def mutate(events):
            end = next(e for e in events if e.get("ev") == "span_end")
            end["stats"]["precise_writes"] += 1

        problems = check_events(_approx_refine_events(mutate))
        assert any("!= cum - cum_start" in p for p in problems)

    def test_stage_gap_detected(self):
        def mutate(events):
            ends = [
                e for e in events
                if e.get("ev") == "span_end" and e["name"] in STAGES
            ]
            ends[2]["cum_start"] = dict(ends[2]["cum_start"])
            ends[2]["cum_start"]["precise_writes"] += 1

        problems = check_events(_approx_refine_events(mutate))
        assert any("gap between" in p or "cum - cum_start" in p
                   for p in problems)

    def test_missing_stage_detected(self):
        def mutate(events):
            victim = next(
                e for e in events
                if e.get("ev") == "span_end" and e["name"] == "approx_stage"
            )
            events.remove(victim)

        problems = check_events(_approx_refine_events(mutate))
        assert any("stages" in p for p in problems)

    def test_duplicate_span_detected(self):
        def mutate(events):
            end = next(e for e in events if e.get("ev") == "span_end")
            events.append(dict(end))

        problems = check_events(_approx_refine_events(mutate))
        assert any("duplicate span_end" in p for p in problems)


class TestCrossProcessParenting:
    def test_worker_spans_adopted_and_counted(self):
        parent = _approx_refine_events()
        run_id = next(
            e for e in parent if e.get("ev") == "span_end"
            and e["name"] == "approx_refine"
        )["id"]
        worker = [
            {"ts": 100.0, "seq": 0, "pid": 2, "ev": "meta", "schema": 1,
             "epoch": 0.0},
            {"ts": 101.0, "seq": 1, "pid": 2, "ev": "span_end", "id": 1,
             "parent": None, "name": "shard.task", "wall_s": 0.1,
             "attrs": {"trace_parent_pid": 1,
                       "trace_parent_span": run_id},
             "stats": None, "cum_start": None, "cum": None},
        ]
        report = build_report(parent + worker)
        assert report["processes"] == 2
        assert report["cross_process_children"] == 1


class TestCLI:
    def _write(self, tmp_path, events, name="trace.jsonl"):
        path = tmp_path / name
        path.write_text(
            "".join(
                json.dumps(e, separators=(",", ":")) + "\n" for e in events
            )
        )
        return path

    def test_report_renders_sections(self, tmp_path, capsys):
        path = self._write(tmp_path, _canned_events())
        assert main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "== Spans (rolled up by name) ==" in out
        assert "sort.lsd3" in out

    def test_check_ok_on_valid_trace(self, tmp_path, capsys):
        path = self._write(tmp_path, _approx_refine_events())
        assert main([str(path), "--check"]) == 0
        captured = capsys.readouterr()
        assert "check ok:" in captured.err
        assert "Sort/refine/copy TEPMW breakdown" in captured.out

    def test_check_fails_on_corrupt_trace(self, tmp_path, capsys):
        def mutate(events):
            end = next(e for e in events if e.get("ev") == "span_end")
            end["stats"]["precise_writes"] += 1

        path = self._write(tmp_path, _approx_refine_events(mutate))
        assert main([str(path), "--check"]) == 1
        assert "check failed:" in capsys.readouterr().err

    def test_spans_table_shows_percentile_columns(self, tmp_path, capsys):
        path = self._write(tmp_path, _canned_events())
        assert main([str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        header = out[out.index("== Spans (rolled up by name) ==") + 1]
        assert header.split() == [
            "name", "count", "wall_s", "p50", "p95", "p99", "reads",
            "writes", "tepmw",
        ]

    def test_requires_trace_files_and_rejects_metrics_flag(self, tmp_path):
        path = self._write(tmp_path, _canned_events())
        for argv in ([], ["--metrics", str(path)]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2

    def test_merges_multiple_trace_files(self, tmp_path, capsys):
        a = self._write(tmp_path, _canned_events(), "a.jsonl")
        b = self._write(tmp_path, _approx_refine_events(), "b.jsonl")
        assert main([str(a), str(b), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        # canned (8) + meta + 8 span start/end pairs of the refine trace
        assert report["events"] == 8 + 17
        names = {row["name"] for row in report["spans"]}
        assert "approx_refine" in names and "sort.lsd3" in names
