"""Tracing must be observation-only: outputs bit-identical on vs off."""

from __future__ import annotations

import json

import pytest

from repro.core.approx_refine import run_approx_refine, run_precise_baseline
from repro.obs import TRACE_DIR_ENV, close_tracer
from repro.obs.io import iter_events
from repro.obs.report import check_events, tepmw
from repro.obs.tracer import STATS_FIELDS
from repro.workloads.generators import uniform_keys

N = 400


def _run(memory, sorter="lsd4"):
    keys = uniform_keys(N, seed=11)
    return run_approx_refine(keys, sorter, memory, seed=3)


@pytest.fixture()
def traced(tmp_path, monkeypatch):
    """Enable file tracing for the duration of one test."""
    monkeypatch.setenv(TRACE_DIR_ENV, str(tmp_path))
    close_tracer()
    yield tmp_path
    close_tracer()


class TestBitIdentical:
    @pytest.mark.parametrize("sorter", ["lsd4", "quicksort", "mergesort"])
    def test_run_approx_refine_identical_on_vs_off(
        self, sorter, pcm_sweet, tmp_path, monkeypatch
    ):
        off = _run(pcm_sweet, sorter)
        monkeypatch.setenv(TRACE_DIR_ENV, str(tmp_path))
        close_tracer()
        on = _run(pcm_sweet, sorter)
        close_tracer()
        monkeypatch.delenv(TRACE_DIR_ENV)

        assert on.final_keys.tolist() == off.final_keys.tolist()
        assert on.final_ids.tolist() == off.final_ids.tolist()
        assert on.stats == off.stats
        assert on.rem_tilde == off.rem_tilde
        # The per-stage accounting contract: bit-identical dict, including
        # the float approx_write_units fields.
        assert set(on.stage_stats) == set(off.stage_stats)
        for name, stats in off.stage_stats.items():
            assert on.stage_stats[name] == stats, name

    def test_precise_baseline_identical_on_vs_off(
        self, tmp_path, monkeypatch
    ):
        keys = uniform_keys(N, seed=5)
        off = run_precise_baseline(keys, "quicksort")
        monkeypatch.setenv(TRACE_DIR_ENV, str(tmp_path))
        close_tracer()
        on = run_precise_baseline(keys, "quicksort")
        close_tracer()
        monkeypatch.delenv(TRACE_DIR_ENV)
        assert on.final_keys.tolist() == off.final_keys.tolist()
        assert on.stats == off.stats


class TestTraceExactness:
    def test_trace_tiles_the_aggregate_exactly(
        self, traced, pcm_sweet
    ):
        result = _run(pcm_sweet)
        close_tracer()
        (trace,) = traced.glob("trace-*.jsonl")
        events = list(iter_events(trace))

        # Schema + the tiling/exactness invariants all hold.
        assert check_events(events) == []

        # The run span's stats payload IS the aggregate, field for field
        # (float equality included, by construction), so summing phases
        # via the cumulative payloads reproduces the aggregate exactly.
        run = next(
            e for e in events
            if e.get("ev") == "span_end" and e["name"] == "approx_refine"
        )
        for field in STATS_FIELDS:
            assert run["stats"][field] == getattr(result.stats, field)
        assert tepmw(run["stats"]) == result.stats.equivalent_precise_writes

        # Stage spans mirror the returned stage_stats verbatim.
        for name, stats in result.stage_stats.items():
            end = next(
                e for e in events
                if e.get("ev") == "span_end" and e["name"] == name
            )
            for field in STATS_FIELDS:
                assert end["stats"][field] == getattr(stats, field), (
                    name, field,
                )

    def test_sorter_spans_nest_under_stages(self, traced, pcm_sweet):
        _run(pcm_sweet, "mergesort")
        close_tracer()
        (trace,) = traced.glob("trace-*.jsonl")
        events = list(iter_events(trace))
        starts = {e["id"]: e for e in events if e.get("ev") == "span_start"}
        sort = next(
            e for e in events
            if e.get("ev") == "span_start" and e["name"] == "sort.mergesort"
        )
        assert starts[sort["parent"]]["name"] == "approx_stage"
        # Per-level spans nest under the sort span.
        level = next(
            e for e in events
            if e.get("ev") == "span_start" and e["name"] == "merge.level0"
        )
        assert level["parent"] == sort["id"]

    def test_events_are_valid_json_lines(self, traced, pcm_sweet):
        _run(pcm_sweet)
        close_tracer()
        (trace,) = traced.glob("trace-*.jsonl")
        for line in trace.read_text().splitlines():
            json.loads(line)  # no truncation, one object per line
