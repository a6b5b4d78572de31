"""Observability under parallelism: pooled traces parent, pool events.

The ``shard.task`` spans written by pooled workers must carry enough
context (``trace_parent_pid``/``trace_parent_span``/``run`` attrs) for a
merged multi-pid trace to roll worker spans up under the dispatching
span; the dispatching process's own part file must carry the pool's
task counters and latency/queue-depth gauges.
"""

from __future__ import annotations

import os

import pytest

from repro.memory.approx_array import PreciseArray
from repro.memory.stats import MemoryStats
from repro.obs import TRACE_DIR_ENV, TRACE_RUN_ENV, close_tracer, get_tracer
from repro.obs.io import read_traces
from repro.obs.report import build_report, check_events
from repro.parallel.pool import fork_available, shutdown_pools
from repro.parallel.sharded import ShardedSorter
from repro.sorting.registry import make_sorter
from repro.workloads.generators import uniform_keys

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="pooled paths require fork"
)


@pytest.fixture(autouse=True)
def _fresh_pools():
    """Workers must fork after the env of each test is in place."""
    shutdown_pools()
    yield
    shutdown_pools()


def _pooled_sort(n: int = 400, seed: int = 9) -> None:
    keys = uniform_keys(n, seed=seed)
    sorter = ShardedSorter(
        make_sorter("lsd3"), shards=3, workers=2, min_n=2,
        kernels="numpy",
    )
    array = PreciseArray(list(keys), stats=MemoryStats())
    sorter.sort(array)
    assert array.peek_block_np(0, len(array)).tolist() == sorted(keys)


class TestPooledTraceParenting:
    def test_worker_spans_parent_across_processes(self, monkeypatch, tmp_path):
        monkeypatch.setenv(TRACE_DIR_ENV, str(tmp_path))
        monkeypatch.setenv(TRACE_RUN_ENV, "runid12ab34cd")
        close_tracer()
        parent = get_tracer()
        assert parent.enabled and parent.run == "runid12ab34cd"
        with parent.span("experiment", attrs={"name": "unit"}):
            _pooled_sort()
        close_tracer()
        shutdown_pools()  # drain workers so their part files are complete

        parts = sorted(tmp_path.glob("trace-*.jsonl"))
        assert len(parts) >= 2, "expected parent + worker part files"
        events = read_traces(parts)
        assert check_events(events) == []

        tasks = [
            e for e in events
            if e.get("ev") == "span_end" and e["name"] == "shard.task"
        ]
        assert tasks, "workers emitted no shard.task spans"
        parent_ids = {
            e["id"] for e in events
            if e.get("ev") == "span_end" and e["pid"] == parent.pid
        }
        for task in tasks:
            assert task["pid"] != parent.pid
            assert task["attrs"]["trace_parent_pid"] == parent.pid
            assert task["attrs"]["trace_parent_span"] in parent_ids
            assert task["attrs"]["run"] == "runid12ab34cd"

        report = build_report(events)
        assert report["processes"] >= 2
        assert report["cross_process_children"] >= len(tasks)

    def test_worker_meta_carries_run_id(self, monkeypatch, tmp_path):
        monkeypatch.setenv(TRACE_DIR_ENV, str(tmp_path))
        monkeypatch.setenv(TRACE_RUN_ENV, "feedc0ffee12")
        close_tracer()
        with get_tracer().span("experiment"):
            _pooled_sort(n=300, seed=3)
        close_tracer()
        shutdown_pools()
        events = read_traces(sorted(tmp_path.glob("trace-*.jsonl")))
        metas = [e for e in events if e.get("ev") == "meta"]
        assert len(metas) >= 2
        assert all(m.get("run") == "feedc0ffee12" for m in metas)


def _traced_pooled_sort(monkeypatch, directory, **kwargs) -> list[dict]:
    """Run :func:`_pooled_sort` traced; return the parent's own events."""
    monkeypatch.setenv(TRACE_DIR_ENV, str(directory))
    close_tracer()
    assert get_tracer().enabled
    _pooled_sort(**kwargs)
    close_tracer()
    shutdown_pools()
    return read_traces([directory / f"trace-{os.getpid()}.jsonl"])


class TestPooledTaskEvents:
    def test_pool_events_land_in_parent_part_file(
        self, monkeypatch, tmp_path
    ):
        events = _traced_pooled_sort(monkeypatch, tmp_path)
        assert check_events(events) == []
        report = build_report(events)
        counters = {row["name"]: row for row in report["counters"]}
        gauges = {row["name"]: row for row in report["gauges"]}
        assert counters["pool.tasks"]["total"] == 3  # one pool task per shard
        assert "pool.task_failures" not in counters
        assert gauges["pool.task_s"]["events"] == 3
        assert gauges["pool.task_s"]["min"] > 0
        depth = gauges["pool.queue_depth"]
        assert (depth["events"], depth["min"], depth["max"]) == (3, 0, 2)
        workers = {
            e["attrs"]["worker"] for e in events
            if e["ev"] == "gauge" and e["name"] == "pool.task_s"
        }
        assert workers and workers <= {0, 1}

    def test_pool_events_deterministic_under_rerun(
        self, monkeypatch, tmp_path
    ):
        def pool_events(directory):
            # Task seconds and worker attribution depend on scheduling;
            # the event sequence, counts and queue depths must not.
            return [
                (e["ev"], e["name"],
                 None if e["name"] == "pool.task_s" else e["value"])
                for e in _traced_pooled_sort(
                    monkeypatch, directory, n=200, seed=1
                )
                if e["ev"] in ("counter", "gauge")
                and e["name"].startswith("pool.")
            ]

        first = pool_events(tmp_path / "first")
        assert len(first) == 9
        assert pool_events(tmp_path / "second") == first
