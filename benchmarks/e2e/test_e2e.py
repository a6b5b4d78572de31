"""Self-test of the end-to-end benchmark.

Run from the repository root with ``PYTHONPATH=src python -m pytest
benchmarks/e2e``.  One ``--quick --trace`` run (inputs 64x smaller, 3 ops
per phase) feeds most checks.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ledger import Ledger

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "e2e" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "quick.json"
    done = _run("--seed", "0", "--quick", "--trace", "--out", str(out))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return out, json.loads(out.read_text()), result


def test_every_benchmark_metric_is_emitted(quick):
    _, record, _ = quick
    assert list(record["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    for workload in record["workloads"].values():
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            emitted = workload["metrics"][metric["name"]]
            assert emitted["unit"] == metric["unit"], metric["name"]
            assert isinstance(emitted["value"], (int, float))


def test_result_line_carries_the_per_layer_metrics(quick):
    _, record, result = quick
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {
        f"{workload}.{metric['name']}"
        for workload in record["workloads"] for metric in SPEC["per_layer"]
    }


def test_ledger_accounts_for_the_traced_ops(quick):
    _, record, _ = quick
    for workload in record["workloads"].values():
        metrics = workload["metrics"]
        assert metrics["trace.stats_mismatch"]["value"] == 0
        assert metrics["trace.unattributed_frac"]["value"] < 0.1


def test_sharded_workload_pools_when_there_are_two_cpus(quick):
    _, record, _ = quick
    cpus = len(os.sched_getaffinity(0))
    sharded = record["workloads"]["approx_lsd6_sharded"]
    assert sharded["metrics"]["parallel.pooled"]["value"] == int(cpus >= 2)
    assert sharded["engaged"]["pooled"] == (cpus >= 2)


def test_compare_of_a_record_with_itself_passes(quick):
    out, _, _ = quick
    done = _run("--compare", str(out), str(out))
    assert done.returncode == 0, done.stdout
    assert "DIFFERENT" not in done.stdout


def test_compare_of_record_sets_takes_medians(quick, tmp_path):
    out, record, _ = quick
    slower = json.loads(json.dumps(record))
    slower["workloads"]["approx_lsd6"]["metrics"]["keys_per_s"]["value"] /= 2
    runs = tmp_path / "runs"
    runs.mkdir()
    for i, r in enumerate((record, record, slower)):
        (runs / f"{i}.json").write_text(json.dumps(r))
    assert _run("--compare", str(out), str(runs)).returncode == 0
    (runs / "3.json").write_text(json.dumps(slower))
    (runs / "4.json").write_text(json.dumps(slower))
    assert _run("--compare", str(out), str(runs)).returncode == 1


def _fail_one_op(record):
    workload = record["workloads"]["approx_lsd6"]
    workload["failed"] += 1
    workload["metrics"]["fail_frac"]["value"] = (
        workload["failed"] / workload["attempted"]
    )


def _lower_write_reduction(record):
    record["workloads"]["approx_lsd6"]["metrics"]["write_reduction"][
        "value"] -= 0.01


def _halve_seconds(record):
    record["seconds"] /= 2


@pytest.mark.parametrize(
    "change", [_fail_one_op, _lower_write_reduction, _halve_seconds]
)
def test_compare_flags_a_disagreement(quick, tmp_path, change):
    out, record, _ = quick
    changed = json.loads(json.dumps(record))
    change(changed)
    other = tmp_path / "changed.json"
    other.write_text(json.dumps(changed))
    done = _run("--compare", str(out), str(other))
    assert done.returncode == 1, done.stdout


def test_fails_without_printing_a_result_when_the_program_is_missing(
    tmp_path,
):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(
            ROOT / path, tmp_path / path,
            ignore=shutil.ignore_patterns("__pycache__", "out"),
        )
    done = _run("--seed", "0", "--quick", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_self_times_tile_the_covered_time():
    ledger = Ledger()
    with ledger.step("outer"):
        with ledger.step("inner"):
            time.sleep(0.01)
        with ledger.step("outer"):  # nested in its own family: untimed
            time.sleep(0.01)
    outer, inner = ledger.family("outer"), ledger.family("inner")
    assert outer.calls == 1 and inner.calls == 1
    assert outer.self_s + inner.self_s == pytest.approx(ledger.covered)
    assert outer.inclusive == pytest.approx(ledger.covered)
    assert outer.self_s >= 0.01
