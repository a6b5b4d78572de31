"""Sharded-sorting scaling bench (DESIGN.md section 12, docs/scaling.md).

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel_scaling.py
    PYTHONPATH=src python benchmarks/bench_parallel_scaling.py --quick
    PYTHONPATH=src python benchmarks/bench_parallel_scaling.py \
        --n 1000000 --shards 4 --skip-paper-row

Two parts, appended as records to ``BENCH_parallel.json`` at the repo root
(same append-style array as ``BENCH_runner.json``):

1. **Precise-kernel scaling** (``part = "precise_kernels"``): sort n
   uniform keys on precise memory with the serial numpy kernels vs a
   :class:`ShardedSorter` at ``--shards`` shards.  Serial and per-shard
   sorts take the same fused precise path of ``BaseSorter.sort``, so the
   speedup is what sharding itself buys; ``speedup_source`` records whether
   the shard sorts ran pooled or in-process and how many CPUs the process
   could use.  Guards: the sharded output must equal the serial output
   bit-for-bit, and a pooled (2-worker) run must equal the in-process run
   in output *and* stats — the bench fails hard on either mismatch.

2. **fig09 paper-scale row** (``part = "fig09_paper"``): the paper's own
   configuration — n = 16M uniform keys, T = 0.055, lsd6 — through the
   real ``fig09`` cell function, serial vs ``REPRO_SHARDS``-sharded, with
   wall-clock and scaling-efficiency columns.  ``--quick`` (the CI lane)
   skips this part; ``--paper-n`` shrinks it for rehearsals.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.memory.approx_array import PreciseArray
from repro.memory.stats import MemoryStats
from repro.parallel.sharded import ShardedSorter
from repro.sorting.registry import SHARDS_ENV, make_base_sorter
from repro.workloads.generators import uniform_keys

#: Monte-Carlo fit size for the paper-row memory model.
FIT = 20_000

SWEET_SPOT_T = 0.055


def _usable_cpus() -> int:
    """CPUs this process may run on (not the host's total)."""
    return len(os.sched_getaffinity(0))


def _append_records(path: Path, records: list[dict]) -> None:
    existing = []
    if path.exists():
        try:
            existing = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError):
            existing = []
        if not isinstance(existing, list):
            existing = [existing]
    existing.extend(records)
    path.write_text(json.dumps(existing, indent=2) + "\n")


def _digest(values) -> str:
    h = hashlib.sha256()
    for value in values:
        h.update(int(value).to_bytes(4, "little"))
    return h.hexdigest()[:16]


def _timed_sort(sorter, keys: list[int]) -> "tuple[float, list, dict]":
    stats = MemoryStats()
    array = PreciseArray(keys, stats=stats)
    start = time.perf_counter()
    sorter.sort(array)
    elapsed = time.perf_counter() - start
    return elapsed, array.peek_block_np(0, len(array)).tolist(), stats.as_dict()


def bench_precise(algo: str, n: int, shards: int, seed: int) -> dict:
    """Serial numpy kernels vs sharded execution on precise memory."""
    keys = uniform_keys(n, seed=seed)

    serial_s, serial_out, _ = _timed_sort(
        make_base_sorter(algo, kernels="numpy"), keys
    )
    sharded = ShardedSorter(make_base_sorter(algo), shards=shards,
                            kernels="numpy")
    sharded_s, sharded_out, _ = _timed_sort(sharded, keys)
    plan = sharded.last_plan

    # Bit-identity guards.  The sharded plan must reproduce the serial
    # output exactly, and moving the shard sorts into pool workers must
    # change nothing observable (output or stats).
    digest_serial = _digest(serial_out)
    digest_sharded = _digest(sharded_out)
    _, local_out, local_stats = _timed_sort(
        ShardedSorter(make_base_sorter(algo), shards=shards, workers=0,
                      kernels="numpy"),
        keys,
    )
    _, pooled_out, pooled_stats = _timed_sort(
        ShardedSorter(make_base_sorter(algo), shards=shards, workers=2,
                      kernels="numpy"),
        keys,
    )
    pooled_matches = pooled_out == local_out and pooled_stats == local_stats

    speedup = serial_s / sharded_s if sharded_s else float("inf")
    cpus = _usable_cpus()
    ran = (
        f"pooled shard sorts ({plan['workers']} workers)"
        if plan["pooled"]
        else "in-process shard sorts"
    )
    record = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "part": "precise_kernels",
        "algo": algo,
        "n": n,
        "shards": shards,
        "cpus": cpus,
        "serial_s": round(serial_s, 3),
        "sharded_s": round(sharded_s, 3),
        "speedup": round(speedup, 3),
        "scaling_efficiency": round(speedup / shards, 3),
        "speedup_source": f"{ran} on {cpus} usable CPUs",
        "digest_serial": digest_serial,
        "digest_sharded": digest_sharded,
        "digests_match": digest_serial == digest_sharded,
        "pooled_matches_inprocess": pooled_matches,
    }
    print(
        f"[precise] {algo:10s} n={n}: serial {serial_s:.2f}s,"
        f" sharded({shards}) {sharded_s:.2f}s, speedup {speedup:.2f}x"
        f" ({record['speedup_source']}),"
        f" digests_match={record['digests_match']},"
        f" pooled==inprocess={pooled_matches}"
    )
    return record


def bench_fig09_row(n: int, shards: int, seed: int) -> dict:
    """The paper-scale fig09 cell (T = 0.055, lsd6), serial vs sharded."""
    from repro.core.approx_refine import run_precise_baseline
    from repro.experiments.fig09_write_reduction_t import _cell

    algo = "lsd6"
    os.environ["REPRO_KERNELS"] = "numpy"
    keys = uniform_keys(n, seed=seed)
    print(f"[fig09] n={n}: precise baseline ({algo})...", flush=True)
    baseline = run_precise_baseline(keys, algo)
    cell_args = (SWEET_SPOT_T, algo, n, seed, FIT, baseline.total_units)

    os.environ.pop(SHARDS_ENV, None)
    start = time.perf_counter()
    serial_cell = _cell(*cell_args)
    serial_s = time.perf_counter() - start
    print(f"[fig09] serial cell: {serial_s:.1f}s", flush=True)

    os.environ[SHARDS_ENV] = str(shards)
    try:
        start = time.perf_counter()
        sharded_cell = _cell(*cell_args)
        sharded_s = time.perf_counter() - start
    finally:
        os.environ.pop(SHARDS_ENV, None)
    print(f"[fig09] sharded({shards}) cell: {sharded_s:.1f}s", flush=True)

    speedup = serial_s / sharded_s if sharded_s else float("inf")
    record = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "part": "fig09_paper",
        "algo": algo,
        "n": n,
        "T": SWEET_SPOT_T,
        "shards": shards,
        "cpus": _usable_cpus(),
        "kernels": "numpy",
        "serial_wall_s": round(serial_s, 2),
        "sharded_wall_s": round(sharded_s, 2),
        "speedup": round(speedup, 3),
        "scaling_efficiency": round(speedup / shards, 3),
        "write_reduction_serial": serial_cell[0],
        "write_reduction_sharded": sharded_cell[0],
        "rem_tilde_serial": serial_cell[1],
        "rem_tilde_sharded": sharded_cell[1],
    }
    print(
        f"[fig09] write_reduction serial {serial_cell[0]:+.4f} vs"
        f" sharded {sharded_cell[0]:+.4f}; speedup {speedup:.2f}x"
    )
    return record


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_parallel_scaling",
        description="Time serial vs sharded sorting; guard bit-identity.",
    )
    parser.add_argument("--n", type=int, default=1_000_000,
                        help="keys for the precise-kernel part")
    parser.add_argument("--paper-n", type=int, default=16_000_000,
                        help="keys for the fig09 paper row")
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--algos", default="mergesort,lsd6")
    parser.add_argument("--skip-paper-row", action="store_true")
    parser.add_argument(
        "--quick", action="store_true",
        help="CI lane: small n, guards on, paper row skipped",
    )
    parser.add_argument("--out", default="BENCH_parallel.json")
    args = parser.parse_args(argv)

    if args.quick:
        args.n = min(args.n, 200_000)
        args.skip_paper_row = True

    records = [
        bench_precise(algo, args.n, args.shards, args.seed)
        for algo in args.algos.split(",")
    ]
    failures = [
        record["algo"]
        for record in records
        if not (record["digests_match"] and record["pooled_matches_inprocess"])
    ]
    if not args.skip_paper_row:
        records.append(bench_fig09_row(args.paper_n, args.shards, args.seed))

    out = Path(__file__).resolve().parent.parent / args.out
    _append_records(out, records)
    print(f"appended {len(records)} records to {out}")

    if failures:
        print(f"FAIL: bit-identity guard tripped for: {', '.join(failures)}")
        return 1
    best = max(r["speedup"] for r in records if r["part"] == "precise_kernels")
    print(f"best precise-kernel speedup at {args.shards} shards: {best:.2f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
