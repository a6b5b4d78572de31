"""Sharded-sorting scaling bench (DESIGN.md section 12, docs/scaling.md).

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel_scaling.py
    PYTHONPATH=src python benchmarks/bench_parallel_scaling.py --quick
    PYTHONPATH=src python benchmarks/bench_parallel_scaling.py \
        --n 1000000 --shards 4

Two parts, appended as records to ``BENCH_parallel.json`` at the repo
root (same append-style array as ``BENCH_runner.json``):

1. **Precise-kernel scaling** (``part = "precise_kernels"``): sort n
   uniform keys on precise memory with the serial numpy kernels vs a
   :class:`ShardedSorter` at ``--shards`` shards.  Serial and per-shard
   sorts take the same fused precise path of ``BaseSorter.sort``, so the
   speedup is what sharding itself buys; ``speedup_source`` records whether
   the shard sorts ran pooled or in-process and how many CPUs the process
   could use.  Guards: the sharded output must equal the serial output
   bit-for-bit, and a pooled (2-worker) run must equal the in-process run
   in output *and* stats — the bench fails hard on either mismatch.

2. **Approximate-lane agreement** (``part = "approx_gate"``): ext_variance's
   sweet-spot cell (n = 8,000, T = 0.055, seven corruption seeds) for its
   five sorters, serial and at 2 and 4 shards, measured as ext_variance
   measures it except that each side's precise baseline runs through that
   side's sorter.  Each record carries serial and sharded mean/min/max of
   write reduction and Rem~, and ``within_serial_range``: whether both
   sharded means lie inside serial's [min, max].  It records; it does not
   fail the bench.  ``--quick`` runs only lsd6 at 2 shards.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.approx_refine import run_approx_refine, run_precise_baseline
from repro.memory.approx_array import PreciseArray
from repro.memory.config import MLCParams
from repro.memory.factories import PCMMemoryFactory
from repro.memory.stats import MemoryStats, write_reduction
from repro.parallel.pool import usable_cpus
from repro.parallel.sharded import ShardedSorter
from repro.sorting.registry import make_sorter
from repro.workloads.generators import uniform_keys

#: Monte-Carlo fit size for the gate's memory model.
FIT = 20_000

SWEET_SPOT_T = 0.055

#: ext_variance's sorters, default-scale n and corruption seeds.
GATE_ALGOS = ("lsd3", "lsd6", "msd3", "quicksort", "mergesort")
GATE_N = 8_000
GATE_SEEDS = tuple(1000 * (repeat + 1) for repeat in range(7))


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
        make_sorter(algo, kernels="numpy"), keys
    )
    sharded = ShardedSorter(make_sorter(algo), shards=shards,
                            kernels="numpy")
    sharded_s, sharded_out, _ = _timed_sort(sharded, keys)
    plan = sharded.last_plan

    # Bit-identity guards.  The sharded plan must reproduce the serial
    # output exactly, and moving the shard sorts into pool workers must
    # change nothing observable (output or stats).
    digest_serial = _digest(serial_out)
    digest_sharded = _digest(sharded_out)
    _, local_out, local_stats = _timed_sort(
        ShardedSorter(make_sorter(algo), shards=shards, workers=0,
                      kernels="numpy"),
        keys,
    )
    _, pooled_out, pooled_stats = _timed_sort(
        ShardedSorter(make_sorter(algo), shards=shards, workers=2,
                      kernels="numpy"),
        keys,
    )
    pooled_matches = pooled_out == local_out and pooled_stats == local_stats

    speedup = serial_s / sharded_s if sharded_s else float("inf")
    cpus = usable_cpus()
    ran = (
        f"pooled shard sorts ({plan['workers']} workers)"
        if plan["pooled"]
        else "in-process shard sorts"
    )
    record = {
        "schema": 1,
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


def _gate_cells(keys, memory, build) -> "tuple[list, list, float]":
    """Write reductions, Rem~s and seconds over the gate's seeds, with
    ``build()`` as the sorter of the precise baseline and of every cell,
    under numpy kernels."""
    start = time.perf_counter()
    baseline = run_precise_baseline(keys, build(), kernels="numpy").total_units
    reductions, rems = [], []
    for cell_seed in GATE_SEEDS:
        result = run_approx_refine(
            keys, build(), memory, seed=cell_seed, kernels="numpy"
        )
        reductions.append(write_reduction(baseline, result.total_units))
        rems.append(result.rem_tilde)
    return reductions, rems, time.perf_counter() - start


def _spread(prefix: str, values: list) -> dict:
    return {
        f"{prefix}_mean": sum(values) / len(values),
        f"{prefix}_min": min(values),
        f"{prefix}_max": max(values),
    }


def bench_approx_gate(
    algos: "tuple[str, ...]", shard_counts: "tuple[int, ...]", seed: int
) -> list[dict]:
    """Sharded vs serial approx-refine on ext_variance's cell."""
    keys = uniform_keys(GATE_N, seed=seed)
    memory = PCMMemoryFactory(MLCParams(t=SWEET_SPOT_T), fit_samples=FIT)
    records = []
    for algo in algos:
        serial_wr, serial_rem, serial_s = _gate_cells(
            keys, memory, lambda: make_sorter(algo)
        )
        for shards in shard_counts:
            wr, rem, sharded_s = _gate_cells(
                keys, memory,
                lambda: ShardedSorter(make_sorter(algo), shards=shards),
            )
            wr_mean = sum(wr) / len(wr)
            rem_mean = sum(rem) / len(rem)
            within = (
                min(serial_wr) <= wr_mean <= max(serial_wr)
                and min(serial_rem) <= rem_mean <= max(serial_rem)
            )
            records.append({
                "schema": 1,
                "timestamp": datetime.now(timezone.utc).isoformat(
                    timespec="seconds"
                ),
                "part": "approx_gate",
                "algo": algo,
                "n": GATE_N,
                "T": SWEET_SPOT_T,
                "seeds": len(GATE_SEEDS),
                "shards": shards,
                "cpus": usable_cpus(),
                "kernels": "numpy",
                "serial_s": round(serial_s, 3),
                "sharded_s": round(sharded_s, 3),
                **_spread("write_reduction_serial", serial_wr),
                **_spread("write_reduction_sharded", wr),
                **_spread("rem_tilde_serial", serial_rem),
                **_spread("rem_tilde_sharded", rem),
                "within_serial_range": within,
            })
            print(
                f"[gate] {algo:10s} shards={shards}: write reduction"
                f" {wr_mean:+.4f} vs serial [{min(serial_wr):+.4f},"
                f" {max(serial_wr):+.4f}], Rem~ {rem_mean:.1f} vs serial"
                f" [{min(serial_rem)}, {max(serial_rem)}]"
                f" -> within_serial_range={within}"
            )
    return records


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_parallel_scaling",
        description="Time serial vs sharded sorting; guard bit-identity.",
    )
    parser.add_argument("--n", type=int, default=1_000_000,
                        help="keys for the precise-kernel part")
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--algos", default="mergesort,lsd6")
    parser.add_argument(
        "--quick", action="store_true",
        help="CI lane: small n, guards on, gate on lsd6 at 2 shards only",
    )
    parser.add_argument("--out", default="BENCH_parallel.json")
    args = parser.parse_args(argv)

    if args.quick:
        args.n = min(args.n, 200_000)

    records = [
        bench_precise(algo, args.n, args.shards, args.seed)
        for algo in args.algos.split(",")
    ]
    failures = [
        record["algo"]
        for record in records
        if not (record["digests_match"] and record["pooled_matches_inprocess"])
    ]
    if args.quick:
        records += bench_approx_gate(("lsd6",), (2,), args.seed)
    else:
        records += bench_approx_gate(GATE_ALGOS, (2, 4), args.seed)

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
