"""End-to-end approx-refine wall-clock: scalar vs numpy kernels.

Usage::

    PYTHONPATH=src python benchmarks/bench_sorters.py
    PYTHONPATH=src python benchmarks/bench_sorters.py --n 100000 \
        --algos mergesort,lsd6 --out BENCH_sorters.json
    PYTHONPATH=src python benchmarks/bench_sorters.py --batch-sweep

Runs the full approx-refine pipeline (approx-stage sort + Rem measurement
+ refine) for each algorithm under both kernel modes and appends one
record per (algo, kernels) measurement to a JSON array file (default
``BENCH_sorters.json`` at the repo root), in the same append-style format
as ``BENCH_runner.json``::

    {"schema": 1, "timestamp": ..., "n": ..., "T": ..., "algo": ...,
     "kernels": ..., "seconds": ..., "rem_tilde": ...}

The printed table reports the scalar/numpy speedup per algorithm — the
PR-acceptance target is >= 5x for mergesort and lsd6 at n = 1e5.

``--batch-sweep`` instead times many *small* jobs (default 256 jobs of
n = 2048) looped vs batched through :mod:`repro.batch`, asserting per-job
result equality, and appends batch records carrying ``batch_jobs`` and
``speedup_vs_loop``.  The precise scalar lane is where coalescing pays
(one packed row sort replaces per-job passes); under numpy kernels each
looped precise sort already fuses into one stable sort, so only per-job
dispatch is left to save.  The approx lane is bounded by per-job corruption
draws.  Every lane is reported, including the ones near 1x.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.batch import BatchJob, run_batch
from repro.core.approx_refine import run_approx_refine, run_precise_baseline
from repro.memory.config import MLCParams
from repro.memory.factories import PCMMemoryFactory
from repro.workloads.generators import make_keys

FIT = 20_000


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


def _assert_jobs_equal(looped: list, batched: list) -> None:
    for lhs, rhs in zip(looped, batched):
        assert lhs.final_keys == rhs.final_keys
        assert lhs.final_ids == rhs.final_ids
        assert lhs.stats.as_dict() == rhs.stats.as_dict()


def batch_sweep(args, memory) -> list[dict]:
    """Time ``batch_jobs`` small jobs looped vs batched; return records."""
    jobs, n = args.batch_jobs, args.batch_n
    keys_list = [make_keys("uniform", n, seed=args.seed + i) for i in range(jobs)]
    algos = [name.strip() for name in args.algos.split(",") if name.strip()]
    lanes = [("precise", "scalar"), ("precise", "numpy"), ("approx", "numpy")]
    records: list[dict] = []
    print(f"{'algo':>12s}  {'lane':>7s}  {'kernels':>7s}  {'loop':>9s}"
          f"  {'batch':>9s}  {'speedup':>8s}")
    for algo in algos:
        for lane, kernels in lanes:
            loop_best = batch_best = float("inf")
            for _ in range(max(1, args.repeats)):
                start = time.perf_counter()
                if lane == "precise":
                    looped = [
                        run_precise_baseline(keys, algo, kernels=kernels)
                        for keys in keys_list
                    ]
                else:
                    looped = [
                        run_approx_refine(
                            keys, algo, memory, seed=args.seed + i,
                            kernels=kernels,
                        )
                        for i, keys in enumerate(keys_list)
                    ]
                loop_best = min(loop_best, time.perf_counter() - start)
                batch_jobs = [
                    BatchJob(
                        keys=keys, sorter=algo,
                        memory=None if lane == "precise" else memory,
                        seed=args.seed + i, kernels=kernels,
                    )
                    for i, keys in enumerate(keys_list)
                ]
                start = time.perf_counter()
                batched = run_batch(batch_jobs)
                batch_best = min(batch_best, time.perf_counter() - start)
                _assert_jobs_equal(looped, batched)
            speedup = loop_best / batch_best
            records.append({
                "schema": 1,
                "timestamp": datetime.now(timezone.utc).isoformat(
                    timespec="seconds"
                ),
                "n": n,
                "T": args.t if lane == "approx" else None,
                "algo": algo,
                "kernels": kernels,
                "mode": f"batch_{lane}",
                "batch_jobs": jobs,
                "loop_seconds": round(loop_best, 4),
                "seconds": round(batch_best, 4),
                "speedup_vs_loop": round(speedup, 2),
            })
            print(f"{algo:>12s}  {lane:>7s}  {kernels:>7s}  {loop_best:8.3f}s"
                  f"  {batch_best:8.3f}s  {speedup:7.2f}x")
    return records


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_sorters",
        description="Time approx-refine end to end, scalar vs numpy kernels.",
    )
    parser.add_argument("--n", type=int, default=100_000)
    parser.add_argument("--t", type=float, default=0.055, help="MLC T window")
    parser.add_argument(
        "--algos", default="mergesort,lsd6",
        help="comma-separated registry names",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument(
        "--out", default="BENCH_sorters.json", metavar="PATH",
        help="JSON array file to append records to",
    )
    parser.add_argument(
        "--batch-sweep", action="store_true",
        help="time many small jobs looped vs batched instead of one large n",
    )
    parser.add_argument("--batch-jobs", type=int, default=256)
    parser.add_argument("--batch-n", type=int, default=2048)
    args = parser.parse_args(argv)

    # Constructing the factory compiles (or fetches) the error model, so
    # the timed regions below measure the pipeline alone.
    memory = PCMMemoryFactory(MLCParams(t=args.t), fit_samples=FIT)

    if args.batch_sweep:
        records = batch_sweep(args, memory)
        path = Path(args.out)
        _append_records(path, records)
        print(f"\n{len(records)} records appended to {path}")
        return 0

    algos = [name.strip() for name in args.algos.split(",") if name.strip()]
    keys = make_keys("uniform", args.n, seed=args.seed)

    records: list[dict] = []
    seconds: dict[tuple[str, str], float] = {}
    for algo in algos:
        for kernels in ("scalar", "numpy"):
            best = float("inf")
            rem_tilde = None
            for _ in range(max(1, args.repeats)):
                start = time.perf_counter()
                result = run_approx_refine(
                    keys, algo, memory, seed=args.seed, kernels=kernels
                )
                elapsed = time.perf_counter() - start
                best = min(best, elapsed)
                rem_tilde = result.rem_tilde
                assert result.final_keys == sorted(keys)
            seconds[(algo, kernels)] = best
            records.append({
                "schema": 1,
                "timestamp": datetime.now(timezone.utc).isoformat(
                    timespec="seconds"
                ),
                "n": args.n,
                "T": args.t,
                "algo": algo,
                "kernels": kernels,
                "seconds": round(best, 3),
                "rem_tilde": rem_tilde,
            })
            print(f"{algo:>12s}  {kernels:>6s}  {best:8.3f}s"
                  f"  (rem~ {rem_tilde})")

    print()
    print(f"{'algo':>12s}  {'scalar':>9s}  {'numpy':>9s}  {'speedup':>8s}")
    for algo in algos:
        s = seconds[(algo, "scalar")]
        v = seconds[(algo, "numpy")]
        print(f"{algo:>12s}  {s:8.3f}s  {v:8.3f}s  {s / v:7.1f}x")

    path = Path(args.out)
    _append_records(path, records)
    print(f"\n{len(records)} records appended to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
