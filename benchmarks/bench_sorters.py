"""End-to-end approx-refine wall-clock: scalar vs numpy kernels.

Usage::

    PYTHONPATH=src python benchmarks/bench_sorters.py
    PYTHONPATH=src python benchmarks/bench_sorters.py --n 100000 \
        --algos mergesort,lsd6 --out BENCH_sorters.json

Runs the full approx-refine pipeline (approx-stage sort + Rem measurement
+ refine) for each algorithm under both kernel modes and appends one
record per (algo, kernels) measurement to a JSON array file (default
``BENCH_sorters.json`` at the repo root), in the same append-style format
as ``BENCH_runner.json``::

    {"schema": 1, "timestamp": ..., "n": ..., "T": ..., "algo": ...,
     "kernels": ..., "seconds": ..., "rem_tilde": ...}

The printed table reports the scalar/numpy speedup per algorithm — the
PR-acceptance target is >= 5x for mergesort and lsd6 at n = 1e5.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.approx_refine import run_approx_refine
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
    args = parser.parse_args(argv)

    # Constructing the factory compiles (or fetches) the error model, so
    # the timed regions below measure the pipeline alone.
    memory = PCMMemoryFactory(MLCParams(t=args.t), fit_samples=FIT)

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
