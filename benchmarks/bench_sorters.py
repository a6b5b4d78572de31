"""End-to-end sorter wall-clock on the default (numpy) kernel path.

Usage::

    PYTHONPATH=src python benchmarks/bench_sorters.py
    PYTHONPATH=src python benchmarks/bench_sorters.py --n 100000 \
        --algos mergesort,lsd6 --out BENCH_sorters.json

Times two public calls for each algorithm: the full approx-refine
pipeline (approx-stage sort + Rem measurement + refine), and the precise
baseline ``run_precise_baseline``.  Each call's output must be exactly
``sorted(keys)``.  Each call is timed ``--repeats`` times (default 5: one
timing moves with the speed of a shared host).  One record per (algo,
call) measurement is appended to a JSON array file (default
``BENCH_sorters.json`` at the repo root), in the same append-style format
as ``BENCH_runner.json``::

    {"schema": 1, "timestamp": ..., "n": ..., "T": ..., "algo": ...,
     "kernels": ..., "seconds": ..., "median_s": ..., "max_s": ...,
     "repeats": ..., "rem_tilde": ..., "cpus": ...}

``seconds`` is the best (minimum) of the repeats, as in the records made
before ``median_s``, ``max_s`` and ``repeats`` were added.  A
precise-baseline record adds ``"mode": "precise"``, with ``"T": null`` and
``"rem_tilde": null``.  ``"kernels"`` is always ``"numpy"``, the one
default path; the scalar reference path, which gives the same results, is
timed per hot path by ``bench_micro_hotpaths.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_sorters",
        description="Time approx-refine and the precise baseline end to"
        " end on the default kernel path.",
    )
    parser.add_argument("--n", type=int, default=100_000)
    parser.add_argument("--t", type=float, default=0.055, help="MLC T window")
    parser.add_argument(
        "--algos", default="mergesort,lsd6",
        help="comma-separated registry names",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed calls per measurement")
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
    expected = np.sort(keys)

    def approx_refine(algo: str):
        return run_approx_refine(keys, algo, memory, seed=args.seed)

    def precise(algo: str):
        return run_precise_baseline(keys, algo)

    calls = (("approx_refine", approx_refine), ("precise", precise))
    records: list[dict] = []
    for algo in algos:
        for mode, call in calls:
            times = []
            rem_tilde = None
            for _ in range(max(1, args.repeats)):
                start = time.perf_counter()
                result = call(algo)
                times.append(time.perf_counter() - start)
                rem_tilde = getattr(result, "rem_tilde", None)
                assert np.array_equal(result.final_keys, expected)
            best, median = min(times), statistics.median(times)
            record = {
                "schema": 1,
                "timestamp": datetime.now(timezone.utc).isoformat(
                    timespec="seconds"
                ),
                "n": args.n,
                "T": args.t if mode == "approx_refine" else None,
                "algo": algo,
                "kernels": "numpy",
                "seconds": round(best, 3),
                "median_s": round(median, 3),
                "max_s": round(max(times), 3),
                "repeats": len(times),
                "rem_tilde": rem_tilde,
                "cpus": os.cpu_count(),
            }
            if mode == "precise":
                record["mode"] = mode
            records.append(record)
            print(f"{algo:>12s}  {mode:>13s}  {best:8.3f}s"
                  f"  (median {median:.3f}s, max {max(times):.3f}s,"
                  f" rem~ {rem_tilde})")

    path = Path(args.out)
    _append_records(path, records)
    print(f"\n{len(records)} records appended to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
