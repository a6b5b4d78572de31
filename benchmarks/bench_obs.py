"""Instrumentation-overhead bench: disabled paths must cost (almost) nothing.

Usage::

    PYTHONPATH=src python benchmarks/bench_obs.py
    PYTHONPATH=src python benchmarks/bench_obs.py --n 8192 --repeats 7 \
        --out BENCH_obs.json

Times the LSD block path on approximate memory three ways:

* ``null``      — the shipped default: NullTracer, every guard site pays
  one ``tracer.enabled`` attribute check.
* ``active``    — a real file tracer (per-pass spans + stage events written
  as JSONL), bounding the cost of running with ``--trace``.
* ``sanitized`` — the array wrapped in the :mod:`repro.verify` shadow
  sanitizer, bounding the cost of running with ``--sanitize`` /
  ``REPRO_SANITIZE=1`` (documented in docs/verifying.md).
* the disabled guards themselves, timed in tight loops, from which the
  *estimated* disabled overheads are ``guard_cost x sites / null_time``.
  The tracer's guard is ``tracer.enabled`` on every span site; the
  sanitizer's gate is the ``sanitizing()`` environment check, which runs
  only at array-allocation sites (a handful per pipeline run) — when it
  is off, arrays are simply never wrapped, so access paths carry zero
  added work by construction.

Appends one record (``schema`` 4) to a JSON array file (default
``BENCH_obs.json`` at the repo root, same append-style as
``BENCH_runner.json``) and exits non-zero if either estimated disabled
overhead is not < 2%: the acceptance guard that instrumentation stays free
when off.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.memory.config import MLCParams
from repro.memory.factories import PCMMemoryFactory
from repro.memory.stats import MemoryStats
from repro.obs import NULL_TRACER, Tracer, close_tracer, set_tracer
from repro.sorting.registry import make_sorter
from repro.verify import sanitize, sanitizing
from repro.workloads.generators import uniform_keys

FIT = 20_000

#: Record schema: 1 = tracer lanes only, 2 = + sanitizer lanes, 3 = +
#: metrics lanes, 4 = metrics lanes removed with the registry (this file).
BENCH_OBS_SCHEMA = 4

#: Sanitizer gate evaluations per approx-refine run: one per array
#: allocation site (Key0, ID, Key~, finalKey, finalID, two REM-sort
#: shadows) — the only work the disabled sanitizer ever does.
SANITIZE_GATE_SITES = 7

#: The acceptance guard: estimated disabled-tracer overhead on the LSD
#: block path must stay below this fraction.
DISABLED_OVERHEAD_LIMIT = 0.02


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


def _sort_once(memory, keys, algo: str, sanitized: bool = False) -> None:
    stats = MemoryStats()
    array = memory.make_array([0] * len(keys), stats=stats, seed=5)
    if sanitized:
        array = sanitize(array)
    array.write_block(0, keys)
    make_sorter(algo).sort(array)


def _time_sorts(
    memory, keys, algo: str, repeats: int, sanitized: bool = False
) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        _sort_once(memory, keys, algo, sanitized=sanitized)
        best = min(best, time.perf_counter() - start)
    return best


def _guard_cost_s(loops: int = 1_000_000) -> float:
    """Per-iteration cost of the ``if tracer.enabled:`` disabled guard."""
    tracer = NULL_TRACER
    hits = 0
    start = time.perf_counter()
    for _ in range(loops):
        if tracer.enabled:
            hits += 1
    elapsed = time.perf_counter() - start
    assert hits == 0
    return elapsed / loops


def _sanitize_gate_cost_s(loops: int = 100_000) -> float:
    """Per-call cost of the disabled ``sanitizing()`` environment gate."""
    hits = 0
    start = time.perf_counter()
    for _ in range(loops):
        if sanitizing():
            hits += 1
    elapsed = time.perf_counter() - start
    assert hits == 0, "run this bench with REPRO_SANITIZE unset"
    return elapsed / loops


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_obs",
        description="Measure tracing overhead on the LSD block path.",
    )
    parser.add_argument("--n", type=int, default=4_096)
    parser.add_argument("--t", type=float, default=0.055, help="MLC T window")
    parser.add_argument("--algo", default="lsd6")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--out", default="BENCH_obs.json", metavar="PATH",
        help="JSON array file to append the record to",
    )
    args = parser.parse_args(argv)

    keys = uniform_keys(args.n, seed=4)
    # Factory construction compiles/fetches the error model up front so the
    # timed region is the sort alone.
    memory = PCMMemoryFactory(MLCParams(t=args.t), fit_samples=FIT)

    close_tracer()  # defined state: the NullTracer default
    null_s = _time_sorts(memory, keys, args.algo, args.repeats)

    with tempfile.TemporaryDirectory() as tmp:
        set_tracer(Tracer(path=Path(tmp) / "bench-trace.jsonl"))
        try:
            active_s = _time_sorts(memory, keys, args.algo, args.repeats)
        finally:
            close_tracer()

    sanitized_s = _time_sorts(
        memory, keys, args.algo, args.repeats, sanitized=True
    )

    # Guard sites evaluated per traced sort: one in BaseSorter.sort plus
    # one per LSD pass (the per-pass span guard).
    sorter = make_sorter(args.algo)
    guard_sites = 1 + len(getattr(sorter, "_plan", ()))
    guard_s = _guard_cost_s()
    est_disabled_overhead = guard_sites * guard_s / null_s
    active_overhead = active_s / null_s - 1.0
    sanitize_gate_s = _sanitize_gate_cost_s()
    est_sanitize_disabled = SANITIZE_GATE_SITES * sanitize_gate_s / null_s
    sanitizer_multiplier = sanitized_s / null_s
    passed = (
        est_disabled_overhead < DISABLED_OVERHEAD_LIMIT
        and est_sanitize_disabled < DISABLED_OVERHEAD_LIMIT
    )

    record = {
        "schema": BENCH_OBS_SCHEMA,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "n": args.n,
        "T": args.t,
        "algo": args.algo,
        "repeats": args.repeats,
        "cpus": os.cpu_count(),
        "null_s": round(null_s, 6),
        "active_s": round(active_s, 6),
        "active_overhead_frac": round(active_overhead, 4),
        "sanitized_s": round(sanitized_s, 6),
        "sanitizer_multiplier": round(sanitizer_multiplier, 2),
        "guard_ns": round(guard_s * 1e9, 3),
        "guard_sites": guard_sites,
        "est_disabled_overhead_frac": round(est_disabled_overhead, 8),
        "sanitize_gate_ns": round(sanitize_gate_s * 1e9, 3),
        "sanitize_gate_sites": SANITIZE_GATE_SITES,
        "est_sanitize_disabled_overhead_frac": round(
            est_sanitize_disabled, 8
        ),
        "limit": DISABLED_OVERHEAD_LIMIT,
        "pass": passed,
    }
    path = Path(args.out)
    _append_records(path, [record])

    print(f"disabled (NullTracer): {null_s:.4f}s  best of {args.repeats}")
    print(
        f"active (file tracer):  {active_s:.4f}s"
        f"  ({active_overhead * 100:+.1f}%)"
    )
    print(
        f"sanitized (shadow):    {sanitized_s:.4f}s"
        f"  ({sanitizer_multiplier:.1f}x)"
    )
    print(
        f"guard check: {guard_s * 1e9:.1f}ns x {guard_sites} sites"
        f" -> estimated disabled overhead"
        f" {est_disabled_overhead * 100:.4f}% (limit"
        f" {DISABLED_OVERHEAD_LIMIT * 100:.0f}%)"
    )
    print(
        f"sanitize gate: {sanitize_gate_s * 1e9:.1f}ns x"
        f" {SANITIZE_GATE_SITES} sites -> estimated disabled overhead"
        f" {est_sanitize_disabled * 100:.4f}% (limit"
        f" {DISABLED_OVERHEAD_LIMIT * 100:.0f}%)"
    )
    print(f"record appended to {path}")
    if not passed:
        print("FAIL: disabled instrumentation overhead exceeds the limit")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
