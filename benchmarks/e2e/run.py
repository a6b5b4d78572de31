"""End-to-end benchmark of the approx-refine reproduction.

Run from the root of the repository::

    python benchmarks/e2e/run.py --seed 0                   # all four workloads
    python benchmarks/e2e/run.py --seed 0 --workload approx_lsd6 --trace
    python benchmarks/e2e/run.py --seed 0 --quick --trace   # self-test scale
    python benchmarks/e2e/run.py --compare A.json B.json
    python benchmarks/e2e/run.py --compare runs-a/ runs-b/  # medians of sets

Each workload runs in a fresh process of its own, one after another, from an
environment with every ``REPRO_*`` variable removed (see ``suite.py`` for
what one workload process does).  The driver prints every metric by name
with its unit, writes one schema-stamped JSON record (``--out``), and prints
as its last line one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the ``end_to_end`` metrics of ``BENCHMARK.json``,
or with ``--trace`` its ``per_layer`` metrics.  It exits 1 when any op
failed, and 2 without printing a result when a workload could not run.

``--compare`` reports, per (metric, workload), whether two records, or the
medians of two directories of records, agree within the bounds of
``BENCHMARK.json`` (and the absolute bounds of
:data:`ABSOLUTE_BOUNDS`), whether failed ops rose, and whether their
determinism digests are equal.  It exits 1 on any disagreement, and when the
records were made with different ``--seconds``, ``--trace`` or ``--quick``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: Version of the record layout written by this driver.
SCHEMA = 1
#: A workload process that has not finished by then is killed.
CHILD_TIMEOUT_S = 170
#: Environment of every workload process, on top of the inherited one with
#: all ``REPRO_*`` variables removed: a cold, deterministic model
#: characterisation and single-threaded numerical libraries.
CHILD_ENV = {
    "REPRO_MODEL_CACHE_DIR": "off",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv, spec: dict) -> argparse.Namespace:
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the inputs and corruption streams")
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    # The benchmark contract passes both as ``--seconds <run_seconds>
    # --trace <0|1>``; a bare ``--trace`` means ``--trace 1``.
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="untraced measuring time per workload"
                             " (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="also replay the ops under the layer timers")
    parser.add_argument("--quick", action="store_true",
                        help="inputs 64x smaller and 3 ops per phase")
    parser.add_argument("--out", type=Path,
                        help="record path (default: benchmarks/e2e/out/)")
    parser.add_argument("--compare", nargs=2, type=Path, metavar="RECORD",
                        help="compare two records, or two directories of"
                             " records by their medians, instead of running")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------- #
# Workload processes
# ---------------------------------------------------------------------- #


def child_main(args: argparse.Namespace) -> int:
    """Inside one workload process: run it, print its record as JSON."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import suite

    imports_s = time.perf_counter() - t0
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"error: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    record = suite.run_workload(
        args.workload[0], args.seed, args.seconds, bool(args.trace),
        args.quick, imports_s,
    )
    print(json.dumps(record))
    return 0


def _end_group(pgid: int) -> None:
    """Kill whatever is left of a workload's process group and wait, for at
    most a few seconds, until the group is empty."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_child(name: str, args: argparse.Namespace) -> "dict | None":
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(CHILD_ENV)
    command = [
        sys.executable, str(HERE / "run.py"), "--child",
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ] + (["--trace"] if args.trace else []) + (
        ["--quick"] if args.quick else []
    )
    proc = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    out = ""
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload {name} ran over {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
    finally:
        _end_group(proc.pid)
        proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: workload {name} exited with {proc.returncode}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def provenance() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            )
            commit = done.stdout.strip() if done.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    return {
        "git_commit": commit,
        "cpu_count": os.cpu_count(),
        "affinity_cpus": affinity,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "platform": platform.platform(),
    }


def run(args: argparse.Namespace, spec: dict) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    names = args.workload or [w["name"] for w in spec["workloads"]]
    workloads = {}
    for name in names:
        print(f"running {name} ...", file=sys.stderr, flush=True)
        record = run_child(name, args)
        if record is None:
            return 2
        workloads[name] = record

    record = {
        "schema": SCHEMA,
        "kind": "e2e",
        "provenance": provenance(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "quick": args.quick,
        "workloads": workloads,
    }
    out = args.out or HERE / "out" / (
        f"seed{args.seed}" + ("-trace" if args.trace else "")
        + ("-quick" if args.quick else "") + ".json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=2) + "\n")

    for name, w in workloads.items():
        print(
            f"== {name}: n={w['n']}, {w['samples']} timed ops"
            f" ({w['cycle_ops']} per cycle, kernels={w['kernels']},"
            f" pooled={w['engaged']['pooled']}), {w['traced_ops']} traced,"
            f" {w['failed']}/{w['attempted']} failed"
        )
        for metric, m in w["metrics"].items():
            print(f"  {metric:30s} {m['value']:>14.6g} {m['unit']}")
    print(f"record: {out}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for name, w in workloads.items():
        prefix = "" if len(workloads) == 1 else f"{name}."
        for m in wanted:
            if m["name"] in w["metrics"]:
                metrics[prefix + m["name"]] = w["metrics"][m["name"]]
    failed = sum(w["failed"] for w in workloads.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(w["attempted"] for w in workloads.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 1 if failed else 0


# ---------------------------------------------------------------------- #
# Compare
# ---------------------------------------------------------------------- #


#: Record fields two compared records must share: otherwise their metrics
#: measure different things.
SAME_SETTINGS = ("seconds", "trace", "quick")
#: Absolute bounds ``--compare`` checks on top of the relative ones of
#: ``BENCHMARK.json``, for the two metrics whose natural value can be 0 or
#: negative: metric -> (better, bound, per-workload bounds).
ABSOLUTE_BOUNDS = {
    "write_reduction": ("higher", 0.005, {"fig09_grid": 0.01}),
    "fail_frac": ("lower", 0.0, {}),
}


def _checks(spec: dict, workload: str):
    """``(metric, better, bound, relative)`` of every metric check."""
    for m in spec["end_to_end"]:
        yield m["name"], m["better"], m["bound"], True
    for name, (better, bound, by_workload) in ABSOLUTE_BOUNDS.items():
        yield name, better, by_workload.get(workload, bound), False


def load_records(path: Path) -> "list[dict]":
    """The record at ``path``, or every ``*.json`` record in a directory."""
    paths = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(p.read_text()) for p in paths]


def _median(records: "list[dict]", workload: str, metric: str):
    values = [
        r["workloads"][workload]["metrics"][metric]["value"] for r in records
        if metric in r["workloads"][workload]["metrics"]
    ]
    return statistics.median(values) if values else None


def compare(path_a: Path, path_b: Path, spec: dict) -> int:
    """Compare two records, or two sets of records by their medians."""
    a, b = load_records(path_a), load_records(path_b)
    if not a or not b:
        print("error: no record to compare", file=sys.stderr)
        return 2
    disagreements = 0
    for key in SAME_SETTINGS:
        values = {json.dumps(r[key]) for r in a + b}
        if len(values) > 1:
            print(f"records differ in {key}: {', '.join(sorted(values))}")
            disagreements += 1
    common = [
        name for name in a[0]["workloads"]
        if all(name in r["workloads"] for r in a + b)
    ]
    if not common:
        print("error: the records share no workload", file=sys.stderr)
        return 2
    for name in common:
        for metric, better, bound, relative in _checks(spec, name):
            x, y = _median(a, name, metric), _median(b, name, metric)
            if x is None or y is None:
                continue
            if not relative:
                change = y - x
                shown = f"{change:+8.4f} (bound {bound:.3f} abs)"
            else:
                if x:
                    change = (y - x) / abs(x)
                else:
                    change = 0.0 if y == x else float("inf")
                shown = f"{change:+8.2%} (bound {bound:.1%})"
            agree = abs(change) <= bound
            worse = change < 0 if better == "higher" else change > 0
            verdict = "agree" if agree else ("WORSE" if worse else "BETTER")
            print(f"{name:20s} {metric:15s} {x:>12.6g} -> {y:<12.6g}"
                  f" {shown} {verdict}")
            disagreements += not agree
        x = max(r["workloads"][name]["failed"] for r in a)
        y = max(r["workloads"][name]["failed"] for r in b)
        print(f"{name:20s} failed ops {x} -> {y}"
              f" {'WORSE' if y > x else 'agree'}")
        disagreements += y > x
        same = len({r["workloads"][name]["digest"] for r in a + b}) == 1
        print(f"{name:20s} digest {'equal' if same else 'DIFFERENT'}")
        disagreements += not same
    return 1 if disagreements else 0


def main(argv=None) -> int:
    spec = load_spec()
    args = parse_args(argv, spec)
    if args.compare:
        return compare(*args.compare, spec)
    if args.child:
        return child_main(args)
    return run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
