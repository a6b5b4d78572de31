"""CLI of the verification subsystem: ``python -m repro.verify``.

Two subcommands:

``oracle``
    Run explicit configurations through the differential equivalence
    classes.  The CI kernel-equivalence gate is built on this::

        python -m repro.verify oracle --algorithm all --n 300

``fuzz``
    Seeded random fuzzing within a time budget, sanitizer on, failures
    shrunk and persisted as replayable files::

        python -m repro.verify fuzz --budget 60s --seed 1
        python -m repro.verify fuzz --replay .repro_fuzz/case-....json

Exit status is 0 iff every case passed (and, for fuzz, no finding was
persisted) — suitable for CI gating.
"""

from __future__ import annotations

import argparse
import sys

from repro.sorting.registry import available_sorters

from .fuzz import DEFAULT_CASE_DIR, replay, run_fuzz
from .oracle import (
    EXTRA_WORKLOADS,
    OracleCase,
    T_CHOICES,
    resolve_classes,
    run_case,
)
from .sanitizer import checks_performed


def parse_budget(text: str) -> float:
    """Parse a time budget: plain seconds, or with an ``s``/``m`` suffix."""
    value = text.strip().lower()
    scale = 1.0
    if value.endswith("m"):
        value, scale = value[:-1], 60.0
    elif value.endswith("s"):
        value = value[:-1]
    try:
        seconds = float(value) * scale
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid budget {text!r} (use e.g. '45', '60s', or '2m')"
        ) from None
    if seconds <= 0:
        raise argparse.ArgumentTypeError("budget must be positive")
    return seconds


def _algorithms(spec: str) -> list[str]:
    """argparse ``type`` for ``--algorithm``: 'all' or validated names."""
    if spec == "all":
        return available_sorters()
    names = [name.strip() for name in spec.split(",") if name.strip()]
    unknown = [name for name in names if name not in available_sorters()]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown sorter(s) {', '.join(unknown)}; available:"
            f" {', '.join(available_sorters())}"
        )
    return names


def _classes(spec: str) -> list[str]:
    """argparse ``type`` for ``--classes``: 'all' or validated names."""
    try:
        return resolve_classes(spec)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _cmd_oracle(args: argparse.Namespace) -> int:
    failures = 0
    for algorithm in args.algorithm:
        case = OracleCase(
            algorithm=algorithm, workload=args.workload, n=args.n,
            t=args.t, seed=args.seed,
        )
        result = run_case(case, classes=args.classes)
        if result.passed:
            print(f"ok   {case.describe()}  [{', '.join(result.classes_run)}]")
        else:
            failures += 1
            print(f"FAIL {case.describe()}")
            for divergence in result.divergences:
                print(f"     {divergence.describe()}")
    if failures:
        print(f"{failures} case(s) diverged")
        return 1
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    sanitized = not args.no_sanitize
    if args.replay:
        result = replay(args.replay, sanitized=sanitized)
        if result.passed:
            print(f"ok   {result.case.describe()} (replayed, no divergence)")
            return 0
        print(f"FAIL {result.case.describe()}")
        for divergence in result.divergences:
            print(f"     {divergence.describe()}")
        return 1

    stats = run_fuzz(
        budget_s=args.budget,
        seed=args.seed,
        classes=args.classes,
        max_n=args.max_n,
        algorithms=args.algorithm,
        case_dir=args.out,
        sanitized=sanitized,
        report=print,
    )
    print(
        f"fuzz: {stats.cases_run} cases ({stats.edge_cases} edge,"
        f" {stats.random_cases} random, {stats.truncated_cases} truncated)"
        f" in {stats.elapsed_s:.1f}s;"
        f" {checks_performed()} sanitizer checks;"
        f" {len(stats.findings)} finding(s)"
    )
    for finding in stats.findings:
        print(f"  finding: {finding['divergences'][0]} [{finding['file']}]")
    return 0 if stats.ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="Differential oracle and fuzzer for the reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    oracle = sub.add_parser(
        "oracle", help="run explicit cases through the equivalence classes"
    )
    oracle.add_argument(
        "--algorithm", default="all", type=_algorithms,
        help="comma-separated sorter names, or 'all' (default)",
    )
    oracle.add_argument(
        "--workload", default="uniform",
        help="workload generator name (or an oracle extra: "
             + ", ".join(EXTRA_WORKLOADS) + ")",
    )
    oracle.add_argument("--n", type=int, default=300, help="input size")
    oracle.add_argument(
        "--t", type=float, default=0.055,
        help=f"PCM target half-width T (paper sweep: {T_CHOICES})",
    )
    oracle.add_argument("--seed", type=int, default=0)
    oracle.add_argument(
        "--classes", default="all", type=_classes,
        help="'all' (default) or comma-separated class names",
    )
    oracle.set_defaults(func=_cmd_oracle)

    fuzz = sub.add_parser(
        "fuzz", help="seeded random fuzzing within a time budget"
    )
    fuzz.add_argument(
        "--budget", type=parse_budget, default=30.0,
        help="time budget, e.g. '45', '60s', '2m' (default 30s)",
    )
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument(
        "--classes", default="all", type=_classes,
        help="equivalence classes to fuzz: 'all' (default) or"
             " comma-separated class names",
    )
    fuzz.add_argument("--max-n", type=int, default=400)
    fuzz.add_argument(
        "--algorithm", default="all", type=_algorithms,
        help="comma-separated sorter names to draw from, or 'all'",
    )
    fuzz.add_argument(
        "--out", default=DEFAULT_CASE_DIR,
        help=f"directory for failing-case files (default {DEFAULT_CASE_DIR})",
    )
    fuzz.add_argument(
        "--replay", metavar="FILE",
        help="re-run one persisted case file instead of fuzzing",
    )
    fuzz.add_argument(
        "--no-sanitize", action="store_true",
        help="run cases without the runtime sanitizer",
    )
    fuzz.set_defaults(func=_cmd_fuzz)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
