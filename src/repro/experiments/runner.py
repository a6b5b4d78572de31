"""Command-line experiment runner.

Usage::

    python -m repro.experiments.runner --list
    python -m repro.experiments.runner --exp fig09 --scale smoke
    python -m repro.experiments.runner --all --scale default --save --jobs 4
    python -m repro.experiments.runner --all --jobs 4 --checkpoint nightly
    python -m repro.experiments.runner --resume nightly

Each experiment prints its table; ``--save`` also writes the JSON record to
``benchmarks/results/``.

``--jobs N`` runs independent experiments in worker processes.  When a
*single* experiment is selected and it supports cell-level parallelism (see
:data:`CELL_PARALLEL`), the job count is passed down so its independent
(seed, parameter) cells fan out instead.  Tables are printed in submission
order and are bit-identical for any job count: each cell reconstructs its
inputs from primitive arguments and derives randomness only from its own
seeds, never from shared mutable state.

Resilience (DESIGN.md section 10): ``--checkpoint [RUN_ID]`` journals every
completed experiment (and every completed *cell* of a cell-parallel
experiment) under ``.repro_runs/<run-id>/``; after a crash, OOM kill or
Ctrl-C, ``--resume RUN_ID`` restores the finished results and re-fans only
the remainder, producing bit-identical tables to an uninterrupted run.
Every table is a deterministic function of its configuration and seed, so
a failed experiment is re-run by resuming, never retried in place.  When
``--jobs`` fans several experiments, each runs in its own process group
under a supervisor, so a crashed worker costs only its own experiment.  On
partial failure the runner still prints every completed table, appends a
``FAILED`` summary table, and exits with status :data:`EXIT_PARTIAL` (3) —
distinct from usage/config errors (2).  The ``REPRO_FAULT`` environment
variable injects test crashes (``crash:<exp>``).

``--bench-json [PATH]`` appends a wall-clock record (per-experiment and
total seconds, plus the scale/seed/jobs configuration and the ``numpy``
kernel path that ran) to a JSON array file, ``BENCH_runner.json`` by
default.

``--sanitize`` exports ``REPRO_SANITIZE=1`` for the whole run: the
pipelines wrap their arrays in the :mod:`repro.verify` runtime sanitizer,
which re-checks bounds, accounting conservation and corruption-modeling
invariants on every access.  Results are bit-identical to an unsanitized
run (the sanitizer is observation-only); wall-clock is several times
slower (docs/verifying.md).

``--trace [PATH]`` turns on structured tracing (DESIGN.md section 9):
every process of the run appends span/counter/gauge events to its own
per-pid JSONL file, and the runner merges them into ``PATH`` (default
``trace.jsonl``) when the run finishes.  Analyze with ``python -m
repro.obs.report PATH``: its spans section carries exact p50/p95/p99
latencies per span name (``experiment.<name>``, ``sort.<algo>``, ...).
A per-run id (``REPRO_TRACE_RUN``) is exported alongside the trace
directory and stamped into every process's ``meta`` event.
``--profile`` additionally runs each experiment
under :mod:`cProfile`, dumping ``<name>.prof`` next to the trace.
Resumes and failures are traced too: a ``run.resume`` span plus
``run.restored`` and ``run.experiment_failed`` counters.

``--quiet`` suppresses the result tables (timing lines still print);
``--heartbeat S`` prints a progress line to stderr every ``S`` seconds
(default 30, ``0`` disables), with per-cell detail while a cell-parallel
experiment fans in-process.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import signal
import sys
import time
import uuid
from dataclasses import dataclass
from datetime import datetime, timezone
from multiprocessing.connection import Connection, wait as _mp_wait
from pathlib import Path
from typing import Callable

from repro.errors import CheckpointCorruptError, ConfigError
from repro.obs import TRACE_DIR_ENV, TRACE_RUN_ENV, close_tracer, get_tracer
from repro.obs.flight import dump_flight, get_flight
from repro.obs.io import merge_traces
from repro.verify import SANITIZE_ENV

from .checkpoint import RunCheckpoint
from .common import (
    FAULT_ENV,
    ExperimentTable,
    Heartbeat,
    SCALES,
    maybe_inject_fault,
    parse_fault_spec,
    resolve_scale,
    set_current_heartbeat,
)

from . import (
    ablation_refine,
    ext_density,
    ext_distributions,
    ext_pipeline_sim,
    ext_sequential,
    ext_total_time,
    ext_variance,
    ext_write_combining,
    fig02_cell,
    fig04_sortedness,
    fig05_07_shapes,
    fig09_write_reduction_t,
    fig10_write_reduction_n,
    fig11_breakdown,
    fig12_spintronic_rem,
    fig13_spintronic_saving,
    fig14_spintronic_breakdown,
    fig15_histogram_radix,
    pcmsim_consistency,
    table3_rem,
)

#: Registry of experiment names to their run() callables: the paper's
#: tables/figures in paper order, then the extension studies.
EXPERIMENTS: dict[str, Callable[..., ExperimentTable]] = {
    "fig02": fig02_cell.run,
    "fig04": fig04_sortedness.run,
    "fig05_07": fig05_07_shapes.run,
    "table3": table3_rem.run,
    "fig09": fig09_write_reduction_t.run,
    "fig10": fig10_write_reduction_n.run,
    "fig11": fig11_breakdown.run,
    "fig12": fig12_spintronic_rem.run,
    "fig13": fig13_spintronic_saving.run,
    "fig14": fig14_spintronic_breakdown.run,
    "fig15": fig15_histogram_radix.run,
    "pcmsim": pcmsim_consistency.run,
    "ablation_refine": ablation_refine.run,
    "ext_density": ext_density.run,
    "ext_distributions": ext_distributions.run,
    "ext_pipeline_sim": ext_pipeline_sim.run,
    "ext_sequential": ext_sequential.run,
    "ext_total_time": ext_total_time.run,
    "ext_variance": ext_variance.run,
    "ext_write_combining": ext_write_combining.run,
}

#: Experiments whose ``run()`` accepts ``jobs=`` and fans its own
#: independent measurement cells across processes (and, when
#: checkpointing, journals each completed cell for resume).
CELL_PARALLEL = frozenset({"fig09", "ext_variance"})

#: Exit status when some experiments failed but the completed subset was
#: still emitted (argparse/config errors use 2, success 0).
EXIT_PARTIAL = 3

#: Exit status after Ctrl-C (the shell convention for SIGINT).
EXIT_INTERRUPTED = 130


def _run_single(
    name: str,
    scale: str | None,
    seed: int,
    jobs: int = 1,
    profile_dir: str | None = None,
    cell_journal_path: str | None = None,
) -> tuple[str, ExperimentTable, float]:
    """Run one experiment and time it (module-level so it pickles)."""
    get_flight().record("experiment_start", name, seed=seed, jobs=jobs)
    maybe_inject_fault(name)
    kwargs: dict = {}
    if jobs > 1 and name in CELL_PARALLEL:
        kwargs["jobs"] = jobs
    if cell_journal_path is not None and name in CELL_PARALLEL:
        from .checkpoint import CellJournal

        kwargs["cell_journal"] = CellJournal(cell_journal_path)
    profiler = None
    if profile_dir is not None:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    start = time.perf_counter()
    with get_tracer().span(
        f"experiment.{name}",
        attrs={"scale": resolve_scale(scale), "seed": seed, "jobs": jobs},
    ):
        table = EXPERIMENTS[name](scale=scale, seed=seed, **kwargs)
    elapsed = time.perf_counter() - start
    get_flight().record("experiment_done", name, elapsed_s=elapsed)
    if profiler is not None:
        profiler.disable()
        profiler.dump_stats(str(Path(profile_dir) / f"{name}.prof"))
    return name, table, elapsed


def _supervised_worker(
    conn: Connection,
    name: str,
    scale: str | None,
    seed: int,
    profile_dir: str | None,
    cell_journal_path: str | None,
) -> None:
    """Child-process entry: run one experiment, ship the result back.

    The child detaches into its own session (and hence process group), so
    the supervisor can kill it *and any grandchildren it forked* with one
    ``killpg``, and so a terminal Ctrl-C reaches only the supervisor,
    which shuts the children down deliberately.
    """
    try:
        os.setsid()
    except (AttributeError, OSError):  # pragma: no cover - non-POSIX
        pass
    try:
        _, table, elapsed = _run_single(
            name, scale, seed, profile_dir=profile_dir,
            cell_journal_path=cell_journal_path,
        )
    except BaseException as exc:
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass
        os._exit(1)
    conn.send(("ok", table, elapsed))
    conn.close()


class _OrderedEmitter:
    """Print/save results in submission order as they become available.

    Out-of-order completions are buffered; a failed experiment releases
    the head of the line so later tables still stream out.
    """

    def __init__(
        self,
        order: list[str],
        args: argparse.Namespace,
        timings: dict[str, float],
        heartbeat: Heartbeat,
    ) -> None:
        self.order = list(order)
        self.args = args
        self.timings = timings
        self.heartbeat = heartbeat
        self._ready: dict[str, tuple[ExperimentTable, float, bool]] = {}
        self._skipped: set[str] = set()
        self._next = 0

    def ready(
        self,
        name: str,
        table: ExperimentTable,
        elapsed: float,
        restored: bool = False,
    ) -> None:
        self._ready[name] = (table, elapsed, restored)
        self._flush()

    def failed(self, name: str) -> None:
        self._skipped.add(name)
        self._flush()

    def _flush(self) -> None:
        while self._next < len(self.order):
            name = self.order[self._next]
            if name in self._skipped:
                self._next += 1
                continue
            if name not in self._ready:
                break
            table, elapsed, restored = self._ready.pop(name)
            self._next += 1
            if not restored:
                self.timings[name] = elapsed
            self.heartbeat.advance()
            if not self.args.quiet:
                print(table.to_text())
            if restored:
                print(f"[{name} restored from checkpoint]")
            else:
                print(f"[{name} finished in {elapsed:.1f}s]")
            if not self.args.quiet:
                print()
            if self.args.save:
                path = table.save()
                print(f"saved {path}")


@dataclass
class _Job:
    """One running experiment: its worker process and result pipe."""

    name: str
    process: "multiprocessing.process.BaseProcess"
    conn: Connection


class _Supervisor:
    """Fault-isolating scheduler: one process group per experiment.

    Unlike a shared ``ProcessPoolExecutor`` — where one worker dying of a
    hard crash breaks the whole pool — every experiment here is its own
    process (in its own session), so a crash, OOM kill or injected fault
    costs exactly that experiment; it is reported and the rest of the run
    continues.
    """

    def __init__(
        self,
        pending: list[str],
        *,
        scale: str | None,
        seed: int,
        max_workers: int,
        profile_dir: str | None,
        checkpoint: RunCheckpoint | None,
        emitter: _OrderedEmitter,
    ) -> None:
        self.scale = scale
        self.seed = seed
        self.max_workers = max_workers
        self.profile_dir = profile_dir
        self.checkpoint = checkpoint
        self.emitter = emitter
        self.waiting: list[str] = list(pending)
        self.running: list[_Job] = []
        self.failures: dict[str, str] = {}
        if "fork" in multiprocessing.get_all_start_methods():
            # Fork keeps the in-memory model cache and env warm in children.
            self._ctx = multiprocessing.get_context("fork")
        else:  # pragma: no cover - non-POSIX
            self._ctx = multiprocessing.get_context()

    # ------------------------------------------------------------------ #

    def run(self) -> dict[str, str]:
        """Supervise until every experiment completed or failed."""
        try:
            while self.waiting or self.running:
                while self.waiting and len(self.running) < self.max_workers:
                    self.running.append(self._start(self.waiting.pop(0)))
                self._await_events()
        except BaseException:
            self._terminate_running()
            raise
        return self.failures

    def _start(self, name: str) -> _Job:
        cell_path = None
        if self.checkpoint is not None and name in CELL_PARALLEL:
            cell_path = str(self.checkpoint.cell_journal_path(name))
        recv, send = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_supervised_worker,
            args=(
                send, name, self.scale, self.seed, self.profile_dir,
                cell_path,
            ),
            name=f"repro-{name}",
        )
        process.start()
        send.close()
        if self.checkpoint is not None:
            self.checkpoint.journal_event(
                "attempt", experiment=name, pid=process.pid
            )
        return _Job(name, process, recv)

    def _await_events(self) -> None:
        """Block until a worker reports or exits; settle every finished one."""
        handles = []
        for job in self.running:
            handles.append(job.conn)
            handles.append(job.process.sentinel)
        _mp_wait(handles)
        for job in list(self.running):
            outcome = self._poll(job)
            if outcome is None:
                continue
            self.running.remove(job)
            self._finish(job, *outcome)

    def _poll(self, job: _Job) -> "tuple[str, object, object] | None":
        if job.conn.poll():
            try:
                message = job.conn.recv()
            except (EOFError, OSError):
                message = None
            if message is not None and message[0] == "ok":
                return ("ok", message[1], message[2])
            if message is not None:
                return ("error", message[1], None)
            return ("crash", None, None)
        if not job.process.is_alive():
            return ("crash", None, None)
        return None

    def _kill(self, job: _Job) -> None:
        """SIGKILL the experiment's whole process group (grandchildren too).

        SIGKILL gives the child no chance to write its own post-mortem, so
        the supervisor dumps *its* flight ring — which holds the run's
        history up to the kill — on the child's behalf.
        """
        get_flight().record("sigkill", job.name, pid=job.process.pid)
        dump_flight(f"sigkill:{job.name}")
        process = job.process
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except (AttributeError, ProcessLookupError, PermissionError, OSError):
            process.kill()

    def _terminate_running(self) -> None:
        for job in self.running:
            self._kill(job)
            job.process.join()
        self.running.clear()

    def _finish(self, job: _Job, kind: str, payload, extra) -> None:
        job.process.join()
        job.conn.close()
        if kind == "ok":
            table, elapsed = payload, extra
            if self.checkpoint is not None:
                self.checkpoint.record(job.name, table, elapsed)
            self.emitter.ready(job.name, table, elapsed)
            return
        if kind == "error":
            reason = str(payload)
        else:
            reason = f"crashed (exit code {job.process.exitcode})"
        get_flight().record(
            "experiment_failed", job.name, outcome=kind, reason=reason
        )
        if kind == "crash":
            # A crashed child took the no-cleanup exit; leave a parent-side
            # post-mortem next to whatever the child managed to dump.
            dump_flight(f"crash:{job.name}")
        self.failures[job.name] = reason
        get_tracer().counter(
            "run.experiment_failed",
            attrs={"experiment": job.name, "reason": reason},
        )
        if self.checkpoint is not None:
            self.checkpoint.journal_event(
                "failed", experiment=job.name, reason=reason
            )
        print(
            f"[{job.name} failed: {reason}]", file=sys.stderr, flush=True
        )
        self.emitter.failed(job.name)


def _failed_table(failures: dict[str, str]) -> ExperimentTable:
    """The partial-failure summary appended after the completed tables."""
    table = ExperimentTable(
        experiment="FAILED",
        title="experiments that did not complete",
        columns=["experiment", "reason"],
        notes=[
            "the completed tables above are valid; re-run (or --resume a"
            " checkpointed run) to fill in the rest",
        ],
    )
    for name, reason in failures.items():
        table.add_row(name, reason)
    return table


def _serial_baseline(path: Path, record: dict) -> "dict | None":
    """The latest comparable serial record already in ``path``, if any.

    Comparable means the same experiment set, scale, seed and kernel mode,
    run without any parallelism (``jobs`` 1) — the denominator the
    speedup/scaling-efficiency fields are defined against.
    """
    if not path.exists():
        return None
    try:
        records = json.loads(path.read_text())
    except (json.JSONDecodeError, OSError):
        return None
    if not isinstance(records, list):
        records = [records]
    for candidate in reversed(records):
        if not isinstance(candidate, dict):
            continue
        if (
            sorted(candidate.get("experiments", {})) ==
            sorted(record.get("experiments", {}))
            and candidate.get("scale") == record.get("scale")
            and candidate.get("seed") == record.get("seed")
            and candidate.get("kernels") == record.get("kernels")
            and candidate.get("jobs", 1) == 1
            and candidate.get("total_s")
        ):
            return candidate
    return None


def _append_bench_record(path: Path, record: dict) -> None:
    """Append ``record`` to the JSON array in ``path`` (created if absent).

    A corrupt existing file is *not* silently discarded: it is moved aside
    to ``<path>.bad`` (with a warning) so the history can be repaired, and
    the new record starts a fresh array.
    """
    records = []
    if path.exists():
        try:
            records = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError) as exc:
            backup = path.with_name(path.name + ".bad")
            try:
                path.replace(backup)
                where = f"backed up to {backup}"
            except OSError:
                where = "backup failed; leaving it in place"
            print(
                f"warning: existing {path} is unreadable ({exc}); {where}",
                file=sys.stderr,
            )
            records = []
        if not isinstance(records, list):
            records = [records]
    records.append(record)
    path.write_text(json.dumps(records, indent=2) + "\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.experiments.runner",
        description="Reproduce the paper's tables and figures.",
    )
    parser.add_argument(
        "--exp", action="append", choices=sorted(EXPERIMENTS),
        help="experiment to run (repeatable)",
    )
    parser.add_argument("--all", action="store_true", help="run every experiment")
    parser.add_argument("--list", action="store_true", help="list experiments")
    parser.add_argument("--scale", choices=SCALES, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--save", action="store_true",
        help="write JSON results to benchmarks/results/",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes: fans independent experiments, or the"
        " cells of a single cell-parallel experiment (output is"
        " bit-identical for any N)",
    )
    parser.add_argument(
        "--checkpoint", nargs="?", const="", default=None, metavar="RUN_ID",
        help="journal completed experiments/cells under"
        " .repro_runs/<run-id>/ so an interrupted run can be resumed"
        " (id auto-generated when omitted)",
    )
    parser.add_argument(
        "--resume", default=None, metavar="RUN_ID",
        help="restore a checkpointed run's finished results and run only"
        " the remainder (bit-identical tables to an uninterrupted run);"
        " with no --exp/--all, the recorded selection is reused",
    )
    parser.add_argument(
        "--runs-dir", default=None, metavar="PATH",
        help="checkpoint root directory (default: REPRO_RUNS_DIR or"
        " .repro_runs)",
    )
    parser.add_argument(
        "--bench-json", nargs="?", const="BENCH_runner.json", default=None,
        metavar="PATH",
        help="append per-experiment wall-clock seconds to a JSON array"
        " file (default PATH: BENCH_runner.json)",
    )
    parser.add_argument(
        "--sanitize", action="store_true",
        help="run with the repro.verify runtime sanitizer: every array"
        " access is invariant-checked against a precise shadow copy"
        f" (exports {SANITIZE_ENV}=1 for the whole run, workers included;"
        " results are bit-identical, wall-clock is several times slower)",
    )
    parser.add_argument(
        "--trace", nargs="?", const="trace.jsonl", default=None,
        metavar="PATH",
        help="write structured span/counter/gauge events; per-process"
        " part files are merged into PATH (default: trace.jsonl) when"
        " the run finishes",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="run each experiment under cProfile, dumping <name>.prof"
        " next to the trace (or into the working directory)",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress result tables; timing lines still print",
    )
    parser.add_argument(
        "--heartbeat", type=_seconds, default=30.0, metavar="SECONDS",
        help="seconds between progress lines on stderr (default 30;"
        " 0 disables)",
    )
    return parser


def _seconds(text: str) -> float:
    """``--heartbeat``'s type: a finite number of seconds >= 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a finite number of seconds >= 0, got {text!r}"
        )
    return value


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _main(args, parser)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except CheckpointCorruptError as exc:
        print(f"error: corrupt checkpoint: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _main(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.sanitize:
        # Exported (not passed down) so fork-inherited worker processes see
        # it too; the pipelines check it at allocation sites.
        os.environ[SANITIZE_ENV] = "1"

    if args.list:
        width = max(len(name) for name in EXPERIMENTS)
        for name, fn in EXPERIMENTS.items():
            parallel = (
                "  [cell-parallel: --jobs fans cells]"
                if name in CELL_PARALLEL else ""
            )
            print(f"{name:<{width}}  {_describe(fn)}{parallel}")
        return 0
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.resume is not None and args.checkpoint is not None:
        parser.error("--resume already journals to the resumed run;"
                      " drop --checkpoint")

    names = list(EXPERIMENTS) if args.all else list(args.exp or [])
    if not names and args.resume is None:
        parser.error("choose experiments with --exp/--all (or use --list)")
    spec = os.environ.get(FAULT_ENV)
    if spec:
        # Refused here, before any work: a malformed spec is the run's
        # configuration error, not a failure of each experiment.
        parse_fault_spec(spec)

    # Tracing: every process (this one and fork-inherited workers) appends
    # to its own per-pid file in the parts directory; merged afterwards.
    # The run id travels the same way, so pooled workers can stamp
    # cross-process parent attrs that the merged report can trust.
    trace_path = Path(args.trace) if args.trace is not None else None
    saved_trace_env = os.environ.get(TRACE_DIR_ENV)
    saved_run_env = os.environ.get(TRACE_RUN_ENV)
    parts_dir = None
    if trace_path is not None:
        parts_dir = Path(str(trace_path) + ".parts")
        parts_dir.mkdir(parents=True, exist_ok=True)
        os.environ[TRACE_DIR_ENV] = str(parts_dir)
        os.environ[TRACE_RUN_ENV] = uuid.uuid4().hex[:12]
        close_tracer()  # lazy re-init picks up the new directory
    profile_dir = None
    if args.profile:
        profile_dir = str(trace_path.parent) if trace_path is not None else "."
        Path(profile_dir).mkdir(parents=True, exist_ok=True)

    checkpoint: RunCheckpoint | None = None
    restored: dict[str, tuple[ExperimentTable, float]] = {}
    timings: dict[str, float] = {}
    failures: dict[str, str] = {}
    wall_start = time.perf_counter()
    try:
        if args.resume is not None:
            checkpoint = RunCheckpoint.load(args.resume, root=args.runs_dir)
            recorded = checkpoint.config
            if not names:
                names = list(recorded.get("experiments", []))
                if not names:
                    parser.error(
                        f"run {args.resume!r} recorded no experiment"
                        " selection; pass --exp/--all explicitly"
                    )
            if args.scale is None:
                args.scale = recorded.get("scale")
            if args.seed is None:
                args.seed = recorded.get("seed")
        seed = args.seed if args.seed is not None else 0
        config = {
            "experiments": names,
            "scale": resolve_scale(args.scale),
            "seed": seed,
        }
        if args.resume is not None:
            checkpoint.check_config(config)
            with get_tracer().span(
                "run.resume", attrs={"run_id": checkpoint.run_id}
            ):
                restored = checkpoint.completed()
            get_tracer().counter(
                "run.restored", len(restored),
                attrs={"run_id": checkpoint.run_id},
            )
            checkpoint.journal_event(
                "resume",
                restored=sorted(restored),
                pending=[n for n in names if n not in restored],
            )
            print(
                f"[resume] run {checkpoint.run_id}: {len(restored)}/"
                f"{len(names)} experiments restored from checkpoint",
                file=sys.stderr,
            )
        elif args.checkpoint is not None:
            checkpoint = RunCheckpoint.create(
                config, run_id=args.checkpoint or None, root=args.runs_dir
            )
            print(
                f"[checkpoint] journaling to {checkpoint.directory};"
                f" resume with: --resume {checkpoint.run_id}",
                file=sys.stderr,
            )

        pending = [name for name in names if name not in restored]
        heartbeat = Heartbeat(
            "experiments", len(names), interval=args.heartbeat
        )
        # Installed process-wide so an in-process map_cells fan-out can
        # report per-cell progress through this heartbeat's detail field.
        set_current_heartbeat(heartbeat)
        emitter = _OrderedEmitter(names, args, timings, heartbeat)
        for name, (table, elapsed) in restored.items():
            emitter.ready(name, table, elapsed, restored=True)

        try:
            if args.jobs > 1 and len(pending) > 1:
                supervisor = _Supervisor(
                    pending,
                    scale=args.scale,
                    seed=seed,
                    max_workers=min(args.jobs, len(pending)),
                    profile_dir=profile_dir,
                    checkpoint=checkpoint,
                    emitter=emitter,
                )
                # The heartbeat thread starts only after construction; the
                # supervisor forks fresh children throughout the run.
                heartbeat.start()
                failures = supervisor.run()
            else:
                heartbeat.start()
                for name in pending:
                    cell_path = None
                    if checkpoint is not None and name in CELL_PARALLEL:
                        cell_path = str(checkpoint.cell_journal_path(name))
                    _, table, elapsed = _run_single(
                        name, args.scale, seed, jobs=args.jobs,
                        profile_dir=profile_dir,
                        cell_journal_path=cell_path,
                    )
                    if checkpoint is not None:
                        checkpoint.record(name, table, elapsed)
                    emitter.ready(name, table, elapsed)
        except KeyboardInterrupt:
            if checkpoint is not None:
                checkpoint.journal_event("interrupted")
                print(
                    f"\n[interrupted] completed work is checkpointed;"
                    f" resume with: --resume {checkpoint.run_id}",
                    file=sys.stderr,
                )
            raise
        finally:
            set_current_heartbeat(None)
            heartbeat.stop()
        if checkpoint is not None:
            checkpoint.journal_event(
                "complete" if not failures else "partial",
                failed=sorted(failures),
            )
    finally:
        if checkpoint is not None:
            checkpoint.close()
        if trace_path is not None:
            close_tracer()  # flush this process's part file
            if saved_trace_env is None:
                os.environ.pop(TRACE_DIR_ENV, None)
            else:
                os.environ[TRACE_DIR_ENV] = saved_trace_env
            if saved_run_env is None:
                os.environ.pop(TRACE_RUN_ENV, None)
            else:
                os.environ[TRACE_RUN_ENV] = saved_run_env
            parts = sorted(parts_dir.glob("trace-*.jsonl"))
            count = merge_traces(parts, trace_path)
            for part in parts:
                part.unlink()
            try:
                parts_dir.rmdir()
            except OSError:
                pass  # foreign files in the parts dir: leave it
            print(f"merged {count} trace events into {trace_path}")
    total = time.perf_counter() - wall_start

    if args.bench_json is not None:
        # `cpus` is the machine (os.cpu_count() — what the hardware offers);
        # `workers_effective` is what this run actually used: --jobs fans
        # cells when a single cell-parallel experiment is selected, else at
        # most one worker per experiment.
        if len(names) == 1 and names[0] in CELL_PARALLEL:
            workers_effective = args.jobs
        else:
            workers_effective = min(args.jobs, max(1, len(names)))
        record = {
            "schema": 1,
            "timestamp": datetime.now(timezone.utc).isoformat(
                timespec="seconds"
            ),
            "scale": resolve_scale(args.scale),
            "seed": seed,
            "jobs": args.jobs,
            "cpus": os.cpu_count(),
            "workers_effective": workers_effective,
            "kernels": "numpy",  # the one default path
            "experiments": {name: round(t, 3) for name, t in timings.items()},
            "total_s": round(total, 3),
        }
        path = Path(args.bench_json)
        baseline = _serial_baseline(path, record)
        if baseline is not None and total > 0:
            speedup = baseline["total_s"] / total
            record["speedup_vs_serial"] = round(speedup, 3)
            record["scaling_efficiency"] = round(
                speedup / max(1, workers_effective), 3
            )
        if args.resume is not None:
            record["resumed"] = args.resume
        if failures:
            record["failed"] = sorted(failures)
        _append_bench_record(path, record)
        print(f"bench record appended to {path}")

    if failures:
        print(_failed_table(failures).to_text())
        if checkpoint is not None:
            print(
                f"[partial failure] re-run the failed experiments with:"
                f" --resume {checkpoint.run_id}",
                file=sys.stderr,
            )
        return EXIT_PARTIAL
    return 0


def _describe(fn: Callable) -> str:
    """One-line description of an experiment: its module docstring's head."""
    doc = sys.modules[fn.__module__].__doc__ or ""
    for line in doc.splitlines():
        line = line.strip()
        if line:
            return line
    return ""


if __name__ == "__main__":
    sys.exit(main())
