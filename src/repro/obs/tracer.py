"""The tracer: nestable spans, counters and gauges over JSONL sinks.

Design constraints (why the code looks the way it does):

* **Disabled must be ~free.**  The sorters' inner loops guard every span
  with ``if tracer.enabled:`` — a single attribute check — and the module
  default is the :data:`NULL_TRACER` singleton, so a repo that never turns
  tracing on pays nothing measurable (``benchmarks/bench_obs.py`` guards
  this at < 2% on the LSD block path).
* **Observation only.**  Spans snapshot/delta the existing
  :class:`~repro.memory.stats.MemoryStats` counters and read the clock;
  they never touch an RNG stream or change an access path, so every
  experiment output is bit-identical with tracing on or off (regression
  tested in ``tests/obs/test_stage_stats_regression.py``).
* **Fork-friendly.**  Worker processes of the parallel runner inherit the
  ``REPRO_TRACE_DIR`` environment variable; :func:`get_tracer` lazily opens
  a per-pid ``trace-<pid>.jsonl`` file and re-opens after a fork (the pid
  check), so no cross-process file sharing ever happens.  The runner merges
  the per-pid files afterwards (:func:`repro.obs.io.merge_traces`).

Event exactness: span events carry the stats *delta* plus the cumulative
counters at span start and end (``cum_start``/``cum``).  Because a span's
``cum_start`` equals its predecessor's ``cum`` verbatim, consumers can
verify that phases tile their parent span — and hence that per-phase TEPMW
sums match the aggregate — by pure equality, with no float re-summation.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import IO, Optional

from repro.memory.stats import MemoryStats
from repro.obs.flight import get_flight

#: Environment variable: directory to write per-process trace files into.
#: Empty/unset means tracing is disabled (the NullTracer default).
TRACE_DIR_ENV = "REPRO_TRACE_DIR"

#: Environment variable: opaque run identifier shared by every process of
#: one traced run.  Exported by the runner alongside ``REPRO_TRACE_DIR`` so
#: pooled workers can stamp cross-process parent links that the report can
#: trust (same run id ⇒ same trace session).
TRACE_RUN_ENV = "REPRO_TRACE_RUN"

#: Version stamped into every file's ``meta`` event; bump on schema changes.
SCHEMA_VERSION = 1

#: Fields of a MemoryStats payload, in emission order.
STATS_FIELDS = (
    "precise_reads",
    "precise_writes",
    "approx_reads",
    "approx_writes",
    "approx_write_units",
    "corrupted_writes",
)


def stats_to_dict(stats: MemoryStats) -> dict:
    """JSON payload of a :class:`MemoryStats` (ints exact, one float)."""
    return {name: getattr(stats, name) for name in STATS_FIELDS}


def stats_from_dict(payload: dict) -> MemoryStats:
    """Inverse of :func:`stats_to_dict` (values round-trip exactly)."""
    return MemoryStats(**{name: payload[name] for name in STATS_FIELDS})


class Span:
    """One traced region: emits ``span_start``/``span_end`` and captures a
    stats delta when a :class:`MemoryStats` accumulator is attached.

    After ``__exit__``, :attr:`delta` holds the accumulated counters (or
    ``None`` when no stats were attached) and :attr:`wall_s` the wall-clock
    duration — both readable by the code that opened the span.
    """

    __slots__ = (
        "_tracer", "name", "attrs", "_stats", "_snap", "_t0",
        "id", "parent", "delta", "wall_s",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        stats: Optional[MemoryStats] = None,
        attrs: Optional[dict] = None,
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self._stats = stats
        self.delta: Optional[MemoryStats] = None
        self.wall_s = 0.0

    def __enter__(self) -> "Span":
        tracer = self._tracer
        self.id = tracer._next_span_id()
        self.parent = tracer._stack[-1] if tracer._stack else None
        tracer._stack.append(self.id)
        event = {"ev": "span_start", "id": self.id, "parent": self.parent,
                 "name": self.name}
        if self.attrs:
            event["attrs"] = self.attrs
        tracer.emit(event)
        self._snap = self._stats.snapshot() if self._stats is not None else None
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.wall_s = time.perf_counter() - self._t0
        tracer = self._tracer
        tracer._stack.pop()
        event = {"ev": "span_end", "id": self.id, "parent": self.parent,
                 "name": self.name, "wall_s": self.wall_s}
        if self.attrs:
            event["attrs"] = self.attrs
        if self._snap is not None:
            cum = self._stats.snapshot()
            self.delta = cum.delta_since(self._snap)
            event["stats"] = stats_to_dict(self.delta)
            event["cum_start"] = stats_to_dict(self._snap)
            event["cum"] = stats_to_dict(cum)
        tracer.emit(event)
        return False


class Tracer:
    """Structured-event emitter writing one JSON object per line.

    Parameters
    ----------
    path:
        File to append events to (line-buffered, so a killed worker loses at
        most the event being written).  Mutually exclusive with ``sink``.
    sink:
        An open text stream (used by tests); not closed by :meth:`close`.
    meta:
        Extra key/values merged into the file's leading ``meta`` event.
    run:
        Opaque run identifier stamped into the ``meta`` event and exposed
        as :attr:`run` so cross-process span attrs can carry it.
    """

    enabled = True

    def __init__(
        self,
        path: "str | Path | None" = None,
        sink: Optional[IO[str]] = None,
        meta: Optional[dict] = None,
        run: Optional[str] = None,
    ) -> None:
        if (path is None) == (sink is None):
            raise ValueError("exactly one of path/sink must be given")
        self.path = Path(path) if path is not None else None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._sink: Optional[IO[str]] = open(
                self.path, "a", buffering=1, encoding="utf-8"
            )
            self._owns_sink = True
        else:
            self._sink = sink
            self._owns_sink = False
        self.pid = os.getpid()
        self.run = run
        self._seq = 0
        self._span_ids = 0
        self._stack: list[int] = []
        self._epoch_perf = time.perf_counter()
        self._flight = get_flight()
        event = {"ev": "meta", "schema": SCHEMA_VERSION,
                 "epoch": time.time()}
        if run is not None:
            event["run"] = run
        if meta:
            event.update(meta)
        self.emit(event)

    # ------------------------------------------------------------------ #

    def _next_span_id(self) -> int:
        self._span_ids += 1
        return self._span_ids

    @property
    def current_span(self) -> Optional[int]:
        """Id of the innermost open span, or ``None`` at top level."""
        return self._stack[-1] if self._stack else None

    def emit(self, event: dict) -> None:
        """Stamp ``ts``/``seq``/``pid`` and write one JSONL line.

        Every emitted event is also mirrored into the process flight ring
        (:mod:`repro.obs.flight`), so a crash under tracing preserves the
        tail of the span stream even if the file write was cut short.
        """
        if self._sink is None:
            return
        event["ts"] = time.perf_counter() - self._epoch_perf
        event["seq"] = self._seq
        event["pid"] = self.pid
        self._seq += 1
        self._sink.write(json.dumps(event, separators=(",", ":")) + "\n")
        self._flight.mirror(event)

    # ------------------------------------------------------------------ #

    def span(
        self,
        name: str,
        stats: Optional[MemoryStats] = None,
        attrs: Optional[dict] = None,
    ) -> Span:
        """A context manager tracing one region; see :class:`Span`."""
        return Span(self, name, stats=stats, attrs=attrs)

    def counter(
        self, name: str, value: "int | float" = 1, attrs: Optional[dict] = None
    ) -> None:
        """Emit a monotonic increment (aggregated by summation)."""
        event = {"ev": "counter", "name": name, "value": value,
                 "span": self._stack[-1] if self._stack else None}
        if attrs:
            event["attrs"] = attrs
        self.emit(event)

    def gauge(
        self, name: str, value: "int | float", attrs: Optional[dict] = None
    ) -> None:
        """Emit a point-in-time measurement (aggregated by min/mean/max)."""
        event = {"ev": "gauge", "name": name, "value": value,
                 "span": self._stack[-1] if self._stack else None}
        if attrs:
            event["attrs"] = attrs
        self.emit(event)

    def close(self) -> None:
        """Flush and close an owned file sink (idempotent)."""
        if self._sink is not None and self._owns_sink:
            self._sink.close()
        self._sink = None


class _NullSpan:
    """Shared no-op span: zero allocations on the disabled path."""

    __slots__ = ()
    delta = None
    wall_s = 0.0
    id = None
    parent = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer: every operation is a no-op.

    Call sites on hot paths should guard with ``if tracer.enabled:`` so the
    disabled cost is one attribute check; colder sites may simply use
    ``with tracer.span(...)`` — it returns a shared no-op span.
    """

    enabled = False
    run = None
    current_span = None

    def span(self, name, stats=None, attrs=None) -> _NullSpan:
        return _NULL_SPAN

    def counter(self, name, value=1, attrs=None) -> None:
        pass

    def gauge(self, name, value, attrs=None) -> None:
        pass

    def emit(self, event) -> None:
        pass

    def close(self) -> None:
        pass


NULL_TRACER = NullTracer()


class StageRecorder:
    """Sequential-stage bookkeeping over one :class:`MemoryStats` accumulator.

    This replaces the ad-hoc ``mark``/``close_stage`` plumbing of
    :func:`repro.core.approx_refine.run_approx_refine`: each ``stage(...)``
    block records the stats delta accumulated inside it under its name (the
    returned ``stage_stats`` contract) and, when tracing is enabled, mirrors
    the stage as a tracer span.  Both paths compute the delta with the same
    ``snapshot()``/``delta_since()`` arithmetic, so ``stage_stats`` are
    bit-identical with tracing on or off.
    """

    def __init__(
        self, stats: MemoryStats, tracer: "Tracer | NullTracer | None" = None
    ) -> None:
        self.stats = stats
        self.tracer = tracer if tracer is not None else get_tracer()
        self.stage_stats: dict[str, MemoryStats] = {}

    def stage(self, name: str) -> "_Stage":
        return _Stage(self, name)


class _Stage:
    """One stage block of a :class:`StageRecorder`."""

    __slots__ = ("_recorder", "_name", "_span", "_snap")

    def __init__(self, recorder: StageRecorder, name: str) -> None:
        self._recorder = recorder
        self._name = name

    def __enter__(self) -> "_Stage":
        recorder = self._recorder
        if recorder.tracer.enabled:
            self._snap = None
            self._span = recorder.tracer.span(
                self._name, stats=recorder.stats
            ).__enter__()
        else:
            self._span = None
            self._snap = recorder.stats.snapshot()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        recorder = self._recorder
        if self._span is not None:
            self._span.__exit__(exc_type, exc, tb)
            recorder.stage_stats[self._name] = self._span.delta
        else:
            recorder.stage_stats[self._name] = recorder.stats.delta_since(
                self._snap
            )
        return False


# ---------------------------------------------------------------------- #
# Process-wide current tracer
# ---------------------------------------------------------------------- #

_current: "Tracer | NullTracer | None" = None


def _tracer_from_env() -> "Tracer | NullTracer":
    directory = os.environ.get(TRACE_DIR_ENV)
    if not directory:
        return NULL_TRACER
    path = Path(directory) / f"trace-{os.getpid()}.jsonl"
    return Tracer(path=path, run=os.environ.get(TRACE_RUN_ENV) or None)


def get_tracer() -> "Tracer | NullTracer":
    """The process-wide tracer, lazily initialized from ``REPRO_TRACE_DIR``.

    A forked worker inheriting an enabled parent tracer re-opens its own
    per-pid file on first use (the pid check); the inherited NullTracer
    singleton is always valid.  The environment is read once per process —
    call :func:`close_tracer` to force a re-read after changing it.
    """
    global _current
    if _current is None or (_current.enabled and _current.pid != os.getpid()):
        _current = _tracer_from_env()
    return _current


def set_tracer(tracer: "Tracer | NullTracer") -> "Tracer | NullTracer":
    """Install ``tracer`` as the process-wide tracer; returns the previous."""
    global _current
    previous = _current
    _current = tracer
    return previous


def close_tracer() -> None:
    """Close the current tracer (if any) and reset to lazy-env state."""
    global _current
    if _current is not None:
        _current.close()
    _current = None
