"""Structured tracing and per-phase telemetry (DESIGN.md section 9).

The observability layer has four pieces:

* :mod:`repro.obs.tracer` — a :class:`Tracer` with nestable spans that emit
  structured JSONL events (span start/end, wall-clock, and a
  :class:`repro.memory.stats.MemoryStats` delta captured automatically at
  span boundaries) plus counters and gauges.  The process default is a
  :class:`NullTracer`, so the disabled path costs one attribute check per
  call site.
* :mod:`repro.obs.schema` / :mod:`repro.obs.io` — the event schema with a
  dependency-free validator, and JSONL reading/merging (one trace file per
  worker process, merged by the experiment runner).
* :mod:`repro.obs.report` — ``python -m repro.obs.report`` aggregates one or
  more trace files into per-phase tables: writes/reads/TEPMW and wall-clock
  by span and a Figure-11-style sort/refine/copy breakdown, with exact
  p50/p95/p99 of every span name's wall-clock and of every gauge.
* :mod:`repro.obs.flight` — an always-on, always-cheap in-memory ring of
  recent obs events, dumped to ``flight-<pid>.jsonl`` on crash, SIGKILL or
  fault-injection trip when ``REPRO_FLIGHT_DIR`` is armed.

Tracing is activated per process by pointing the ``REPRO_TRACE_DIR``
environment variable at a directory (each process appends to its own
``trace-<pid>.jsonl`` inside it) — which is exactly what the experiment
runner's ``--trace`` flag does before fanning out workers.
"""

from .flight import (
    FLIGHT_DIR_ENV,
    FlightRecorder,
    dump_flight,
    get_flight,
)
from .tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    StageRecorder,
    TRACE_DIR_ENV,
    TRACE_RUN_ENV,
    Tracer,
    close_tracer,
    get_tracer,
    set_tracer,
)

__all__ = [
    "FLIGHT_DIR_ENV",
    "FlightRecorder",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "StageRecorder",
    "TRACE_DIR_ENV",
    "TRACE_RUN_ENV",
    "Tracer",
    "close_tracer",
    "dump_flight",
    "get_flight",
    "get_tracer",
    "set_tracer",
]
