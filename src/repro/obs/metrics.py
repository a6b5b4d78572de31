"""The metrics registry: counters, gauges and percentile histograms.

The tracer (:mod:`repro.obs.tracer`) answers *"what happened, in order"* —
an event per span, written as it happens.  The runner and the worker
pool need the other shape of telemetry: *"how is this distributed"* —
task-latency histograms with real p50/p95/p99, queue-depth gauges,
labelled counters — cheap enough to leave on, exported as periodic
snapshots rather than per-event streams.

Design mirrors the tracer deliberately:

* **Disabled is ~free.**  The process default is the :data:`NULL_METRICS`
  singleton; hot call sites guard with ``if metrics.enabled:`` — one
  attribute check (``benchmarks/bench_obs.py`` guards the estimated cost
  below 2% alongside the tracer's).
* **Observation only.**  Recording never touches an RNG stream or an
  access path, so every experiment output is bit-identical with metrics
  on or off.
* **Fork-friendly.**  Workers inherit ``REPRO_METRICS_DIR``;
  :func:`get_metrics` lazily opens a per-pid ``metrics-<pid>.jsonl``
  snapshot file and re-opens after a fork (the pid check).  The runner
  merges per-pid snapshot files afterwards
  (:func:`aggregate_snapshots`).

Exactness: histograms retain raw samples up to ``sample_cap`` (default
4096), so p50/p95/p99 are *exact order statistics* (nearest-rank), not
bucket interpolations, for every realistic run; past the cap the
fixed-bucket counts take over (linear interpolation inside the bucket)
and the snapshot's ``exact`` flag records the downgrade.
"""

from __future__ import annotations

import atexit
import json
import os
import re
import time
from pathlib import Path
from typing import IO, Iterable, Optional

#: Environment variable: directory to write per-process snapshot files
#: into.  Empty/unset means metrics are disabled (the NullMetrics default).
METRICS_DIR_ENV = "REPRO_METRICS_DIR"

#: Version stamped into every snapshot line; bump on shape changes.
METRICS_SCHEMA_VERSION = 1

#: Default histogram bucket upper bounds (seconds-oriented: 10us .. 60s).
DEFAULT_BUCKETS = (
    1e-5, 1e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
    10.0, 30.0, 60.0,
)

#: Raw samples retained per histogram for exact percentile extraction.
SAMPLE_CAP = 4096

#: Percentiles carried in snapshots and reports.
PERCENTILES = (0.5, 0.95, 0.99)

#: Seconds between periodic snapshot exports (checked every
#: ``_EXPORT_CHECK_EVERY`` recordings, so idle processes never poll).
EXPORT_INTERVAL_S = 5.0
_EXPORT_CHECK_EVERY = 256


def percentile(samples: "list[float]", q: float) -> Optional[float]:
    """Nearest-rank percentile of *sorted* ``samples`` (exact, no lerp)."""
    if not samples:
        return None
    rank = max(1, -(-int(q * 1_000_000) * len(samples) // 1_000_000))
    # Equivalent to ceil(q * n) without float rank arithmetic.
    rank = min(rank, len(samples))
    return samples[rank - 1]


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


class _Histogram:
    """Fixed buckets + capped raw samples; exact percentiles under the cap."""

    __slots__ = ("uppers", "bucket_counts", "count", "total", "samples",
                 "_sorted")

    def __init__(self, uppers: tuple) -> None:
        self.uppers = uppers
        self.bucket_counts = [0] * (len(uppers) + 1)  # last = +Inf overflow
        self.count = 0
        self.total = 0.0
        self.samples: "list[float] | None" = []
        self._sorted = True

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        index = 0
        for upper in self.uppers:
            if value <= upper:
                break
            index += 1
        self.bucket_counts[index] += 1
        if self.samples is not None:
            if len(self.samples) < SAMPLE_CAP:
                if self._sorted and self.samples and value < self.samples[-1]:
                    self._sorted = False
                self.samples.append(value)
            else:
                self.samples = None  # over the cap: buckets take over

    @property
    def exact(self) -> bool:
        return self.samples is not None

    def percentile(self, q: float) -> Optional[float]:
        if self.count == 0:
            return None
        if self.samples is not None:
            if not self._sorted:
                self.samples.sort()
                self._sorted = True
            return percentile(self.samples, q)
        return bucket_percentile(self.uppers, self.bucket_counts, q)


def bucket_percentile(
    uppers: "tuple | list", bucket_counts: "list[int]", q: float
) -> Optional[float]:
    """Percentile interpolated from fixed-bucket counts (over-cap path)."""
    count = sum(bucket_counts)
    if count == 0:
        return None
    rank = max(1, -(-int(q * 1_000_000) * count // 1_000_000))
    seen = 0
    for index, bucket in enumerate(bucket_counts):
        if seen + bucket >= rank:
            lower = 0.0 if index == 0 else float(uppers[index - 1])
            upper = (
                float(uppers[index]) if index < len(uppers)
                else lower  # overflow bucket: clamp to the last bound
            )
            frac = (rank - seen) / bucket
            return lower + (upper - lower) * frac
        seen += bucket
    return float(uppers[-1]) if uppers else None


class MetricsRegistry:
    """Process-wide metric store with periodic JSONL snapshot export.

    Parameters
    ----------
    path:
        Snapshot file to append JSONL snapshot lines to (one complete
        snapshot per line); ``None`` keeps the registry in-memory only
        (``snapshot()``/``to_prometheus()`` still work — used by tests and
        the docs examples).
    buckets:
        Histogram bucket upper bounds (shared by every histogram).
    export_interval_s:
        Seconds between periodic exports (time-gated inside the record
        paths, checked every few hundred recordings).
    """

    enabled = True

    def __init__(
        self,
        path: "str | Path | None" = None,
        buckets: tuple = DEFAULT_BUCKETS,
        export_interval_s: float = EXPORT_INTERVAL_S,
    ) -> None:
        self.path = Path(path) if path is not None else None
        self._sink: Optional[IO[str]] = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._sink = open(self.path, "a", buffering=1, encoding="utf-8")
        self.pid = os.getpid()
        self.buckets = tuple(buckets)
        self.export_interval_s = export_interval_s
        self._epoch = time.time()
        self._t0 = time.perf_counter()
        self._snapshots = 0
        self._events = 0
        self._last_export = time.perf_counter()
        self._counters: dict[tuple, float] = {}
        self._gauges: dict[tuple, dict] = {}
        self._histograms: dict[tuple, _Histogram] = {}

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def inc(self, name: str, value: "int | float" = 1, **labels) -> None:
        """Add to a monotonic counter (created at zero on first use)."""
        key = (name, _label_key(labels))
        self._counters[key] = self._counters.get(key, 0) + value
        self._tick()

    def gauge(self, name: str, value: "int | float", **labels) -> None:
        """Set a point-in-time value (min/max tracked across updates)."""
        key = (name, _label_key(labels))
        row = self._gauges.get(key)
        if row is None:
            self._gauges[key] = {"value": value, "min": value, "max": value,
                                 "updates": 1}
        else:
            row["value"] = value
            row["min"] = min(row["min"], value)
            row["max"] = max(row["max"], value)
            row["updates"] += 1
        self._tick()

    def observe(self, name: str, value: float, **labels) -> None:
        """Record one histogram sample."""
        key = (name, _label_key(labels))
        histogram = self._histograms.get(key)
        if histogram is None:
            histogram = self._histograms[key] = _Histogram(self.buckets)
        histogram.observe(value)
        self._tick()

    def _tick(self) -> None:
        self._events += 1
        if self._sink is not None and not self._events % _EXPORT_CHECK_EVERY:
            self.maybe_export()

    # ------------------------------------------------------------------ #
    # Snapshots
    # ------------------------------------------------------------------ #

    def snapshot(self) -> dict:
        """One complete, deterministic view of every metric.

        Entries are sorted by (name, labels), so two registries fed the
        same observations produce identical ``counters``/``gauges``/
        ``histograms`` sections regardless of recording interleaving.
        """
        counters = [
            {"name": name, "labels": dict(labels), "value": value}
            for (name, labels), value in sorted(self._counters.items())
        ]
        gauges = [
            {"name": name, "labels": dict(labels), **row}
            for (name, labels), row in sorted(self._gauges.items())
        ]
        histograms = []
        for (name, labels), histogram in sorted(self._histograms.items()):
            entry = {
                "name": name,
                "labels": dict(labels),
                "count": histogram.count,
                "sum": histogram.total,
                "buckets": list(histogram.uppers),
                "bucket_counts": list(histogram.bucket_counts),
                "exact": histogram.exact,
            }
            for q in PERCENTILES:
                entry[f"p{int(q * 100)}"] = histogram.percentile(q)
            if histogram.exact:
                if not histogram._sorted:
                    histogram.samples.sort()
                    histogram._sorted = True
                entry["samples"] = list(histogram.samples)
            histograms.append(entry)
        return {
            "schema": METRICS_SCHEMA_VERSION,
            "pid": self.pid,
            "seq": self._snapshots,
            "epoch": self._epoch,
            "ts": time.perf_counter() - self._t0,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def export(self) -> None:
        """Append one snapshot line to the sink (no-op when in-memory)."""
        if self._sink is None:
            return
        snap = self.snapshot()
        self._snapshots += 1
        self._sink.write(json.dumps(snap, separators=(",", ":")) + "\n")
        self._last_export = time.perf_counter()

    def maybe_export(self) -> None:
        """Export if the periodic interval elapsed since the last export."""
        if (
            self._sink is not None
            and time.perf_counter() - self._last_export
            >= self.export_interval_s
        ):
            self.export()

    def to_prometheus(self) -> str:
        """Prometheus-style text exposition of the current state."""
        return snapshot_to_prometheus(self.snapshot())

    def close(self) -> None:
        """Write a final snapshot and close an owned sink (idempotent)."""
        if self._sink is not None:
            self.export()
            self._sink.close()
            self._sink = None


class NullMetrics:
    """Disabled registry: every operation is a no-op.

    Hot paths guard with ``if metrics.enabled:`` so the disabled cost is
    one attribute check; colder sites may simply call the methods.
    """

    enabled = False

    def inc(self, name, value=1, **labels) -> None:
        pass

    def gauge(self, name, value, **labels) -> None:
        pass

    def observe(self, name, value, **labels) -> None:
        pass

    def snapshot(self) -> dict:
        return {
            "schema": METRICS_SCHEMA_VERSION, "pid": os.getpid(), "seq": 0,
            "epoch": 0.0, "ts": 0.0,
            "counters": [], "gauges": [], "histograms": [],
        }

    def export(self) -> None:
        pass

    def maybe_export(self) -> None:
        pass

    def to_prometheus(self) -> str:
        return snapshot_to_prometheus(self.snapshot())

    def close(self) -> None:
        pass


NULL_METRICS = NullMetrics()


# ---------------------------------------------------------------------- #
# Prometheus exposition
# ---------------------------------------------------------------------- #

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(name: str) -> str:
    sanitized = _NAME_RE.sub("_", name)
    return sanitized if sanitized.startswith("repro_") else f"repro_{sanitized}"


def _prom_labels(labels: dict, extra: "dict | None" = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    body = ",".join(
        f'{_NAME_RE.sub("_", str(k))}="{v}"' for k, v in sorted(merged.items())
    )
    return "{" + body + "}"


def _prom_value(value) -> str:
    if value is None:
        return "NaN"
    return format(float(value), ".10g")


def snapshot_to_prometheus(snapshot: dict) -> str:
    """Render one snapshot (or aggregate) as Prometheus text exposition."""
    lines: list[str] = []
    for entry in snapshot.get("counters", ()):
        name = _prom_name(entry["name"]) + "_total"
        lines.append(f"# TYPE {name} counter")
        lines.append(
            f"{name}{_prom_labels(entry['labels'])}"
            f" {_prom_value(entry['value'])}"
        )
    for entry in snapshot.get("gauges", ()):
        name = _prom_name(entry["name"])
        lines.append(f"# TYPE {name} gauge")
        lines.append(
            f"{name}{_prom_labels(entry['labels'])}"
            f" {_prom_value(entry['value'])}"
        )
    for entry in snapshot.get("histograms", ()):
        name = _prom_name(entry["name"])
        lines.append(f"# TYPE {name} histogram")
        cumulative = 0
        for upper, bucket in zip(entry["buckets"], entry["bucket_counts"]):
            cumulative += bucket
            lines.append(
                f"{name}_bucket"
                f"{_prom_labels(entry['labels'], {'le': _prom_value(upper)})}"
                f" {cumulative}"
            )
        lines.append(
            f"{name}_bucket"
            f"{_prom_labels(entry['labels'], {'le': '+Inf'})}"
            f" {entry['count']}"
        )
        lines.append(
            f"{name}_sum{_prom_labels(entry['labels'])}"
            f" {_prom_value(entry['sum'])}"
        )
        lines.append(
            f"{name}_count{_prom_labels(entry['labels'])} {entry['count']}"
        )
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------- #
# Reading and aggregating snapshot files (the runner's merge step)
# ---------------------------------------------------------------------- #


def read_snapshots(paths: Iterable["str | Path"]) -> list[dict]:
    """All snapshot lines of several JSONL files, in file order."""
    snapshots: list[dict] = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    snapshots.append(json.loads(line))
    return snapshots


def validate_snapshot(snapshot) -> list[str]:
    """Problems with one decoded snapshot; empty list means conforming."""
    if not isinstance(snapshot, dict):
        return ["snapshot is not a JSON object"]
    problems: list[str] = []
    if snapshot.get("schema") != METRICS_SCHEMA_VERSION:
        problems.append(
            f"schema {snapshot.get('schema')!r} !="
            f" supported {METRICS_SCHEMA_VERSION}"
        )
    if not isinstance(snapshot.get("pid"), int):
        problems.append("pid missing or not an int")
    for section in ("counters", "gauges", "histograms"):
        entries = snapshot.get(section)
        if not isinstance(entries, list):
            problems.append(f"{section} missing or not a list")
            continue
        for entry in entries:
            if not isinstance(entry, dict) or not isinstance(
                entry.get("name"), str
            ):
                problems.append(f"{section} entry without a string name")
                break
            if not isinstance(entry.get("labels"), dict):
                problems.append(f"{section}.{entry['name']}: labels missing")
            if section == "histograms":
                counts = entry.get("bucket_counts")
                if not isinstance(counts, list) or sum(counts) != entry.get(
                    "count"
                ):
                    problems.append(
                        f"histograms.{entry['name']}: bucket counts do not"
                        " sum to count"
                    )
    return problems


def aggregate_snapshots(snapshots: "list[dict]") -> dict:
    """Fold per-pid snapshot streams into one cross-process aggregate.

    Only the *last* snapshot of each pid counts (snapshots are cumulative
    within a process); counters and histograms then sum across pids, gauges
    keep the last value and the min/max envelope.  Histogram percentiles
    are recomputed exactly from merged samples when every contributing
    part retained its samples, else from the merged bucket counts.
    """
    latest: dict[int, dict] = {}
    for snapshot in snapshots:
        pid = snapshot.get("pid")
        prior = latest.get(pid)
        if prior is None or snapshot.get("seq", 0) >= prior.get("seq", 0):
            latest[pid] = snapshot

    counters: dict[tuple, float] = {}
    gauges: dict[tuple, dict] = {}
    histograms: dict[tuple, dict] = {}
    for pid in sorted(latest):
        snapshot = latest[pid]
        for entry in snapshot.get("counters", ()):
            key = (entry["name"], _label_key(entry["labels"]))
            counters[key] = counters.get(key, 0) + entry["value"]
        for entry in snapshot.get("gauges", ()):
            key = (entry["name"], _label_key(entry["labels"]))
            row = gauges.get(key)
            if row is None:
                gauges[key] = {
                    "value": entry["value"], "min": entry["min"],
                    "max": entry["max"], "updates": entry["updates"],
                }
            else:
                row["value"] = entry["value"]
                row["min"] = min(row["min"], entry["min"])
                row["max"] = max(row["max"], entry["max"])
                row["updates"] += entry["updates"]
        for entry in snapshot.get("histograms", ()):
            key = (entry["name"], _label_key(entry["labels"]))
            row = histograms.get(key)
            if row is None:
                row = histograms[key] = {
                    "count": 0, "sum": 0.0,
                    "buckets": list(entry["buckets"]),
                    "bucket_counts": [0] * len(entry["bucket_counts"]),
                    "samples": [], "exact": True,
                }
            row["count"] += entry["count"]
            row["sum"] += entry["sum"]
            for index, bucket in enumerate(entry["bucket_counts"]):
                row["bucket_counts"][index] += bucket
            if entry.get("exact") and row["exact"]:
                row["samples"].extend(entry.get("samples", ()))
            else:
                row["exact"] = False
                row["samples"] = []

    out_histograms = []
    for (name, labels), row in sorted(histograms.items()):
        entry = {
            "name": name, "labels": dict(labels), "count": row["count"],
            "sum": row["sum"], "buckets": row["buckets"],
            "bucket_counts": row["bucket_counts"], "exact": row["exact"],
        }
        samples = sorted(row["samples"]) if row["exact"] else None
        for q in PERCENTILES:
            label = f"p{int(q * 100)}"
            if samples is not None:
                entry[label] = percentile(samples, q)
            else:
                entry[label] = bucket_percentile(
                    row["buckets"], row["bucket_counts"], q
                )
        out_histograms.append(entry)

    return {
        "schema": METRICS_SCHEMA_VERSION,
        "processes": len(latest),
        "counters": [
            {"name": name, "labels": dict(labels), "value": value}
            for (name, labels), value in sorted(counters.items())
        ],
        "gauges": [
            {"name": name, "labels": dict(labels), **row}
            for (name, labels), row in sorted(gauges.items())
        ],
        "histograms": out_histograms,
    }


# ---------------------------------------------------------------------- #
# Process-wide current registry
# ---------------------------------------------------------------------- #

_current: "MetricsRegistry | NullMetrics | None" = None


def _metrics_from_env() -> "MetricsRegistry | NullMetrics":
    directory = os.environ.get(METRICS_DIR_ENV)
    if not directory:
        return NULL_METRICS
    path = Path(directory) / f"metrics-{os.getpid()}.jsonl"
    registry = MetricsRegistry(path=path)
    # The final snapshot must flush in every process shape: atexit covers
    # the main process, but multiprocessing children exit through
    # ``os._exit`` after running only the multiprocessing finalizers — so
    # register with both (close() is idempotent).
    atexit.register(registry.close)
    try:
        from multiprocessing import util as _mp_util

        _mp_util.Finalize(registry, registry.close, exitpriority=100)
    except Exception:  # pragma: no cover - finalizer registry unavailable
        pass
    return registry


def get_metrics() -> "MetricsRegistry | NullMetrics":
    """The process-wide registry, lazily initialized from the environment.

    A forked worker inheriting an enabled parent registry re-opens its own
    per-pid snapshot file on first use (the pid check); the inherited
    NullMetrics singleton is always valid.  The environment is read once
    per process — call :func:`close_metrics` to force a re-read.
    """
    global _current
    if _current is None or (_current.enabled and _current.pid != os.getpid()):
        _current = _metrics_from_env()
    return _current


def set_metrics(
    metrics: "MetricsRegistry | NullMetrics",
) -> "MetricsRegistry | NullMetrics":
    """Install ``metrics`` process-wide; returns the previous registry."""
    global _current
    previous = _current
    _current = metrics
    return previous


def close_metrics() -> None:
    """Close the current registry (final snapshot) and reset to lazy state."""
    global _current
    if _current is not None:
        _current.close()
    _current = None
