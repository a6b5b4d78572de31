"""Journaled checkpoint store for resumable experiment runs.

Layout (DESIGN.md section 10)::

    .repro_runs/<run-id>/
        manifest.json        # schema version + the run's configuration
        journal.jsonl        # append-only event log (start/done/failed/...)
        result-<exp>.json    # one schema-versioned record per finished
                             # experiment, written atomically
        cells-<exp>.jsonl    # per-cell journal of a cell-parallel
                             # experiment (fig09, ext_variance)

Durability contract
-------------------
* Result records are written to a temporary file and ``os.replace``\\ d into
  place, so a result file either exists completely or not at all — a run
  killed mid-write never leaves a half-result behind.
* The journals are append-only JSONL with a flush per line.  A process
  killed mid-append can leave one *torn* final line (no trailing newline);
  readers tolerate exactly that — it is the expected crash artifact — and
  treat any other malformed content as corruption.
* Corruption is never silently skipped: a manifest, journal line, or result
  file that fails to parse (or carries an unknown schema version) raises
  :class:`repro.errors.CheckpointCorruptError` naming the offending path.

Resume semantics
----------------
``runner --resume <run-id>`` loads the manifest, checks that the current
selection/scale/seed match the recorded configuration (mismatches
raise :class:`repro.errors.ConfigError` — a resumed run must be able to
produce bit-identical tables to an uninterrupted one), restores every
completed result, and re-runs only the remainder.  Completed cells of a
cell-parallel experiment are restored by :class:`CellJournal`, so even a
partially finished ``fig09`` re-fans only its missing cells.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path
from typing import IO, Iterator, Optional

from repro.errors import CheckpointCorruptError, ConfigError

from .common import ExperimentTable

#: Version stamped into the manifest and every record; bump on layout or
#: payload changes.  A mismatch on load is corruption, not a migration.
CHECKPOINT_SCHEMA = 1

#: Environment variable overriding the default checkpoint root directory.
RUNS_DIR_ENV = "REPRO_RUNS_DIR"

#: Default root (relative to the working directory) for run checkpoints.
DEFAULT_RUNS_ROOT = ".repro_runs"

#: Configuration keys that must match between a run and its resume for the
#: resumed tables to be bit-identical to an uninterrupted run.
CONFIG_KEYS = ("experiments", "scale", "seed")

_TABLE_FIELDS = (
    "experiment", "title", "columns", "rows", "notes", "paper_reference",
    "extra",
)


def resolve_runs_root(root: "str | Path | None" = None) -> Path:
    """Pick the checkpoint root: explicit argument > env var > default."""
    if root is not None:
        return Path(root)
    return Path(os.environ.get(RUNS_DIR_ENV) or DEFAULT_RUNS_ROOT)


def _atomic_write(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` so that ``path`` is never half-written."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _load_json(path: Path, kind: str) -> dict:
    """Parse one JSON object file; corruption raises with the path."""
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CheckpointCorruptError(path, f"unreadable {kind}: {exc}")
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CheckpointCorruptError(
            path, f"{kind} is not valid JSON ({exc})"
        ) from None
    if not isinstance(payload, dict):
        raise CheckpointCorruptError(
            path, f"{kind} must be a JSON object, got {type(payload).__name__}"
        )
    if payload.get("schema") != CHECKPOINT_SCHEMA:
        raise CheckpointCorruptError(
            path,
            f"{kind} has schema {payload.get('schema')!r}; this build reads"
            f" schema {CHECKPOINT_SCHEMA}",
        )
    return payload


def read_journal(path: Path) -> list[dict]:
    """Parse an append-only JSONL journal.

    A torn final line without a trailing newline — the footprint of a
    process killed mid-append — is dropped.  Any other malformed line
    raises :class:`CheckpointCorruptError` naming the path and line.
    """
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CheckpointCorruptError(path, f"unreadable journal: {exc}")
    lines = raw.split("\n")
    torn_tail = lines and lines[-1] != ""
    if not torn_tail:
        lines = lines[:-1]
    events = []
    for lineno, line in enumerate(lines, start=1):
        if line == "":
            continue
        try:
            event = json.loads(line)
            if not isinstance(event, dict):
                raise ValueError("not a JSON object")
        except ValueError as exc:
            if torn_tail and lineno == len(lines):
                break  # torn final line: the expected crash artifact
            raise CheckpointCorruptError(
                path, f"journal line {lineno} is not valid JSON ({exc})"
            ) from None
        events.append(event)
    return events


class _JournalWriter:
    """Append-only JSONL sink with one flush per event."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self._sink: Optional[IO[str]] = None

    def _repair_torn_tail(self) -> None:
        """Drop a torn final line left by a process killed mid-append.

        Readers tolerate a torn line only as the file's *tail*; appending
        straight after one would merge the fragment and the next event into
        a single malformed interior line, turning the journal unreadable on
        the following resume.  The fragment carries no complete event, so
        truncating it loses nothing a reader would have kept.
        """
        try:
            with open(self.path, "r+b") as sink:
                sink.seek(0, os.SEEK_END)
                size = sink.tell()
                if size == 0:
                    return
                sink.seek(size - 1)
                if sink.read(1) == b"\n":
                    return
                sink.seek(0)
                sink.truncate(sink.read().rfind(b"\n") + 1)
        except FileNotFoundError:
            return

    def append(self, event: dict) -> None:
        if self._sink is None:
            self._repair_torn_tail()
            self._sink = open(self.path, "a", encoding="utf-8")
        self._sink.write(json.dumps(event, separators=(",", ":")) + "\n")
        self._sink.flush()

    def close(self) -> None:
        if self._sink is not None:
            self._sink.close()
            self._sink = None


class RunCheckpoint:
    """One run's checkpoint directory: manifest, journal, result records."""

    def __init__(self, directory: Path, config: dict) -> None:
        self.directory = Path(directory)
        self.config = config
        self._journal = _JournalWriter(self.directory / "journal.jsonl")

    # ------------------------------------------------------------------ #
    # Construction

    @classmethod
    def create(
        cls,
        config: dict,
        run_id: "str | None" = None,
        root: "str | Path | None" = None,
    ) -> "RunCheckpoint":
        """Start a new run directory (auto-generated id when not given)."""
        base = resolve_runs_root(root)
        if run_id is None:
            stamp = time.strftime("%Y%m%d-%H%M%S")
            run_id = f"{stamp}-{os.getpid()}"
            suffix = 0
            while (base / run_id).exists():
                suffix += 1
                run_id = f"{stamp}-{os.getpid()}-{suffix}"
        directory = base / run_id
        if (directory / "manifest.json").exists():
            raise ConfigError(
                f"run {run_id!r} already exists under {base}; resume it with"
                f" --resume {run_id} or pick a different --checkpoint id"
            )
        directory.mkdir(parents=True, exist_ok=True)
        manifest = {
            "schema": CHECKPOINT_SCHEMA,
            "run_id": run_id,
            "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "config": config,
        }
        _atomic_write(
            directory / "manifest.json", json.dumps(manifest, indent=2) + "\n"
        )
        checkpoint = cls(directory, config)
        checkpoint.journal_event("start", config=config)
        return checkpoint

    @classmethod
    def load(
        cls, run_id: str, root: "str | Path | None" = None
    ) -> "RunCheckpoint":
        """Open an existing run for resumption; validates every file."""
        base = resolve_runs_root(root)
        directory = base / run_id
        if not directory.is_dir():
            known = sorted(
                p.name for p in base.glob("*") if (p / "manifest.json").exists()
            ) if base.is_dir() else []
            hint = f"; known runs: {', '.join(known)}" if known else (
                f"; no runs recorded under {base}"
            )
            raise ConfigError(f"unknown run id {run_id!r}{hint}")
        manifest = _load_json(directory / "manifest.json", "manifest")
        config = manifest.get("config")
        if not isinstance(config, dict):
            raise CheckpointCorruptError(
                directory / "manifest.json", "manifest carries no config object"
            )
        checkpoint = cls(directory, config)
        # Fail fast on a corrupt store: parse the journal and every result
        # record before any work is skipped on their account.
        read_journal(checkpoint._journal.path)
        checkpoint.completed()
        return checkpoint

    # ------------------------------------------------------------------ #

    @property
    def run_id(self) -> str:
        return self.directory.name

    def check_config(self, config: dict) -> None:
        """Reject a resume whose configuration differs from the recorded run.

        Scale, seed and the experiment selection all feed the measured
        numbers; silently mixing them would produce tables that are
        *not* bit-identical to an uninterrupted run.
        """
        mismatched = [
            key for key in CONFIG_KEYS
            if config.get(key) != self.config.get(key)
        ]
        if mismatched:
            detail = "; ".join(
                f"{key}: recorded {self.config.get(key)!r}, requested"
                f" {config.get(key)!r}"
                for key in mismatched
            )
            raise ConfigError(
                f"cannot resume run {self.run_id!r} with a different"
                f" configuration ({detail}); rerun with the recorded"
                " settings or start a new run"
            )

    def journal_event(self, ev: str, **fields) -> None:
        """Append one event to the run journal (flushed immediately)."""
        event = {"schema": CHECKPOINT_SCHEMA, "ev": ev,
                 "t": round(time.time(), 3)}
        event.update(fields)
        self._journal.append(event)

    def history(self) -> list[dict]:
        """All journal events recorded so far (validating the file)."""
        if not self._journal.path.exists():
            return []
        return read_journal(self._journal.path)

    # ------------------------------------------------------------------ #
    # Results

    def _result_path(self, name: str) -> Path:
        return self.directory / f"result-{name}.json"

    def record(self, name: str, table: ExperimentTable, elapsed: float) -> None:
        """Persist one finished experiment's table (atomic) and journal it."""
        payload = {
            "schema": CHECKPOINT_SCHEMA,
            "experiment": name,
            "elapsed_s": elapsed,
            "table": json.loads(table.to_json()),
        }
        _atomic_write(
            self._result_path(name), json.dumps(payload, indent=2) + "\n"
        )
        self.journal_event("done", experiment=name, elapsed_s=round(elapsed, 3))

    def completed(self) -> dict[str, tuple[ExperimentTable, float]]:
        """Restore every recorded result: name -> (table, elapsed seconds).

        JSON round-trips floats exactly (shortest-repr), so a restored
        table renders bit-identically to the one the original process
        printed.
        """
        results: dict[str, tuple[ExperimentTable, float]] = {}
        for path in sorted(self.directory.glob("result-*.json")):
            payload = _load_json(path, "result record")
            name = payload.get("experiment")
            if not isinstance(name, str) or not name:
                raise CheckpointCorruptError(
                    path, "result record carries no experiment name"
                )
            data = payload.get("table")
            if not isinstance(data, dict) or not all(
                field in data for field in _TABLE_FIELDS
            ):
                raise CheckpointCorruptError(
                    path, "result record carries no complete table payload"
                )
            table = ExperimentTable(
                **{field: data[field] for field in _TABLE_FIELDS}
            )
            results[name] = (table, float(payload.get("elapsed_s", 0.0)))
        return results

    def cell_journal_path(self, name: str) -> Path:
        """Where the per-cell journal of experiment ``name`` lives."""
        return self.directory / f"cells-{name}.jsonl"

    def close(self) -> None:
        self._journal.close()


def _cell_key(cell: tuple) -> str:
    """Fingerprint of one cell's primitive arguments (config guard)."""
    return hashlib.sha1(repr(tuple(cell)).encode()).hexdigest()[:16]


class CellJournal:
    """Per-cell journal of one cell-parallel experiment.

    ``map_cells`` records each finished cell as one JSONL line keyed by the
    cell's index and an argument fingerprint; on re-run, matching cells are
    restored instead of recomputed, so a crashed or interrupted experiment
    re-fans only its missing cells.  A fingerprint mismatch means the store
    does not belong to this configuration and raises
    :class:`CheckpointCorruptError` rather than mixing measurements.
    """

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)
        self._writer = _JournalWriter(self.path)

    def load(self, cells: list[tuple]) -> dict[int, object]:
        """Restored results by cell index, validated against ``cells``."""
        if not self.path.exists():
            return {}
        restored: dict[int, object] = {}
        for event in read_journal(self.path):
            if event.get("schema") != CHECKPOINT_SCHEMA:
                raise CheckpointCorruptError(
                    self.path,
                    f"cell record has schema {event.get('schema')!r}; this"
                    f" build reads schema {CHECKPOINT_SCHEMA}",
                )
            index = event.get("cell")
            if not isinstance(index, int) or not 0 <= index < len(cells):
                raise CheckpointCorruptError(
                    self.path,
                    f"cell index {index!r} is outside this run's"
                    f" {len(cells)} cells",
                )
            if event.get("key") != _cell_key(cells[index]):
                raise CheckpointCorruptError(
                    self.path,
                    f"cell {index} was recorded for different arguments;"
                    " the journal belongs to another configuration",
                )
            if "value" not in event:
                raise CheckpointCorruptError(
                    self.path, f"cell {index} record carries no value"
                )
            restored[index] = event["value"]
        return restored

    def record(self, index: int, cell: tuple, value: object) -> None:
        """Append one finished cell (value must be JSON-serializable)."""
        self._writer.append({
            "schema": CHECKPOINT_SCHEMA,
            "cell": index,
            "key": _cell_key(cell),
            "value": value,
        })

    def close(self) -> None:
        self._writer.close()


def iter_runs(root: "str | Path | None" = None) -> Iterator[tuple[str, dict]]:
    """Yield ``(run_id, manifest)`` for every readable run under ``root``."""
    base = resolve_runs_root(root)
    if not base.is_dir():
        return
    for directory in sorted(base.iterdir()):
        manifest_path = directory / "manifest.json"
        if manifest_path.exists():
            yield directory.name, _load_json(manifest_path, "manifest")
