"""The flight recorder: a crash-time ring buffer of recent obs events.

Post-mortems of a poisoned shard or a crashed experiment need the last
few hundred observability events — but a crashed process can't be asked
after the fact, and full tracing is too expensive to leave on.  The
flight recorder is the black box in between: an always-cheap in-memory
ring (a bounded :class:`collections.deque` of small dicts) that costs a
few appends while healthy and is dumped to a schema-stamped
``flight-<pid>.jsonl`` only when something goes wrong — a worker task
raising, a supervised experiment crashing, or a fault-injection trip.

Recording is unconditional and cheap; *dumping* is gated on the
``REPRO_FLIGHT_DIR`` environment variable so failing tests and ordinary
fault-injection runs don't litter the working tree.  When the variable
is unset :func:`dump_flight` is a no-op returning ``None``.

Sources of events:

* Explicit :func:`record` calls at failure-adjacent sites (pool task
  dispatch/failure, supervisor kill, fault trips).
* When tracing is enabled, :class:`repro.obs.tracer.Tracer` mirrors every
  emitted event into the ring via :meth:`FlightRecorder.mirror`, so a
  crash under ``--trace`` captures the tail of the real span stream even
  if the trace file write was cut off mid-line.

This module is stdlib-only and imports nothing from the rest of
``repro`` so the tracer can import it without a cycle.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from pathlib import Path
from typing import Optional

#: Environment variable: directory to write flight dumps into.  Unset or
#: empty means dumps are disabled (recording still happens — it's cheap).
FLIGHT_DIR_ENV = "REPRO_FLIGHT_DIR"

#: Version stamped into the dump header; bump on shape changes.
FLIGHT_SCHEMA_VERSION = 1

#: Events retained in the ring.  Sized so a dump stays a quick read while
#: still covering the last few pool tasks before a crash.
RING_CAPACITY = 512


class FlightRecorder:
    """Bounded in-memory event ring with an on-demand JSONL dump."""

    def __init__(self, capacity: int = RING_CAPACITY) -> None:
        self.pid = os.getpid()
        self.capacity = capacity
        self._ring: deque = deque(maxlen=capacity)
        self._seq = 0
        self._epoch = time.time()
        self._t0 = time.perf_counter()
        self._dumps = 0

    def __len__(self) -> int:
        return len(self._ring)

    def record(self, kind: str, name: str, **payload) -> None:
        """Append one event (stamped with ts/seq/pid) to the ring."""
        event = {
            "ts": time.perf_counter() - self._t0,
            "seq": self._seq,
            "pid": self.pid,
            "kind": kind,
            "name": name,
        }
        if payload:
            event.update(payload)
        self._seq += 1
        self._ring.append(event)

    def mirror(self, event: dict) -> None:
        """Append an already-stamped tracer event (kept verbatim)."""
        self._seq += 1
        self._ring.append(event)

    def dump(self, reason: str) -> Optional[Path]:
        """Write the ring to ``flight-<pid>.jsonl`` under the armed dir.

        Returns the written path, or ``None`` when :data:`FLIGHT_DIR_ENV`
        is unset (dumping disarmed).  Repeated dumps from one process
        append numbered suffixes rather than overwriting the first.
        """
        directory = os.environ.get(FLIGHT_DIR_ENV)
        if not directory:
            return None
        out_dir = Path(directory)
        out_dir.mkdir(parents=True, exist_ok=True)
        suffix = "" if self._dumps == 0 else f"-{self._dumps}"
        path = out_dir / f"flight-{self.pid}{suffix}.jsonl"
        self._dumps += 1
        header = {
            "flight_meta": True,
            "schema": FLIGHT_SCHEMA_VERSION,
            "reason": reason,
            "pid": self.pid,
            "epoch": self._epoch,
            "events": len(self._ring),
        }
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header, separators=(",", ":")) + "\n")
            for event in self._ring:
                handle.write(json.dumps(event, separators=(",", ":")) + "\n")
        return path


_current: Optional[FlightRecorder] = None


def get_flight() -> FlightRecorder:
    """The process-wide recorder (fresh after a fork — pid-checked)."""
    global _current
    if _current is None or _current.pid != os.getpid():
        _current = FlightRecorder()
    return _current


def dump_flight(reason: str) -> Optional[Path]:
    """Dump the process-wide ring; no-op unless ``REPRO_FLIGHT_DIR`` set."""
    return get_flight().dump(reason)
