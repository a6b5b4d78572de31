"""Outside-in layer ledger: wall-clock timers around the calls into each layer.

The benchmark measures the program without changing it, so the timers live
here.  Two kinds of timed region feed one :class:`Ledger`:

* **steps** — the public calls the benchmark's replay of an op makes itself
  (``PreciseArray(...)``, ``sorter.sort``, ``find_rem_ids``, ...), timed with
  :meth:`Ledger.step`;
* **entry points** — memory-layer and pool methods the program calls from
  inside those steps, timed by wrapping the class attribute for the length of
  an :func:`installed` block.

Each layer is a *family* of timed regions.  A call that starts while its own
family is already open runs untimed, so nested calls count once, at the
outermost level.  Every region records its inclusive duration and its self
time: the duration minus the time covered by timed regions nested in it.

Self time needs no stack.  ``Ledger.covered`` is the sum of the self times of
every region closed so far; because self times tile, a region that closes
after ``d`` seconds covered exactly ``covered_now - covered_at_open`` of them
with nested regions, and leaves ``covered`` at ``covered_at_open + d``.  The
per-word entry points are called hundreds of thousands of times per op, so
the wrapper does as little as that allows.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator

#: Family that also counts the words its outermost calls write, read as the
#: change in ``self.stats.approx_writes`` across the call.
APPROX_WRITE = "memory.approx_write"


class Family:
    """Accumulated totals of one layer's outermost regions."""

    __slots__ = ("inclusive", "self_s", "calls", "words", "open")

    def __init__(self) -> None:
        self.inclusive = 0.0
        self.self_s = 0.0
        self.calls = 0
        self.words = 0
        self.open = False


class Ledger:
    """The families of one traced phase and the time they cover."""

    def __init__(self) -> None:
        self.families: dict[str, Family] = {}
        #: Sum of the self times of all closed regions: the time covered by
        #: regions that opened with no region open.
        self.covered = 0.0

    def family(self, name: str) -> Family:
        return self.families.setdefault(name, Family())

    @contextmanager
    def step(self, name: str) -> Iterator[None]:
        """Time one replay step as a region of family ``name``."""
        acc = self.family(name)
        if acc.open:
            yield
            return
        acc.open = True
        covered0 = self.covered
        t0 = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - t0
            acc.open = False
            acc.inclusive += duration
            acc.self_s += duration - (self.covered - covered0)
            acc.calls += 1
            self.covered = covered0 + duration

    def wrap(self, name: str, fn):
        """``fn`` timed as a region of family ``name``."""
        acc = self.family(name)
        ledger = self
        perf = time.perf_counter
        counts_words = name == APPROX_WRITE

        def timed(*args, **kwargs):
            if acc.open:
                return fn(*args, **kwargs)
            acc.open = True
            if counts_words:
                stats = args[0].stats
                before = stats.approx_writes
            covered0 = ledger.covered
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf() - t0
                acc.open = False
                acc.inclusive += duration
                acc.self_s += duration - (ledger.covered - covered0)
                acc.calls += 1
                ledger.covered = covered0 + duration
                if counts_words:
                    acc.words += stats.approx_writes - before

        timed.__wrapped__ = fn
        return timed


def entry_points() -> "list[tuple[type, str, str]]":
    """``(class, method, family)`` for every memory-layer and pool entry point.

    ``write_block_np`` is inherited and forwards to ``write_block``, so the
    block writers are covered through ``write_block``.
    """
    from repro.memory import ApproxArray, PreciseArray, WordErrorModel
    from repro.parallel import WorkerPool

    points = []
    for name in ("write", "write_block", "scatter_np"):
        points.append((ApproxArray, name, APPROX_WRITE))
        points.append((PreciseArray, name, "memory.precise_write"))
    for name in ("read", "read_block", "read_block_np", "gather_np"):
        points.append((ApproxArray, name, "memory.approx_read"))
    for name in ("block_cost_and_no_error", "word_write_cost"):
        points.append((WordErrorModel, name, "memory.cost_lookup"))
    for name in ("corrupt_block", "corrupt_word_given_u"):
        points.append((WordErrorModel, name, "memory.corruption"))
    points.append((WorkerPool, "run", "parallel.pool_run"))
    return points


@contextmanager
def installed(ledger: Ledger) -> Iterator[Ledger]:
    """Wrap every entry point with ``ledger``'s timers; restore on exit.

    Pool workers forked before the block keep the unwrapped methods, so work
    done inside a worker is covered only by the parent's ``WorkerPool.run``.
    """
    saved = []
    try:
        for cls, name, family in entry_points():
            original = cls.__dict__[name]
            saved.append((cls, name, original))
            setattr(cls, name, ledger.wrap(family, original))
        yield ledger
    finally:
        for cls, name, original in reversed(saved):
            setattr(cls, name, original)
