"""Access accounting shared by the precise and approximate memory arrays.

The paper's primary metric is *total memory write latency* (TMWL) and its
normalized cousin TEPMW ("total equivalent precise memory writes",
Section 4.3): one precise write counts 1.0, one approximate write counts
``p(t)`` — the ratio of P&V iterations it needed relative to a precise write.

:class:`MemoryStats` accumulates both, plus raw operation counts and energy
(used by the spintronic model of Appendix A where the unit of account is
write energy rather than write latency).
"""

from __future__ import annotations

import math

from .config import PRECISE_WRITE_LATENCY_NS, READ_LATENCY_NS


#: The integer counters of a :class:`MemoryStats`, in ``as_dict`` order
#: around the derived ``approx_write_units``.
_COUNTERS = (
    "precise_reads", "precise_writes", "approx_reads", "approx_writes",
    "corrupted_writes",
)


class MemoryStats:
    """Mutable accumulator of memory-access counts and costs.

    Attributes
    ----------
    precise_reads, precise_writes:
        Operation counts against the precise region.
    approx_reads, approx_writes:
        Operation counts against the approximate region.
    approx_write_units:
        Sum over approximate writes of their cost in *precise-write
        equivalents* (``p(t)`` units for PCM, ``1 - energy_saving`` for the
        spintronic model).  It is derived from integer counts, one per cost
        weight: for PCM, the cells written at each level under the array's
        model; for the spintronic model, the words written at its
        ``write_cost``.  The sum is correctly rounded (``math.fsum``), so it
        depends on the counts alone, never on the order or the grouping of
        the writes that made them.
    corrupted_writes:
        Number of approximate writes whose stored value deviated from the
        value written.
    """

    def __init__(
        self,
        precise_reads: int = 0,
        precise_writes: int = 0,
        approx_reads: int = 0,
        approx_writes: int = 0,
        approx_write_units: float = 0.0,
        corrupted_writes: int = 0,
    ) -> None:
        self.precise_reads = precise_reads
        self.precise_writes = precise_writes
        self.approx_reads = approx_reads
        self.approx_writes = approx_writes
        self.corrupted_writes = corrupted_writes
        #: Cost weight -> integer count charged at it.
        self._units: "dict[float, int]" = (
            {approx_write_units: 1} if approx_write_units else {}
        )
        #: A delta's units: the difference of the two totals it spans.
        self._span_units: "float | None" = None

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def record_precise_read(self, count: int = 1) -> None:
        self.precise_reads += count

    def record_precise_write(self, count: int = 1) -> None:
        self.precise_writes += count

    def record_approx_read(self, count: int = 1) -> None:
        self.approx_reads += count

    def record_approx_write(self, units: float, corrupted: bool = False) -> None:
        self.record_approx_write_block(1, units, int(corrupted))

    def record_approx_write_block(
        self, count: int, units: float, corrupted: int = 0
    ) -> None:
        """``count`` approximate writes costing ``units`` in all."""
        self.charge_approx_writes(count, (units,), (1,), corrupted)

    def charge_approx_writes(
        self, count: int, weights, counts, corrupted: int = 0
    ) -> None:
        """``count`` approximate writes costing ``counts[i]`` units of
        ``weights[i]`` each (integer counts)."""
        self.approx_writes += count
        self.corrupted_writes += corrupted
        units = self._units
        for weight, n in zip(weights, counts):
            units[weight] = units.get(weight, 0) + n

    # ------------------------------------------------------------------ #
    # Derived metrics
    # ------------------------------------------------------------------ #

    @property
    def approx_write_units(self) -> float:
        if self._span_units is not None:
            return self._span_units
        return math.fsum(weight * n for weight, n in self._units.items())

    @property
    def total_writes(self) -> int:
        """Raw count of write operations, both regions."""
        return self.precise_writes + self.approx_writes

    @property
    def total_reads(self) -> int:
        """Raw count of read operations, both regions."""
        return self.precise_reads + self.approx_reads

    @property
    def equivalent_precise_writes(self) -> float:
        """TEPMW: precise writes plus cost-weighted approximate writes."""
        return self.precise_writes + self.approx_write_units

    @property
    def write_latency_ns(self) -> float:
        """TMWL under the constant-precise-write-latency model (Section 4.3)."""
        return self.equivalent_precise_writes * PRECISE_WRITE_LATENCY_NS

    @property
    def read_latency_ns(self) -> float:
        """Total read latency (reads are precise in both models)."""
        return self.total_reads * READ_LATENCY_NS

    # ------------------------------------------------------------------ #
    # Composition
    # ------------------------------------------------------------------ #

    def merge(self, other: "MemoryStats") -> "MemoryStats":
        """Accumulate ``other`` into ``self`` and return ``self``.

        Counts add exactly, so merged deltas tile their total exactly.
        """
        for name in _COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        units = self._units
        for weight, n in other._units.items():
            units[weight] = units.get(weight, 0) + n
        self._span_units = None
        return self

    def as_dict(self) -> dict:
        """Plain-dict view of the counters (exact, JSON-serializable).

        The canonical form for bit-identity comparisons (the differential
        oracle of :mod:`repro.verify`) and for persisted records.
        """
        return {
            "precise_reads": self.precise_reads,
            "precise_writes": self.precise_writes,
            "approx_reads": self.approx_reads,
            "approx_writes": self.approx_writes,
            "approx_write_units": self.approx_write_units,
            "corrupted_writes": self.corrupted_writes,
        }

    def __eq__(self, other) -> bool:
        if not isinstance(other, MemoryStats):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in self.as_dict().items())
        return f"MemoryStats({fields})"

    def snapshot(self) -> "MemoryStats":
        """Return an independent copy of the current counters."""
        copy = MemoryStats().merge(self)
        copy._span_units = self._span_units
        return copy

    def delta_since(self, earlier: "MemoryStats") -> "MemoryStats":
        """Counters accumulated since ``earlier`` (a prior :meth:`snapshot`).

        Its integer counts are the differences, so deltas merge back into
        their total exactly; its ``approx_write_units`` reads as the
        difference of the two totals, so a trace span's payload satisfies
        ``stats == cum - cum_start`` field by field.
        """
        delta = MemoryStats()
        for name in _COUNTERS:
            setattr(delta, name, getattr(self, name) - getattr(earlier, name))
        before = earlier._units
        delta._units = {
            weight: n - before.get(weight, 0)
            for weight, n in self._units.items()
            if n != before.get(weight, 0)
        }
        delta._span_units = self.approx_write_units - earlier.approx_write_units
        return delta


def write_reduction(baseline: float, candidate: float) -> float:
    """The paper's write-reduction metric (Equations 1 and 2).

    ``1 - candidate / baseline`` where both sides are TEPMW or TMWL values;
    positive means the candidate saved writes, negative means it cost more.
    """
    if baseline <= 0:
        raise ValueError("baseline cost must be positive")
    return 1.0 - candidate / baseline
