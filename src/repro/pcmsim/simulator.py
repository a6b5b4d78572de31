"""Trace replay: ties the cache hierarchy and memory controller together.

:class:`PCMSimulator` consumes a trace (from a :class:`TraceRecorder` or a
synthetic generator) and produces a :class:`TimingReport`.  Reads block the
CPU through the hierarchy and — on a full miss — the bank; writes go through
the write-through hierarchy and are posted to the bank's write queue.

Writes to the ``approx`` region use the device write latency scaled by the
configured ``approx_write_factor`` (the measured ``p(t)``), which is how the
hybrid memory of Figure 3 enters the detailed timing model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.obs import get_tracer

from .cache import CacheHierarchy, SetAssociativeCache
from .config import SimulatorConfig, TABLE1_CONFIG
from .trace import TraceEvent

#: When tracing is enabled, sample the aggregate write-queue depth every
#: ``_QUEUE_SAMPLE_EVERY`` replayed events (power of two; masked check).
_QUEUE_SAMPLE_EVERY = 4096


@dataclass
class TimingReport:
    """Aggregate timing of one trace replay (all times in ns)."""

    total_ns: float
    read_ns: float
    write_stall_ns: float
    memory_reads: int
    memory_writes: int
    cache_hit_rates: dict[str, float]
    bank_busy_ns: float
    max_write_queue: int
    row_buffer_hit_rate: float = 0.0

    @property
    def total_ms(self) -> float:
        return self.total_ns / 1e6


class PCMSimulator:
    """Replays traces against the Table-1 memory system."""

    def __init__(self, config: SimulatorConfig = TABLE1_CONFIG) -> None:
        self.config = config
        self._l1 = SetAssociativeCache(config.l1, "L1")
        self._l2 = SetAssociativeCache(config.l2, "L2")
        self._l3 = SetAssociativeCache(config.l3, "L3")
        self.hierarchy = CacheHierarchy(self._l1, self._l2, self._l3)
        # Imported here to avoid a cycle in module docs; controller is part
        # of this package.
        from .controller import MemoryController

        self.controller = MemoryController(
            config.pcm, line_bytes=config.l1.line_bytes
        )

    def _write_latency_for(self, event: TraceEvent) -> float:
        base = self.config.pcm.write_latency_ns
        if event.region == "approx":
            return base * self.config.approx_write_factor
        return base

    def run(self, trace: Iterable[TraceEvent]) -> TimingReport:
        """Replay ``trace`` and return the timing report.

        The clock advances with CPU-visible latency only: cache hit time,
        memory read time, and write stalls.  Outstanding writes are flushed
        at the end so the total includes the full write drain (this is what
        "total memory access time" measures).
        """
        now = 0.0
        read_ns = 0.0
        write_stall_ns = 0.0
        memory_reads = 0
        memory_writes = 0
        tracer = get_tracer()
        events_seen = 0

        for event in trace:
            if event.op == "R":
                latency, to_memory = self.hierarchy.read(event.address)
                if to_memory:
                    latency += self.controller.read(now + latency, event.address)
                    memory_reads += 1
                read_ns += latency
                now += latency
            else:
                latency = self.hierarchy.write(event.address)
                now += latency
                stall = self.controller.write(
                    now, event.address, self._write_latency_for(event)
                )
                write_stall_ns += stall
                now += stall
                memory_writes += 1
            if tracer.enabled:
                events_seen += 1
                if not events_seen % _QUEUE_SAMPLE_EVERY:
                    tracer.gauge(
                        "pcmsim.queued_writes",
                        sum(b.queued_writes for b in self.controller.banks),
                    )

        now = self.controller.flush(now)
        if tracer.enabled:
            for bank in self.controller.banks:
                attrs = {"bank": bank.index}
                tracer.gauge(
                    "pcmsim.bank.max_write_queue",
                    bank.stats.max_write_queue, attrs=attrs,
                )
                tracer.gauge(
                    "pcmsim.bank.busy_ns", bank.stats.busy_ns, attrs=attrs,
                )
        return TimingReport(
            total_ns=now,
            read_ns=read_ns,
            write_stall_ns=write_stall_ns,
            memory_reads=memory_reads,
            memory_writes=memory_writes,
            cache_hit_rates={
                "L1": self._l1.hit_rate,
                "L2": self._l2.hit_rate,
                "L3": self._l3.hit_rate,
            },
            bank_busy_ns=self.controller.total_busy_ns,
            max_write_queue=max(
                bank.stats.max_write_queue for bank in self.controller.banks
            ),
            row_buffer_hit_rate=(
                self.controller.row_hits
                / max(1, self.controller.row_hits + self.controller.row_misses)
            ),
        )


def simulate_trace(
    trace: Iterable[TraceEvent], config: SimulatorConfig = TABLE1_CONFIG
) -> TimingReport:
    """One-shot convenience wrapper around :class:`PCMSimulator`."""
    return PCMSimulator(config).run(trace)
