"""Approximate-memory substrate: MLC-PCM cell model, compiled error models,
instrumented arrays, and the Appendix-A spintronic model."""

from .approx_array import ApproxArray, InstrumentedArray, PreciseArray, WORD_LIMIT
from .characterization import (
    CharacterizationPoint,
    characterize,
    characterize_point,
    p_ratio_curve,
)
from .config import (
    CELLS_PER_WORD,
    MLCParams,
    PRECISE_T,
    PRECISE_WRITE_LATENCY_NS,
    READ_LATENCY_NS,
    SPINTRONIC_CONFIGS,
    SpintronicParams,
    WORD_BITS,
    t_sweep,
)
from .error_model import (
    MODEL_CACHE,
    WordErrorModel,
    characterize_cells,
    get_model,
    precise_reference_model,
)
from .spintronic import SpintronicArray, SpintronicErrorModel
from .write_combining import WriteCombiningArray, sort_with_write_combining
from .stats import MemoryStats, write_reduction

__all__ = [
    "ApproxArray",
    "CharacterizationPoint",
    "CELLS_PER_WORD",
    "InstrumentedArray",
    "MLCParams",
    "MODEL_CACHE",
    "MemoryStats",
    "PRECISE_T",
    "PRECISE_WRITE_LATENCY_NS",
    "PreciseArray",
    "READ_LATENCY_NS",
    "SPINTRONIC_CONFIGS",
    "SpintronicArray",
    "SpintronicErrorModel",
    "SpintronicParams",
    "WORD_BITS",
    "WORD_LIMIT",
    "WordErrorModel",
    "WriteCombiningArray",
    "characterize",
    "characterize_cells",
    "characterize_point",
    "get_model",
    "p_ratio_curve",
    "precise_reference_model",
    "sort_with_write_combining",
    "t_sweep",
    "write_reduction",
]
