"""Kernel-mode selection for the vectorized execution path.

The studied algorithms and the refine heuristics each exist in two
implementations:

* ``"scalar"`` — the reference path: per-element and per-block accesses in
  the order the paper's pseudocode performs them.  This path defines the
  accounting and (on approximate memory) the corruption semantics.
* ``"numpy"`` — kernelized: the same accesses expressed through the
  accounted batch primitives of :class:`repro.memory.InstrumentedArray`
  (``read_block_np`` / ``write_block`` / ``gather_np`` / ``scatter_np``),
  with the per-element control flow replaced by vectorized numpy kernels.

Both paths write the same values to the same addresses the same number of
times, and approximate memory keys each write's corruption by (array,
address, write count), so they give bit-identical outputs and accounted
counts on precise and approximate memory alike
(``tests/sorting/test_kernel_equivalence.py``, the ``scalar_numpy_*``
classes of :mod:`repro.verify.oracle`; DESIGN.md section 8).

Numpy is the one default.  The scalar path is selected only explicitly
(``kernels="scalar"``), as the reference the oracle and the tests compare
against; a sorter also stands down to it on its own where the batch
primitives cannot apply (a trace hook, or a ``kernel_safe = False`` array).
"""

from __future__ import annotations

from repro.errors import ConfigError

#: Accepted kernel modes.
KERNEL_MODES = ("scalar", "numpy")


def resolve_kernels(kernels: "str | None" = None) -> str:
    """Validate an explicit kernel mode; ``None`` resolves to numpy."""
    if kernels is None:
        return "numpy"
    if kernels not in KERNEL_MODES:
        raise ConfigError(
            f"kernels must be one of {KERNEL_MODES}, got {kernels!r}"
        )
    return kernels
