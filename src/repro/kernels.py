"""Kernel-mode selection for the vectorized execution path.

The studied algorithms and the refine heuristics each exist in two
semantically equivalent implementations:

* ``"scalar"`` — the reference path: per-element and per-block accesses in
  the order the paper's pseudocode performs them.  This path defines the
  accounting and (on approximate memory) the corruption semantics.
* ``"numpy"`` — kernelized: the same accesses expressed through the
  accounted batch primitives of :class:`repro.memory.InstrumentedArray`
  (``read_block_np`` / ``write_block`` / ``gather_np`` / ``scatter_np``),
  with the per-element control flow replaced by vectorized numpy kernels.

On precise memory both paths produce bit-identical outputs and identical
accounted read/write counts; on approximate memory the numpy path draws its
per-word corruption from the same batched samplers as the block path, so
corruption rates agree in distribution (property-tested in
``tests/sorting/test_kernel_equivalence.py``).  See DESIGN.md section 8.

The mode is chosen per sorter/call (``kernels=`` argument) with a
process-wide default taken from the ``REPRO_KERNELS`` environment variable,
which the experiment runner's ``--kernels`` flag sets — so every experiment
module picks the mode up without per-module plumbing, and forked worker
processes inherit it.
"""

from __future__ import annotations

import os

from repro.errors import ConfigError

#: Environment variable holding the process-wide default kernel mode.
KERNELS_ENV = "REPRO_KERNELS"

#: Accepted kernel modes.
KERNEL_MODES = ("scalar", "numpy")


def resolve_kernels(kernels: "str | None" = None) -> str:
    """Pick the kernel mode: explicit argument > ``REPRO_KERNELS`` > scalar."""
    value = kernels if kernels is not None else os.environ.get(KERNELS_ENV)
    if value is None or value == "":
        return "scalar"
    if value not in KERNEL_MODES:
        raise ConfigError(
            f"kernels must be one of {KERNEL_MODES}, got {value!r}"
            f" (check the {KERNELS_ENV} environment variable or the"
            " kernels= argument)"
        )
    return value
