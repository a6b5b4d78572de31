"""Exception hierarchy of the reproduction.

Raising bare ``ValueError``/``RuntimeError`` from deep inside the harness
gives operators a stack trace instead of an instruction; these types carry
enough structure for the CLI layer to print one actionable line and pick a
meaningful exit code (see ``repro.experiments.runner``).

The hierarchy:

* :class:`ReproError` — base class; ``except ReproError`` at a CLI boundary
  catches every error this package raises deliberately.
* :class:`ConfigError` — the *request* is wrong (unknown scale/kernel/sorter,
  malformed fault spec, resume selection that contradicts the recorded run).
  Also a :class:`ValueError`, so long-standing ``except ValueError`` call
  sites keep working.
* :class:`CheckpointCorruptError` — a checkpoint store under
  ``.repro_runs/<run-id>/`` cannot be trusted: a manifest, journal or result
  file failed to parse or carries an unknown schema version.  Always names
  the offending path so the operator can inspect or delete it.
* :class:`SanitizerError` — the runtime sanitizer (``repro.verify``) caught
  an invariant violation: an out-of-bounds access, an unaccounted or
  miscounted memory operation, or array contents diverging from what the
  modeled corruption permits.  Carries enough context (array, operation,
  index) to reproduce the offending access.
"""

from __future__ import annotations

from pathlib import Path


class ReproError(Exception):
    """Base class for every deliberate error raised by this package."""


class ConfigError(ReproError, ValueError):
    """A configuration value (argument, flag, or environment) is invalid.

    Inherits :class:`ValueError` for backward compatibility with callers
    that predate the hierarchy.
    """


class SanitizerError(ReproError):
    """The runtime sanitizer observed an invariant violation.

    Attributes
    ----------
    invariant:
        Short name of the violated invariant (``"bounds"``, ``"accounting"``,
        ``"integrity"``, ``"word_range"``, ``"divergence"``, ``"interface"``
        for a method the sanitizer does not check).
    array:
        Name/region label of the offending array.
    op:
        The operation during which the violation was observed
        (``"write_block"``, ``"gather_np"``, ...).
    detail:
        Human-readable description with the observed and expected values.
    """

    def __init__(
        self, invariant: str, array: str, op: str, detail: str
    ) -> None:
        self.invariant = invariant
        self.array = array
        self.op = op
        self.detail = detail
        super().__init__(
            f"sanitizer: {invariant} violation in {op} on {array!r}: {detail}"
        )


class CheckpointCorruptError(ReproError):
    """A checkpoint file cannot be parsed or is schema-incompatible.

    Attributes
    ----------
    path:
        The offending file (manifest, journal, or result record).
    detail:
        What was wrong with it.
    """

    def __init__(self, path: "str | Path", detail: str) -> None:
        self.path = Path(path)
        self.detail = detail
        super().__init__(
            f"{self.path}: {detail} (inspect or delete the run directory to"
            " discard the checkpoint)"
        )
