"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration and usage problems exit
with 1, broken input data or artifact files with 2, numerical failures
(diverged training or domain fits, non-finite candidate scores) with 3.
"""

from __future__ import annotations


class DrekgeError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(DrekgeError):
    """Invalid or inconsistent configuration (bad flag values, dimension
    mismatches, staged training without a base model, and so on)."""


class DataError(DrekgeError):
    """Broken input data: unparseable triple files, corrupt or truncated
    model files, unknown entity or relation labels."""


class ParseError(DataError):
    """A triple file line that does not have exactly three non-empty
    tab-separated fields, or that holds a byte that is not valid UTF-8.
    Carries the offending path and 1-based line number."""

    def __init__(self, path: str, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


class FormatError(DataError):
    """A binary artifact file with a bad magic line, wrong field counts,
    or a payload that fails its length check."""


class UnknownLabelError(DataError):
    """An entity or relation label that is not in the vocabulary.

    ``suggestions`` holds the nearest known labels by edit distance.
    """

    def __init__(self, label: str, kind: str, suggestions: list[str]):
        hint = ", ".join(suggestions) if suggestions else "no close matches"
        super().__init__(f"unknown {kind} label {label!r} (closest: {hint})")
        self.label = label
        self.kind = kind
        self.suggestions = suggestions


class StaleDomainModelError(DrekgeError):
    """Domain ellipsoids were fitted against a different embedding model
    than the one they are being applied to (fingerprint mismatch)."""


class NumericalError(DrekgeError):
    """Numerical failure outside training (non-finite intermediate)."""


class TrainingDivergedError(NumericalError):
    """Training produced a non-finite loss or parameter value."""

    def __init__(self, epoch: int, what: str = "loss"):
        super().__init__(f"training diverged at epoch {epoch}: non-finite {what}")
        self.epoch = epoch


class DegeneratePointError(DrekgeError):
    """A point coincides with an ellipsoid center to within the quadratic
    form floor, so the radial distance is undefined. Callers either skip
    the sample or substitute a zero distance."""
