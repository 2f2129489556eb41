"""Exception types and the fail-closed tolerance test shared across the package.

The command line interface maps these onto stable exit codes:
construction/certification failures -> 1, malformed inputs -> 2,
resource-guard refusals -> 3.
"""

from __future__ import annotations


class PovmQuadError(Exception):
    """Base class for all package-specific errors."""


class ConstructionError(PovmQuadError):
    """A numerical construction failed its certification check.

    Carries the offending residual when one is available.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class InputFormatError(PovmQuadError):
    """Malformed user input: bad arguments, bad files, broken invariants."""


class ResourceLimitError(PovmQuadError):
    """A requested computation exceeds the configured resource guard."""


def exceeds(value: float, tol: float) -> bool:
    """True unless value <= tol, so a NaN value or tolerance never passes.

    Every certification and validation tolerance test goes through here.
    """
    return not value <= tol
