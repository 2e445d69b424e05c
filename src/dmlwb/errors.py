"""Exception taxonomy shared by every module.

All domain failures derive from DmlwbError so callers (and the command
line driver) can distinguish "the mathematics refused" from a plain bug.
"""

from __future__ import annotations


class DmlwbError(Exception):
    """Base class for every anticipated domain failure."""


class PolyParseError(DmlwbError):
    """Syntax error in a polynomial or rational-function expression."""

    def __init__(self, message: str, position: int):
        super().__init__(f"syntax error at position {position}: {message}")
        self.position = position


class DegreeCapError(DmlwbError):
    """An operation would exceed the configured total-degree cap."""


class ZeroDenominatorError(DmlwbError):
    """A rational function with identically zero denominator was formed."""


class InverseVerificationError(DmlwbError):
    """A claimed inverse failed the round-trip identity check."""


class MissingInverseError(DmlwbError):
    """An operation that needs the inverse was called on a map without one."""


class IndeterminacyError(DmlwbError):
    """A point of indeterminacy was hit.  Carries the offending point."""

    def __init__(self, message: str, point=None):
        super().__init__(message)
        self.point = point


class ExcludedLocusError(DmlwbError):
    """Raw quadruple coordinates lie in the excluded locus of the quotient."""


class ChartDomainError(DmlwbError):
    """A point lies outside the domain of the requested coordinate chart."""


class ContractionError(DmlwbError):
    """A curve was contracted to a point, so its image is not a curve."""


class NotTriangularError(DmlwbError):
    """The map is not of the triangular shape (a*x + b, A(x)*y + B(x))."""


class ResourceCapError(DmlwbError):
    """An enumeration or search would exceed a configured resource cap."""
