"""Exception hierarchy for dppci.

Everything raised on purpose derives from DppError so callers can catch
one base class. Validation failures that mean "this matrix is not a
usable kernel" derive from KernelValidationError.
"""

from __future__ import annotations


class DppError(Exception):
    """Base class for all dppci errors."""


class KernelValidationError(DppError):
    """The input matrix cannot serve as the requested kernel."""


class AsymmetricMatrixError(KernelValidationError):
    """Matrix deviates from symmetry beyond the allowed tolerance."""

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = residual


class NonFiniteError(KernelValidationError):
    """Matrix contains NaN or infinite entries."""


class SpectrumOutOfRangeError(KernelValidationError):
    """Eigenvalues violate the required open interval.

    Carries the offending eigenvalue in ``eigenvalue``.
    """

    def __init__(self, message: str, eigenvalue: float = float("nan")):
        super().__init__(message)
        self.eigenvalue = eigenvalue


class IndexOutOfRangeError(DppError):
    """An index falls outside the ground set {1, ..., n}."""


class OverlappingSetsError(DppError):
    """Index sets that must be disjoint share an element."""


class EmptyQuerySetError(DppError):
    """A query set that must be nonempty is empty."""


class SingularConditioningBlockError(DppError):
    """The conditioning block is numerically singular.

    ``det_estimate`` is the product of its eigenvalues: for a model conditioned
    on an event, the determinant of the event's bordered block, ±Pr(event).
    """

    def __init__(self, message: str, det_estimate: float = 0.0):
        super().__init__(message)
        self.det_estimate = det_estimate


class InvalidToleranceError(DppError):
    """A tolerance is not a finite non-negative real number."""


class ConditioningEventNegligibleError(DppError):
    """The conditioning event has probability too small to divide by."""


class GroundSetTooLargeError(DppError):
    """Exhaustive enumeration was requested for too many elements."""


class NumericalFailureError(DppError):
    """A numerical routine produced an unusable result."""


class ParseError(DppError):
    """A matrix file or index list could not be parsed."""
