"""Exception types shared across the package."""

from __future__ import annotations


class UnsteerError(Exception):
    """Base class for all package-specific errors."""


class UnphysicalParams(UnsteerError):
    """A correlation triple whose Bell-diagonal eigenvalues are not all nonnegative."""


class NonUnitDirection(UnsteerError):
    """A Bloch direction that is not unit length."""


class DimensionMismatch(UnsteerError):
    """Operator or measurement-set dimensions do not fit together."""


class OutOfRange(UnsteerError):
    """A scalar argument outside its documented range."""


class IndexOutOfRange(UnsteerError):
    """A setting index outside the box's range."""


class InvalidBox(UnsteerError):
    """A probability table violating normalization, positivity, or no-signaling."""


class PreconditionViolated(UnsteerError):
    """Input does not satisfy a documented precondition (e.g. non-canonical triple)."""


class PhaseDomainError(UnsteerError):
    """Arcsine argument of the four-state model phases exceeds 1 in magnitude."""


class InvalidModel(UnsteerError):
    """A hidden-state model with a structural defect (negative weight,
    non-stochastic response table, or Bloch norm above 1)."""


class UnsupportedN(OutOfRange):
    """A number of settings outside {2, 3}."""


class DegenerateAxis(UnsteerError):
    """An encoding was requested along an axis with zero correlation."""


class ParseError(UnsteerError):
    """Malformed inline value, unreadable input file or unwritable output path."""
