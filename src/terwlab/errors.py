"""Exception hierarchy for terwlab, and how a report writes a residual that is not finite."""

import math


def finite_or_none(x: float) -> float | None:
    """``x``, or None when it is NaN or infinite: JSON reports write such a residual as null, which strict parsers read."""
    return x if math.isfinite(x) else None


class TerwLabError(Exception):
    """Base class for all terwlab errors."""


class AxiomViolation(TerwLabError):
    """A relation table fails one of the association-scheme axioms.

    ``axiom`` is one of ``"i"`` (partition), ``"ii"`` (diagonal class),
    ``"iii"`` (symmetry), ``"iv"`` (constant triple counts); ``witness``
    holds the offending indices.
    """

    def __init__(self, axiom: str, message: str, witness=None):
        super().__init__(f"axiom ({axiom}) violated: {message}")
        self.axiom = axiom
        self.witness = witness


class InvalidParameter(TerwLabError):
    """A generator or operation was called with out-of-range arguments."""


class ResourceLimit(TerwLabError):
    """Constructing the requested object would exceed the vertex cap."""


class ParseError(TerwLabError):
    """A scheme file is malformed or inconsistent with its declared shape."""


class NotPPolynomial(TerwLabError):
    """No relabeling of the classes satisfies the metric (tridiagonal) pattern."""


class DegenerateSpectrum(TerwLabError):
    """Two eigenvalues of the first intersection matrix coincide within tolerance."""


class OrderingMissing(TerwLabError):
    """An operation needs both a P- and a Q-polynomial ordering but one is absent."""


class NotThin(TerwLabError):
    """The standard module does not split into thin irreducible modules.

    ``witness`` says where: ``(r, g, op, residual)`` for a block of ``g``
    ladders grown from shell ``r`` that is not invariant under ``op``
    (``"A"``), whose rungs under the raising map ``"R"`` vanish for some
    ladders and not for others (``residual`` is then the smallest rung
    norm), or that overlaps another module (``"Gram"``).  For a ladder that
    is not dual thin, ``(r, g, "E", gap)`` when its B^T A B has an eigenvalue
    ``gap`` from every theta_i, else ``(r, g, "E", ranks)`` with its ranks
    rank(E_i W); ``(collected, n)`` when the modules do not add up to n.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class InvalidCell(TerwLabError):
    """The pair (dual endpoint, diameter) lies outside the feasible grid."""


class OutOfRange(TerwLabError):
    """No closed-form multiplicity is available for the requested cell."""


class BetaDegenerate(TerwLabError):
    """The common recurrence coefficient is +/-2, so no admissible q exists."""


class FitFailure(TerwLabError):
    """The eigenvalue sequences do not fit the two-parameter model."""


class NonIntegerMultiplicity(TerwLabError):
    """The multiplicity recurrence produced a value far from an integer."""


class NegativeMultiplicity(TerwLabError):
    """The multiplicity recurrence produced a significantly negative value."""


class NumericalCheckFailure(TerwLabError):
    """A build-time numerical invariant exceeded its tolerance."""
