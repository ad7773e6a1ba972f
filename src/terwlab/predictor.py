"""Closed-form module parameters from the eigenvalue sequences.

For an almost-bipartite P- and Q-polynomial scheme the intersection
numbers of an irreducible module are pinned down by its dual endpoint t
and diameter d alone (the endpoint is forced to r = D - d).  The entries
of the tridiagonal action matrix B(W) come from a 2x2 linear system in
(c_i, b_i) with row sums theta_t; the dual entries from a Vandermonde
3x3 system in (c*_i, a*_i, b*_i) with row sums theta*_r.  These formulas
are evaluated verbatim for every feasible cell, whether or not a module
of that shape exists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidCell


def tridiagonal(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Assemble the (d+1) x (d+1) matrix with bands (c, a, b)."""
    M = np.diag(np.asarray(a, dtype=np.float64))
    if len(a) > 1:
        M += np.diag(np.asarray(b, dtype=np.float64)[:-1], 1)
        M += np.diag(np.asarray(c, dtype=np.float64)[1:], -1)
    return M


def band_gap(x: tuple, y: tuple) -> float:
    """Largest entry of |tridiagonal(*x) - tridiagonal(*y)|, read from the bands.

    Both matrices vanish off the three bands, so the largest entry is the
    largest band difference over a, b[:-1] and c[1:]; no matrix is built.
    """
    (c1, a1, b1), (c2, a2, b2) = x, y
    return float(np.abs(np.concatenate([a1 - a2, b1[:-1] - b2[:-1], c1[1:] - c2[1:]])).max())


def tridiagonal_bands(M: np.ndarray) -> tuple:
    """Recover (c, a, b) with the boundary zeros materialized."""
    d = M.shape[0] - 1
    c = np.concatenate([[0.0], np.diagonal(M, -1)]) if d else np.zeros(1)
    a = np.diagonal(M).astype(np.float64).copy()
    b = np.concatenate([np.diagonal(M, 1), [0.0]]) if d else np.zeros(1)
    return c, a, b


def in_upsilon(t: int, d: int, D: int) -> bool:
    """Membership in the feasible grid: 0 <= d <= D, (D-d)/2 <= t <= D-d."""
    return 0 <= d <= D and 2 * t >= D - d and t <= D - d


def _require_cell(t: int, d: int, D: int) -> int:
    if not in_upsilon(t, d, D):
        raise InvalidCell(f"(t, d) = ({t}, {d}) is not feasible for D = {D}")
    return D - d


def predict_cab(t: int, d: int, theta, theta_star, D: int) -> tuple:
    """Bands (c_i(W), a_i(W), b_i(W)) for the module class (t, d)."""
    r = _require_cell(t, d, D)
    th = np.asarray(theta, dtype=np.float64)
    ths = np.asarray(theta_star, dtype=np.float64)
    if d == 0:
        return np.zeros(1), np.array([th[t]]), np.zeros(1)
    c = np.zeros(d + 1)
    a = np.zeros(d + 1)
    b = np.zeros(d + 1)
    b[0] = th[t]
    for i in range(1, d):
        num_c = th[t] * (ths[r + i + 1] - ths[r + 1]) - th[t + 1] * (ths[r + i] - ths[r])
        c[i] = num_c / (ths[r + i + 1] - ths[r + i - 1])
        num_b = th[t] * (ths[r + i - 1] - ths[r + 1]) - th[t + 1] * (ths[r + i] - ths[r])
        b[i] = num_b / (ths[r + i - 1] - ths[r + i + 1])
    c[d] = (th[t] * (ths[r + d] - ths[r + 1]) - th[t + 1] * (ths[r + d] - ths[r])) / (
        ths[r + d] - ths[r + d - 1]
    )
    a[d] = (th[t] * (ths[r + d - 1] - ths[r + 1]) - th[t + 1] * (ths[r + d] - ths[r])) / (
        ths[r + d - 1] - ths[r + d]
    )
    return c, a, b


def predict_cab_star(t: int, d: int, theta, theta_star, D: int) -> tuple:
    """Bands (c*_i(W), a*_i(W), b*_i(W)) for the module class (t, d).

    These are the quantities written c*_i(t, d), b*_i(t, d) with r = D - d;
    for cells that carry no module they are still well defined and feed the
    multiplicity recurrence.
    """
    r = _require_cell(t, d, D)
    th = np.asarray(theta, dtype=np.float64)
    ths = np.asarray(theta_star, dtype=np.float64)
    if d == 0:
        return np.zeros(1), np.array([ths[r]]), np.zeros(1)
    cs = np.zeros(d + 1)
    bs = np.zeros(d + 1)
    bs[0] = th[t] * (ths[r] - ths[r + 1]) / (th[t] - th[t + 1])
    for i in range(1, d):
        quad = (th[t + i] ** 2 - th[t] ** 2) * (ths[r + 2] - ths[r + 1])
        cs[i] = (quad + (th[t] * th[t + 1] - th[t + i] * th[t + i + 1]) * (ths[r + 1] - ths[r])) / (
            (th[t + i - 1] - th[t + i]) * (th[t + i - 1] - th[t + i + 1])
        )
        bs[i] = (quad + (th[t] * th[t + 1] - th[t + i] * th[t + i - 1]) * (ths[r + 1] - ths[r])) / (
            (th[t + i + 1] - th[t + i]) * (th[t + i + 1] - th[t + i - 1])
        )
    cs[d] = th[t + d] * (ths[r + 1] - ths[r]) / (th[t + d - 1] - th[t + d])
    as_ = ths[r] - bs - cs
    return cs, as_, bs


def predict_B(t: int, d: int, theta, theta_star, D: int) -> np.ndarray:
    """Predicted intersection matrix B(W) for the class (t, d)."""
    return tridiagonal(*predict_cab(t, d, theta, theta_star, D))


def predict_Bstar(t: int, d: int, theta, theta_star, D: int) -> np.ndarray:
    """Predicted dual intersection matrix B*(W) for the class (t, d)."""
    return tridiagonal(*predict_cab_star(t, d, theta, theta_star, D))


def predict_a0star(r: int, t: int, theta, theta_star) -> float:
    """The flat dual coefficient on the lowest shell, for modules with d >= 1."""
    th = np.asarray(theta, dtype=np.float64)
    ths = np.asarray(theta_star, dtype=np.float64)
    if t + 1 >= len(th) or r + 1 >= len(ths):
        raise InvalidCell(f"(r, t) = ({r}, {t}) needs d >= 1")
    return float((ths[r + 1] * th[t] - th[t + 1] * ths[r]) / (th[t] - th[t + 1]))


@dataclass(frozen=True)
class ModuleClass:
    """Predicted data of the isomorphism class with dual endpoint t, diameter d."""

    t: int
    d: int
    r: int
    B: np.ndarray
    Bstar: np.ndarray
    a0star: float | None

    @property
    def dim(self) -> int:
        return self.d + 1


def module_class(t: int, d: int, spectral) -> ModuleClass:
    """Convenience constructor working directly from spectral data."""
    D = spectral.D
    r = _require_cell(t, d, D)
    B = predict_B(t, d, spectral.theta, spectral.theta_star, D)
    Bs = predict_Bstar(t, d, spectral.theta, spectral.theta_star, D)
    a0s = predict_a0star(r, t, spectral.theta, spectral.theta_star) if d >= 1 else None
    return ModuleClass(t=t, d=d, r=r, B=B, Bstar=Bs, a0star=a0s)


@dataclass(frozen=True)
class FeasibilityReport:
    """Consistency checks a genuine module of this class would have to pass.

    A failed product check means no module of the class exists and its
    multiplicity is forced to zero; the eigenvalue and trace checks are
    cross-validations of the prediction formulas themselves.
    """

    t: int
    d: int
    products: tuple
    dual_products: tuple
    eig_B_error: float
    eig_Bstar_error: float
    trace_B_error: float
    trace_Bstar_error: float

    @property
    def products_positive(self) -> bool:
        return all(p > 0 for p in self.products) and all(p > 0 for p in self.dual_products)

    @property
    def feasible(self) -> bool:
        return self.products_positive

    def as_dict(self) -> dict:
        return {
            "t": self.t,
            "d": self.d,
            "products": list(self.products),
            "dual_products": list(self.dual_products),
            "eig_B_error": self.eig_B_error,
            "eig_Bstar_error": self.eig_Bstar_error,
            "trace_B_error": self.trace_B_error,
            "trace_Bstar_error": self.trace_Bstar_error,
            "feasible": self.feasible,
        }


def feasibility(mc: ModuleClass, theta, theta_star) -> FeasibilityReport:
    """Check positivity of consecutive products and the spectral identities.

    The eigenvalues of B(W) must be theta_t, ..., theta_{t+d} and those of
    B*(W) must be theta*_r, ..., theta*_{r+d}; equivalently the traces
    match the corresponding eigenvalue sums.
    """
    t, d, r = mc.t, mc.d, mc.r
    c, _, b = tridiagonal_bands(mc.B)
    cs, _, bs = tridiagonal_bands(mc.Bstar)
    products = tuple(b[i - 1] * c[i] for i in range(1, d + 1))
    dual_products = tuple(bs[i - 1] * cs[i] for i in range(1, d + 1))

    th = np.asarray(theta, dtype=np.float64)
    ths = np.asarray(theta_star, dtype=np.float64)
    eig_B = np.sort(np.linalg.eigvals(mc.B).real)
    eig_Bs = np.sort(np.linalg.eigvals(mc.Bstar).real)
    return FeasibilityReport(
        t=t,
        d=d,
        products=products,
        dual_products=dual_products,
        eig_B_error=float(np.abs(eig_B - np.sort(th[t : t + d + 1])).max()),
        eig_Bstar_error=float(np.abs(eig_Bs - np.sort(ths[r : r + d + 1])).max()),
        trace_B_error=abs(float(np.trace(mc.B)) - float(th[t : t + d + 1].sum())),
        trace_Bstar_error=abs(float(np.trace(mc.Bstar)) - float(ths[r : r + d + 1].sum())),
    )
