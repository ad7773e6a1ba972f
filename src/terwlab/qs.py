"""Two-parameter model of the eigenvalue sequences and its closed forms.

Away from the Odd graphs and folded cubes, both eigenvalue sequences of an
almost-bipartite P- and Q-polynomial scheme satisfy a common three-term
recurrence theta_{i-1} - beta theta_i + theta_{i+1} = const with
beta = q + 1/q for some q not 0 or +/-1, and fit the model

    theta_i   = theta_0 + h  (1 - q^i)(1 - s q^{i+1}) q^{-i}
    theta*_i  = theta*_0 + h* (1 - q^i)(1 - q^{i-2D-1}) q^{-i}

with h, h* nonzero.  In these coordinates every module intersection
number, and the multiplicity of every class of diameter >= D - 3, is a
rational expression in q and s.  All fitting is done in complex
arithmetic (q sits on the unit circle for the odd cycles); results that
are mathematically real are returned as floats after an imaginary-residual
gate.  The bands of the whole grid are formed as one array computation on
the cell layout that ``SpectralData.layout`` shares with the predicted
grid (:class:`terwlab.predictor.GridLayout`), and pass one such gate
(:func:`qs_band_grid`): the primal bands are held to IMAG_TOL |h| max(1, |s|),
theta*_r to IMAG_TOL |h*| and the dual bands to IMAG_TOL |h*| max(1, |s|)^2,
each scale floored at 1, and a failure names the first value failing in
the order (cell, primal / theta*_r / dual, entry, band).

The fit itself is array work too: the least-squares rows, the model
columns, the residuals and the nonvanishing guards are each one
expression over the exponents.

The excluded families are recognized by their intersection arrays, which
determine them among distance-regular graphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import BetaDegenerate, FitFailure, OutOfRange, finite_or_none
from .predictor import BandGrid, GridLayout, _grid, _require_cell, band_entries
from .spectral import PPolyArray, is_almost_bipartite

#: residual gate for the recurrence and model fits (relative to |theta|)
FIT_TOL = 1e-8
#: margin by which the nonvanishing guards must hold
GUARD_TOL = 1e-6
#: largest imaginary part tolerated when casting model outputs to reals
IMAG_TOL = 1e-8


@dataclass(frozen=True)
class ExclusionReport:
    is_odd_graph: bool
    is_folded_cube: bool

    @property
    def excluded(self) -> bool:
        return self.is_odd_graph or self.is_folded_cube

    @property
    def family(self) -> str | None:
        if self.is_odd_graph:
            return "odd_graph"
        if self.is_folded_cube:
            return "folded_cube"
        return None


def _odd_graph_array(D: int) -> PPolyArray:
    """Intersection array of the Odd graph of diameter D (valency D + 1)."""
    i = np.arange(D + 1)
    k = D + 1
    b = np.where(i % 2 == 0, k - i // 2, k - 1 - i // 2)
    b[D] = 0
    c = (i + 1) // 2
    return PPolyArray(c=c, a=k - b - c, b=b)


def _folded_cube_array(D: int) -> PPolyArray:
    """Intersection array of the folded (2D+1)-cube (valency 2D + 1)."""
    i = np.arange(D + 1)
    b = 2 * D + 1 - i
    b[D] = 0
    return PPolyArray(c=i, a=2 * D + 1 - b - i, b=b)


def exclusion_check(pp: PPolyArray, n: int) -> ExclusionReport:
    """Match the intersection array against the two excluded families.

    Both families are determined by their intersection numbers, so a
    comparison with the closed-form array of the same diameter suffices
    (Brouwer-Cohen-Neumaier, ch. 9); a vertex-count mismatch short-circuits.
    """
    D = pp.D

    def same_array(other: PPolyArray) -> bool:
        return (
            np.array_equal(pp.c, other.c)
            and np.array_equal(pp.a, other.a)
            and np.array_equal(pp.b, other.b)
        )

    is_odd = D >= 2 and n == math.comb(2 * D + 1, D) and same_array(_odd_graph_array(D))
    is_folded = D >= 2 and n == 1 << (2 * D) and same_array(_folded_cube_array(D))
    return ExclusionReport(is_odd_graph=is_odd, is_folded_cube=is_folded)


NOT_ALMOST_BIPARTITE = "scheme is not almost-bipartite"


def skip_reason(pp: PPolyArray, n: int) -> tuple[ExclusionReport | None, str | None]:
    """Why the q,s model does not apply to a P- and Q-polynomial scheme.

    The model needs an almost-bipartite scheme outside the excluded
    families with D >= 3.  Returns the exclusion report (None when the
    scheme is not almost-bipartite, as the families are not matched then)
    and the first rule that fails, or None when the model applies.
    """
    if not is_almost_bipartite(pp):
        return None, NOT_ALMOST_BIPARTITE
    excl = exclusion_check(pp, n)
    if excl.excluded:
        return excl, f"excluded family: {excl.family}"
    if pp.D < 3:
        return excl, f"q,s model needs D >= 3, scheme has D = {pp.D}"
    return excl, None


@dataclass(frozen=True)
class QSParams:
    """Fitted model parameters together with the fit diagnostics."""

    q: complex
    s: complex
    h: complex
    hstar: complex
    beta: float
    gamma: float
    gamma_star: float
    theta0: float
    theta_star0: float
    D: int
    fit_residual: float

    def as_dict(self) -> dict:
        return {
            "q": [self.q.real, self.q.imag],
            "s": [self.s.real, self.s.imag],
            "h": [self.h.real, self.h.imag],
            "hstar": [self.hstar.real, self.hstar.imag],
            "beta": self.beta,
            "gamma": self.gamma,
            "gamma_star": self.gamma_star,
            "fit_residual": finite_or_none(self.fit_residual),
        }


def qs_theta(params: QSParams, i: int) -> complex:
    q, s, h = params.q, params.s, params.h
    return h * q ** (-i) * (1 + s * q ** (2 * i + 1))


def qs_theta_star(params: QSParams, i: int) -> complex:
    q, hs = params.q, params.hstar
    return params.theta_star0 + hs * (1 - q**i) * (1 - q ** (i - 2 * params.D - 1)) * q ** (-i)


def _real(value: complex, scale: float = 1.0) -> float:
    if abs(value.imag) > IMAG_TOL * max(1.0, scale):
        raise FitFailure(f"value {value} has a non-negligible imaginary part")
    return float(value.real)


def fit_qs(theta, theta_star, D: int) -> QSParams:
    """Fit (q, s, h, h*) to the eigenvalue sequences.

    beta, and the two recurrence constants, come from a joint least-squares
    over i = 1..D-1; q solves q + 1/q = beta with the root of modulus at
    least one (non-negative imaginary part on the unit circle).  h and
    h * s are linear in the primal model, h* in the dual one.  If the
    preferred root drives h to zero the reciprocal root is used instead.
    Every nonvanishing guard and both closed forms for h and h* are
    verified before returning.
    """
    th = np.asarray(theta, dtype=np.float64)
    ths = np.asarray(theta_star, dtype=np.float64)
    if D < 3:
        raise FitFailure(f"the model needs D >= 3, got D = {D}")
    scale = max(1.0, float(np.abs(th).max()), float(np.abs(ths).max()))

    i = np.arange(1, D)
    rows = np.zeros((2 * (D - 1), 3))  # row 2(i-1) for theta, row 2(i-1) + 1 for theta*
    rows[0::2, 0], rows[0::2, 1] = th[i], 1.0
    rows[1::2, 0], rows[1::2, 2] = ths[i], 1.0
    rhs = np.empty(2 * (D - 1))
    rhs[0::2], rhs[1::2] = th[i - 1] + th[i + 1], ths[i - 1] + ths[i + 1]
    (beta, gamma, gamma_star), *_ = np.linalg.lstsq(rows, rhs, rcond=None)
    recur_residual = float(np.abs(rows @ [beta, gamma, gamma_star] - rhs).max())
    if recur_residual > FIT_TOL * scale:
        raise FitFailure(f"no common three-term recurrence: residual {recur_residual:.3e}")
    if abs(beta - 2.0) < GUARD_TOL or abs(beta + 2.0) < GUARD_TOL:
        raise BetaDegenerate(f"beta = {beta} admits no valid q")

    root = np.sqrt(complex(beta) ** 2 - 4)
    q1, q2 = (beta + root) / 2, (beta - root) / 2
    q = q1 if abs(q1) >= abs(q2) else q2
    if abs(abs(q) - 1.0) < 1e-9:
        q = q1 if q1.imag >= 0 else q2

    i = np.arange(1, D + 1)

    def fit_primal(q):
        rise = 1 - q**i
        M = np.stack([rise * q ** (-i), -q * rise], axis=1)
        sol, *_ = np.linalg.lstsq(M, (th[1:] - th[0]).astype(complex), rcond=None)
        return sol[0], sol[1]

    h, hs_prod = fit_primal(q)
    if abs(h) < 1e-10 * scale:
        q = 1 / q
        h, hs_prod = fit_primal(q)
    if abs(h) < 1e-10 * scale:
        raise FitFailure("h vanishes for both roots of the recurrence")
    s = hs_prod / h

    col = (1 - q**i) * (1 - q ** (i - 2 * D - 1)) * q ** (-i)
    sol, *_ = np.linalg.lstsq(col[:, None], (ths[1:] - ths[0]).astype(complex), rcond=None)
    hstar = sol[0]

    params = QSParams(
        q=complex(q), s=complex(s), h=complex(h), hstar=complex(hstar),
        beta=float(beta), gamma=float(gamma), gamma_star=float(gamma_star),
        theta0=float(th[0]), theta_star0=float(ths[0]), D=D, fit_residual=0.0,
    )

    i = np.arange(D + 1)
    resid = float(np.abs(np.stack([
        th - th[0] - h * (1 - q**i) * (1 - s * q ** (i + 1)) * q ** (-i),
        ths - qs_theta_star(params, i),
        th - qs_theta(params, i),
    ])).max())  # a NaN is the result, and fails the stage gate
    if resid > FIT_TOL * scale:
        raise FitFailure(f"model residual {resid:.3e} exceeds tolerance")
    params = replace(params, fit_residual=float(resid))

    _verify_guards(params)
    _verify_closed_forms(params)
    return params


def _verify_guards(params: QSParams) -> None:
    """Nonvanishing conditions implied by distinctness of the eigenvalues."""
    q, s, h, hstar, D = params.q, params.s, params.h, params.hstar, params.D
    if min(abs(q), abs(h), abs(hstar)) < GUARD_TOL:
        raise FitFailure("q, h, h* must be nonzero")
    qi = q ** np.arange(2 * D + 2)
    for miss, lo, hi, message in (
        (np.abs(qi - 1), 1, 2 * D, "q^{} = 1 violates the eigenvalue distinctness guard"),
        (np.abs(s * qi - 1), 2, 2 * D, "s q^{} = 1 violates the eigenvalue distinctness guard"),
        (np.abs(s * qi + 1), 1, 2 * D + 1, "s q^{} = -1 violates the module nonvanishing guard"),
    ):
        hit = np.flatnonzero(miss[lo:hi + 1] < GUARD_TOL)
        if len(hit):  # name the first failing exponent of the first failing guard
            raise FitFailure(message.format(lo + int(hit[0])))


def _verify_closed_forms(params: QSParams) -> None:
    q, s, h, hstar, D = params.q, params.s, params.h, params.hstar, params.D
    h_closed = (q - q ** (2 * D)) / ((q - 1) * (1 + s * q ** (2 * D + 1)))
    hstar_closed = (
        q ** (2 * D + 1) * (1 - s * q**2) * (1 - s * q**3)
        / ((1 - q**2) * (1 - s**2 * q ** (2 * D + 4)))
    )
    if abs(h - h_closed) > FIT_TOL * max(1.0, abs(h)):
        raise FitFailure(f"h = {h} does not match its closed form {h_closed}")
    if abs(hstar - hstar_closed) > FIT_TOL * max(1.0, abs(hstar)):
        raise FitFailure(f"h* = {hstar} does not match its closed form {hstar_closed}")


def _qs_grid(params: QSParams, layout: GridLayout) -> tuple:
    """Bands of every feasible cell in the q, s coordinates, before the realness gate.

    Returns the grid, whose bands other than a* are still complex, and
    theta*_r of the cell of each entry, r = D - d.  Every power of q comes
    from one table of q^k, k = -(4D + 2)..4D + 2, which holds q^-k at
    position -k, so that an exponent indexes it as it is.
    """
    q, s, h, hstar, D = params.q, params.s, params.h, params.hstar, params.D
    K = 4 * D + 2  # no exponent below exceeds 4D + 2 in size
    Q = (q ** np.r_[0:K + 1, -K:0]).take  # Q(k) = q^k

    d_all, (inner, first, last, single) = layout.entry_d, layout.kinds
    c, a, b, cs, bs = (np.zeros(len(d_all), dtype=complex) for _ in range(5))
    s2 = s**2

    t, d, i, at = inner
    # exponents shared between the bands: u = t + i, w = 2u, v = 2(d - i), x = 2t + 2, y = x + w
    u = t + i
    w, v, x = 2 * u, 2 * (d - i), 2 * t + 2
    y = x + w
    den = Q(u) * (Q(v + 1) - 1)
    c[at] = h * (1 - Q(i)) * (1 + s * Q(x + v + i)) / den
    b[at] = h * (Q(v + i + 1) - 1) * (1 + s * Q(u + t + 1)) / den
    odd = 1 - s * Q(w + 1)
    cs[at] = hstar * (1 - Q(2 * i)) * (1 - s2 * Q(y + 2 * d)) / (Q(D + d + 1) * (1 - s * Q(w)) * odd)
    bs[at] = hstar * (Q(v) - 1) * (1 - s2 * Q(y)) / (Q(D + v - d) * (1 - s * Q(w + 2)) * odd)

    t, d, _, at = first
    b[at] = h * Q(-t) * (s * Q(2 * t + 1) + 1)
    bs[at] = hstar * (Q(2 * d) - 1) * (1 + s * Q(2 * t + 1)) / (Q(D + d) * (1 - s * Q(2 + 2 * t)))

    t, d, _, at = last
    c[at] = h * (1 - Q(d)) * (1 + s * Q(2 + d + 2 * t)) / (Q(t + d) * (q - 1))
    a[at] = h * (Q(d + 1) - 1) * (1 + s * Q(1 + d + 2 * t)) / (Q(t + d) * (q - 1))
    cs[at] = hstar * (1 - Q(2 * d)) * (1 + s * Q(2 * t + 2 * d + 1)) / (Q(D + d + 1) * (1 - s * Q(2 * t + 2 * d)))

    t, _, _, at = single
    a[at] = h * Q(-t) * (1 + s * Q(2 * t + 1))

    theta_star_r = qs_theta_star(params, np.arange(D + 1))[D - d_all]
    as_ = theta_star_r.real - bs.real - cs.real
    return _grid(layout, (c, a, b), (cs, as_, bs)), theta_star_r


def qs_band_grid(params: QSParams, layout: GridLayout | None = None) -> BandGrid:
    """The real bands of every feasible cell in the q, s coordinates, laid out by ``layout``.

    ``layout`` is ``band_entries(params.D)``, built here when not given;
    ``SpectralData.layout`` shares one with the predicted grid.  One
    realness gate reads every complex value of the grid: c, a and b
    against the scale |h| max(1, |s|), theta*_r of each entry against
    |h*|, and c* and b* against |h*| max(1, |s|)^2, each imaginary part
    within ``IMAG_TOL`` times that scale floored at 1 (a NaN passes); a*
    is formed from real parts.  When values fail, :class:`FitFailure`
    names the first in the order (cell, primal / theta*_r / dual, entry,
    band), which is the order the cells are read one by one in: c_0, b_d
    and a_i for i < d are exact zeros and never fail.
    """
    grid, theta_star_r = _qs_grid(params, band_entries(params.D) if layout is None else layout)
    (c, a, b), (cs, as_, bs) = grid.cab, grid.cab_star
    values = np.stack([c, a, b, theta_star_r, cs, bs])
    s = max(1.0, abs(params.s))
    scales = np.repeat([abs(params.h) * s, abs(params.hstar), abs(params.hstar) * s**2], [3, 1, 2])
    over = np.abs(values.imag) > IMAG_TOL * np.maximum(1.0, scales)[:, None]
    if over.any():
        row, entry = np.nonzero(over)
        cell = np.searchsorted(np.sort(grid.first[grid.first >= 0]), entry, side="right")
        group, band = np.array([0, 0, 0, 1, 2, 2])[row], np.array([0, 1, 2, 0, 0, 1])[row]
        k = np.lexsort((band, entry, group, cell))[0]
        _real(complex(values[row[k], entry[k]]), scales[row[k]])  # raises, naming the first value
    return replace(grid, cab=(c.real, a.real, b.real), cab_star=(cs.real, as_, bs.real))


def qs_multiplicity(params: QSParams, t: int, d: int) -> float:
    """Closed-form multiplicity for cells of diameter at least D - 3."""
    q, s, D = params.q, params.s, params.D
    _require_cell(t, d, D)
    if d < D - 3:
        raise OutOfRange(f"no closed form for ({t}, {d}) with d < D - 3 = {D - 3}")
    if (t, d) == (0, D):
        value = complex(1.0)
    elif (t, d) == (1, D - 1):
        value = (q ** (2 * D) - 1) * (1 + s * q**2) / ((1 - q) * (1 + s * q ** (2 * D + 1)))
    elif (t, d) == (1, D - 2):
        value = (
            (q ** (2 * D) - q**2) * (1 + s * q) * (1 + s * q**2) * (s * q ** (2 * D + 2) - 1)
            / ((q**2 - 1) * (s**2 * q ** (2 * D + 4) - 1) * (1 + s * q ** (2 * D + 1)))
        )
    elif (t, d) == (2, D - 2):
        value = (
            (q ** (2 * D) - 1) * (q ** (2 * D) - q**2) * (1 + s * q) * (1 + s * q**4)
            * (s**2 * q ** (2 * D + 3) - 1)
            / (
                q * (q + 1) * (q - 1) ** 2 * (s**2 * q ** (2 * D + 4) - 1)
                * (1 + s * q ** (2 * D)) * (1 + s * q ** (2 * D + 1))
            )
        )
    elif (t, d) == (2, D - 3):
        value = (
            (q ** (2 * D) - 1) * (q ** (2 * D) - q**4) * (1 + s * q) * (1 + s * q**2)
            * (1 + s * q**4) * (1 - s * q ** (2 * D + 2))
            / (
                q * (q - 1) * (q**2 - 1) * (1 + s * q ** (2 * D + 1)) * (s * q ** (D + 3) - 1)
                * (q + s * q ** (2 * D)) * (1 + s * q ** (D + 3))
            )
        )
    else:  # (3, D - 3), the last cell with d >= D - 3
        value = (
            (q ** (2 * D) - 1) * (q ** (2 * D) - q**2) * (q ** (2 * D) - q**4)
            * (1 + s * q) * (1 + s * q**2) * (1 + s * q**6) * (1 - s**2 * q ** (2 * D + 3))
            / (
                q**2 * (q - 1) * (q**2 - 1) * (q**3 - 1) * (1 + s * q ** (D + 3))
                * (s * q ** (D + 3) - 1) * (q + s * q ** (2 * D)) * (1 + s * q ** (2 * D))
                * (1 + s * q ** (2 * D + 1))
            )
        )
    return _real(value, max(1.0, abs(value)))


def closed_form_multiplicities(params: QSParams) -> dict:
    """:func:`qs_multiplicity` on the six cells with d >= D - 3, in sorted (t, d) order; each has t <= D - d <= 3."""
    D = params.D  # the feasible d >= D - 3 for one t run from max(D - 3, D - 2t) to D - t
    return {(t, d): qs_multiplicity(params, t, d) for t in range(4) for d in range(max(D - 3, D - 2 * t), D - t + 1)}
