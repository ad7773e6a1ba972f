"""The feasible grid, the trace identity, and the multiplicity recurrence.

A module class is a pair (t, d) with 0 <= d <= D and
ceil((D - d)/2) <= t <= D - d; the grid of such cells is ordered by

    (t, d) <= (t', d')  iff  t <= t' and t' + d' <= t + d,

so smaller cells start no later and end no earlier.  For each cell the
trace of E_t L*^d R*^d E_t evaluates in closed form to

    m_t * prod_{h=t}^{t+d-1} b*_h c*_{t+d-h}

(the starred quantities are the scheme's Krein-derived array), while the
same trace accumulated module by module gives a linear equation in the
multiplicities of the cells below (t, d).  Walking the grid in a linear
extension solves for every multiplicity; a vanishing leading coefficient
certifies that no module of that shape exists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .context import TerwContext
from .decomposer import IrreducibleModule
from .errors import NegativeMultiplicity, NonIntegerMultiplicity, OrderingMissing
from .predictor import predict_cab_star
from .spectral import SpectralData

#: pre-rounding distance from an integer above which the solve is rejected
ROUNDING_TOL = 1e-4
#: relative threshold for declaring the leading coefficient zero
LEADING_ZERO_TOL = 1e-10


@dataclass(frozen=True)
class Upsilon:
    """The feasible (dual endpoint, diameter) grid with its partial order."""

    D: int
    cells: tuple

    @staticmethod
    def leq(a, b) -> bool:
        """a precedes b: a starts no later and ends no earlier."""
        return a[0] <= b[0] and b[0] + b[1] <= a[0] + a[1]


def build_upsilon(D: int) -> Upsilon:
    """All feasible cells, listed in a linear extension of the order.

    Sorting by (t ascending, t + d descending) puts every cell after all
    of its predecessors, so one forward pass can solve the recurrence.
    """
    cells = [
        (t, d)
        for d in range(D + 1)
        for t in range(-((D - d) // -2), D - d + 1)
    ]
    cells.sort(key=lambda td: (td[0], -(td[0] + td[1])))
    return Upsilon(D=D, cells=tuple(cells))


def trace_ladder(ctx: TerwContext, t: int, dmax: int) -> list:
    """Numerical traces of E_t L*^d R*^d E_t for d = 0..dmax.

    Since L* is the transpose of R*, each trace is the squared Frobenius
    norm of R*^d E_t.  With E_t = U_t U_t^T and U_t^T having orthonormal
    rows, that is the squared Frobenius norm of the n x m_t matrix R*^d U_t;
    the powers are walked once, one product per d.
    """
    M = ctx.spectral.eigenbasis(t)
    traces = [float(np.sum(M * M))]
    for _ in range(dmax):
        M = ctx.Rstar @ M
        traces.append(float(np.sum(M * M)))
    return traces


def krein_product_lhs(spectral: SpectralData, t: int, d: int) -> float:
    """Closed form of the same trace: m_t prod_{h=t}^{t+d-1} b*_h c*_{t+d-h}."""
    bs, cs = spectral.ppstar.b, spectral.ppstar.c
    value = float(spectral.m[t])
    for h in range(t, t + d):
        value *= bs[h] * cs[t + d - h]
    return value


def restricted_trace(ctx: TerwContext, mod: IrreducibleModule, t: int, d: int) -> float:
    """Trace of E_t L*^d R*^d E_t restricted to one module."""
    Ut = ctx.spectral.eigenbasis(t)
    M = Ut @ (Ut.T @ mod.basis)
    for _ in range(d):
        M = ctx.Rstar @ M
    return float(np.sum(M * M))


def _rung_product(cs, bs, offset: int, d: int) -> float:
    """prod_{h=offset}^{offset+d-1} b*_h c*_{h+1} over one cell's dual bands."""
    value = 1.0
    for h in range(offset, offset + d):
        value *= bs[h] * cs[h + 1]
    return value


def recurrence_rhs_coefficient(t, d, i, j, theta, theta_star, D) -> float:
    """Coefficient of mult(i, j) in the trace equation of cell (t, d).

    Defined for (i, j) preceding (t, d); it is the product of the first d
    rung weights of the (i, j) ladder starting at offset t - i.
    """
    if not Upsilon.leq((i, j), (t, d)):
        raise ValueError(f"({i}, {j}) does not precede ({t}, {d})")
    cs, _, bs = predict_cab_star(i, j, theta, theta_star, D)
    return _rung_product(cs, bs, t - i, d)


@dataclass(frozen=True)
class MultiplicityTable:
    """Solved multiplicities with their pre-rounding residuals."""

    D: int
    mult: dict
    pre_rounding: dict
    zero_coefficient_cells: tuple

    def total_dimension(self) -> int:
        return sum(count * (d + 1) for (_, d), count in self.mult.items())

    def nonzero(self) -> dict:
        return {cell: v for cell, v in sorted(self.mult.items()) if v}

    def matches_census(self, observed: dict) -> bool:
        cells = set(self.mult) | set(observed)
        return all(self.mult.get(c, 0) == observed.get(c, 0) for c in cells)

    def as_dict(self) -> dict:
        return {
            "mult": [
                {"t": t, "d": d, "count": v, "pre_rounding": self.pre_rounding.get((t, d))}
                for (t, d), v in sorted(self.mult.items())
            ],
            "total_dimension": self.total_dimension(),
            "zero_coefficient_cells": [list(c) for c in self.zero_coefficient_cells],
        }


def solve_multiplicities(spectral: SpectralData) -> MultiplicityTable:
    """Solve the trace recurrence over the whole grid.

    Cells are visited in a linear extension; at each cell the closed-form
    trace minus the contributions of already-solved predecessors is
    divided by the leading coefficient.  A leading coefficient that is
    zero (relative to the size of its factors) forces multiplicity zero.
    Values are rounded to integers and the residual is kept for audit;
    residuals above the gate raise.

    Each cell's dual bands are formed once: they give its leading
    coefficient and, once it is solved, its coefficients as a
    predecessor of later cells.
    """
    if spectral.theta_star is None:
        raise OrderingMissing("the multiplicity recurrence needs a Q-polynomial ordering")
    D = spectral.D
    theta, theta_star = spectral.theta, spectral.theta_star
    ups = build_upsilon(D)
    mult: dict = {}
    pre: dict = {}
    zero_cells = []
    # (i, j, mult, c*, b*) of the solved cells with nonzero multiplicity, in
    # solve order: the order in which a scan of the whole grid meets them
    solved = []
    for (t, d) in ups.cells:
        lhs = krein_product_lhs(spectral, t, d)
        lead = 1.0
        scale = 1.0
        if d:
            cs, _, bs = predict_cab_star(t, d, theta, theta_star, D)
            lead = _rung_product(cs, bs, 0, d)
            for h in range(d):
                scale *= max(1.0, abs(bs[h])) * max(1.0, abs(cs[h + 1]))
        acc = 0.0
        for (i, j, count, pcs, pbs) in solved:
            if Upsilon.leq((i, j), (t, d)):
                acc += count * _rung_product(pcs, pbs, t - i, d)
        if abs(lead) < LEADING_ZERO_TOL * scale:
            zero_cells.append((t, d))
            mult[t, d] = 0
            pre[t, d] = 0.0
            continue
        value = (lhs - acc) / lead
        rounded = int(round(value))
        residual = abs(value - rounded)
        if residual > ROUNDING_TOL:
            raise NonIntegerMultiplicity(f"mult({t}, {d}) = {value} is not near an integer")
        if rounded < 0:
            raise NegativeMultiplicity(f"mult({t}, {d}) = {value}")
        mult[t, d] = rounded
        pre[t, d] = residual
        if rounded and d:  # a cell with d = 0 precedes no other cell
            solved.append((t, d, rounded, cs, bs))
    return MultiplicityTable(
        D=D, mult=mult, pre_rounding=pre, zero_coefficient_cells=tuple(zero_cells)
    )
