"""The trace identity and the multiplicity recurrence over the feasible grid.

A module class is a pair (t, d) with 0 <= d <= D and
ceil((D - d)/2) <= t <= D - d (:func:`terwlab.predictor.upsilon_cells`
lists them); the grid of such cells is ordered by

    (t, d) <= (t', d')  iff  t <= t' and t' + d' <= t + d,

so smaller cells start no later and end no earlier.  For each cell the
trace of E_t L*^d R*^d E_t evaluates in closed form to

    m_t * prod_{h=t}^{t+d-1} b*_h c*_{t+d-h}

(the starred quantities are the scheme's Krein-derived array), while the
same trace accumulated module by module gives a linear equation in the
multiplicities of the cells below (t, d).  Walking the grid in a linear
extension solves for every multiplicity; a vanishing leading coefficient
certifies that no module of that shape exists.

Both sides of the identity are formed for every cell at once: the traces
by :func:`trace_ladders` (read ``[t][d]``) and their closed forms by
:func:`terwlab.spectral.krein_products`, kept as ``spectral.closed_traces``
(read ``[t, d]``) so that the trace check and the recurrence share one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .context import TerwContext
from .errors import NegativeMultiplicity, NonIntegerMultiplicity, OrderingMissing
from .spectral import SpectralData

#: pre-rounding distance from an integer above which the solve is rejected
ROUNDING_TOL = 1e-4
#: relative threshold for declaring the leading coefficient zero
LEADING_ZERO_TOL = 1e-10


def trace_ladders(ctx: TerwContext) -> list:
    """Numerical traces of E_t L*^d R*^d E_t for every t and d = 0..D-t.

    Since L* is the transpose of R*, each trace is the squared Frobenius
    norm of R*^d E_t, and with E_t = U_t U_t^T that is the squared
    Frobenius norm of R*^d U_t.  In the eigenspace basis R* is the band of
    blocks N_{j+1, j} of N = U^T A* U, the first m_{j+1} rows of the
    context's ``below[j]``, and U is orthogonal, so R*^d U_t is U times
    the m_{t+d} x m_t chain N_{t+d, t+d-1} ... N_{t+1, t}.  One walk
    covers every t: at step k the walk holds the chains that end in block k
    side by side, one per t <= k, so the next step is one product with
    N_{k+1, k}, with the identity of block k + 1 appended for t = k + 1.
    """
    sp = ctx.spectral
    lab, m = sp.eigenspace_labels(), sp.m.tolist()
    ends = np.cumsum(sp.m)
    ladders = [[] for _ in range(sp.D + 1)]
    H = np.eye(m[0])
    for k in range(sp.D + 1):
        if k:
            H = np.hstack([ctx.below[k - 1][: m[k]] @ H, np.eye(m[k])])
        for t, value in enumerate(np.bincount(lab[: ends[k]], np.einsum("ij,ij->j", H, H)).tolist()):
            ladders[t].append(value)
    return ladders


def _rung_windows(rungs: np.ndarray) -> np.ndarray:
    """[o, e] = rungs[o] rungs[o+1] ... rungs[e] for o <= e, multiplied left to right (cumprods)."""
    h = np.arange(len(rungs))
    return np.cumprod(np.where(h[None, :] >= h[:, None], rungs, 1.0), axis=1)


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

    def census_diff(self, observed: dict) -> dict:
        """(recurrence, oracle) counts of each cell where they differ, in sorted cell order."""
        pairs = {c: (self.mult.get(c, 0), observed.get(c, 0)) for c in sorted(set(self.mult) | set(observed))}
        return {c: pair for c, pair in pairs.items() if pair[0] != pair[1]}

    def matches_census(self, observed: dict) -> bool:
        return not self.census_diff(observed)

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

    The dual bands of every cell are read from ``spectral.bands``.  The
    leading coefficients of all cells are running products over it, one
    rung at a time, and when a cell is solved with a nonzero multiplicity
    the cumulative products of its rungs give its coefficient as a
    predecessor of every later cell at once.
    """
    if spectral.theta_star is None:
        raise OrderingMissing("the multiplicity recurrence needs a Q-polynomial ordering")
    D = spectral.D
    grid = spectral.bands
    cs, _, bs = grid.cab_star
    # entry start + h of a cell with h < d: its rung b*_h c*_{h+1} and that rung's size
    rungs = bs[:-1] * cs[1:]
    sizes = np.maximum(1.0, np.abs(bs[:-1])) * np.maximum(1.0, np.abs(cs[1:]))
    cell_t, cell_d = np.array(grid.cells, dtype=np.int64).reshape(-1, 2).T
    start = grid.first[cell_t, cell_d]
    lead, scale = np.ones(len(grid.cells)), np.ones(len(grid.cells))
    for h in range(D):
        live = cell_d > h
        lead[live] *= rungs[start[live] + h]
        scale[live] *= sizes[start[live] + h]
    lhs = spectral.closed_traces.tolist()
    # acc[k]: the solved predecessors' part of cell k's trace, summed in solve order
    acc = np.zeros(len(grid.cells))
    mult: dict = {}
    pre: dict = {}
    zero_cells = []
    for k, (t, d) in enumerate(grid.cells):  # the grid lists the cells in a linear extension
        if abs(lead[k]) < LEADING_ZERO_TOL * scale[k]:
            zero_cells.append((t, d))
            mult[t, d] = 0
            pre[t, d] = 0.0
            continue
        value = (lhs[t][d] - float(acc[k])) / float(lead[k])
        nearest = float(np.rint(value))  # a NaN or inf stays one and fails the gate, where round() raises
        residual = abs(value - nearest)
        if not residual <= ROUNDING_TOL:
            raise NonIntegerMultiplicity(f"mult({t}, {d}) = {value} is not near an integer")
        rounded = int(nearest)
        if rounded < 0:
            raise NegativeMultiplicity(f"mult({t}, {d}) = {value}")
        mult[t, d] = rounded
        pre[t, d] = residual
        if rounded and d:  # a cell with d = 0 precedes no other cell
            # a later cell (t', d') takes the rungs t' - t .. t' - t + d' - 1 of this one
            later = (cell_t >= t) & (cell_t + cell_d <= t + d)
            offset = np.clip(cell_t - t, 0, d - 1)
            windows = _rung_windows(rungs[start[k]:start[k] + d])[offset, np.clip(offset + cell_d - 1, 0, d - 1)]
            acc[later] += rounded * np.where(cell_d == 0, 1.0, windows)[later]
    return MultiplicityTable(
        D=D, mult=mult, pre_rounding=pre, zero_coefficient_cells=tuple(zero_cells)
    )
