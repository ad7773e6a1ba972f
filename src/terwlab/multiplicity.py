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
Both walk the cells of the layout that ``spectral.layout`` forms once per
scheme (:class:`terwlab.predictor.GridLayout`), the one the predicted dual
bands are laid out by: the trace check compares the two sides over the
layout's (t, d) arrays in one expression, and the recurrence takes every
leading coefficient in one segmented product over the flat dual bands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .context import TerwContext
from .errors import NegativeMultiplicity, NonIntegerMultiplicity, OrderingMissing, finite_or_none
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
    blocks N_{j+1, j} of N = U^T A* U, the context's ``below[j]``, and U
    is orthogonal, so R*^d U_t is U times the m_{t+d} x m_t chain
    N_{t+d, t+d-1} ... N_{t+1, t}.  One walk covers every t: at step k the
    walk holds the chains that end in block k side by side, one per t <= k,
    so the next step is one product with N_{k+1, k}, with the identity of
    block k + 1 appended for t = k + 1.  The squared norms of the columns
    of every step are summed into their cells by one ``bincount`` after the
    walk: the columns of block t at step k make up the trace of the cell
    (t, k - t).
    """
    sp = ctx.spectral
    D, m = sp.D, sp.m.tolist()
    ends = np.cumsum(sp.m)
    norms = []
    H = np.eye(m[0])
    for k in range(D + 1):
        if k:
            # [N_{k, k-1} H, I]: the identity of block k runs down the diagonal from column ends[k - 1]
            H, last = np.zeros((m[k], ends[k])), H
            np.matmul(ctx.below[k - 1], last, out=H[:, : ends[k - 1]])
            H.reshape(-1)[ends[k - 1]::ends[k] + 1] = 1.0
        norms.append(np.einsum("ij,ij->j", H, H))
    # step k holds the columns 0..ends[k] - 1, column c in the block lab[c]: cell (lab[c], k - lab[c])
    step = np.repeat(np.arange(D + 1), ends)
    block = sp.eigenspace_labels()[np.arange(len(step)) - np.repeat(ends.cumsum() - ends, ends)]
    traces = np.bincount(block * D + step, np.concatenate(norms), minlength=(D + 1) ** 2).tolist()
    return [traces[t * (D + 1):t * (D + 1) + D + 1 - t] for t in range(D + 1)]


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
                {"t": t, "d": d, "count": v, "pre_rounding": finite_or_none(self.pre_rounding[t, d])}
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

    The dual bands of every cell are read from ``spectral.bands``, laid
    out by its layout.  The leading coefficient of each cell is the product
    of its rungs in the order of h, all cells in one segmented product, and
    when a cell is solved with a nonzero multiplicity the cumulative
    products of its rungs give its coefficient as a predecessor of every
    later cell at once.  The tests of each cell run on Python floats.
    """
    if spectral.theta_star is None:
        raise OrderingMissing("the multiplicity recurrence needs a Q-polynomial ordering")
    grid = spectral.bands
    layout = grid.layout
    cs, _, bs = grid.cab_star
    cell_t, cell_d, start = layout.t, layout.d, layout.start
    # entry start + h of a cell with h < d: its rung b*_h c*_{h+1} and that rung's size; the
    # last entry of each cell holds 1.0, so that the products over its entries are over its rungs
    rungs = np.append(bs[:-1] * cs[1:], 1.0)
    sizes = np.append(np.maximum(1.0, np.abs(bs[:-1])) * np.maximum(1.0, np.abs(cs[1:])), 1.0)
    rungs[start + cell_d] = sizes[start + cell_d] = 1.0
    lead = np.multiply.reduceat(rungs, start).tolist()
    scale = np.multiply.reduceat(sizes, start).tolist()
    lhs = spectral.closed_traces.tolist()
    # acc[k]: the solved predecessors' part of cell k's trace, summed in solve order
    acc = np.zeros(len(layout.cells))
    solved = acc.tolist()
    mult: dict = {}
    pre: dict = {}
    zero_cells = []
    for k, (t, d) in enumerate(layout.cells):  # the layout lists the cells in a linear extension
        if abs(lead[k]) < LEADING_ZERO_TOL * scale[k]:
            zero_cells.append((t, d))
            mult[t, d] = 0
            pre[t, d] = 0.0
            continue
        value = (lhs[t][d] - solved[k]) / lead[k]
        # round() raises on a NaN or an infinity, which fails the gate instead
        residual = abs(value - round(value)) if math.isfinite(value) else math.nan
        if not residual <= ROUNDING_TOL:
            raise NonIntegerMultiplicity(f"mult({t}, {d}) = {value} is not near an integer")
        rounded = round(value)
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
            solved = acc.tolist()
    return MultiplicityTable(
        D=spectral.D, mult=mult, pre_rounding=pre, zero_coefficient_cells=tuple(zero_cells)
    )
