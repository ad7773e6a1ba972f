"""Closed-form module parameters from the eigenvalue sequences.

For an almost-bipartite P- and Q-polynomial scheme the intersection
numbers of an irreducible module are pinned down by its dual endpoint t
and diameter d alone (the endpoint is forced to r = D - d).  The entries
of the tridiagonal action matrix B(W) come from a 2x2 linear system in
(c_i, b_i) with row sums theta_t; the dual entries from a Vandermonde
3x3 system in (c*_i, a*_i, b*_i) with row sums theta*_r.  These formulas
are evaluated for every feasible cell at once, whether or not a module of
that shape exists, as one array computation over the whole grid
(:func:`band_grid`); a cell's bands are read from that grid with
:meth:`BandGrid.bands` and :meth:`BandGrid.bands_star`.

The bands are the one format of a module's action, here and in the
oracle's measurements.  Two actions are compared by :func:`band_gap`; a
matrix is assembled with :func:`tridiagonal` only to take its
eigenvalues (:func:`feasibility`) or to print it.
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


def in_upsilon(t: int, d: int, D: int) -> bool:
    """Membership in the feasible grid: 0 <= d <= D, (D-d)/2 <= t <= D-d."""
    return 0 <= d <= D and 2 * t >= D - d and t <= D - d


def _require_cell(t: int, d: int, D: int) -> int:
    if not in_upsilon(t, d, D):
        raise InvalidCell(f"(t, d) = ({t}, {d}) is not feasible for D = {D}")
    return D - d


@dataclass(frozen=True)
class BandGrid:
    """Bands of every feasible cell, in flat arrays.

    The cell (t, d) owns the entries ``first[t, d]`` to ``first[t, d] + d``
    of each array, entry i of its band at ``first[t, d] + i``; ``cells``
    lists the cells in the order of their entries.  ``cab`` is (c, a, b)
    and ``cab_star`` is (c*, a*, b*).
    """

    D: int
    cells: tuple
    first: np.ndarray
    cab: tuple
    cab_star: tuple

    def bands(self, t: int, d: int) -> tuple:
        """(c, a, b) of the cell (t, d); raises :class:`InvalidCell` off the grid."""
        _require_cell(t, d, self.D)
        lo = int(self.first[t, d])
        return tuple(x[lo:lo + d + 1] for x in self.cab)

    def bands_star(self, t: int, d: int) -> tuple:
        """(c*, a*, b*) of the cell (t, d), with r = D - d; raises :class:`InvalidCell` off the grid.

        Cells that carry no module still have well-defined dual bands; they
        feed the multiplicity recurrence.
        """
        _require_cell(t, d, self.D)
        lo = int(self.first[t, d])
        return tuple(x[lo:lo + d + 1] for x in self.cab_star)

    def gap(self, other: BandGrid) -> float:
        """Largest band difference from another grid over every cell.

        :func:`band_gap` of the flat arrays: the two entries it skips, c_0
        of the first cell and b_d of the last, are 0 in both grids.  A NaN
        in either side's gap is the result, not dropped as ``max`` would.
        """
        return float(np.max([band_gap(self.cab, other.cab), band_gap(self.cab_star, other.cab_star)]))


def upsilon_cells(D: int) -> tuple:
    """All feasible cells, listed in a linear extension of the order.

    Sorting by (t ascending, t + d descending) puts every cell after all
    of its predecessors, so one forward pass can solve the recurrence.
    """
    cells = [(t, d) for d in range(D + 1) for t in range(-((D - d) // -2), D - d + 1)]
    cells.sort(key=lambda td: (td[0], -(td[0] + td[1])))
    return tuple(cells)


def band_entries(D: int) -> tuple:
    """The layout of a :class:`BandGrid` and the (t, d, i) of each of its entries.

    Returns the cells, the (D+1, D+1) array of the first entry of each
    (-1 off the grid), the d of every entry, and the entries of each kind
    (0 < i < d, i = 0 < d, i = d > 0, and d = 0), each as the (t, d, i)
    arrays of those entries and their positions.  A formula of one kind is
    evaluated on its own entries only.
    """
    cells = upsilon_cells(D)
    td = np.array(cells, dtype=np.int64).reshape(-1, 2)
    size = td[:, 1] + 1
    start = np.cumsum(size) - size
    t, d = np.repeat(td[:, 0], size), np.repeat(td[:, 1], size)
    i = np.arange(len(t)) - np.repeat(start, size)
    first = np.full((D + 1, D + 1), -1)
    first[td[:, 0], td[:, 1]] = start
    kinds = ((0 < i) & (i < d), (i == 0) & (0 < d), (i == d) & (0 < d), d == 0)
    return cells, first, d, tuple((t[m], d[m], i[m], np.flatnonzero(m)) for m in kinds)


def _grid(D: int, cells, first, cab, cab_star) -> BandGrid:
    for arr in cab + cab_star:
        arr.flags.writeable = False
    return BandGrid(D=D, cells=cells, first=first, cab=cab, cab_star=cab_star)


def band_grid(theta, theta_star, D: int) -> BandGrid:
    """Bands (c, a, b) and (c*, a*, b*) of every feasible cell, from one array computation.

    Each formula is evaluated on the entries of its kind (:func:`band_entries`)
    for all cells at once, with r = D - d.
    """
    T = np.asarray(theta, dtype=np.float64)  # theta_j
    S = np.asarray(theta_star, dtype=np.float64)  # theta*_j
    cells, first_entry, d_all, (inner, first, last, single) = band_entries(D)
    c, a, b, cs, bs = (np.zeros(len(d_all)) for _ in range(5))

    t, d, i, at = inner
    r = D - d
    c[at] = (T[t] * (S[r + i + 1] - S[r + 1]) - T[t + 1] * (S[r + i] - S[r])) / (S[r + i + 1] - S[r + i - 1])
    b[at] = (T[t] * (S[r + i - 1] - S[r + 1]) - T[t + 1] * (S[r + i] - S[r])) / (S[r + i - 1] - S[r + i + 1])
    # squares by the scalar power, as the per-cell loop took them: the
    # array power rounds some of them differently
    T2 = np.array([x**2 for x in T.tolist()])
    quad = (T2[t + i] - T2[t]) * (S[r + 2] - S[r + 1])
    cs[at] = (quad + (T[t] * T[t + 1] - T[t + i] * T[t + i + 1]) * (S[r + 1] - S[r])) / (
        (T[t + i - 1] - T[t + i]) * (T[t + i - 1] - T[t + i + 1]))
    bs[at] = (quad + (T[t] * T[t + 1] - T[t + i] * T[t + i - 1]) * (S[r + 1] - S[r])) / (
        (T[t + i + 1] - T[t + i]) * (T[t + i + 1] - T[t + i - 1]))

    t, d, _, at = first
    b[at] = T[t]
    bs[at] = T[t] * (S[D - d] - S[D - d + 1]) / (T[t] - T[t + 1])

    t, d, _, at = last
    r = D - d
    c[at] = (T[t] * (S[r + d] - S[r + 1]) - T[t + 1] * (S[r + d] - S[r])) / (S[r + d] - S[r + d - 1])
    a[at] = (T[t] * (S[r + d - 1] - S[r + 1]) - T[t + 1] * (S[r + d] - S[r])) / (S[r + d - 1] - S[r + d])
    cs[at] = T[t + d] * (S[r + 1] - S[r]) / (T[t + d - 1] - T[t + d])

    t, _, _, at = single
    a[at] = T[t]
    as_ = S[D - d_all] - bs - cs
    return _grid(D, cells, first_entry, (c, a, b), (cs, as_, bs))


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
    def feasible(self) -> bool:
        return all(p > 0 for p in self.products + self.dual_products)

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


def feasibility(spectral, t: int, d: int) -> FeasibilityReport:
    """Check positivity of consecutive products and the spectral identities.

    Reads the bands of the cell (t, d) from ``spectral.bands``; raises
    :class:`InvalidCell` off the grid.  The eigenvalues of B(W) must be
    theta_t, ..., theta_{t+d} and those of B*(W) must be theta*_r, ...,
    theta*_{r+d}; equivalently the traces match the corresponding
    eigenvalue sums.
    """
    bands, bands_star = spectral.bands.bands(t, d), spectral.bands.bands_star(t, d)
    (c, a, b), (cs, as_, bs) = bands, bands_star
    r = spectral.D - d
    th, ths = spectral.theta[t : t + d + 1], spectral.theta_star[r : r + d + 1]
    eig_B = np.sort(np.linalg.eigvals(tridiagonal(*bands)).real)
    eig_Bs = np.sort(np.linalg.eigvals(tridiagonal(*bands_star)).real)
    return FeasibilityReport(
        t=t,
        d=d,
        products=tuple((b[:-1] * c[1:]).tolist()),
        dual_products=tuple((bs[:-1] * cs[1:]).tolist()),
        eig_B_error=float(np.abs(eig_B - np.sort(th)).max()),
        eig_Bstar_error=float(np.abs(eig_Bs - np.sort(ths)).max()),
        trace_B_error=abs(float(a.sum()) - float(th.sum())),
        trace_Bstar_error=abs(float(as_.sum()) - float(ths.sum())),
    )
