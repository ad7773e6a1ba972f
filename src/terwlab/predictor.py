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

Every grid stage works on one cell layout (:class:`GridLayout`, built by
:func:`band_entries`): the cells in a linear extension of their order and
the place of each cell's entries in flat arrays.  ``SpectralData.layout``
forms it once per scheme and shares it with the predicted grid, the q,s
grid (:func:`terwlab.qs.qs_band_grid`), the trace check and the
multiplicity recurrence.

The bands are the one format of a module's action, here and in the
oracle's measurements.  Two actions are compared by :func:`band_gap`; a
matrix is assembled with :func:`tridiagonal` only to print it or to
act with it (the class-1 operator of the Bose-Mesner check).
Feasibility is taken for all classes at once (:func:`feasibility_reports`):
the tridiagonals of one size are written into one stack with one
eigenvalue call, and the products and traces are array operations over
the flat bands; :func:`feasibility` is that function on one cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidCell, finite_or_none


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
class GridLayout:
    """The feasible cells and the place of each cell's entries in flat band arrays.

    ``cells`` lists the cells in a linear extension of the order, ``t``,
    ``d`` and ``start`` hold each one's t, d and first entry, and
    ``first[t, d]`` is that first entry (-1 off the grid); the cell owns
    the entries ``start`` to ``start + d``, entry i of its band at
    ``start + i``.  ``entry_d`` is the d of every entry, and ``kinds`` holds
    the entries of each kind (0 < i < d, i = 0 < d, i = d > 0, and d = 0),
    each as the (t, d, i) arrays of those entries and their positions; a
    formula of one kind is evaluated on its own entries only.
    """

    D: int
    cells: tuple
    t: np.ndarray
    d: np.ndarray
    start: np.ndarray
    first: np.ndarray
    entry_d: np.ndarray
    kinds: tuple


@dataclass(frozen=True)
class BandGrid:
    """Bands of every feasible cell, in flat arrays laid out by ``layout``.

    ``cab`` is (c, a, b) and ``cab_star`` is (c*, a*, b*).
    """

    layout: GridLayout
    cab: tuple
    cab_star: tuple

    @property
    def D(self) -> int:
        return self.layout.D

    @property
    def cells(self) -> tuple:
        return self.layout.cells

    @property
    def first(self) -> np.ndarray:
        return self.layout.first

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


def _cell_arrays(D: int) -> tuple:
    """t and d of every feasible cell, in the order of :func:`upsilon_cells`.

    There are min(t, D - t) + 1 cells for each t, with d falling from D - t.
    """
    count = np.minimum(np.arange(D + 1), D - np.arange(D + 1)) + 1
    t = np.repeat(np.arange(D + 1), count)
    return t, D - t - (np.arange(len(t)) - np.repeat(np.cumsum(count) - count, count))


def upsilon_cells(D: int) -> tuple:
    """All feasible cells, listed in a linear extension of the order.

    Listing them by t ascending and, for one t, by d descending (so by
    t + d descending) puts every cell after all of its predecessors, so
    one forward pass can solve the recurrence.
    """
    t, d = _cell_arrays(D)
    return tuple(zip(t.tolist(), d.tolist()))


def band_entries(D: int) -> GridLayout:
    """The :class:`GridLayout` of the feasible grid of diameter D."""
    t, d = _cell_arrays(D)
    size = d + 1
    start = np.cumsum(size) - size
    ed = np.repeat(d, size)
    i = np.arange(len(ed)) - np.repeat(start, size)
    first = np.full((D + 1, D + 1), -1)
    first[t, d] = start
    inner = np.flatnonzero((0 < i) & (i < ed))
    long, short = np.flatnonzero(d), np.flatnonzero(d == 0)  # the cells with d > 0 and d = 0
    kinds = (
        (np.repeat(t, size)[inner], ed[inner], i[inner], inner),
        (t[long], d[long], np.zeros(len(long), dtype=np.int64), start[long]),
        (t[long], d[long], d[long], start[long] + d[long]),
        (t[short], d[short], d[short], start[short]),
    )
    return GridLayout(D=D, cells=tuple(zip(t.tolist(), d.tolist())), t=t, d=d, start=start, first=first,
                      entry_d=ed, kinds=kinds)


def _grid(layout: GridLayout, cab, cab_star) -> BandGrid:
    for arr in cab + cab_star:
        arr.flags.writeable = False
    return BandGrid(layout=layout, cab=cab, cab_star=cab_star)


def band_grid(theta, theta_star, D: int, layout: GridLayout | None = None) -> BandGrid:
    """Bands (c, a, b) and (c*, a*, b*) of every feasible cell, from one array computation.

    Each formula is evaluated on the entries of its kind (:class:`GridLayout`)
    for all cells at once, with r = D - d; ``layout`` is
    ``band_entries(D)``, built here when not given.
    """
    T = np.asarray(theta, dtype=np.float64)  # theta_j
    S = np.asarray(theta_star, dtype=np.float64)  # theta*_j
    layout = band_entries(D) if layout is None else layout
    d_all, (inner, first, last, single) = layout.entry_d, layout.kinds
    c, a, b, cs, bs = (np.zeros(len(d_all)) for _ in range(5))

    t, d, i, at = inner
    r = D - d
    Tt, Tt1, Ti, Ti_1, Ti1 = T[t], T[t + 1], T[t + i], T[t + i - 1], T[t + i + 1]
    Sr, Sr1, Sri, Sri_1, Sri1 = S[r], S[r + 1], S[r + i], S[r + i - 1], S[r + i + 1]
    step = Tt1 * (Sri - Sr)
    c[at] = (Tt * (Sri1 - Sr1) - step) / (Sri1 - Sri_1)
    b[at] = (Tt * (Sri_1 - Sr1) - step) / (Sri_1 - Sri1)
    # squares by the scalar power, as the per-cell loop took them: the
    # array power rounds some of them differently
    T2 = np.array([x**2 for x in T.tolist()])
    quad = (T2[t + i] - T2[t]) * (S[r + 2] - Sr1)
    TtTt1, rise = Tt * Tt1, Sr1 - Sr
    cs[at] = (quad + (TtTt1 - Ti * Ti1) * rise) / ((Ti_1 - Ti) * (Ti_1 - Ti1))
    bs[at] = (quad + (TtTt1 - Ti * Ti_1) * rise) / ((Ti1 - Ti) * (Ti1 - Ti_1))

    t, d, _, at = first
    b[at] = T[t]
    bs[at] = T[t] * (S[D - d] - S[D - d + 1]) / (T[t] - T[t + 1])

    t, d, _, at = last
    r = D - d  # so that r + d = D
    Tt, Sr, Sr1, Ttd = T[t], S[r], S[r + 1], T[t + d]
    step = T[t + 1] * (S[D] - Sr)
    c[at] = (Tt * (S[D] - Sr1) - step) / (S[D] - S[D - 1])
    a[at] = (Tt * (S[D - 1] - Sr1) - step) / (S[D - 1] - S[D])
    cs[at] = Ttd * (Sr1 - Sr) / (T[t + d - 1] - Ttd)

    t, _, _, at = single
    a[at] = T[t]
    as_ = S[D - d_all] - bs - cs
    return _grid(layout, (c, a, b), (cs, as_, bs))


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
            "eig_B_error": finite_or_none(self.eig_B_error),
            "eig_Bstar_error": finite_or_none(self.eig_Bstar_error),
            "trace_B_error": finite_or_none(self.trace_B_error),
            "trace_Bstar_error": finite_or_none(self.trace_Bstar_error),
            "feasible": self.feasible,
        }


def _sorted_eigenvalues(M: np.ndarray) -> np.ndarray:
    """Real parts of the eigenvalues of each matrix of the stack ``M``, ascending; NaN for a matrix that is not finite."""
    try:
        return np.sort(np.linalg.eigvals(M).real, axis=-1)
    except np.linalg.LinAlgError:  # raised for the whole stack when a matrix holds a NaN or an infinity
        finite = np.isfinite(M).all(axis=(1, 2))
        if finite.all():
            raise
        eig = np.full(M.shape[:2], np.nan)
        eig[finite] = _sorted_eigenvalues(M[finite])
        return eig


def feasibility_reports(spectral, cells) -> list:
    """The :class:`FeasibilityReport` of each cell of ``cells``, in that order, all at once.

    Reads the bands from ``spectral.bands``; raises :class:`InvalidCell`
    at the first cell off the grid.  The eigenvalues of B(W) must be
    theta_t, ..., theta_{t+d} and those of B*(W) must be theta*_r, ...,
    theta*_{r+d}; equivalently the traces match the corresponding
    eigenvalue sums.  The matrices of one size, B(W) and B*(W) of every
    cell of that d, form one stack with one ``eigvals`` call, which runs
    LAPACK on each matrix as a call on that matrix alone would; the
    products, traces and errors are array operations over the flat bands.
    """
    D, grid = spectral.D, spectral.bands
    for t, d in cells:
        _require_cell(t, d, D)
    t, d = np.array(cells, dtype=np.int64).reshape(-1, 2).T
    start = grid.first[t, d]
    (c, _, b), (cs, _, bs) = grid.cab, grid.cab_star
    # entry e of a cell with e < start + d holds its rung b_e c_{e+1}
    products, dual_products = b[:-1] * c[1:], bs[:-1] * cs[1:]
    errors = np.empty((len(t), 4))  # eig B, eig B*, trace B, trace B*
    for n in sorted(set((d + 1).tolist())):  # the order of the matrices
        at = np.flatnonzero(d == n - 1)
        i = np.arange(n)
        entry = start[at, None] + i
        M = np.zeros((2, len(at), n, n))
        diagonals = []
        for flat, (lo, mid, up) in zip(M.reshape(2, len(at), -1), (grid.cab, grid.cab_star)):
            # row-major, the diagonal sits at every (n + 1)-th entry from 0, the subdiagonal from n
            # and the superdiagonal from 1
            diagonals.append(mid[entry])
            flat[:, ::n + 1], flat[:, n::n + 1], flat[:, 1::n + 1] = diagonals[-1], lo[entry[:, 1:]], up[entry[:, :-1]]
        eig = _sorted_eigenvalues(M.reshape(-1, n, n))
        th, ths = spectral.theta[t[at, None] + i], spectral.theta_star[D + 1 - n:]
        errors[at] = np.column_stack([np.abs(eig[:len(at)] - np.sort(th, axis=-1)).max(axis=-1),
                                      np.abs(eig[len(at):] - np.sort(ths)).max(axis=-1),
                                      np.abs(diagonals[0].sum(axis=-1) - th.sum(axis=-1)),
                                      np.abs(diagonals[1].sum(axis=-1) - ths.sum())])
    return [
        FeasibilityReport(t=tc, d=dc, products=tuple(products[s:s + dc].tolist()),
                          dual_products=tuple(dual_products[s:s + dc].tolist()),
                          eig_B_error=e[0], eig_Bstar_error=e[1], trace_B_error=e[2], trace_Bstar_error=e[3])
        for tc, dc, s, e in zip(t.tolist(), d.tolist(), start.tolist(), errors.tolist())
    ]


def feasibility(spectral, t: int, d: int) -> FeasibilityReport:
    """Check positivity of consecutive products and the spectral identities of the cell (t, d).

    :func:`feasibility_reports` on that one cell; raises :class:`InvalidCell` off the grid.
    """
    return feasibility_reports(spectral, [(t, d)])[0]
