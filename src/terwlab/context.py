"""The dual Bose-Mesner algebra and the raising/flat/lowering operators.

Fixing a base vertex x splits the coordinate space by distance from x.
The dual idempotents E*_i are the diagonal 0/1 projectors onto those
distance shells, and the dual class matrices A*_i are diagonal with
entries n * (E_i)_{x, y} = Q[i, dist(x, y)].  The class-1 adjacency A
splits as R + F + L by whether an edge increases, keeps, or decreases
distance from x: R, F and L are the entries of A with dist(y) - dist(z)
equal to 1, 0 and -1, masks of A on ``dist`` applied where they are
needed and never stored.

The dual adjacency A* = A*_1 splits the same way through the primitive
idempotents E_t = U_t U_t^T, with U_t the orthonormal eigenspace bases of
the spectral data.  With U the orthogonal matrix of all the U_t, the
context holds N = U^T A* U, whose block (j, i) is U_j^T A* U_i: R*, F* and
L* are U N_s U^T, with N_s the blocks j = i + s for s = 1, 0, -1.  They act
in that basis and no U N_s U^T is formed.  For a Q-polynomial ordering
E_j A* E_i = 0 when |i - j| > 1 (Terwilliger, "The subconstituent algebra
of an association scheme I", J. Algebraic Combin. 1992), so
A* = R* + F* + L* holds exactly when N vanishes off its three block bands.
The Frobenius norm of N's off-band blocks is that identity's residual; it
bounds the max norm of A* - R* - F* - L* from above.

No n x n idempotent is formed: the dual class matrices are read off the
dual eigenmatrix Q, and :func:`triangle_vanishing_check` works in the
bases as well.  A and N are dense; A* and the E*_i are kept as diagonal
vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidParameter, NumericalCheckFailure, OrderingMissing
from .scheme import AssociationScheme, intersection_tensor
from .spectral import KREIN_ZERO_TOL, SpectralData, is_almost_bipartite

#: identity residual tolerance, scaled by the number of vertices
IDENTITY_TOL_PER_VERTEX = 1e-9


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "residual": self.residual,
            "tol": self.tol,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class IdentityReport:
    checks: tuple

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_residual(self) -> float:
        return max((c.residual for c in self.checks), default=0.0)

    def as_dict(self) -> dict:
        return {"checks": [c.as_dict() for c in self.checks], "all_passed": self.all_passed}

    def at_tol(self, tol: float | None) -> IdentityReport:
        """The same residuals judged against ``tol``; unchanged when it is None."""
        if tol is None:
            return self
        return IdentityReport(checks=tuple(replace(c, tol=tol) for c in self.checks))


@dataclass(frozen=True)
class TerwContext:
    """Base-vertex data for one scheme: the shells, A, A* and A* in the eigenspace bases."""

    scheme: AssociationScheme
    spectral: SpectralData
    x: int
    dist: np.ndarray      # distance from x, i.e. class of (x, y) in P-order
    A: np.ndarray         # class-1 adjacency; R, F, L are its entries with dist(y) - dist(z) = 1, 0, -1
    Astar: np.ndarray     # diagonal of the dual adjacency A*_1
    Estar: np.ndarray     # (D+1, n) rows are diagonals of E*_i
    Astar_all: np.ndarray # (D+1, n) rows are diagonals of A*_i
    N: np.ndarray         # U^T A* U; R*, F*, L* are its blocks (j, i) with j - i = 1, 0, -1
    identities: IdentityReport | None = None  # set by build_context, at the default tolerance

    @property
    def n(self) -> int:
        return self.scheme.n

    @property
    def D(self) -> int:
        return self.scheme.D


def build_context(scheme: AssociationScheme, spectral: SpectralData, x: int = 0) -> TerwContext:
    """Assemble the operators at base vertex x and verify their identities.

    Requires both polynomial orderings; raises :class:`OrderingMissing`
    otherwise, :class:`InvalidParameter` for a vertex outside 0..n-1, and
    :class:`NumericalCheckFailure` if any defining identity exceeds the
    default tolerance.  The identity report is kept as
    ``identities``, so callers judge it at another tolerance with
    :meth:`IdentityReport.at_tol` instead of recomputing it.
    """
    if not spectral.is_q_polynomial:
        raise OrderingMissing("context needs a Q-polynomial ordering")
    n, D = spectral.n, spectral.D
    if not (0 <= x < n):
        raise InvalidParameter(f"base vertex {x} out of range for {n} vertices")

    dist = spectral.relation[x]
    Estar = np.stack([(dist == i) for i in range(D + 1)]).astype(np.float64)
    Astar_all = spectral.Q[:, dist]
    if D >= 1:
        A = (spectral.relation == 1).astype(np.float64)
        Astar = Astar_all[1].copy()
    else:
        A = np.zeros((n, n))
        Astar = np.zeros(n)
    N = spectral.U.T @ (Astar[:, None] * spectral.U)

    ctx = TerwContext(
        scheme=scheme, spectral=spectral, x=x, dist=dist, A=A, Astar=Astar,
        Estar=Estar, Astar_all=Astar_all, N=N,
    )
    report = verify_operator_identities(ctx)
    if not report.all_passed:
        failed = [c.name for c in report.checks if not c.passed]
        raise NumericalCheckFailure(f"operator identities failed: {failed}")
    return replace(ctx, identities=report)


def _max_abs(M: np.ndarray, where: np.ndarray) -> float:
    """max |M| over the entries ``where`` selects, 0 if none, without copying them out."""
    return float(max(M.max(where=where, initial=0.0), -M.min(where=where, initial=0.0)))


def _exchange_residual(M: np.ndarray, dist: np.ndarray, shift: int) -> float:
    """max_i || M E*_i - E*_{i+shift} M ||_inf with out-of-range E* = 0.

    Entry (y, z) of M E*_i - E*_{i+shift} M is M_yz when exactly one of
    dist(z) = i and dist(y) = i + shift holds, and 0 otherwise, so the
    maximum over i is that of |M_yz| over dist(y) != dist(z) + shift.
    """
    return _max_abs(M, dist[:, None] != dist[None, :] + shift)


def _block_norms2(X: np.ndarray, sp: SpectralData) -> np.ndarray:
    """(D+1, D+1) squared Frobenius norms of the eigenspace blocks (j, i) of X."""
    starts = np.cumsum(sp.m) - sp.m
    return np.add.reduceat(np.add.reduceat(X * X, starts, axis=0), starts, axis=1)


def _dual_exchange_residual(blocks: np.ndarray, shift: int) -> float:
    """max_i || M E_i - E_{i+shift} M ||_F with out-of-range E = 0, for M = U X U^T.

    ``blocks`` are the squared block norms of X (:func:`_block_norms2`).
    With E_i = U_i U_i^T, M E_i - E_{i+shift} M is U times the matrix that
    keeps column block i of X off block (i+shift, i) and negates row block
    i+shift off that block.  U is orthogonal, so the Frobenius norm is read
    off the block norms of X; it bounds the max norm from above.
    """
    D = len(blocks) - 1
    blocks = np.where(np.eye(D + 1, k=-shift, dtype=bool), 0.0, blocks)  # the pattern: blocks (i+shift, i)
    row_off = np.zeros(D + 1)  # row block i+shift, for each i it exists for
    i = np.arange(D + 1)
    inside = (0 <= i + shift) & (i + shift <= D)
    row_off[inside] = blocks.sum(axis=1)[i[inside] + shift]
    return float(np.sqrt((blocks.sum(axis=0) + row_off).max()))


def verify_operator_identities(ctx: TerwContext, tol: float | None = None) -> IdentityReport:
    """Residuals of the defining operator identities at this base vertex.

    Covers the dual-idempotent axioms, the eigenvalue relations for A and
    A*, the three-way splits A = R + F + L and A* = R* + F* + L*, the
    transpose pairings, the idempotent-exchange rules, and (when the
    scheme is almost-bipartite) the collapse of the flat part to the far
    shell.  R, F and L are masks of A on ``dist``, so A = R + F + L reads
    the entries of A between shells more than one apart.  The identities
    that involve the idempotents E_i are read in the eigenspace bases:
    A* - R* - F* - L* is U times N off its three block bands, and the
    exchange rules are taken on the bands (see
    :func:`_dual_exchange_residual`).  Those residuals are Frobenius norms,
    which bound the max norm from above; the others are max norms.
    """
    n, D = ctx.n, ctx.D
    if tol is None:
        tol = IDENTITY_TOL_PER_VERTEX * n
    sp = ctx.spectral
    Estar = ctx.Estar
    checks = []

    def add(name, residual):
        checks.append(CheckResult(name=name, residual=float(residual), tol=tol))

    add("sum(Estar) = I", np.abs(Estar.sum(axis=0) - 1.0).max())
    # row i: E*_i E*_j - delta_ij E*_i as diagonals, for every j
    eye = np.eye(D + 1)
    add("Estar idempotent-orthogonal",
        max(np.abs(Estar[i] * Estar - eye[i][:, None] * Estar[i]).max() for i in range(D + 1)))
    add("sum(Astar) = n Estar_0", np.abs(ctx.Astar_all.sum(axis=0) - n * Estar[0]).max())
    lab = sp.eigenspace_labels()
    if D >= 1:
        add("Astar_0 = I", np.abs(ctx.Astar_all[0] - 1.0).max())
        # ||(A - theta_i) E_i||_F = ||(A - theta_i) U_i||_F, as U_i^T has orthonormal rows
        AU = ctx.A @ sp.U
        AU -= sp.U * sp.theta[lab]
        add("A E_i = theta_i E_i", np.sqrt(np.bincount(lab, np.einsum("ij,ij->j", AU, AU)).max()))
        add("Astar Estar_i = theta*_i Estar_i",
            max(np.abs((ctx.Astar - sp.theta_star[i]) * Estar[i]).max() for i in range(D + 1)))
    # R, F, L keep the entries (y, z) of A at steps dist(y) - dist(z) = 1, 0, -1,
    # and R*, F*, L* the blocks (j, i) of N at steps j - i = 1, 0, -1
    dist, lab = ctx.dist.astype(np.int16), lab.astype(np.int16)  # keeps the n x n step masks small
    step = dist[:, None] - dist[None, :]
    blocks = _block_norms2(ctx.N, sp)
    block_step = np.subtract.outer(np.arange(D + 1), np.arange(D + 1))
    add("A = R + F + L", _max_abs(ctx.A, np.abs(step) > 1))
    add("R = L^T", _max_abs(ctx.A - ctx.A.T, step == 1))
    add("Astar = Rstar + Fstar + Lstar", np.sqrt(blocks[np.abs(block_step) > 1].sum()))
    add("Rstar = Lstar^T", np.sqrt(np.sum((ctx.N - ctx.N.T) ** 2, where=lab[:, None] == lab[None, :] + 1)))
    for name, s in (("R Estar_i = Estar_{i+1} R", 1), ("F Estar_i = Estar_i F", 0),
                    ("L Estar_i = Estar_{i-1} L", -1)):
        add(name, _exchange_residual(ctx.A * (step == s), dist, s))
    for name, s in (("Rstar E_i = E_{i+1} Rstar", 1), ("Fstar E_i = E_i Fstar", 0),
                    ("Lstar E_i = E_{i-1} Lstar", -1)):
        add(name, _dual_exchange_residual(np.where(block_step == s, blocks, 0.0), s))

    if D >= 1 and is_almost_bipartite(sp.pp):
        # F keeps the entries of A inside one shell, E*_D A E*_D those inside the far shell
        same, near = step == 0, dist < D
        on_far = (dist == D)[:, None] & (dist == D)[None, :]
        add("F = Estar_D A Estar_D", _max_abs(ctx.A, same != on_far))
        add("F Estar_i = 0 for i < D", _max_abs(ctx.A, same & near[None, :]))
        add("Estar_i A Estar_i = 0 for i < D", _max_abs(ctx.A, same & near[:, None]))
        add("Estar_D A Estar_D != 0", 0.0 if _max_abs(ctx.A, on_far) > 0.5 else 1.0)

    return IdentityReport(checks=tuple(checks))


@dataclass(frozen=True)
class TriangleReport:
    """Outcome of the vanishing biconditionals for triple products.

    ``p_counterexamples`` lists (h, i, j) where p[h, i, j] = 0 disagrees
    with E*_i A_j E*_h = 0; ``q_counterexamples`` the Krein-side analogue.
    """

    p_counterexamples: tuple
    q_counterexamples: tuple
    checked: int

    @property
    def passed(self) -> bool:
        return not self.p_counterexamples and not self.q_counterexamples

    def as_dict(self) -> dict:
        return {
            "checked": self.checked,
            "p_counterexamples": [list(t) for t in self.p_counterexamples],
            "q_counterexamples": [list(t) for t in self.q_counterexamples],
            "passed": self.passed,
        }


def triangle_vanishing_check(ctx: TerwContext, zero_tol: float = 1e-7) -> TriangleReport:
    """Check that triple-product supports match the parameter supports.

    For every (h, i, j): p[h, i, j] = 0 iff E*_i A_j E*_h = 0, and
    q[h, i, j] = 0 iff E_i A*_j E_h = 0.  The matrix side is exact (0/1
    blocks); the Krein side compares squared Frobenius norms against
    ``zero_tol`` relative to the largest block, matching the relative
    threshold used for Q-ordering detection.  With E_i = U_i U_i^T and
    orthonormal U_i, ||E_i A*_j E_h||_F = ||U_i^T A*_j U_h||_F, so each A*_j
    takes one product in the eigenspace bases.
    """
    sp = ctx.spectral
    D = ctx.D
    p = intersection_tensor(ctx.scheme).p
    if sp.p_ordering != tuple(range(D + 1)):
        p = p[np.ix_(sp.p_ordering, sp.p_ordering, sp.p_ordering)]
    dist = ctx.dist

    bad_p = []
    shells = [np.flatnonzero(dist == i) for i in range(D + 1)]
    for j in range(D + 1):
        Aj = sp.relation == j
        for i in range(D + 1):
            for h in range(D + 1):
                block_nonzero = bool(Aj[np.ix_(shells[i], shells[h])].any())
                if (p[h, i, j] != 0) != block_nonzero:
                    bad_p.append((h, i, j))

    starts = np.cumsum(sp.m) - sp.m
    frob2 = np.empty((D + 1,) * 3)
    for j in range(D + 1):
        X = sp.U.T @ (ctx.Astar_all[j][:, None] * sp.U)
        # block (i, h) of X is U_i^T A*_j U_h
        frob2[:, :, j] = np.add.reduceat(np.add.reduceat(X * X, starts, axis=0), starts, axis=1).T
    kscale = max(1.0, float(np.abs(sp.krein).max()))
    fscale = max(1.0, float(frob2.max()))
    bad_q = [
        (h, i, j)
        for h in range(D + 1)
        for i in range(D + 1)
        for j in range(D + 1)
        if (abs(sp.krein[h, i, j]) > KREIN_ZERO_TOL * kscale) != (frob2[h, i, j] > zero_tol * fscale)
    ]

    return TriangleReport(
        p_counterexamples=tuple(bad_p),
        q_counterexamples=tuple(bad_q),
        checked=2 * (D + 1) ** 3,
    )
