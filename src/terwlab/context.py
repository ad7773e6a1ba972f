"""The base-vertex operators of the Terwilliger algebra and their identity report.

Fixing a base vertex x splits the coordinate space by distance from x.
The dual idempotents E*_i are the diagonal 0/1 projectors onto those
distance shells, the masks ``dist == i``, and the dual adjacency A* is
diagonal with entries n * (E_1)_{x, y} = Q[1, dist(x, y)].  The class-1
adjacency A splits as R + F + L by whether an edge increases, keeps, or
decreases distance from x: R, F and L are the entries of A with
dist(y) - dist(z) equal to 1, 0 and -1, masks of A on ``dist`` applied
where they are needed and never stored.

The dual adjacency splits the same way through the primitive idempotents
E_t = U_t U_t^T, with U_t the orthonormal eigenspace bases of the spectral
data.  With U the orthogonal matrix of all the U_t, the context holds
N = U^T A* U, whose block (j, i) is U_j^T A* U_i: R*, F* and L* are
U N_s U^T, with N_s the blocks j = i + s for s = 1, 0, -1.  They act in
that basis and no U N_s U^T is formed.  For a Q-polynomial ordering
E_j A* E_i = 0 when |i - j| > 1 (Terwilliger, "The subconstituent algebra
of an association scheme I", J. Algebraic Combin. 1992), so
A* = R* + F* + L* holds exactly when N vanishes off its three block bands.
The Frobenius norm of N's off-band blocks is that identity's residual; it
bounds the max norm of A* - R* - F* - L* from above.  The residual of
A E_i = theta_i E_i is ``eig_residual``, which :func:`spectral_data` reads
off its one product A U; the context does not multiply A by U again.

The context holds ``dist``, A, the diagonal of A* and N; no shell
projector, dual class matrix or n x n idempotent is stored.  The identity
report keeps only the checks that read data and can fail.  The identities
that hold by the construction above (the shell projectors' sum and
products, the exchange rules of R, F, L and R*, F*, L*) are not reported,
nor are the sums of the dual class matrices, which are the Bose-Mesner
gates of :func:`spectral_data` scaled by n.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidParameter, NumericalCheckFailure, OrderingMissing
from .scheme import AssociationScheme
from .spectral import SpectralData, is_almost_bipartite

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
    """Base-vertex data for one scheme: the distances, A, A* and A* in the eigenspace bases."""

    scheme: AssociationScheme
    spectral: SpectralData
    x: int
    dist: np.ndarray      # distance from x, i.e. class of (x, y) in P-order
    A: np.ndarray         # class-1 adjacency; R, F, L are its entries with dist(y) - dist(z) = 1, 0, -1
    Astar: np.ndarray     # diagonal of the dual adjacency A*_1
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
    if D >= 1:
        A = (spectral.relation == 1).astype(np.float64)
        Astar = spectral.Q[1, dist]
    else:
        A = np.zeros((n, n))
        Astar = np.zeros(n)
    N = spectral.U.T @ (Astar[:, None] * spectral.U)

    ctx = TerwContext(scheme=scheme, spectral=spectral, x=x, dist=dist, A=A, Astar=Astar, N=N)
    report = verify_operator_identities(ctx)
    if not report.all_passed:
        failed = [c.name for c in report.checks if not c.passed]
        raise NumericalCheckFailure(f"operator identities failed: {failed}")
    return replace(ctx, identities=report)


def _max_abs(M: np.ndarray, where: np.ndarray) -> float:
    """max |M| over the entries ``where`` selects, 0 if none, without copying them out."""
    return float(max(M.max(where=where, initial=0.0), -M.min(where=where, initial=0.0)))


def _block_norms2(X: np.ndarray, sp: SpectralData) -> np.ndarray:
    """(D+1, D+1) squared Frobenius norms of the eigenspace blocks (j, i) of X."""
    starts = np.cumsum(sp.m) - sp.m
    return np.add.reduceat(np.add.reduceat(X * X, starts, axis=0), starts, axis=1)


def verify_operator_identities(ctx: TerwContext, tol: float | None = None) -> IdentityReport:
    """Residuals of the operator identities that read data and can fail, at this base vertex.

    The eigenvalue relation for A, the three-way splits A = R + F + L and
    A* = R* + F* + L*, and (when the scheme is almost-bipartite) the
    collapse of the flat part to the far shell.  R, F and L are masks of A
    on ``dist``, so A = R + F + L reads the entries of A between shells
    more than one apart, and F = E*_D A E*_D those inside one near shell.
    A E_i = theta_i E_i and A* - R* - F* - L* are read in the eigenspace
    bases, as Frobenius norms, which bound the max norm from above; the
    others are max norms; the first is the largest ``spectral.eig_residual``.
    """
    n, D = ctx.n, ctx.D
    if tol is None:
        tol = IDENTITY_TOL_PER_VERTEX * n
    sp = ctx.spectral
    checks = []

    def add(name, residual):
        checks.append(CheckResult(name=name, residual=float(residual), tol=tol))

    if D >= 1:
        # ||(A - theta_i) E_i||_F = ||(A - theta_i) U_i||_F, as U_i^T has orthonormal rows
        add("A E_i = theta_i E_i", sp.eig_residual.max())
    # R, F, L keep the entries (y, z) of A at steps dist(y) - dist(z) = 1, 0, -1,
    # and R*, F*, L* the blocks (j, i) of N at steps j - i = 1, 0, -1
    dist = ctx.dist.astype(np.int16)  # keeps the n x n step mask small
    step = dist[:, None] - dist[None, :]
    blocks = _block_norms2(ctx.N, sp)
    block_step = np.subtract.outer(np.arange(D + 1), np.arange(D + 1))
    add("A = R + F + L", _max_abs(ctx.A, np.abs(step) > 1))
    add("Astar = Rstar + Fstar + Lstar", np.sqrt(blocks[np.abs(block_step) > 1].sum()))

    if D >= 1 and is_almost_bipartite(sp.pp):
        # F keeps the entries of A inside one shell, E*_D A E*_D those inside the far shell
        on_far = (dist == D)[:, None] & (dist == D)[None, :]
        add("F = Estar_D A Estar_D", _max_abs(ctx.A, (step == 0) != on_far))
        add("Estar_D A Estar_D != 0", 0.0 if _max_abs(ctx.A, on_far) > 0.5 else 1.0)

    return IdentityReport(checks=tuple(checks))
