"""The base-vertex operators of the Terwilliger algebra and their identity report.

Fixing a base vertex x splits the coordinate space by distance from x.
The dual idempotents E*_i are the diagonal 0/1 projectors onto those
distance shells S_i, the masks ``dist == i``, and the dual adjacency A*
is diagonal with entries n * (E_1)_{x, y} = Q[1, dist(x, y)].  The
class-1 adjacency A splits as R + F + L by whether an edge increases,
keeps, or decreases distance from x.  The context holds A as its shell
blocks up[s] = A[S_{s+1}, S_s] and flat[s] = A[S_s, S_s], built once by
:func:`shell_blocks`: R and L are the blocks up[s] and their transposes
(A is symmetric, axiom iii), and F the flat blocks.  A = R + F + L holds
exactly when A vanishes between shells more than one apart, and the
largest |entry| there is that identity's residual.

The dual adjacency splits the same way through the primitive idempotents
E_t = U_t U_t^T, with U_t the orthonormal eigenspace bases of the spectral
data.  With U the orthogonal matrix of all the U_t, N = U^T A* U has the
blocks N_ji = U_j^T A* U_i: R*, F* and L* are U N_s U^T, with N_s the
blocks j = i + s for s = 1, 0, -1.  They act in that basis and no
U N_s U^T is formed.  For a Q-polynomial ordering E_j A* E_i = 0 when
|i - j| > 1 (Terwilliger, "The subconstituent algebra of an association
scheme I", J. Algebraic Combin. 1992), so A* = R* + F* + L* holds exactly
when N vanishes off its three block bands.  N is symmetric, as A* is, so
the context forms only its column blocks strictly below the block
diagonal, U[:, e_i:]^T (A* U_i) for i < D with e_i = m_0 + ... + m_i: one
product with each eigenspace's scaled basis and sum_{j > i} m_i m_j n
flops in all instead of the n^3 of N.  Of column block i it keeps the
first m_{i+1} rows, R*'s block N_{i+1,i}, as below[i]; L* is R*^T.  The
rows after them are the far blocks N_ji, j > i + 1: as each column block
lands their squared Frobenius norm is added to ``far2`` and the block is
dropped, so one column block is alive at a time.  F* is never read and
not formed.  The Frobenius norm of N's off-band blocks, sqrt(2 far2), is
the residual of A* = R* + F* + L*; it bounds the max norm of
A* - R* - F* - L* from above.  The residual of A E_i = theta_i E_i is
``eig_residual``, which :func:`spectral_data` reads off the class-1
neighbour lists; the context does not form A U again.

The context holds ``dist``, A's shell blocks, the diagonal of A*, R*'s
blocks of N and the far blocks' squared norm; no n x n A or N, far block
of N, shell projector, dual class matrix or idempotent is stored.
The identity report keeps only the checks that read data and can fail.
The identities that hold by the construction above (the shell
projectors' sum and products, the exchange rules of R, F, L and R*, F*,
L*) are not reported, nor are the sums of the dual class matrices, which
are the Bose-Mesner gates of :func:`spectral_data` scaled by n.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .errors import InvalidParameter, NumericalCheckFailure, OrderingMissing, finite_or_none
from .scheme import AssociationScheme
from .spectral import SpectralData, is_almost_bipartite

#: identity residual tolerance, scaled by the number of vertices
IDENTITY_TOL_PER_VERTEX = 1e-9


def check_tol(tol: float) -> None:
    """Raise :class:`InvalidParameter` unless ``tol`` is positive and finite: a NaN or inf passes every gate."""
    if not 0.0 < tol < np.inf:
        raise InvalidParameter(f"tolerance {tol} is not positive and finite")


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
            "residual": finite_or_none(self.residual),
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
        """The same residuals judged against ``tol``, which must be positive and finite; unchanged when it is None."""
        if tol is None:
            return self
        check_tol(tol)
        return IdentityReport(checks=tuple(replace(c, tol=tol) for c in self.checks))


class ShellBlocks(NamedTuple):
    """A at the base vertex, as its blocks on and between neighbouring distance shells."""

    shells: tuple     # S_s, the vertices at distance s from x, for s = 0..D
    up: tuple         # up[s] = A[S_{s+1}, S_s], the block of R; up[D] is empty
    flat: tuple       # flat[s] = A[S_s, S_s], the block of F; None when it has no nonzero entry
    off_band: float   # max |A| between shells more than one apart: the residual of A = R + F + L


def shell_blocks(A: np.ndarray, dist: np.ndarray, D: int) -> ShellBlocks:
    """The shells of ``dist`` and the float64 shell blocks of the symmetric n x n ``A``.

    A[S_s, S_{s+1}] is up[s]^T, so the blocks hold every nonzero entry of
    A when their counts of nonzero entries add up to A's; the off-band
    residual is then 0.0, and otherwise the largest |entry| of A between
    shells more than one apart, found by a scan that runs only on that
    mismatch.
    """
    order = np.argsort(dist, kind="stable")  # the shells, one after another
    ends = list(accumulate(np.bincount(dist, minlength=D + 1).tolist()))
    shells = tuple(order[a:b] for a, b in zip([0] + ends, ends))
    # rows, then columns: two 1-D gathers take a third of the time of one 2-D
    # fancy index, and ``take`` keeps the block C-ordered as that index did
    flat = [np.asarray(A[S].take(S, axis=1), dtype=np.float64) for S in shells]
    up = [np.asarray(A[T].take(S, axis=1), dtype=np.float64) for S, T in zip(shells, shells[1:])]
    up.append(np.zeros((0, shells[-1].size)))
    inside = [np.count_nonzero(F) for F in flat]
    off_band = 0.0
    if np.count_nonzero(A) != sum(inside) + 2 * sum(map(np.count_nonzero, up)):
        far = np.abs(np.subtract.outer(dist, dist)) > 1
        off_band = float(np.abs(A[far], dtype=np.float64).max(initial=0.0))
    return ShellBlocks(shells, tuple(up), tuple(F if m else None for F, m in zip(flat, inside)), off_band)


def dual_blocks(U: np.ndarray, m: np.ndarray, Astar: np.ndarray) -> tuple[tuple, float]:
    """R*'s blocks N_{i+1,i} of N = U^T diag(Astar) U, and the squared norm of its far blocks below the diagonal.

    ``U`` holds the bases of the eigenspaces side by side, ``m[i]`` columns
    for eigenspace i.  Column block i of N below its block diagonal is one
    product; its far rows are folded into the norm as it lands, in the
    order of i, and only R*'s rows are kept (module docstring).
    """
    m, ends = m.tolist(), np.cumsum(m).tolist()
    below, far2 = [], 0
    for i, e in enumerate(ends[:-1]):
        B = U[:, e:].T @ (Astar[:, None] * U[:, e - m[i]:e])
        below.append(B[:m[i + 1]].copy())
        far2 += np.vdot(B[m[i + 1]:], B[m[i + 1]:])
        del B  # before the next block is formed
    return tuple(below), float(far2)


@dataclass(frozen=True)
class TerwContext:
    """Base-vertex data for one scheme: the distances, A's shell blocks, A* and A* in the eigenspace bases."""

    scheme: AssociationScheme
    spectral: SpectralData
    x: int
    dist: np.ndarray      # distance from x, i.e. class of (x, y) in P-order
    blocks: ShellBlocks   # the class-1 adjacency A, as its shell blocks
    Astar: np.ndarray     # diagonal of the dual adjacency A*_1
    below: tuple          # R*'s blocks N_{i+1, i} = U_{i+1}^T A* U_i for i < D
    far2: float           # sum of ||N_ji||_F^2 over the far blocks j > i + 1 below N's block diagonal
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
    Astar = spectral.Q[1, dist] if D >= 1 else np.zeros(n)
    below, far2 = dual_blocks(spectral.U, spectral.m, Astar)
    blocks = shell_blocks(spectral.relation == 1, dist, D)

    ctx = TerwContext(scheme=scheme, spectral=spectral, x=x, dist=dist, blocks=blocks, Astar=Astar,
                      below=below, far2=far2)
    report = verify_operator_identities(ctx)
    if not report.all_passed:
        failed = [c.name for c in report.checks if not c.passed]
        raise NumericalCheckFailure(f"operator identities failed: {failed}")
    return replace(ctx, identities=report)


def verify_operator_identities(ctx: TerwContext) -> IdentityReport:
    """Residuals of the operator identities that read data and can fail, at this base vertex.

    The eigenvalue relation for A, the three-way splits A = R + F + L and
    A* = R* + F* + L*, and (when the scheme is almost-bipartite) the
    collapse of the flat part to the far shell.  All three A-side checks
    read the shell blocks: A = R + F + L is their off-band residual,
    F = E*_D A E*_D reads the flat blocks of the near shells, and
    E*_D A E*_D != 0 the flat block of the far shell.
    A E_i = theta_i E_i and A* - R* - F* - L* are read in the eigenspace
    bases, as Frobenius norms, which bound the max norm from above; the
    others are max norms; the first is the largest ``spectral.eig_residual``.
    Each is judged against ``IDENTITY_TOL_PER_VERTEX * n``; judge the
    report at another tolerance with :meth:`IdentityReport.at_tol`.
    """
    D, tol = ctx.D, IDENTITY_TOL_PER_VERTEX * ctx.n
    sp = ctx.spectral
    checks = []

    def add(name, residual):
        checks.append(CheckResult(name=name, residual=float(residual), tol=tol))

    if D >= 1:
        # ||(A - theta_i) E_i||_F = ||(A - theta_i) U_i||_F, as U_i^T has orthonormal rows
        add("A E_i = theta_i E_i", sp.eig_residual.max())
    add("A = R + F + L", ctx.blocks.off_band)
    # the far blocks of N below its block diagonal, mirrored above it
    add("Astar = Rstar + Fstar + Lstar", np.sqrt(2 * ctx.far2))

    if D >= 1 and is_almost_bipartite(sp.pp):
        # F keeps the flat blocks, E*_D A E*_D the one of the far shell
        flat = ctx.blocks.flat
        add("F = Estar_D A Estar_D", max((np.abs(F).max() for F in flat[:D] if F is not None), default=0.0))
        add("Estar_D A Estar_D != 0", 0.0 if flat[D] is not None and np.abs(flat[D]).max() > 0.5 else 1.0)

    return IdentityReport(checks=tuple(checks))
