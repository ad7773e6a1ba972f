"""Deterministic decomposition of the standard module into irreducible pieces.

The construction rests on thin-module theory (Terwilliger, *The
subconstituent algebra of an association scheme I*, 1992).  Fix the base
vertex x and let S_r be the r-th distance shell.  In a thin irreducible
module W with endpoint r, E*_r W is one-dimensional and killed by the
lowering map, and the lowering map is injective on every higher shell of
W.  So the kernel

    K_r = ker(E*_{r-1} A E*_r) inside E*_r V        (K_0 = E*_0 V)

is exactly the sum of E*_r W over the modules W with endpoint r.  It is
read off the 0/1 block A[S_{r-1}, S_r] alone.

From an orthonormal basis of K_r, the ladders of all modules with
endpoint r are grown at once, W_{i+1} = E*_{r+i+1} A W_i with unit
columns, one column per vector.  The flat matrix W_i^T A W_i and the Gram
matrix U^T U of the next raw rung U = E*_{r+i+1} A W_i hold the
isomorphism invariants: on the span of the modules of one isomorphism
class they are a_i(W) and the squared rung norm times the identity, and
together with the rung where the ladder stops these numbers fix the
tridiagonal action of A, hence the class.  So the basis is split, rung by
rung, into the eigenspaces of the two matrices, and each resulting block
holds the modules of one class (numerically: their invariants agree to
the relative gap ``SPLIT_GAP``).  On the first rung the two matrices are
the compressions of E*_r A E*_r and E*_r A^2 E*_r - (E*_r A E*_r)^2 to
K_r.  Inside a block the modules are not unique: every orthonormal basis
of the block gives a valid splitting.  ``seed`` picks one by a random
orthogonal rotation, so the census and the measured bands must not
depend on it.

Certification.  A ladder spans a subspace with one unit vector per shell.
Every rung lies on one shell by construction, so A* acts on rung i as the
scalar theta*_{r+i}.  If the subspace is also A-invariant (residual at
most ``tol * n``), it is irreducible: an invariant subspace of it is
invariant under A*, whose eigenvalues differ between shells, so it is
spanned by some of the shell vectors; it is invariant under A, whose
off-diagonal entries in the ladder basis are the rung norms and hence
nonzero, so it holds all of them.  Its shell slices are one-dimensional,
so it is thin.  The stacked bases B must satisfy |B^T B - I| <=
``tol * n``.  A collection whose dimension is not n, bases that overlap,
a ladder that is not A-invariant, or a block whose ladders stop at
different rungs raises :class:`NotThin` with a witness.  A acts on a
module by T = B^T A B, tridiagonal with nonzero rungs, so its d + 1
eigenvalues are simple and each is some theta_i, whose eigenvector spans
E_i W.  Labelling them by the nearest theta gives rank(E_i W) and the
dual endpoint t; an eigenvalue more than ``tol * n`` from every theta, a
rank above 1 or a support not d + 1 long means the module is not dual
thin and raises :class:`NotThin` too.

Measurement.  A and A* act on a thin, dual thin module by tridiagonal
matrices B(W) and B*(W) in its two ladder bases, read as their bands
(c, a, b) and (c*, a*, b*), the format of the predicted bands, in the
module basis w_0..w_d.  With y_j the unit eigenvector of T for
theta_{t+j}, the dual ladder E_{t+j} w_0 = y_j (y_j)_0 (w_0 spans E*_r W)
is measured against diag(theta*_r, ..., theta*_{r+d}), and the shell
ladder alpha_i w_i of the unit v = +-y_0 spanning E_t W against T.

The oracle reads A, ``dist``, theta and theta* only: never U, m, the
predicted module bands, the recurrence or the q,s formulas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .context import TerwContext
from .errors import NotThin, NumericalCheckFailure

#: singular values and rung norms below this fraction of the largest count as zero
RANK_TOL = 1e-8
#: relative gap above which consecutive eigenvalues of a compressed operator start a new block
SPLIT_GAP = 1e-6


@dataclass(frozen=True)
class IrreducibleModule:
    """One irreducible invariant subspace with its measured shape.

    ``r``/``t`` are the lowest distance shell (endpoint) and lowest
    eigenspace index (dual endpoint) meeting the subspace, ``d`` the length
    of both supports.  ``cab`` and ``cab_star`` are the bands (c, a, b) of
    B(W) and (c*, a*, b*) of B*(W), and ``ladder_norms2`` and
    ``dual_ladder_norms2`` the squared norms of the two measuring ladders.
    """

    basis: np.ndarray
    r: int
    t: int
    d: int
    cab: tuple
    cab_star: tuple
    ladder_norms2: np.ndarray
    dual_ladder_norms2: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def census(modules) -> dict:
    """Counts of modules by (dual endpoint, diameter)."""
    out: dict = {}
    for mod in modules:
        key = (mod.t, mod.d)
        out[key] = out.get(key, 0) + 1
    return dict(sorted(out.items()))


def _lowering_kernel(ctx: TerwContext, shells: list, r: int) -> np.ndarray:
    """Orthonormal basis (n x g) of K_r: the vectors on shell r killed by E*_{r-1} A."""
    cols = shells[r]
    if r == 0:
        Ks = np.eye(cols.size)
    else:
        _, s, vt = np.linalg.svd(ctx.A[np.ix_(shells[r - 1], cols)])
        rank = int(np.sum(s > RANK_TOL * max(1.0, s[0]))) if s.size else 0
        Ks = vt[rank:].T
    K = np.zeros((ctx.n, Ks.shape[1]))
    K[cols] = Ks
    return K


def _eigenblocks(M: np.ndarray) -> list:
    """Eigenvectors of the symmetric M, split where consecutive eigenvalues part by SPLIT_GAP."""
    w, Y = np.linalg.eigh(M)
    cuts = np.flatnonzero(np.diff(w) > SPLIT_GAP * max(1.0, float(np.abs(w).max()))) + 1
    return np.split(Y, cuts, axis=1)


def _ladders(ctx: TerwContext, r: int, rungs: list, scale: float) -> list:
    """Ladders grown from the unit rungs ``rungs``, one (n, h, d+1) array per block.

    Before each new rung the block is split into the eigenspaces of
    W^T A W and of the next rung's Gram matrix (W the current rung); each
    part is grown on its own, with all its earlier rungs rotated alike.
    Appends to ``rungs``.
    """
    while True:
        W = rungs[-1]
        shell = r + len(rungs) - 1
        on = np.flatnonzero(ctx.dist == shell)
        AW = ctx.A[on].T @ W[on]  # A is symmetric and W vanishes off its shell
        up = (ctx.dist == shell + 1)[:, None] * AW if shell < ctx.D else np.zeros_like(W)
        if W.shape[1] > 1:
            for X in (W[on].T @ AW[on], up.T @ up):
                parts = _eigenblocks(X)
                if len(parts) > 1:
                    return [L for Z in parts for L in _ladders(ctx, r, [R @ Z for R in rungs], scale)]
        norms = np.linalg.norm(up, axis=0)
        if norms.max() <= RANK_TOL * scale:
            return [np.stack(rungs, axis=2)]
        if norms.min() <= RANK_TOL * scale:
            low = float(norms.min())
            raise NotThin(
                f"ladders from shell {r} (block of {W.shape[1]}) stop at different rungs: "
                f"rung {shell + 1 - r} norm {low:.3e}",
                witness=(r, W.shape[1], "R", low),
            )
        rungs.append(up / norms)


def _support(dims) -> tuple[int, int]:
    """(first index, support length - 1) of the eigenspace ranks; the support must be an interval."""
    nz = [i for i, v in enumerate(dims) if v > 0]
    if not nz:
        raise NumericalCheckFailure("module has empty eigenspace support")
    lo, hi = nz[0], nz[-1]
    if nz != list(range(lo, hi + 1)):
        raise NumericalCheckFailure(f"module eigenspace support {nz} is not an interval")
    return lo, hi - lo


def _bands(M: np.ndarray, S: np.ndarray, what: str) -> tuple:
    """Bands (c, a, b) of M w_i = b_{i-1} w_{i-1} + a_i w_i + c_{i+1} w_{i+1} and n2_i = |w_i|^2.

    Batched over g modules of one size k: ``M`` (g, k, k) is the operator
    and the columns of ``S`` (g, k, k) the rungs w_i, in module coordinates.
    With G = S^T M S, a_i = G[i, i] / n2_i, c_i = G[i, i-1] / n2_i and
    b_i = G[i, i+1] / n2_i, and c_0 = b_d = 0.
    """
    G = S.transpose(0, 2, 1) @ M @ S
    n2 = np.einsum("gik,gik->gk", S, S)
    if n2.min(initial=np.inf) <= 0:
        raise NumericalCheckFailure(f"{what} ladder vector vanishes inside the support")
    c, b = np.zeros_like(n2), np.zeros_like(n2)
    c[:, 1:] = np.diagonal(G, -1, 1, 2) / n2[:, 1:]
    b[:, :-1] = np.diagonal(G, 1, 1, 2) / n2[:, :-1]
    return c, np.diagonal(G, 0, 1, 2) / n2, b, n2


def _certify(ctx: TerwContext, ladders: list, tol: float) -> list:
    """Certify every ladder as a module and measure its B(W) and B*(W).

    ``ladders`` holds (r, rungs) with rungs of shape (n, g, d+1).  All bases
    are stacked into one n x n matrix, so A is applied once to the whole
    collection; the rest is read off each module's T = B^T A B.
    """
    n, D = ctx.n, ctx.D
    Bcat = np.hstack([L.reshape(n, -1) for _, L in ladders]) if ladders else np.zeros((n, 0))
    if Bcat.shape[1] != n:
        raise NotThin(f"collected dimension {Bcat.shape[1]} != {n}", witness=(Bcat.shape[1], n))
    # (r, block size, column slice) of each module, in the column order of Bcat
    spans = []
    lo = 0
    for r, L in ladders:
        _, g, k = L.shape
        spans.extend((r, g, slice(lo + j * k, lo + (j + 1) * k)) for j in range(g))
        lo += g * k

    # the bases must be orthonormal, within and across modules
    G = Bcat.T @ Bcat
    G[np.diag_indices(n)] -= 1.0
    np.abs(G, out=G)
    worst = int(np.argmax(G))
    if G.flat[worst] > tol * n:
        resid = float(G.flat[worst])
        col = max(divmod(worst, n))
        r, g, _ = next(span for span in spans if span[2].start <= col < span[2].stop)
        raise NotThin(
            f"ladder from shell {r} (block of {g}) overlaps another module: "
            f"Gram residual {resid:.3e} exceeds {tol * n:.3e}",
            witness=(r, g, "Gram", resid),
        )
    del G

    # T = B^T A B per module; the ladder is A-invariant when A B = B T
    AB = ctx.A @ Bcat
    T = []
    for r, g, cols in spans:
        B, W = Bcat[:, cols], AB[:, cols]
        T.append(B.T @ W)
        resid = float(np.abs(W - B @ T[-1]).max())
        if resid > tol * n:
            raise NotThin(
                f"ladder from shell {r} (block of {g}) is not A-invariant: "
                f"residual {resid:.3e} exceeds {tol * n:.3e}",
                witness=(r, g, "A", resid),
            )
    del AB

    # rank(E_i W) counts T's eigenvalues labelled i by their nearest theta
    dims = np.array([cols.stop - cols.start for _, _, cols in spans])
    groups = {k: np.flatnonzero(dims == k) for k in sorted(set(dims.tolist()))}
    ranks, gaps = np.zeros((len(spans), D + 1), dtype=int), np.zeros(len(spans))
    spectra = {}
    for k, idx in groups.items():
        Tk = np.stack([T[j] for j in idx])
        mu, Y = np.linalg.eigh(Tk)
        off = np.abs(mu[:, :, None] - ctx.spectral.theta)
        lab = off.argmin(axis=2)
        gaps[idx] = off.min(axis=2).max(axis=1)
        np.add.at(ranks, (idx[:, None], lab), 1)
        spectra[k] = (Tk, np.take_along_axis(Y, np.argsort(lab, axis=1)[:, None, :], 2))

    ts = np.empty(len(spans), dtype=int)
    for j, (r, g, _) in enumerate(spans):
        if gaps[j] > tol * n:
            raise NotThin(
                f"ladder from shell {r} (block of {g}) is not dual thin: an eigenvalue of "
                f"B^T A B lies {gaps[j]:.3e} from every theta, over {tol * n:.3e}",
                witness=(r, g, "E", float(gaps[j])),
            )
        ts[j], dstar = _support(ranks[j])
        if ranks[j].max() > 1 or dstar != dims[j] - 1:
            raise NotThin(
                f"ladder from shell {r} (block of {g}) is not dual thin: "
                f"eigenspace ranks {ranks[j].tolist()}",
                witness=(r, g, "E", ranks[j].tolist()),
            )

    modules = [None] * len(spans)
    for k, idx in groups.items():
        # dual rung j = E_{t+j} w_0 = y_j (y_j)_0 is column j of X (y_j in label
        # order); the unit vector spanning E_t W is alpha = X[:, 0] / |E_t w_0|
        Tk, Y = spectra[k]
        X = Y * Y[:, :1, :]
        alpha = X[:, :, 0] / np.sqrt(X[:, :1, 0])
        # rung i lies on shell r + i, where A* is theta*_{r+i}
        lam = ctx.spectral.theta_star[np.array([spans[j][0] for j in idx])[:, None] + np.arange(k)]
        c, a, b, n2 = _bands(Tk, alpha[:, :, None] * np.eye(k), "primal")
        cs, as_, bs, dn2 = _bands(lam[:, :, None] * np.eye(k), X, "dual")
        for row, j in enumerate(idx):
            r, _, cols = spans[j]
            modules[j] = IrreducibleModule(
                basis=Bcat[:, cols], r=r, t=int(ts[j]), d=k - 1,
                cab=(c[row], a[row], b[row]), cab_star=(cs[row], as_[row], bs[row]),
                ladder_norms2=n2[row], dual_ladder_norms2=dn2[row],
            )
    return modules


def decompose(ctx: TerwContext, tol: float = RANK_TOL, seed: int = 0) -> list:
    """Split the coordinate space into irreducible invariant subspaces.

    For each endpoint r, the ladders of the lowering kernel K_r are grown
    through the shells and split, rung by rung, into blocks of isomorphic
    modules by the rung Gram and flat matrices, and ``seed`` rotates each
    block's basis by a random orthogonal matrix (see the module
    docstring).  The modules are certified orthonormal to each other and
    A-invariant, both to ``tol * n``; A*-invariance holds by construction.
    Dual thinness and t are read off the spectrum of each T = B^T A B, and
    each module is measured inside its certificate: its bands ``cab`` and
    ``cab_star`` and the squared norms of its two ladders are filled in.
    Raises :class:`NotThin`, with a ``witness``, when the modules do not
    add up to dimension n, overlap, are not A-invariant or are not dual
    thin.  Returns the modules sorted by (t, d, r); the census and the
    measured bands do not depend on ``seed``.
    """
    rng = np.random.default_rng(seed)
    shells = [np.flatnonzero(ctx.dist == i) for i in range(ctx.D + 1)]
    scale = max(1.0, float(np.abs(ctx.A).sum(axis=1).max()))
    ladders = []
    for r in range(ctx.D + 1):
        K = _lowering_kernel(ctx, shells, r)
        if not K.shape[1]:
            continue
        for L in _ladders(ctx, r, [K], scale):
            g = L.shape[1]
            if g > 1:
                Q = np.linalg.qr(rng.standard_normal((g, g)))[0]
                L = np.tensordot(L, Q, axes=(1, 0)).transpose(0, 2, 1)
            ladders.append((r, L))
    modules = _certify(ctx, ladders, tol)
    order = sorted(range(len(modules)), key=lambda i: (modules[i].t, modules[i].d, modules[i].r, i))
    return [modules[i] for i in order]


@dataclass(frozen=True)
class NormLadderReport:
    """Norm-balance identities and positivity of consecutive products."""

    primal_residual: float
    dual_residual: float
    products: tuple
    dual_products: tuple

    @property
    def all_positive(self) -> bool:
        return all(p > 0 for p in self.products) and all(p > 0 for p in self.dual_products)


def norm_ladder_check(mod: IrreducibleModule) -> NormLadderReport:
    """Verify c_i(W) ||E*_{r+i} v||^2 = b_{i-1}(W) ||E*_{r+i-1} v||^2 and
    its dual, and collect the products b_{i-1}(W) c_i(W) for i = 1..d.

    ``mod`` is a module of :func:`decompose`; the norms are those of the
    ladders its measurement used.
    """
    c, _, b = mod.cab
    cs, _, bs = mod.cab_star
    nrm2, dnrm2 = mod.ladder_norms2, mod.dual_ladder_norms2
    products = b[:-1] * c[1:]
    dual_products = bs[:-1] * cs[1:]
    return NormLadderReport(
        primal_residual=float(np.abs(c[1:] * nrm2[1:] - b[:-1] * nrm2[:-1]).max(initial=0.0)),
        dual_residual=float(np.abs(cs[1:] * dnrm2[1:] - bs[:-1] * dnrm2[:-1]).max(initial=0.0)),
        products=tuple(float(p) for p in products),
        dual_products=tuple(float(p) for p in dual_products),
    )
