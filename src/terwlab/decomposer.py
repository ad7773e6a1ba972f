"""Deterministic decomposition of the standard module into irreducible pieces.

The construction rests on thin-module theory (Terwilliger, *The
subconstituent algebra of an association scheme I*, 1992).  Fix the base
vertex x and let S_r be the r-th distance shell.  In a thin irreducible
module W with endpoint r, E*_r W is one-dimensional and killed by the
lowering map, and the lowering map is injective on every higher shell of
W.  So the kernel

    K_r = ker(E*_{r-1} A E*_r) inside E*_r V        (K_0 = E*_0 V)

is exactly the sum of E*_r W over the modules W with endpoint r.  As E*_r V
is the orthogonal sum of the E*_r W, K_r is the complement of the lower
ladders' rungs on shell r (a pivoted Cholesky; a full shell takes no work).

Every product the oracle takes lives in A's shell blocks
up[s] = A[S_{s+1}, S_s] and flat[s] = A[S_s, S_s], which the context
holds; A is symmetric (axiom iii), so A[S_s, S_{s+1}] = up[s]^T, and a
flat block without a nonzero entry (all below shell D in an
almost-bipartite scheme) is not held.  The blocks hold all of A when A
vanishes between shells more than one apart, which the context's
identity A = R + F + L checks.  A rung on shell s is held as a
|S_s| x g array, and no array has n rows.  The endpoints are taken in
increasing order.

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
the relative gap ``SPLIT_GAP``).  Most of these g x g matrices are scalar
on their block, and those are kept whole without an eigensolve: with
mu = tr(M) / g, Weyl's inequality puts every eigenvalue of M within
|M - mu I|_2 <= |M - mu I|_F of mu, so when
|M - mu I|_F <= SPLIT_GAP max(1, |mu|) / 4 no two eigenvalues part by the
gap (the factor 4 covers |mu| against the largest |eigenvalue| and
``eigh``'s rounding).  On the first rung the two matrices are the
compressions of E*_r A E*_r and E*_r A^2 E*_r - (E*_r A E*_r)^2 to
K_r.  Inside a block the modules are not unique: every orthonormal basis
of the block gives a valid splitting, and the oracle keeps the one that
the complement and the splits give it.

Certification.  A ladder spans a subspace with one unit vector per shell.
Every rung lies on one shell by construction, so A* acts on rung i as the
scalar theta*_{r+i}.  If the subspace is also A-invariant (residual at
most ``tol * n``), it is irreducible: an invariant subspace of it is
invariant under A*, whose eigenvalues differ between shells, so it is
spanned by some of the shell vectors; it is invariant under A, whose
off-diagonal entries in the ladder basis are the rung norms and hence
nonzero, so it holds all of them.  Its shell slices are one-dimensional,
so it is thin.  The certificate is taken on the shell blocks: A w_i, for
the rung w_i on shell s, lies on shells s - 1, s and s + 1 as
up[s-1]^T w_i, flat[s] w_i and up[s] w_i.  Against the module's rungs
on those three shells these give column i of T = B^T A B and of
A B - B T, so the shell-local invariance residual is the residual of
the dense product.  Rungs on different shells have disjoint supports,
so the stacked bases B satisfy |B^T B - I| <= ``tol * n`` when the
rungs on each shell do: one |S_s|-square Gram matrix per shell.  A
ladder's rungs of equal shape, and shells of equal shape, are batched,
which keeps the long, thin shell sequences of the odd cycles cheap.  A
collection whose dimension is not n, bases that overlap, a ladder that
is not A-invariant, or a block whose ladders stop at different rungs
raises :class:`NotThin` with a witness.  A acts on a module by T,
tridiagonal with nonzero rungs, so its d + 1 eigenvalues are simple and
each is some theta_i, whose eigenvector spans E_i W.  Labelling them by
the nearest theta gives rank(E_i W) and the dual endpoint t; an
eigenvalue more than ``tol * n`` from every theta, a rank above 1 or a
support not d + 1 long means the module is not dual thin and raises
:class:`NotThin` too.  These gates are taken for all modules at once,
and the witness names the first failing module in ladder order, its gap
tested before its ranks.

Measurement.  A and A* act on a thin, dual thin module by tridiagonal
matrices B(W) and B*(W) in its two ladder bases, read as their bands
(c, a, b) and (c*, a*, b*), the format of the predicted bands, in the
module basis w_0..w_d.  With y_j the unit eigenvector of T for
theta_{t+j}, the dual ladder E_{t+j} w_0 = y_j (y_j)_0 (w_0 spans E*_r W)
is measured against diag(theta*_r, ..., theta*_{r+d}), and the shell
ladder alpha_i w_i of the unit v = +-y_0 spanning E_t W against T.

The oracle reads A's shell blocks, theta and theta* only: never U, m,
the predicted module bands, the recurrence or the q,s formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .context import TerwContext, check_tol
from .errors import NotThin, NumericalCheckFailure

#: rung norms below this fraction of the valency, and complement pivots below it, count as zero
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
    The basis is held shell by shell: ``rungs[i]`` is (the vertices of
    S_{r+i}, w_i on them), and ``n`` the number of vertices.
    """

    n: int
    r: int
    t: int
    d: int
    cab: tuple
    cab_star: tuple
    ladder_norms2: np.ndarray
    dual_ladder_norms2: np.ndarray
    norm_residual: float
    products_positive: bool
    rungs: tuple

    @property
    def dim(self) -> int:
        return len(self.rungs)

    @property
    def basis(self) -> np.ndarray:
        """The n x (d+1) orthonormal basis w_0..w_d, assembled from the rungs."""
        B = np.zeros((self.n, self.dim))
        for i, (on, w) in enumerate(self.rungs):
            B[on, i] = w
        return B


def census(modules) -> dict:
    """Counts of modules by (dual endpoint, diameter)."""
    out: dict = {}
    for mod in modules:
        key = (mod.t, mod.d)
        out[key] = out.get(key, 0) + 1
    return dict(sorted(out.items()))


def _stack(arrays: list) -> np.ndarray:
    """The arrays stacked on a new first axis; a single array becomes a view."""
    return arrays[0][None] if len(arrays) == 1 else np.array(arrays)


def _complement(W: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the complement of the orthonormal q x p ``W``: a pivoted Cholesky of I - W W^T.

    The pivot is the largest residual diagonal entry, lowest index first; at or below ``RANK_TOL``
    it stops, so a W whose columns are not orthonormal gives fewer than q - p columns, never a NaN.
    The pivots amplify the rounding of I - W W^T in the rows' Gram matrix; one Newton-Schulz step cures it.
    """
    q, p = W.shape
    P = W @ -W.T
    P.flat[::q + 1] += 1.0
    diag = P.diagonal().copy()
    rows = np.empty((q - p, q))
    for j in range(q - p):
        k = diag.argmax()
        if diag[k] <= RANK_TOL:
            return rows[:j].T
        rows[j] = (P[k] - rows[:j, k] @ rows[:j]) / np.sqrt(diag[k])
        diag -= rows[j] ** 2
    return rows.T @ (1.5 * np.eye(q - p) - 0.5 * rows @ rows.T)


def _eigenblocks(M: np.ndarray) -> list:
    """Eigenvectors of the symmetric M, split where consecutive eigenvalues part by SPLIT_GAP.

    Returns [] when there is no cut.  With mu = tr(M) / g, Weyl's
    inequality puts every eigenvalue within |M - mu I|_2 <= |M - mu I|_F
    of mu, so when |M - mu I|_F <= SPLIT_GAP max(1, |mu|) / 4 no two part
    by more than SPLIT_GAP max(1, |mu|) / 2, and the split cuts nowhere
    without an ``eigh``: the factor 4 covers |mu| against max |w| and
    ``eigh``'s rounding.
    """
    g = M.shape[0]
    mu = float(np.trace(M)) / g
    if np.linalg.norm(M - mu * np.eye(g)) <= SPLIT_GAP * max(1.0, abs(mu)) / 4:
        return []
    w, Y = np.linalg.eigh(M)
    cuts = np.flatnonzero(np.diff(w) > SPLIT_GAP * max(1.0, float(np.abs(w).max()))) + 1
    return np.split(Y, cuts, axis=1) if cuts.size else []


def _ladders(up: list, flat: list, r: int, rungs: list, scale: float) -> list:
    """Ladders grown from the unit rungs ``rungs``, one list of rungs per block.

    Rung i of a block of h ladders is the |S_{r+i}| x h array of its
    vectors on shell r + i.  Before each new rung the block is split into
    the eigenspaces of W^T A W and of the next rung's Gram matrix (W the
    current rung); each part is grown on its own, with all its earlier
    rungs rotated alike.  Appends to ``rungs``, or empties it when the
    block splits, so that the parts replace it.
    """
    while True:
        W = rungs[-1]
        shell = r + len(rungs) - 1
        U = up[shell] @ W
        if W.shape[1] > 1:
            for X in ([] if flat[shell] is None else [W.T @ flat[shell] @ W]) + [U.T @ U]:
                parts = _eigenblocks(X)
                if parts:
                    split = [[R @ Z for R in rungs] for Z in parts]
                    del W, U, rungs[:]
                    return [L for part in split for L in _ladders(up, flat, r, part, scale)]
        norms = np.sqrt(np.add.reduce(U * U, axis=0))
        if norms.max(initial=0.0) <= RANK_TOL * scale:
            return [rungs]
        if norms.min() <= RANK_TOL * scale:
            low = float(norms.min())
            raise NotThin(
                f"ladders from shell {r} (block of {W.shape[1]}) stop at different rungs: "
                f"rung {shell + 1 - r} norm {low:.3e}",
                witness=(r, W.shape[1], "R", low),
            )
        U /= norms
        rungs.append(U)


def _actions(shells: list, up: list, flat: list, ladders: list) -> list:
    """How A acts on every ladder, read off the three shell blocks each rung touches.

    ``ladders`` holds (r, rungs) as :func:`_ladders` returns them.  Rung
    w_i lies on shell s = r + i, so A w_i lies on shells s - 1, s and
    s + 1, as up[s-1]^T w_i, flat[s] w_i and up[s] w_i.  Against the
    module's rungs w_{i-1}, w_i and w_{i+1} on those shells (zero where the
    ladder has none) they give column i of T = B^T A B, and what is left
    of them is column i of A B - B T.  Returns, per ladder of g modules
    with d + 1 rungs, the (g, d+1, d+1) tridiagonal T of each module and
    its residual max |A B - B T|.  The products of a ladder with blocks of
    one shape are batched.
    """
    sizes = [S.size for S in shells] + [0]  # sizes[-1] = 0 stands for the shells -1 and D + 1
    out = []
    for r, rungs in ladders:
        g, k = rungs[0].shape[1], len(rungs)
        ext = [np.zeros((sizes[r - 1], g))] + rungs + [np.zeros((sizes[r + k], g))]
        # T[i-1, i], T[i, i], T[i+1, i], then the residual on shells s - 1, s and s + 1
        cols = np.zeros((6, g, k))
        for o, blocks in enumerate(([up[s - 1].T if s else None for s in range(r, r + k)],
                                    flat[r:r + k], up[r:r + k])):
            # runs of rungs whose blocks have one shape; a zero block, or none below shell 0
            # or above D, contributes nothing
            for shape, run in groupby(range(k), lambda i: blocks[i] is not None and blocks[i].shape):
                if not shape or not shape[0] * shape[1]:
                    continue
                run = list(run)
                i, j = run[0], run[-1] + 1
                W = _stack(rungs[i:j])
                X = W if o == 1 else _stack(ext[i + o:j + o])
                M = _stack(blocks[i:j]) @ W
                coef = np.add.reduce(X * M, axis=1)
                cols[o, :, i:j] = coef.T
                M -= X * coef[:, None]
                cols[o + 3, :, i:j] = np.abs(M, out=M).max(axis=1).T
                del M
        T = np.zeros((g, k, k))
        entry = T.reshape(g, k * k)  # T[:, i, j] is entry[:, i * k + j]
        entry[:, 1::k + 1] = cols[0, :, 1:]
        entry[:, ::k + 1] = cols[1]
        entry[:, k::k + 1] = cols[2, :, :-1]
        out.append((T, cols[3:].max(axis=(0, 2))))
    return out


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


def _certify(ctx: TerwContext, shells: list, ladders: list, actions: list, tol: float) -> list:
    """Certify every ladder as a module and measure its B(W) and B*(W).

    ``ladders`` holds (r, rungs) as :func:`_ladders` returns them and
    ``actions`` is their :func:`_actions`.  Rungs on different shells have
    disjoint supports, so the bases are orthonormal when the rungs on each
    shell are: one Gram matrix per shell, batched over the shells of one
    size that hold rungs of the same ladders.  The rest is read off each
    module's T = B^T A B.
    """
    n, D = ctx.n, ctx.D
    collected = sum(R.shape[1] for _, rungs in ladders for R in rungs)
    if collected != n:
        raise NotThin(f"collected dimension {collected} != {n}", witness=(collected, n))
    # module j of a ladder is column j of its rungs
    mod_r, mod_g, k = np.array([(r, L[0].shape[1], len(L)) for r, L in ladders for _ in range(L[0].shape[1])],
                               dtype=int).reshape(-1, 3).T

    present = [tuple(j for j, (r, L) in enumerate(ladders) if r <= s < r + len(L)) for s in range(D + 1)]
    groups: dict = {}
    for s, js in enumerate(present):
        groups.setdefault((shells[s].size, js), []).append(s)
    gram = np.zeros(D + 1)
    for (size, js), idx in groups.items():
        B = np.concatenate([np.zeros((len(idx), size, 0))]
                           + [_stack([ladders[j][1][s - ladders[j][0]] for s in idx]) for j in js], axis=2)
        G = B.transpose(0, 2, 1) @ B
        G.reshape(len(idx), -1)[:, ::G.shape[1] + 1] -= 1.0  # the diagonals
        gram[idx] = np.abs(G, out=G).max(axis=(1, 2), initial=0.0)
        del B, G
    if gram.max() > tol * n:
        s = int(np.argmax(gram))
        blocks = [(ladders[j][0], ladders[j][1][s - ladders[j][0]]) for j in present[s]]
        B = np.hstack([R for _, R in blocks])
        G = np.abs(B.T @ B - np.eye(B.shape[1]))
        col = max(np.unravel_index(np.argmax(G), G.shape))
        for r, R in blocks:
            if col < R.shape[1]:
                break
            col -= R.shape[1]
        g = R.shape[1]
        raise NotThin(
            f"ladder from shell {r} (block of {g}) overlaps another module: "
            f"Gram residual {gram[s]:.3e} exceeds {tol * n:.3e}",
            witness=(r, g, "Gram", float(gram[s])),
        )

    resid = np.concatenate([res for _, res in actions])
    bad = np.flatnonzero(resid > tol * n)
    if bad.size:
        j = bad[0]
        raise NotThin(
            f"ladder from shell {mod_r[j]} (block of {mod_g[j]}) is not A-invariant: "
            f"residual {resid[j]:.3e} exceeds {tol * n:.3e}",
            witness=(int(mod_r[j]), int(mod_g[j]), "A", float(resid[j])),
        )

    # rank(E_i W) counts T's eigenvalues labelled i by their nearest theta
    groups = {kk: np.flatnonzero(k == kk) for kk in sorted(set(k.tolist()))}
    ranks, gaps = np.zeros((k.size, D + 1), dtype=int), np.zeros(k.size)
    spectra = {}
    for kk, idx in groups.items():
        Tk = np.concatenate([T for (_, L), (T, _) in zip(ladders, actions) if len(L) == kk])
        mu, Y = np.linalg.eigh(Tk)
        off = np.abs(mu[:, :, None] - ctx.spectral.theta)
        lab = off.argmin(axis=2)
        gaps[idx] = off.min(axis=2).max(axis=1)
        np.add.at(ranks, (idx[:, None], lab), 1)
        spectra[kk] = (Tk, np.take_along_axis(Y, np.argsort(lab, axis=1)[:, None, :], 2))

    # the dual-thin gate, for all modules at once; the first that fails is
    # named as a pass over the modules in order would name it, gap first
    nz = ranks > 0
    ts = nz.argmax(axis=1)  # the first index of the support
    span = D - nz[:, ::-1].argmax(axis=1) - ts  # its last index less its first
    far = gaps > tol * n
    thin = (nz.sum(axis=1) == span + 1) & (ranks.max(axis=1) <= 1) & (span == k - 1)
    bad = np.flatnonzero(far | ~thin)
    if bad.size:
        j = bad[0]
        r, g = int(mod_r[j]), int(mod_g[j])
        if far[j]:
            raise NotThin(
                f"ladder from shell {r} (block of {g}) is not dual thin: an eigenvalue of "
                f"B^T A B lies {gaps[j]:.3e} from every theta, over {tol * n:.3e}",
                witness=(r, g, "E", float(gaps[j])),
            )
        _support(ranks[j])  # raises when the support is not an interval
        raise NotThin(
            f"ladder from shell {r} (block of {g}) is not dual thin: "
            f"eigenspace ranks {ranks[j].tolist()}",
            witness=(r, g, "E", ranks[j].tolist()),
        )

    columns = [[R[:, j] for R in rungs] for _, rungs in ladders for j in range(rungs[0].shape[1])]
    modules = [None] * k.size
    for kk, idx in groups.items():
        # dual rung j = E_{t+j} w_0 = y_j (y_j)_0 is column j of X (y_j in label
        # order); the unit vector spanning E_t W is alpha = X[:, 0] / |E_t w_0|
        Tk, Y = spectra[kk]
        X = Y * Y[:, :1, :]
        alpha = X[:, :, 0] / np.sqrt(X[:, :1, 0])
        # rung i lies on shell r + i, where A* is theta*_{r+i}
        lam = ctx.spectral.theta_star[mod_r[idx][:, None] + np.arange(kk)]
        c, a, b, n2 = _bands(Tk, alpha[:, :, None] * np.eye(kk), "primal")
        cs, as_, bs, dn2 = _bands(lam[:, :, None] * np.eye(kk), X, "dual")
        # norm_ladder_check of every module of the group at once
        balance = np.maximum(np.abs(c[:, 1:] * n2[:, 1:] - b[:, :-1] * n2[:, :-1]).max(axis=1, initial=0.0),
                             np.abs(cs[:, 1:] * dn2[:, 1:] - bs[:, :-1] * dn2[:, :-1]).max(axis=1, initial=0.0))
        positive = (b[:, :-1] * c[:, 1:] > 0).all(axis=1) & (bs[:, :-1] * cs[:, 1:] > 0).all(axis=1)
        for row, (j, res, pos) in enumerate(zip(idx, balance.tolist(), positive.tolist())):
            r = int(mod_r[j])
            modules[j] = IrreducibleModule(
                n=n, r=r, t=int(ts[j]), d=kk - 1,
                cab=(c[row], a[row], b[row]), cab_star=(cs[row], as_[row], bs[row]),
                ladder_norms2=n2[row], dual_ladder_norms2=dn2[row],
                norm_residual=res, products_positive=pos,
                rungs=tuple(zip(shells[r:r + kk], columns[j])),
            )
    return modules


def decompose(ctx: TerwContext, tol: float = RANK_TOL) -> list:
    """Split the coordinate space into irreducible invariant subspaces.

    Works on the context's shell blocks of A only (see the module
    docstring).  For each endpoint r, the ladders of K_r (the complement of
    the lower ladders' rungs on shell r) are grown and split, rung by rung,
    into blocks of isomorphic modules by the rung Gram and flat matrices.
    The modules are certified orthonormal to each other, by one Gram matrix
    per shell, and A-invariant, on the three shell blocks each rung touches,
    both to ``tol * n``; A*-invariance holds by construction.  Dual thinness
    and t are read off the spectrum of each T = B^T A B, and each module is
    measured inside its certificate: its bands ``cab`` and ``cab_star``, the
    squared norms of its two ladders, and what :func:`norm_ladder_check`
    reports of them are filled in, for all modules of one size at once.
    Raises :class:`NotThin`, with a ``witness``, when the modules do not add
    up to dimension n, overlap, are not A-invariant or are not dual thin,
    and :class:`InvalidParameter` when ``tol`` is not positive and finite.
    Returns the modules sorted by (t, d, r).
    """
    check_tol(tol)
    shells, up, flat, _ = ctx.blocks
    # the largest row sum of |A|: build_context certifies that the blocks hold
    # all of A, the 0/1 adjacency of a graph regular of valency k
    scale = max(1.0, ctx.spectral.pp.valency)
    ladders, actions = [], []
    for r in range(ctx.D + 1):
        held = [rungs[r - s] for s, rungs in ladders if s + len(rungs) > r]  # on shell r, from lower endpoints
        if sum(R.shape[1] for R in held) >= shells[r].size:
            continue  # K_r = 0
        kernel = [_complement(np.hstack([np.zeros((shells[r].size, 0))] + held))]  # _ladders grows or splits it
        grown = [(r, rungs) for rungs in _ladders(up, flat, r, kernel, scale)] if kernel[0].shape[1] else []
        ladders += grown
        actions += _actions(shells, up, flat, grown)
    modules = _certify(ctx, shells, ladders, actions, tol)
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
