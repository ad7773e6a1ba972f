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

Certification.  Once every endpoint is grown, the rungs on shell s sit
side by side, in the order they were grown, as the shell basis B_s, one
column per module that meets the shell; a complete decomposition makes
every B_s square and orthonormal.  A ladder spans a subspace with one unit
vector per shell.  Every rung lies on one shell by construction, so A*
acts on rung i as the scalar theta*_{r+i}.  If the subspace is also
A-invariant (residual at most ``tol * n``), it is irreducible: an
invariant subspace of it is invariant under A*, whose eigenvalues differ
between shells, so it is spanned by some of the shell vectors; it is
invariant under A, whose off-diagonal entries in the ladder basis are the
rung norms and hence nonzero, so it holds all of them.  Its shell slices
are one-dimensional, so it is thin.  The certificate is one pass over the
shells: A w, for the column w of B_s, lies on shells s - 1, s and s + 1
as up[s-1]^T w, flat[s] w and up[s] w, which the products of B_s with
those three blocks give for every column at once.  Against the columns
of B_{s-1}, B_s and B_{s+1} that hold the same module's rungs they give
the column of T = B^T A B and of A B - B T, so the shell-local invariance
residual is the residual of the dense product, and each module's T is
read off by index.  Rungs on different shells have disjoint supports, so
the stacked bases B satisfy |B^T B - I| <= ``tol * n`` when each B_s
does: one Gram matrix B_s^T B_s - I per shell.  Consecutive shells whose
bases and blocks have one shape share one batched product, which keeps
the long, thin shell sequences of the odd cycles cheap.  A collection
whose dimension is not n, bases that overlap, a ladder that is not
A-invariant, or a block whose ladders stop at different rungs raises
:class:`NotThin` with a witness.  A acts on a module by T, tridiagonal
with nonzero rungs, so its d + 1 eigenvalues are simple and each is some
theta_i, whose eigenvector spans E_i W.  Labelling them by the nearest
theta gives rank(E_i W) and the dual endpoint t; an eigenvalue more than
``tol * n`` from every theta, a rank above 1, or ranks whose support is
not an interval d + 1 long mean the module is not dual thin and raise
:class:`NotThin` too.  These gates are
taken for all modules at once, and the witness names the first failing
module in the order grown, its gap tested before its ranks.

Measurement.  A and A* act on a thin, dual thin module by tridiagonal
matrices B(W) and B*(W) in its two ladder bases, read as their bands
(c, a, b) and (c*, a*, b*), the format of the predicted bands, in the
module basis w_0..w_d.  With y_j the unit eigenvector of T for
theta_{t+j}, the dual ladder E_{t+j} w_0 = y_j (y_j)_0 (w_0 spans E*_r W)
is measured against diag(theta*_r, ..., theta*_{r+d}), and the shell
ladder alpha_i w_i of the unit v = +-y_0 spanning E_t W against T.  The
spectra, the bands, the norm balance and the sign of the ladder products
are taken for all modules of one length at once.

The table.  :func:`decompose` returns a :class:`ModuleTable`: one column
per quantity, one entry per module, the bands and ladder norms flat with
a start offset per module (the layout of the predicted bands), and the
shell bases B_s.  Its items, :class:`IrreducibleModule`, are built only
when read, their rungs views of columns of B_s; the checks read the
columns.

The oracle reads A's shell blocks, theta and theta* only: never U, m,
the predicted module bands, the recurrence or the q,s formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from typing import NamedTuple

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
    ``norm_residual`` is the larger residual of the norm balances
    c_i |w_i|^2 = b_{i-1} |w_{i-1}|^2 of the two ladders, and
    ``products_positive`` whether every product b_{i-1} c_i of both is
    positive.  The basis is held shell by shell: ``rungs[i]`` is (the
    vertices of S_{r+i}, w_i on them), and ``n`` the number of vertices.
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


@dataclass(frozen=True, eq=False)
class ModuleTable:
    """The modules of :func:`decompose` as columns, one entry per module, sorted by (t, d, r).

    ``r``, ``t`` and ``d`` hold each module's endpoint, dual endpoint and
    diameter, and ``norm_residual`` and ``products_positive`` its norm
    balance and the sign of its ladder products, as
    :class:`IrreducibleModule` names them.  The bands and ladder norms are
    flat: module j owns the entries ``start[j]`` to ``start[j] + d[j]``,
    entry i for rung i, of ``cab`` (c, a, b), ``cab_star`` (c*, a*, b*),
    ``ladder_norms2`` and ``dual_ladder_norms2``.  ``bases[s]`` is the
    basis B_s of the shell ``shells[s]``, and rung i of module j is column
    ``column[start[j] + i]`` of B_{r_j + i}.  ``table[j]`` builds module j
    as an :class:`IrreducibleModule` whose rungs are views of those
    columns; iterating builds each in turn.
    """

    n: int
    r: np.ndarray
    t: np.ndarray
    d: np.ndarray
    start: np.ndarray
    cab: tuple
    cab_star: tuple
    ladder_norms2: np.ndarray
    dual_ladder_norms2: np.ndarray
    norm_residual: np.ndarray
    products_positive: np.ndarray
    shells: tuple
    bases: tuple
    column: np.ndarray

    def __len__(self) -> int:
        return self.r.size

    @property
    def dim(self) -> np.ndarray:
        return self.d + 1

    def census(self) -> dict:
        """Counts of modules by (dual endpoint, diameter)."""
        return dict(self._census)

    @cached_property
    def _census(self) -> dict:
        # every stage that reads the census reads the same table
        size = len(self.shells)  # D + 1, above every t and d
        cells, counts = np.unique(self.t * size + self.d, return_counts=True)
        return {divmod(cell, size): count for cell, count in zip(cells.tolist(), counts.tolist())}

    def __getitem__(self, j: int) -> IrreducibleModule:
        r, d, lo = int(self.r[j]), int(self.d[j]), int(self.start[j])
        at = slice(lo, lo + d + 1)
        return IrreducibleModule(
            n=self.n, r=r, t=int(self.t[j]), d=d,
            cab=tuple(x[at] for x in self.cab), cab_star=tuple(x[at] for x in self.cab_star),
            ladder_norms2=self.ladder_norms2[at], dual_ladder_norms2=self.dual_ladder_norms2[at],
            norm_residual=float(self.norm_residual[j]), products_positive=bool(self.products_positive[j]),
            rungs=tuple((self.shells[s], self.bases[s][:, q]) for s, q in enumerate(self.column[at].tolist(), r)),
        )

    def __iter__(self):
        return (self[j] for j in range(len(self)))


def census(modules) -> dict:
    """Counts of modules by (dual endpoint, diameter): of a :class:`ModuleTable`, or of any iterable of modules."""
    if isinstance(modules, ModuleTable):
        return modules.census()
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


class _Shells(NamedTuple):
    """The shell bases one after another in one buffer, and the runs of shells that share a batch.

    B_s^T, the rungs on shell s as rows, is held row-major from ``off[s]``
    with one zero row after its ``ncol[s]`` rows; ``bases[s]`` is B_s, a
    view.  The columns of all shells are numbered one shell after another,
    from ``gcol[s]`` on shell s.  ``runs`` lists (shape, first shell, last
    shell + 1) for each run of consecutive shells whose own bases and
    neighbours' bases have one shape and that hold a flat block alike, so
    that the bases of a run, and of its neighbours on either side, read
    as one (G, c_s + 1, |S_s|) array.
    """

    runs: list
    buf: np.ndarray
    off: np.ndarray
    gcol: np.ndarray
    bases: list


def _shell_bases(shells: tuple, flat: tuple, cols: list, ncol: np.ndarray) -> _Shells:
    """B_s, the rungs ``cols[s]`` on shell s side by side, for every shell, as a :class:`_Shells`.

    Each list of ``cols`` is emptied once its rungs are copied, so that
    every rung is held once.
    """
    size = np.array([S.size for S in shells])
    cells = (ncol + 1) * size
    off, gcol = np.cumsum(cells) - cells, np.cumsum(ncol) - ncol
    buf = np.zeros(int(cells.sum()))
    bases = []
    for R, at, rows, width in zip(cols, off.tolist(), size.tolist(), ncol.tolist()):
        B = buf[at:at + (width + 1) * rows].reshape(width + 1, rows)[:width].T
        if R:
            np.concatenate(R, axis=1, out=B)
            R.clear()
        bases.append(B)
    m, c = [0, *size.tolist(), 0], [0, *ncol.tolist(), 0]  # shells -1 and D + 1 are empty
    shape = [(*m[s:s + 3], *c[s:s + 3], F is not None) for s, F in enumerate(flat)]
    runs = [(key, run[0], run[-1] + 1) for key, run in ((key, list(run)) for key, run in
                                                        groupby(range(len(shape)), shape.__getitem__))]
    return _Shells(runs, buf, off, gcol, bases)


def _block(up: tuple, flat: tuple, s: int, part: int) -> np.ndarray:
    """A's block from shell s to shell s + part - 1, with |S_s| rows: up[s-1], flat[s] or up[s]^T."""
    return up[s - 1] if part == 0 else flat[s] if part == 1 else up[s].T


def _shell_actions(up: tuple, flat: tuple, sh: _Shells, partner: np.ndarray) -> tuple:
    """The Gram residual of every shell basis, and how A acts on each of their columns.

    ``partner[p]`` gives, for each column of shell s, the row of B_{s+p-1}^T
    that holds the same module's rung, or its zero row.  For every column w
    of B_s, row w of B_s^T up[s-1], B_s^T flat[s] and B_s^T up[s]^T is A w
    on shell s - 1, s and s + 1; each is one product for a run of shells.
    Against the partner rung x the coefficient x^T A w is T[i-1, i],
    T[i, i] or T[i+1, i] of the module's T = B^T A B, and what is left,
    A w - x x^T A w, is the column of A B - B T.  Returns the residual
    max |B_s^T B_s - I| of each shell, the (3, columns) coefficients and
    each column's residual max.
    """
    buf, off, gcol = sh.buf, sh.off.tolist(), sh.gcol.tolist()
    gram, tri, resid = np.zeros(len(off)), np.zeros(partner.shape), np.zeros(partner.shape[1])
    for (m0, m1, m2, c0, c1, c2, held), a, b in sh.runs:
        G, at = b - a, off[a]
        BT = buf[at:at + G * (c1 + 1) * m1].reshape(G, c1 + 1, m1)[:, :c1]
        gb = BT @ BT.transpose(0, 2, 1)
        gb.reshape(G, -1)[:, ::c1 + 1] -= 1.0  # the diagonals
        gram[a:b] = np.abs(gb, out=gb).max(axis=(1, 2), initial=0.0)
        del gb
        cols = slice(gcol[a], gcol[a] + G * c1)
        worst = np.zeros((G, c1))
        for p, rows, width in ((0, m0, c0), (1, m1 if held else 0, c1), (2, m2, c2)):
            if not rows * c1:
                continue
            M = BT @ _stack([_block(up, flat, s, p) for s in range(a, b)])
            if p == 1:
                X = BT
            else:  # the partner rows of the run of neighbouring bases
                at = off[a + p - 1]
                V = buf[at:at + G * (width + 1) * rows].reshape(G, width + 1, rows)
                X = V[np.arange(G)[:, None], partner[p, cols].reshape(G, c1)]
            coef = np.add.reduce(X * M, axis=2)
            tri[p, cols] = coef.ravel()
            M -= np.multiply(X, coef[:, :, None], out=None if p == 1 else X)  # on the flat part X is B_s
            np.maximum(worst, np.abs(M, out=M).max(axis=2), out=worst)
            del M, X
        resid[cols] = worst.ravel()
    return gram, tri, resid


def _bands(M: np.ndarray, S: np.ndarray, what: str, out: np.ndarray) -> None:
    """Bands (c, a, b) of M w_i = b_{i-1} w_{i-1} + a_i w_i + c_{i+1} w_{i+1} and n2_i = |w_i|^2, into ``out``.

    Batched over g modules of one size k: ``M`` (g, k, k) is the operator
    and the columns of ``S`` (g, k, k) the rungs w_i, in module coordinates.
    With G = S^T M S, a_i = G[i, i] / n2_i, c_i = G[i, i-1] / n2_i and
    b_i = G[i, i+1] / n2_i; ``out`` (4, g, k), zero on entry, receives c, a,
    b and n2, and keeps c_0 = b_d = 0.
    """
    G = S.transpose(0, 2, 1) @ M @ S
    n2 = np.einsum("gik,gik->gk", S, S, out=out[3])
    if n2.min(initial=np.inf) <= 0:
        raise NumericalCheckFailure(f"{what} ladder vector vanishes inside the support")
    np.divide(G.diagonal(-1, 1, 2), n2[:, 1:], out=out[0, :, 1:])
    np.divide(G.diagonal(0, 1, 2), n2, out=out[1])
    np.divide(G.diagonal(1, 1, 2), n2[:, :-1], out=out[2, :, :-1])


def _certify(ctx: TerwContext, cols: list, ladders: list, tol: float) -> ModuleTable:
    """Certify the grown ladders as modules and measure their B(W) and B*(W), as one :class:`ModuleTable`.

    ``ladders`` lists (r, g, k) for each block of g ladders of k rungs from
    endpoint r, in the order grown, and ``cols[s]`` the rungs on shell s
    in that order, each an |S_s| x g array; module j of a block is column
    j of its rungs.  The shell bases are certified by one pass of
    :func:`_shell_actions`, and each module's T = B^T A B is read off its
    columns; the gates and the measurement then run on all modules of one
    length at once, and the table is sorted by (t, d, r).
    """
    n, D = ctx.n, ctx.D
    shells, up, flat, _ = ctx.blocks
    lr, lg, lk = np.array(ladders, dtype=np.int64).reshape(-1, 3).T
    collected = int(lg @ lk)
    if collected != n:
        raise NotThin(f"collected dimension {collected} != {n}", witness=(collected, n))
    # module j, in the order grown, is column q = j - jl of the block of ladder l, whose
    # modules start at jl; its column on shell s is first[s, l] + q.  The entry e is rung
    # i of module j, on shell r_j + i, in column e_col of that shell's basis
    mod_l = np.repeat(np.arange(lr.size), lg)
    mod_r, mod_g, k = lr[mod_l], lg[mod_l], lk[mod_l]
    on = np.arange(D + 1)[:, None]
    width = ((lr <= on) & (on < lr + lk)) * lg  # the columns of block l on shell s
    ncol = width.sum(axis=1)
    first = np.cumsum(width, axis=1) - width - (np.cumsum(lg) - lg)  # less jl
    estart = np.cumsum(k) - k
    e_mod = np.repeat(np.arange(k.size), k)
    e_i = np.arange(collected) - estart[e_mod]
    e_s = mod_r[e_mod] + e_i
    e_col = first[e_s, mod_l[e_mod]] + e_mod

    sh = _shell_bases(shells, flat, cols, ncol)
    e_gid = sh.gcol[e_s] + e_col
    # a column's partners on shells s - 1, s and s + 1: the same module's rungs, else that
    # shell's zero row (the shells -1 and D + 1 have none, and no product reads them)
    pad = np.concatenate((ncol, [0]))
    prev, after = np.concatenate(([0], e_col[:-1])), np.concatenate((e_col[1:], [0]))
    prev[estart], after[estart + k - 1] = pad[mod_r - 1], pad[mod_r + k]
    partner = np.empty((3, collected), dtype=np.int64)
    partner[:, e_gid] = (prev, e_col, after)
    gram, tri, resid = _shell_actions(up, flat, sh, partner)
    if gram.max() > tol * n:
        s = int(np.argmax(gram))
        G = np.abs(sh.bases[s].T @ sh.bases[s] - np.eye(ncol[s]))
        q = max(np.unravel_index(np.argmax(G), G.shape))  # the later of the two columns that overlap
        j = e_mod[np.argmax(e_gid == sh.gcol[s] + q)]
        r, g = int(mod_r[j]), int(mod_g[j])
        raise NotThin(
            f"ladder from shell {r} (block of {g}) overlaps another module: "
            f"Gram residual {gram[s]:.3e} exceeds {tol * n:.3e}",
            witness=(r, g, "Gram", float(gram[s])),
        )

    resid = np.maximum.reduceat(resid[e_gid], estart)
    bad = np.flatnonzero(resid > tol * n)
    if bad.size:
        j = bad[0]
        raise NotThin(
            f"ladder from shell {mod_r[j]} (block of {mod_g[j]}) is not A-invariant: "
            f"residual {resid[j]:.3e} exceeds {tol * n:.3e}",
            witness=(int(mod_r[j]), int(mod_g[j]), "A", float(resid[j])),
        )

    # T's three bands, flat in module order: T[i-1, i], T[i, i] and T[i+1, i] of entry e
    band = tri[:, e_gid]
    mu, spectra = np.empty(collected), {}
    for kk in sorted(set(k.tolist())):
        idx = np.flatnonzero(k == kk)
        at = estart[idx][:, None] + np.arange(kk)
        Tk = np.zeros((idx.size, kk, kk))
        entry = Tk.reshape(idx.size, kk * kk)  # T[:, i, j] is entry[:, i * kk + j]
        entry[:, 1::kk + 1], entry[:, ::kk + 1] = band[0, at[:, 1:]], band[1, at]
        entry[:, kk::kk + 1] = band[2, at[:, :-1]]
        mu[at], Y = np.linalg.eigh(Tk)
        spectra[kk] = (idx, at, Tk, Y)
    # rank(E_i W) counts T's eigenvalues labelled i by their nearest theta
    dist = np.abs(mu[:, None] - ctx.spectral.theta)
    lab = dist.argmin(axis=1)
    gaps = np.maximum.reduceat(dist.min(axis=1), estart)
    ranks = np.bincount(e_mod * (D + 1) + lab, minlength=k.size * (D + 1)).reshape(k.size, D + 1)
    del dist

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
        raise NotThin(
            f"ladder from shell {r} (block of {g}) is not dual thin: "
            f"eigenspace ranks {ranks[j].tolist()}",
            witness=(r, g, "E", ranks[j].tolist()),
        )

    # the table's order, and where each module's entries start in it
    order = np.lexsort((mod_r, k, ts))
    length = k[order]
    start = np.cumsum(length) - length
    place = np.empty_like(start)
    place[order] = start
    bands = np.empty((8, collected))  # c, a, b and the squared norms, of either ladder
    for kk, (idx, at, Tk, Y) in spectra.items():
        # dual rung j = E_{t+j} w_0 = y_j (y_j)_0 is column j of X (y_j in label
        # order); the unit vector spanning E_t W is alpha = X[:, 0] / |E_t w_0|
        Y = Y[np.arange(idx.size)[:, None, None], np.arange(kk)[:, None], np.argsort(lab[at], axis=1)[:, None, :]]
        X = Y * Y[:, :1, :]
        alpha = X[:, :, 0] / np.sqrt(X[:, :1, 0])
        # rung i lies on shell r + i, where A* is theta*_{r+i}
        lam = ctx.spectral.theta_star[mod_r[idx][:, None] + np.arange(kk)]
        eye, measured = np.eye(kk), np.zeros((8, idx.size, kk))
        _bands(Tk, alpha[:, :, None] * eye, "primal", measured[:4])
        _bands(lam[:, :, None] * eye, X, "dual", measured[4:])
        bands[:, place[idx][:, None] + np.arange(kk)] = measured
    # the norm balances c_i |w_i|^2 = b_{i-1} |w_{i-1}|^2 of both ladders, and the signs of
    # b_{i-1} c_i, between consecutive entries of a module: entry e against e - 1
    c, _, b, n2, cs, _, bs, dn2 = bands
    balance, positive = np.zeros(collected), np.ones(collected, dtype=bool)
    balance[1:] = np.maximum(np.abs(c[1:] * n2[1:] - b[:-1] * n2[:-1]), np.abs(cs[1:] * dn2[1:] - bs[:-1] * dn2[:-1]))
    positive[1:] = (b[:-1] * c[1:] > 0) & (bs[:-1] * cs[1:] > 0)
    balance[start], positive[start] = 0.0, True  # a module's first entry has no rung below it
    column = np.empty(collected, dtype=np.int64)
    column[place[e_mod] + e_i] = e_col
    return ModuleTable(
        n=n, r=mod_r[order], t=ts[order], d=length - 1, start=start,
        cab=tuple(bands[:3]), cab_star=tuple(bands[4:7]), ladder_norms2=bands[3], dual_ladder_norms2=bands[7],
        norm_residual=np.maximum.reduceat(balance, start), products_positive=np.logical_and.reduceat(positive, start),
        shells=shells, bases=tuple(sh.bases), column=column,
    )


def _grow(ctx: TerwContext) -> tuple:
    """Every module's ladder, grown endpoint by endpoint: the rungs on each shell, and (r, g, k) of each block.

    The rungs on shell s, as |S_s| x g arrays, are listed in the order
    grown, a block of g ladders from endpoint r with k rungs at a time.
    """
    shells, up, flat, _ = ctx.blocks
    # the largest row sum of |A|: build_context certifies that the blocks hold
    # all of A, the 0/1 adjacency of a graph regular of valency k
    scale = max(1.0, ctx.spectral.pp.valency)
    cols, ladders = [[] for _ in shells], []
    for r in range(ctx.D + 1):
        held = cols[r]  # on shell r, from lower endpoints
        if sum(R.shape[1] for R in held) >= shells[r].size:
            continue  # K_r = 0
        kernel = [_complement(np.hstack([np.zeros((shells[r].size, 0))] + held))]  # _ladders grows or splits it
        if kernel[0].shape[1]:
            for rungs in _ladders(up, flat, r, kernel, scale):
                ladders.append((r, rungs[0].shape[1], len(rungs)))
                for s, R in enumerate(rungs, r):
                    cols[s].append(R)
    return cols, ladders


def decompose(ctx: TerwContext, tol: float = RANK_TOL) -> ModuleTable:
    """Split the coordinate space into irreducible invariant subspaces, as a :class:`ModuleTable`.

    Works on the context's shell blocks of A only (see the module
    docstring).  For each endpoint r, the ladders of K_r (the complement of
    the lower ladders' rungs on shell r) are grown and split, rung by rung,
    into blocks of isomorphic modules by the rung Gram and flat matrices.
    The rungs on each shell then form its basis B_s, and one pass over the
    shells certifies the modules orthonormal to each other, by one Gram
    matrix per shell, and A-invariant, on the three shell blocks each rung
    touches, both to ``tol * n``; A*-invariance holds by construction.
    Dual thinness and t are read off the spectrum of each T = B^T A B, and
    each module is measured inside its certificate: its bands, the squared
    norms of its two ladders, their norm balance and the sign of their
    products, for all modules of one length at once.  Raises
    :class:`NotThin`, with a ``witness``, when the modules do not add up to
    dimension n, overlap, are not A-invariant or are not dual thin, and
    :class:`InvalidParameter` when ``tol`` is not positive and finite.
    Returns the table sorted by (t, d, r).
    """
    check_tol(tol)
    return _certify(ctx, *_grow(ctx), tol)
