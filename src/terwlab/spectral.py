"""Eigenmatrices, Krein parameters, and the P-/Q-polynomial orderings.

For a P-polynomial ordering the class-1 intersection numbers collapse to a
three-term array ``(c_i, a_i, b_i)``.  The eigenvalues ``theta_j`` of the
class-1 matrix are read off the (D+1) x (D+1) tridiagonal matrix with these
bands (symmetrized by a diagonal similarity, since ``b_i c_{i+1} > 0``);
the basis gates below certify them as the spectrum of the class-1 matrix A.
The eigenvalue matrix P follows from the three-term recurrence

    c_{i+1} v_{i+1}(x) = (x - a_i) v_i(x) - b_{i-1} v_{i-1}(x),

multiplicities from column orthogonality, and the dual eigenmatrix
Q = m P^T / k.  The primitive idempotents are E_j = sum_l Q[j, l] A_l / n,
so everything that lives in the Bose-Mesner algebra is read off Q and the
intersection numbers in (D+1)-dimensional work: the Bose-Mesner residuals
are coefficients of the class matrices, and the Krein parameters (the
structure constants of the idempotents under the entrywise product) are a
sum over classes.  A greedy pivoted Cholesky of each E_t gives bases U_t
of the eigenspaces, E_t = U_t U_t^T, with no n x n eigensolve: a factor G
of m_t columns with G G^T = E_t = E_t^2 has G^T G = I in exact arithmetic.
The stages that need the idempotents work through U_t and never hold the
(D+1) n^2 stack of idempotents.  Nor is an E_t formed to check the bases:
r_t = ||R_t||_F, R_t = A U_t - theta_t U_t, is read off the class-1
neighbour lists, A U_t as a sum of k row gathers of U_t, one run of
consecutive eigenspaces of equal multiplicity at a time, so that no n x n
A, A U or U Theta is formed (:func:`_eig_residual`).  As the exact
idempotents satisfy E_s (A - theta_t) = (theta_s - theta_t) E_s, with
g_t = min_{s != t} |theta_s - theta_t|, ||(I - E_t) U_t||_F <= r_t / g_t.
The dense E'_t = Q[t, relation] / n is sum_s lambda_s E_s with
lambda = (Q P)[t] / n, so |E'_t U_t - U_t|_max <= |lambda_t - 1| sqrt(m_t)
+ max_{s != t} |1 - lambda_s| r_t / g_t.  The Bose-Mesner gates bound the
first term, and the basis gate reads r_t / g_t.  The orthogonality gate
reads delta_t = |U_t^T U_t - I|_max and, as ||U_t||_2^2 <= 1 + m_t delta_t
and (theta_s - theta_t) U_s^T U_t = U_s^T R_t - R_s^T U_t,
|U_s^T U_t|_max <= (sqrt(1 + m_s delta_s) r_t + r_s sqrt(1 + m_t delta_t)) / |theta_s - theta_t|.
With eps the largest of these, sigma_min(U)^2 >= 1 - n eps, and Kahan's
theorem puts the eigenvalues of A, m_t of them at each theta_t, within
||A U - U Theta||_2 / sigma_min(U) <= sqrt(sum_t r_t^2 / (1 - n eps)) of
the theta_t.

An ordering of the classes is P-polynomial exactly when the slice
p^h_{1j} of its position-1 class, read in that order, is tridiagonal with
nonzero sub- and superdiagonals (Brouwer-Cohen-Neumaier, Distance-Regular
Graphs, Prop. 2.7.1); dually, an ordering of the idempotents is
Q-polynomial exactly when the Krein slice q^h_{1j} is (Bannai-Ito 1984,
III.1).  Both searches test that slice alone.

All spectral quantities returned here are expressed in the detected
orderings: classes are relabeled by the first P-polynomial ordering found,
idempotents by the first Q-polynomial ordering (when one exists), and the
search for each stops at that first ordering.  A scheme whose array was
certified from its class-1 graph is already in distance order, and the
identity is the ordering the search would return first: the search tries
class 1 first in position 1; from class j its greedy step can only go to
j + 1, the one class linked to j by class 1 (p^{j+1}_{1j} = c_{j+1} > 0)
that is not yet used; and in distance order the class-1 slice is the
tridiagonal matrix of the array, with the positive c_{j+1} below its
diagonal and b_j above it.  Such a scheme takes the identity and its array
with no search, and its (D+1)^3 intersection tensor is never formed; a
table from the full scan is searched on its tensor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateSpectrum, NotPPolynomial, NumericalCheckFailure
from .predictor import BandGrid, GridLayout, band_entries, band_grid, tridiagonal
from .scheme import AssociationScheme, IntersectionTensor, PPolyArray, relabel_classes

#: spacing under which two eigenvalues count as equal (scaled by 1 + |theta|)
EIG_MATCH_TOL = 1e-8
#: relative threshold below which a Krein parameter counts as zero
KREIN_ZERO_TOL = 1e-7
#: max-norm tolerance for idempotency and basis-change residuals
IDEMPOTENT_TOL = 1e-9


@dataclass(frozen=True)
class SpectralData:
    """Spectral package of a P-polynomial scheme, in detected orderings.

    ``theta[i]`` is the class-1 eigenvalue on the i-th idempotent (Q-order);
    ``theta_star[i]`` is the dual eigenvalue of the position-1 idempotent on
    class i (P-order).  ``ppstar`` holds the Krein analogue of the
    intersection array.  ``q_ordering``, ``theta_star`` and ``ppstar`` are
    ``None`` when the scheme admits no Q-polynomial ordering.  ``U`` is an
    orthogonal n x n matrix of eigenvectors of the class-1 matrix, grouped
    by eigenspace in idempotent order: the ``m[t]`` columns U_t that
    :meth:`eigenspace_labels` marks ``t`` are the pivoted Cholesky factor of
    E_t = Q[t, relation] / n, within the gated bounds of the module
    docstring; ``eig_residual[t]`` is r_t = ||A U_t - theta_t U_t||_F, formed
    from the class-1 neighbour lists one run of equal multiplicities at a
    time (:func:`_eig_residual`), with no n x n A or A U.
    """

    n: int
    D: int
    relation: np.ndarray
    p_ordering: tuple
    q_ordering: tuple | None
    pp: PPolyArray
    P: np.ndarray
    Q: np.ndarray | None
    m: np.ndarray
    krein: np.ndarray
    theta: np.ndarray
    theta_star: np.ndarray | None
    U: np.ndarray
    eig_residual: np.ndarray
    ppstar: PPolyArray | None

    @property
    def is_q_polynomial(self) -> bool:
        return self.q_ordering is not None

    @property
    def k(self) -> np.ndarray:
        """Valencies, recovered from the first column of P."""
        return self.P[:, 0]

    @cached_property
    def layout(self) -> GridLayout:
        """The cells of the feasible grid and the places of their band entries (:func:`band_entries`).

        Formed on first use and shared by every stage that works on the
        grid: the predicted and q,s bands, the trace check and the recurrence.
        """
        return band_entries(self.D)

    @cached_property
    def bands(self) -> BandGrid:
        """The predicted bands of every feasible cell (:func:`band_grid`) on :attr:`layout`, formed on first use."""
        return band_grid(self.theta, self.theta_star, self.D, self.layout)

    @cached_property
    def closed_traces(self) -> np.ndarray:
        """The closed-form traces of every cell (:func:`krein_products`), formed on first use."""
        return krein_products(self)

    def eigenspace_labels(self) -> np.ndarray:
        """The eigenspace index of each column of ``U``."""
        return np.repeat(np.arange(self.D + 1), self.m)


def krein_products(spectral: SpectralData) -> np.ndarray:
    """Closed form of the trace of E_t L*^d R*^d E_t for every t + d <= D, as a (D+1, D+1) array.

    Entry [t, d] is m_t prod_{h=t}^{t+d-1} b*_h c*_{t+d-h}, multiplied from
    m_t onwards in the order of h; entries with t + d > D are NaN.
    """
    D = spectral.D
    bs, cs = np.asarray(spectral.ppstar.b, dtype=np.float64), np.asarray(spectral.ppstar.c, dtype=np.float64)
    t, d = np.ix_(np.arange(D + 1), np.arange(D + 1))
    j = np.arange(D)[:, None, None]  # factor j takes h = t + j, in every cell with d > j
    value = np.repeat(np.asarray(spectral.m, dtype=np.float64)[:, None], D + 1, axis=1)
    for factor in np.where(j < d, bs[np.minimum(t + j, D)] * cs[np.maximum(d - j, 0)], 1.0):
        value *= factor
    return np.where(t + d <= D, value, np.nan)


def _orderings(nonzero: np.ndarray):
    """Relabelings fixing 0 under which the support is tridiagonal, lazily.

    Candidates for position 1 are tried in increasing order and extended
    greedily: the next label must be the unique unused one linked to the
    previous by the position-1 label c1, read off one ``nonzero`` of the
    slice and followed on Python ints.  A completed candidate passes when
    the slice ``nonzero[:, c1, :]``, rows and columns in its order, vanishes
    off its three bands and nowhere on its sub- and superdiagonals (module
    docstring).  It is yielded as soon as it passes, so a caller that needs
    only the first ordering stops the search there.
    """
    D = nonzero.shape[0] - 1
    if D == 0:
        if nonzero[0, 0, 0]:
            yield (0,)
        return
    for c1 in range(1, D + 1):
        # the labels linked to j by c1 are links[ends[j]:ends[j + 1]], in increasing order
        j, links = np.nonzero(nonzero[:, c1, :].T)
        ends, links = np.searchsorted(j, np.arange(D + 2)).tolist(), links.tolist()
        order, used = [0, c1], {0, c1}
        while len(order) < D + 1:
            nxt = [h for h in links[ends[order[-1]]:ends[order[-1] + 1]] if h not in used]
            if len(nxt) != 1:
                break
            order.append(nxt[0])
            used.add(nxt[0])
        else:
            S = nonzero[:, c1, :][np.ix_(order, order)]
            off_bands = np.triu(S, 2).any() or np.tril(S, -2).any()
            if not off_bands and np.diagonal(S, 1).all() and np.diagonal(S, -1).all():
                yield tuple(order)


def _krein_support(krein: np.ndarray) -> np.ndarray:
    """Nonzero Krein parameters, with :data:`KREIN_ZERO_TOL` relative to the largest one."""
    return np.abs(krein) > KREIN_ZERO_TOL * max(1.0, float(np.abs(krein).max()))


def _three_term(x: np.ndarray) -> PPolyArray:
    """(x[i, i - 1], x[i, i], x[i, i + 1]) for i = 0..D, 0 past either end, in the dtype of the 2-D slice ``x``."""
    zero = np.zeros(1, dtype=x.dtype)
    return PPolyArray(c=np.concatenate((zero, np.diagonal(x, -1))), a=np.diagonal(x).copy(),
                      b=np.concatenate((np.diagonal(x, 1), zero)))


def intersection_array(tensor: IntersectionTensor) -> PPolyArray:
    """The (c, a, b) array of a tensor already in P-polynomial order: the certified one when it carries it."""
    return _three_term(tensor.p[:, 1, :]) if tensor.pp is None else tensor.pp


def is_almost_bipartite(pp: PPolyArray) -> bool:
    """True iff a_i = 0 for all i < D and a_D != 0."""
    D = pp.D
    return bool(np.all(pp.a[:D] == 0) and pp.a[D] != 0)


def _tridiagonal_eigenvalues(pp: PPolyArray) -> np.ndarray:
    """Eigenvalues of the class-1 intersection matrix, descending.

    The matrix with diagonal a, superdiagonal b, subdiagonal c is similar
    to a symmetric tridiagonal one with off-diagonal sqrt(b_i c_{i+1}).
    """
    a = pp.a.astype(np.float64)
    off = np.sqrt(pp.b[:-1].astype(np.float64) * pp.c[1:].astype(np.float64))
    M = np.diag(a) + np.diag(off, 1) + np.diag(off, -1)
    return np.linalg.eigvalsh(M)[::-1]


def _check_distinct(theta: np.ndarray) -> np.ndarray:
    """|theta_s - theta_t|, inf for s = t; raises :class:`DegenerateSpectrum` if two agree within tolerance."""
    scale = 1.0 + float(np.abs(theta).max())
    spread = np.abs(np.subtract.outer(theta, theta)) + np.diag(np.full(len(theta), np.inf))
    if spread.min() < EIG_MATCH_TOL * scale:
        i, j = np.unravel_index(int(np.argmin(spread)), spread.shape)
        raise DegenerateSpectrum(f"theta[{i}] and theta[{j}] agree within tolerance: {theta[i]}")
    return spread


def _eigenmatrix(pp: PPolyArray, theta: np.ndarray) -> np.ndarray:
    """P[i, j] = v_i(theta_j) from the three-term recurrence."""
    D = pp.D
    P = np.zeros((D + 1, D + 1))
    P[0] = 1.0
    if D >= 1:
        P[1] = theta
    for i in range(1, D):
        P[i + 1] = ((theta - pp.a[i]) * P[i] - pp.b[i - 1] * P[i - 1]) / pp.c[i + 1]
    return P


def _krein_parameters(Q: np.ndarray, k: np.ndarray, m: np.ndarray, n: int) -> np.ndarray:
    """Structure constants of the idempotents under the entrywise product.

    q[h, i, j] = n * sum(E_i o E_j o E_h) / m_h, the coefficient of E_h in
    the expansion of E_i o E_j.  E_i is Q[i, l] / n on the n k_l entries of
    class l, so the sum groups by class:

        q[h, i, j] = sum_l k_l Q[i, l] Q[j, l] Q[h, l] / (n m_h),

    the eigenmatrix form of Bannai-Ito (1984) and Brouwer-Cohen-Neumaier
    (1989), in O(D^4) work.
    """
    Qk = Q * k
    return np.moveaxis((Q[:, None, :] * Qk[None, :, :]) @ Q.T, 2, 0) / (n * m[:, None, None])


def _eigenspace_bases(Q: np.ndarray, relation: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The bases U_t side by side, by a greedy pivoted Cholesky of each E_t = Q[t, relation] / n.

    The pivot p is the largest residual diagonal entry, the lowest index on
    ties; column p of E_t is Q[t, relation[p]] / n, as the relation is
    symmetric, gathered by ``take``, which widens a one-byte index row
    faster than ``[]`` does.  The columns are built as the rows of one
    n x n buffer.
    """
    n, ends = len(relation), np.cumsum(m)
    rows = np.empty((n, n))
    for q, start, stop in zip(Q / n, ends - m, ends):
        diag = np.full(n, q[0])
        for j in range(start, stop):
            p = diag.argmax()
            rows[j] = (q.take(relation[p]) - rows[start:j, p] @ rows[start:j]) / math.sqrt(diag[p])
            diag -= rows[j] ** 2
    return rows.T


def _orthogonality_bounds(U: np.ndarray, spread: np.ndarray, m: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Bounds on |U_s^T U_t - [s = t] I|_max: delta_t for s = t, else the module docstring's bound over ``spread``.

    The Gram matrices U_t^T U_t of the eigenspaces of one multiplicity
    are one ``matmul`` on the stack of their bases, each taken as the
    product of that basis alone would be.
    """
    delta = np.empty(len(m))
    starts = np.cumsum(m) - m
    for size in sorted(set(m.tolist())):
        at = np.flatnonzero(m == size)
        V = U.T[starts[at, None] + np.arange(size)]  # (eigenspaces, size, n): the rows U_t^T
        delta[at] = np.abs(np.matmul(V, V.transpose(0, 2, 1)) - np.eye(size)).max(axis=(1, 2))
    norm = np.sqrt(1.0 + m * delta)
    return (np.outer(norm, r) + np.outer(r, norm)) / spread + np.diag(delta)


def _eig_residual(U: np.ndarray, relation: np.ndarray, theta: np.ndarray, m: np.ndarray) -> np.ndarray:
    """r_t = ||A U_t - theta_t U_t||_F for each eigenspace, from the class-1 neighbour lists.

    A U is a sum of k row gathers of U, one per slot of the k x n
    neighbour table read off ``relation == 1`` (class 1 is regular), so no
    n x n A or A U is formed.  The residual is formed for one run of
    consecutive eigenspaces of equal multiplicity at a time, on W, a
    C-contiguous copy of the run's columns of U (gathering rows of the
    F-ordered slice itself is slower): R = sum_s W[nbr[s]] - W Theta, whose
    squared column norms are summed by eigenspace.  A run of width w holds
    W, R and one gather, 3 n w floats.  The eigenspaces t >= 1 of a cycle,
    all of multiplicity 2, are one run.
    """
    n = len(relation)
    nbr = (np.flatnonzero(relation == 1) % n).reshape(n, -1).T.copy()
    sizes, ends = m.tolist(), np.cumsum(m).tolist()
    starts = [0] + [t for t in range(1, len(sizes)) if sizes[t] != sizes[t - 1]]  # the first eigenspace of each run
    scale = np.repeat(theta, m)
    col2 = np.empty(n)  # squared norm of each column of R
    for a, b in zip(starts, starts[1:] + [len(sizes)]):
        cols = slice(ends[a] - sizes[a], ends[b - 1])
        W = np.ascontiguousarray(U[:, cols])
        R = W.take(nbr[0], axis=0)
        for ys in nbr[1:]:
            R += W.take(ys, axis=0)
        R -= W * scale[cols]
        col2[cols] = np.einsum("ij,ij->j", R, R)
    return np.sqrt(np.bincount(np.repeat(np.arange(len(sizes)), m), col2))


def _trivial_spectral(scheme: AssociationScheme) -> SpectralData:
    one = np.ones((1, 1))
    pp = PPolyArray(c=np.array([0]), a=np.array([0]), b=np.array([0]))
    return SpectralData(
        n=1, D=0, relation=scheme.relation, p_ordering=(0,), q_ordering=(0,),
        pp=pp, P=one, Q=one, m=np.array([1], dtype=np.int64),
        krein=np.ones((1, 1, 1)), theta=np.zeros(1), theta_star=np.zeros(1),
        U=np.ones((1, 1)), eig_residual=np.zeros(1), ppstar=PPolyArray(c=np.zeros(1), a=np.zeros(1), b=np.zeros(1)),
    )


def spectral_data(scheme: AssociationScheme) -> SpectralData:
    """Eigenvalues, eigenmatrices, eigenspace bases, Krein parameters and orderings.

    Takes the first P-polynomial ordering found (raising
    :class:`NotPPolynomial` if none exists), relabels the classes by it,
    and computes all spectral quantities; a certified scheme takes the
    identity and its array (module docstring).  If a Q-polynomial ordering is
    found the idempotents are relabeled by the first one as well;
    otherwise the dual data are left ``None`` and the idempotents stay
    sorted by descending eigenvalue.
    """
    n, D = scheme.n, scheme.D

    if D == 0:
        return _trivial_spectral(scheme)

    if scheme.tensor.pp is not None:
        # certified in distance order: the identity is the first P-ordering (module docstring)
        p_ordering, scheme_p = tuple(range(D + 1)), scheme
    else:
        p_ordering = next(_orderings(scheme.tensor.p != 0), None)
        if p_ordering is None:
            raise NotPPolynomial(f"no metric ordering among {D + 1} classes")
        scheme_p = relabel_classes(scheme, p_ordering)
    pp = intersection_array(scheme_p.tensor)

    # eigenvalues: position 0 is the valency (Perron root), the rest initially
    # sorted descending; the Q-ordering detected below permutes them.
    theta = _tridiagonal_eigenvalues(pp)
    spread = _check_distinct(theta)

    P = _eigenmatrix(pp, theta)
    k = scheme_p.tensor.k.astype(np.float64)
    m = n / np.sum(P * P / k[:, None], axis=0)
    m_int = np.rint(m).astype(np.int64)
    if np.abs(m - m_int).max() > 1e-6 or m_int.sum() != n:
        raise NumericalCheckFailure(f"multiplicities not integral: {m}")

    Q = m[:, None] * P.T / k[None, :]
    _verify_bose_mesner(Q, P, pp, n)

    krein = _krein_parameters(Q, k, m, n)
    kscale = max(1.0, float(np.abs(krein).max()))
    if krein.min() < -1e-8 * kscale:
        raise NumericalCheckFailure(f"Krein parameter significantly negative: {krein.min()}")
    if np.abs(krein[0] - np.diag(m)).max() > 1e-6 * kscale:
        raise NumericalCheckFailure("krein[0] != diag(m)")

    q_ordering = next(_orderings(_krein_support(krein)), None)
    sg = list(range(D + 1) if q_ordering is None else q_ordering)
    m_int, theta, P, Q = m_int[sg], theta[sg], P[:, sg], Q[sg]
    spread, krein = spread[np.ix_(sg, sg)], krein[np.ix_(sg, sg, sg)]
    U = _eigenspace_bases(Q, scheme_p.relation, m_int)

    theta_star = ppstar = None
    if q_ordering is not None:
        theta_star = Q[1].copy()
        _check_distinct(theta_star)
        ppstar = _three_term(krein[:, 1, :])
        if np.abs(P @ Q - n * np.eye(D + 1)).max() > 1e-8 * n:
            raise NumericalCheckFailure("P Q != n I")

    # tie the bases to the gated idempotents and to each other (module docstring); a NaN fails both gates
    eig_residual = _eig_residual(U, scheme_p.relation, theta, m_int)
    for what, bound in (("residual", eig_residual / spread.min(axis=1)),
                        ("orthogonality", _orthogonality_bounds(U, spread, m_int, eig_residual))):
        if not bound.max() <= IDEMPOTENT_TOL:
            raise NumericalCheckFailure(f"eigenspace basis {what} {bound.max():.3e} exceeds {IDEMPOTENT_TOL}")

    for arr in (U, P, Q, krein, theta, eig_residual) + (() if theta_star is None else (theta_star,)):
        arr.flags.writeable = False
    return SpectralData(
        n=n, D=D, relation=scheme_p.relation,
        p_ordering=p_ordering, q_ordering=q_ordering,
        pp=pp, P=P, Q=None if q_ordering is None else Q, m=m_int, krein=krein,
        theta=theta, theta_star=theta_star, U=U, eig_residual=eig_residual, ppstar=ppstar,
    )


def _verify_bose_mesner(Q, P, pp, n) -> tuple:
    """Completeness, idempotency, and the change of basis to the classes.

    Returns the idempotent residual and the class-1 expansion residual, or
    raises :class:`NumericalCheckFailure` when one exceeds its gate.

    Each residual is that of the dense idempotents E_j = sum_l Q[j, l] A_l / n,
    read off its coefficients in the class matrices A_h.  These have
    disjoint 0/1 supports, so the max norm of sum_h r_h A_h is max_h |r_h|.
    The column Y_l[:, j] holds the coefficients of A_l (n E_j), so that

        E_i E_j = n^-2 sum_h (sum_l Q[i, l] Y_l[h, j]) A_h.

    Y_0 = Q^T, and the Y_l follow from the intersection array ``pp`` by the
    recurrence of the classes, A_{l+1} = (A_1 A_l - a_l A_l - b_{l-1} A_{l-1}) / c_{l+1},
    where A_1 acts on a coefficient vector as the tridiagonal
    (L_1 y)_h = c_h y_{h-1} + a_h y_h + b_h y_{h+1}: D products of
    (D+1)^2 matrices and one (D+1) x (D+1)^2 product, with no (D+1)^3
    intersection tensor.
    """
    D = len(Q) - 1
    delta = np.eye(D + 1)
    worst = float(np.abs(Q.sum(axis=0) / n - delta[0]).max())  # sum_j E_j = I
    worst = max(worst, float(np.abs(Q[0] / n - 1.0 / n).max()))  # E_0 = J / n
    a, b, c = (x.astype(np.float64) for x in (pp.a, pp.b, pp.c))
    L1 = tridiagonal(c, a, b)
    Y = np.empty((D + 1, D + 1, D + 1))
    Y[0] = Q.T
    np.matmul(L1, Y[0], out=Y[1])  # a_0 = 0 and c_1 = 1
    for l in range(1, D):
        np.matmul(L1, Y[l], out=Y[l + 1])
        Y[l + 1] -= a[l] * Y[l] + b[l - 1] * Y[l - 1]
        Y[l + 1] /= c[l + 1]
    # [i, h, j]: coefficient of A_h in E_i E_j - delta_ij E_i
    prod = (Q @ Y.reshape(D + 1, -1)).reshape(D + 1, D + 1, D + 1)
    prod /= n**2
    i = np.arange(D + 1)
    prod[i, :, i] -= Q / n
    worst = max(worst, float(prod.max()), -float(prod.min()))
    if worst > IDEMPOTENT_TOL:
        raise NumericalCheckFailure(f"idempotent residual {worst:.3e} exceeds {IDEMPOTENT_TOL}")
    # A_i = sum_j P[i, j] E_j for a spot-check class (the full identity for
    # i = 1 implies the rest through the recurrence)
    recon = float(np.abs(P[1] @ Q / n - delta[1]).max())
    if recon > 1e-8 * max(1.0, float(np.abs(P[1]).max())):
        raise NumericalCheckFailure("class-1 matrix does not match its spectral expansion")
    return worst, recon
