"""Symmetric association schemes and their intersection numbers.

A scheme on a vertex set of size ``n`` with ``D`` classes is stored as an
``n x n`` integer matrix ``relation`` whose ``(x, y)`` entry is the class of
the ordered pair, in the narrowest signed integer type that holds D
(:func:`class_dtype`: one byte an entry while D < 128).  Validation checks
the four defining axioms: the classes partition the pairs, class 0 is the
diagonal, every class is symmetric, and the triple count

    p[h, i, j] = #{ z : relation[x, z] = i and relation[z, y] = j }

depends only on ``h = relation[x, y]``.  The triple counts are exact
integers.  When the classes are the distance classes of a distance-regular
graph, in distance order, axiom (iv) is certified from the class-1
neighbour lists alone, and the scheme keeps the certified intersection
array (c_i, a_i, b_i) and the valencies: every triple count follows from
them by the three-term recurrence, and the (D+1)^3 tensor p is formed
from them only when it is read.  Any other table gets the full scan,
which forms the products of the 0/1 class matrices, names the first
violation, and holds p from the start.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AxiomViolation


@dataclass(frozen=True)
class PPolyArray:
    """Intersection array of a P-polynomial ordering.

    Stored with the boundary conventions materialized: ``c[0] = 0`` and
    ``b[D] = 0``, so all three vectors have length D+1.
    """

    c: np.ndarray
    a: np.ndarray
    b: np.ndarray

    @property
    def D(self) -> int:
        return len(self.a) - 1

    @property
    def valency(self) -> int:
        return int(self.b[0]) if self.D >= 1 else 0


@dataclass(frozen=True)
class IntersectionTensor:
    """Triple counts ``p[h, i, j]`` and valencies ``k[i] = p[0, i, i]``.

    A tensor certified from the class-1 graph (:func:`_p_polynomial_counts`)
    carries its intersection array ``pp`` and forms ``p`` from it on the
    first read; a tensor from the full scan has ``pp = None`` and holds
    ``p`` from the start.
    """

    k: np.ndarray
    pp: PPolyArray | None = None
    _p: np.ndarray | None = field(default=None, repr=False)

    @property
    def p(self) -> np.ndarray:
        if self._p is None:
            object.__setattr__(self, "_p", _freeze(_tensor_from_array(self.pp)))
        return self._p

    @property
    def D(self) -> int:
        return len(self.k) - 1


@dataclass(frozen=True)
class AssociationScheme:
    """A validated symmetric association scheme."""

    n: int
    D: int
    relation: np.ndarray
    tensor: IntersectionTensor = field(compare=False, repr=False)

    def class_matrix(self, i: int) -> np.ndarray:
        """The 0/1 associate matrix of class ``i`` (float64)."""
        return (self.relation == i).astype(np.float64)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def class_dtype(D: int) -> np.dtype:
    """The narrowest signed integer type that holds the classes 0..D: int8 while D < 128."""
    return np.min_scalar_type(-D - 1)  # a signed type that holds -(D + 1) holds D


#: entries of the relation table a row block of :func:`_row_blocks` spans
BLOCK_ENTRIES = 1 << 18


def _row_blocks(n: int) -> list[slice]:
    """Slices of the rows of an n x n table, about ``BLOCK_ENTRIES`` entries each.

    numpy widens a narrow index array to intp before a gather or a
    ``bincount``; a pass that needs one runs block by block, so that its
    intp temporary is one block and not n^2.
    """
    step = max(1, BLOCK_ENTRIES // n)
    return [slice(a, a + step) for a in range(0, n, step)]


def validate_scheme(relation) -> AssociationScheme:
    """Check the scheme axioms for a relation table and return the scheme.

    Axiom (iv), the constancy of the triple counts, is first tried as a
    certificate from the class-1 neighbour lists
    (:func:`_p_polynomial_counts`); it decides every distance scheme of a
    distance-regular graph with its classes in distance order.  When the
    certificate does not apply, the full scan (:func:`_triple_counts`)
    checks every product of two classes and reports the first violation.
    The intersection tensor is attached to the returned scheme; a certified
    one carries the array and no (D+1)^3 tensor.  Raises
    :class:`AxiomViolation` with a witness on failure.

    The scheme holds the table in :func:`class_dtype` of D.  A read-only
    table already of that type, such as the one
    :func:`~terwlab.generators.distance_relation` returns, is held as it
    is; any other is copied.  On an integer table, no pass before the full
    scan makes an n x n int64 or intp array.
    """
    rel = np.asarray(relation)
    if rel.ndim != 2 or rel.shape[0] != rel.shape[1]:
        raise AxiomViolation("i", f"relation table must be square, got shape {rel.shape}")
    if not np.issubdtype(rel.dtype, np.integer):
        if not np.all(rel == np.rint(rel)):
            raise AxiomViolation("i", "relation table has non-integer entries")
        rel = rel.astype(np.int64)
    n = rel.shape[0]
    if n == 0:
        raise AxiomViolation("i", "vertex set is empty")

    D = int(rel.max(initial=0))
    if rel.min() < 0:
        xy = np.argwhere(rel < 0)[0]
        raise AxiomViolation("i", f"negative class at pair {tuple(xy)}", tuple(xy))
    rel = rel.astype(class_dtype(D), order="C", copy=rel.flags.writeable)
    blocks = _row_blocks(n)
    # a class that row 0 meets is not empty: the full count runs only when row 0 misses one
    if not np.bincount(rel[0], minlength=D + 1).all():
        counts = sum(np.bincount(rel[rows].ravel(), minlength=D + 1) for rows in blocks)
        if (counts == 0).any():
            empty = int(np.argwhere(counts == 0)[0][0])
            raise AxiomViolation("i", f"class {empty} is empty", empty)

    diag = np.diagonal(rel)
    if (diag != 0).any():
        x = int(np.argwhere(diag != 0)[0][0])
        raise AxiomViolation("ii", f"relation({x},{x}) = {rel[x, x]} != 0", (x, x))
    # the diagonal is all class 0, so class 0 holds an off-diagonal pair when it holds more
    if rel.size - np.count_nonzero(rel) > n:
        xy = tuple(int(v) for v in np.argwhere((rel == 0) & ~np.eye(n, dtype=bool))[0])
        raise AxiomViolation("ii", f"class 0 holds the off-diagonal pair {xy}", xy)

    # rows a.. against columns a..: the first asymmetric pair in row-major
    # order has x < y, so it lies in the block of row x right of column a
    for rows in blocks:
        asym = rel[rows, rows.start:] != rel[rows.start:, rows].T
        if asym.any():
            x, y = (int(v) + rows.start for v in np.argwhere(asym)[0])
            raise AxiomViolation(
                "iii", f"relation{(x, y)} = {rel[x, y]} but the reverse pair has class {rel[y, x]}", (x, y)
            )

    tensor = _p_polynomial_counts(rel, n, D)
    if tensor is None:
        tensor = _triple_counts(rel, n, D)
    scheme = AssociationScheme(n=n, D=D, relation=_freeze(rel), tensor=tensor)
    return scheme


def _p_polynomial_counts(rel: np.ndarray, n: int, D: int) -> IntersectionTensor | None:
    """Certify axiom (iv) from the class-1 graph and keep its array, or return None.

    Let y run over the k class-1 neighbours of x.  When every step
    ``rel[y, z] - rel[x, z]`` lies in {-1, 0, +1}, and the numbers c_h, a_h,
    b_h of -1, 0 and +1 steps depend only on h = rel[x, z], then
    A_1 A_h = b_{h-1} A_{h-1} + a_h A_h + c_{h+1} A_{h+1}.  With c_h > 0 for
    h >= 1, each A_i is a polynomial of degree i in A_1, so the classes span
    an algebra and axiom (iv) holds (Brouwer-Cohen-Neumaier,
    *Distance-Regular Graphs*, ch. 4).  The valencies follow in exact
    integers from k_0 = 1 and k_{i+1} = k_i b_i / c_{i+1}, and the tensor
    carries (c, a, b) and k alone (:func:`_tensor_from_array` forms p on
    demand).

    Returns None, so that the caller runs the full scan, when D = 0, when
    class 1 is not regular, or when a step or a count fails the test: the
    classes are then not the distance classes of a distance-regular graph
    in this order, or the scheme is not P-polynomial.
    """
    if D == 0:
        return None
    adj = rel == 1
    k = int(np.count_nonzero(adj[0]))
    if (np.count_nonzero(adj, axis=1) != k).any():
        return None
    nbr = (np.flatnonzero(adj).reshape(n, k) % n).T.copy()
    del adj
    # in the table's own type, 1 + rel[y, z] - rel[x, z] lies in [1 - D, D + 1];
    # viewed unsigned, a negative step, and D + 1 where it wraps, read above 2
    unsigned = np.dtype(f"u{rel.itemsize}")
    below = rel - 1
    step = np.empty_like(rel)  # 1 + rel[y, z] - rel[x, z], in {0, 1, 2} when the test holds
    down = np.zeros((n, n), dtype=np.min_scalar_type(k))
    up = np.zeros_like(down)
    for ys in nbr:
        np.subtract(rel[ys], below, out=step)
        if step.view(unsigned).max() > 2:
            return None
        down += step == 0
        up += step == 2
    # the counts are read on row 0; a class missing there keeps c_h = 0
    c = np.zeros(D + 1, dtype=down.dtype)
    b = np.zeros_like(c)
    c[rel[0]] = down[0]
    b[rel[0]] = up[0]
    if not c[1:].all():
        return None
    # one gather checks both counts: the key c (k + 1) + b names the pair (c, b)
    key_type = np.min_scalar_type(k * (k + 2))
    key = c.astype(key_type) * (k + 1) + b
    for rows in _row_blocks(n):
        if (key.take(rel[rows]) != down[rows].astype(key_type) * (k + 1) + up[rows]).any():
            return None
    c, b = c.astype(np.int64), b.astype(np.int64)
    valencies = [1]
    for i in range(D):
        valencies.append(valencies[-1] * int(b[i]) // int(c[i + 1]))
    pp = PPolyArray(c=_freeze(c), a=_freeze(k - c - b), b=_freeze(b))
    return IntersectionTensor(k=_freeze(np.array(valencies, dtype=np.int64)), pp=pp)


def _tensor_from_array(pp: PPolyArray) -> np.ndarray:
    """The triple counts p[h, i, j] of a certified array, in exact integers.

    The matrices P_i[h, j] = p[h, i, j] follow from the recurrence of the
    classes, one (D+1)^2 product per step:

        P_{i+1} = (P_1 P_i - b_{i-1} P_{i-1} - a_i P_i) / c_{i+1}.

    The division is exact: once the certificate holds, each A_i is a
    polynomial in A_1, so each P_{i+1} is an integer matrix of triple counts.
    """
    c, a, b, D = pp.c, pp.a, pp.b, pp.D
    P = [np.eye(D + 1, dtype=np.int64), np.diag(a) + np.diag(b[:-1], 1) + np.diag(c[1:], -1)]
    for i in range(1, D):
        P.append((P[1] @ P[i] - b[i - 1] * P[i - 1] - a[i] * P[i]) // c[i + 1])
    return np.stack(P, axis=1)


def _triple_counts(rel: np.ndarray, n: int, D: int) -> IntersectionTensor:
    """Compute p[h, i, j] by the full scan, raising on any axiom (iv) violation.

    Only the products ``M = A_i A_j`` with i <= j are formed: the classes
    are symmetric, so ``A_j A_i = (A_i A_j)^T`` is constant on the (symmetric)
    class h exactly when ``M`` is, and ``p[:, j, i] = p[:, i, j]``.  The
    count ``p[h, i, j]`` is read at the first pair of class h in row-major
    order, and constancy is one comparison of ``M`` against those counts
    spread over the relation table.  The witness is the one a full scan in
    (i, j, h) order would report: the first violating (i, j) has i <= j,
    since a violation at (j, i) is the transpose of one at (i, j).  Class
    matrices are built per product rather than stacked, so the working set
    stays a few n x n arrays whatever D is.

    The products are formed in float32.  They are exact: every term is 0
    or 1, and every partial sum is an integer between 0 and n, which float32
    represents exactly while n < 2**24 (a relation table that large would
    not fit in memory).
    """
    first = np.unravel_index([int(np.argmax(rel == h)) for h in range(D + 1)], rel.shape)
    p = np.zeros((D + 1, D + 1, D + 1), dtype=np.int64)
    for i in range(D + 1):
        Ai = (rel == i).astype(np.float32)
        for j in range(i, D + 1):
            M = Ai @ (rel == j).astype(np.float32)
            vals = M[first]
            bad = M != vals[rel]
            if bad.any():
                h = int(rel[bad].min())
                xy = tuple(int(w) for w in np.argwhere(bad & (rel == h))[0])
                raise AxiomViolation(
                    "iv",
                    f"count of z with classes ({i},{j}) is not constant on class {h}: "
                    f"pair {xy} sees {int(M[xy])}, expected {int(vals[h])}",
                    (h, i, j, xy),
                )
            p[:, i, j] = p[:, j, i] = vals
    return IntersectionTensor(k=_freeze(np.diagonal(p[0]).copy()), _p=_freeze(p))


def relabel_classes(scheme: AssociationScheme, ordering) -> AssociationScheme:
    """Rename classes so that position ``i`` of ``ordering`` becomes class ``i``.

    The identity ordering returns ``scheme`` itself, with no copy of its relation.
    """
    ordering = tuple(int(i) for i in ordering)
    D = scheme.D
    if sorted(ordering) != list(range(D + 1)) or ordering[0] != 0:
        raise ValueError(f"not a class ordering fixing 0: {ordering}")
    if ordering == tuple(range(D + 1)):
        return scheme
    pos = np.empty(D + 1, dtype=scheme.relation.dtype)
    for newi, old in enumerate(ordering):
        pos[old] = newi
    rel = pos[scheme.relation]
    p = scheme.tensor.p[np.ix_(ordering, ordering, ordering)]
    tensor = IntersectionTensor(k=_freeze(np.diagonal(p[0]).copy()), _p=_freeze(p))
    return AssociationScheme(n=scheme.n, D=D, relation=_freeze(rel), tensor=tensor)
