import tracemalloc
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import terwlab as tw
from conftest import dense_idempotents
from terwlab.errors import NotPPolynomial
from terwlab.scheme import relabel_classes
from terwlab.spectral import (
    _eigenmatrix,
    _krein_support,
    _orderings,
    _tridiagonal_eigenvalues,
)


def reference_pattern_ok(nonzero, order):
    """Reference: the tridiagonal-support test as a loop over every entry."""
    D = nonzero.shape[0] - 1
    pos = np.empty(D + 1, dtype=np.int64)
    for newi, old in enumerate(order):
        pos[old] = newi
    for h in range(D + 1):
        for i in range(D + 1):
            for j in range(D + 1):
                ph, pi, pj = pos[h], pos[i], pos[j]
                hi = max(ph, pi, pj)
                rest = ph + pi + pj - hi
                if hi > rest and nonzero[h, i, j]:
                    return False
                if hi == rest and not nonzero[h, i, j]:
                    return False
    return True


def reference_orderings(nonzero):
    """Reference: every ordering fixing 0 tried in turn, in lexicographic order."""
    orders = ((0,) + perm for perm in permutations(range(1, nonzero.shape[0])))
    return [order for order in orders if reference_pattern_ok(nonzero, order)]


def reference_pattern_orderings(nonzero):
    """Reference at any size: each position-1 label extended by its unique unused neighbour, then
    the 3-D test vectorised, with the masks ``hi > rest`` and ``hi == rest`` over the position grid."""
    D = nonzero.shape[0] - 1
    r = np.arange(D + 1, dtype=np.int16)
    a, b, c = np.ix_(r, r, r)
    hi = np.maximum(np.maximum(a, b), c)
    beyond, on = hi > a + b + c - hi, hi == a + b + c - hi
    found = [(0,)] if D == 0 and nonzero[0, 0, 0] else []
    for c1 in range(1, D + 1):
        order = [0, c1]
        while len(order) < D + 1:
            nxt = [h for h in np.flatnonzero(nonzero[:, c1, order[-1]]) if h not in order]
            if len(nxt) != 1:
                break
            order.append(int(nxt[0]))
        else:
            support = nonzero[np.ix_(order, order, order)]
            if not (support & beyond).any() and support[on].all():
                found.append(tuple(order))
    return found


def reference_flatnonzero_orderings(nonzero):
    """Reference: the former search, its greedy chain stepped by one ``flatnonzero`` per label."""
    D = nonzero.shape[0] - 1
    if D == 0:
        return [(0,)] if nonzero[0, 0, 0] else []
    found = []
    for c1 in range(1, D + 1):
        order = [0, c1]
        used = np.zeros(D + 1, dtype=bool)
        used[order] = True
        while len(order) < D + 1:
            nxt = np.flatnonzero(nonzero[:, c1, order[-1]] & ~used)
            if len(nxt) != 1:
                order = None
                break
            order.append(int(nxt[0]))
            used[nxt[0]] = True
        if order is None:
            continue
        S = nonzero[:, c1, :][np.ix_(order, order)]
        off_bands = np.triu(S, 2).any() or np.tril(S, -2).any()
        if not off_bands and np.diagonal(S, 1).all() and np.diagonal(S, -1).all():
            found.append(tuple(order))
    return found


def reference_slice_ok(nonzero, order):
    """Reference: the slice test as a loop over the position-1 slice, reordered."""
    if len(order) == 1:
        return bool(nonzero[0, 0, 0])
    for i, h in enumerate(order):
        for j, l in enumerate(order):
            entry = bool(nonzero[h, order[1], l])
            if (abs(i - j) > 1 and entry) or (abs(i - j) == 1 and not entry):
                return False
    return True


def reference_slice_orderings(nonzero):
    """Reference: every ordering fixing 0 tried in turn under the slice test, in lexicographic order."""
    orders = ((0,) + perm for perm in permutations(range(1, nonzero.shape[0])))
    return [order for order in orders if reference_slice_ok(nonzero, order)]


@st.composite
def supports_and_orders(draw):
    """A boolean (D+1)^3 support and an ordering fixing 0.

    Half the supports are uniform random; the other half are tridiagonal
    under the ordering with up to two entries flipped, so that both
    outcomes of the test occur.
    """
    D = draw(st.integers(min_value=0, max_value=8))
    order = (0,) + tuple(draw(st.permutations(range(1, D + 1))))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    shape = (D + 1,) * 3
    if draw(st.booleans()):
        nonzero = rng.random(shape) < draw(st.floats(min_value=0.0, max_value=1.0))
    else:
        r = np.arange(D + 1)
        a, b, c = np.ix_(r, r, r)
        hi = np.maximum(np.maximum(a, b), c)
        rest = a + b + c - hi
        nonzero = np.empty(shape, dtype=bool)
        nonzero[np.ix_(order, order, order)] = (hi == rest) | ((hi < rest) & (rng.random(shape) < 0.5))
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            nonzero[tuple(rng.integers(0, D + 1, size=3))] ^= True
    return nonzero, order


@given(supports_and_orders())
@settings(max_examples=200, deadline=None)
def test_first_found_ordering_is_first_detected(case):
    # the support as a 0/1 Krein tensor: 1 > tol * 1, so the mask is the support
    nonzero, _ = case
    assert _krein_support(nonzero.astype(np.float64)).tolist() == nonzero.tolist()
    assert list(_orderings(nonzero)) == reference_flatnonzero_orderings(nonzero)
    if nonzero.shape[0] <= 6:  # the references try all D! orderings
        assert list(_orderings(nonzero)) == reference_slice_orderings(nonzero)
        assert reference_pattern_orderings(nonzero) == reference_orderings(nonzero)


def test_first_found_orderings_on_bundles(all_bundles):
    for bundle in all_bundles:
        sp = bundle.spectral
        p_support, q_support = bundle.scheme.tensor.p != 0, _krein_support(sp.krein)
        assert next(_orderings(p_support)) == reference_orderings(p_support)[0] == sp.p_ordering
        assert next(_orderings(q_support)) == reference_orderings(q_support)[0]


def _eigenmatrix_krein(tensor):
    """Krein tensor in descending-eigenvalue order from the eigenmatrix alone.

    q^h_{ij} = (m_i m_j / n) sum_l P_{li} P_{lj} P_{lh} / k_l^2 (Bannai-Ito,
    Algebraic Combinatorics I, 1984); needs no idempotents, so it reaches
    diameters where the dense Lagrange idempotents fail their residual gate.
    """
    pp = tw.intersection_array(tensor)
    P = _eigenmatrix(pp, _tridiagonal_eigenvalues(pp))
    k = tensor.k.astype(np.float64)
    n = k.sum()
    m = n / np.sum(P * P / k[:, None], axis=0)
    return np.einsum("i,j,li,lj,lh,l->hij", m, m, P, P, P, 1 / k**2, optimize=True) / n


@pytest.mark.parametrize("D", range(3, 31))
def test_first_found_orderings_on_cycles(D):
    # C_7..C_61, every P-ordering metric and the classes already in P-order
    tensor = tw.odd_cycle(D).tensor
    p_orders = list(_orderings(tensor.p != 0))
    assert p_orders[0] == tuple(range(D + 1))
    krein = _eigenmatrix_krein(tensor)
    q_orders = list(_orderings(_krein_support(krein)))
    assert len(q_orders) == len(p_orders)
    sp = tw.spectral_data(tw.odd_cycle(D))  # it takes the first ordering of each search
    assert (sp.p_ordering, sp.q_ordering) == (p_orders[0], q_orders[0])


def _petersen():
    verts = list(combinations(range(5), 2))
    return tw.scheme_from_graph([[j for j, w in enumerate(verts) if not (set(v) & set(w))] for v in verts])


def _relabelled(scheme, order):
    return tw.validate_scheme(relabel_classes(scheme, order).relation)


REAL_SCHEMES = {
    **{f"C{2 * D + 1}": (lambda D=D: tw.odd_cycle(D)) for D in (*range(1, 61), 100)},
    **{f"O{D}": (lambda D=D: tw.odd_graph(D)) for D in range(2, 6)},
    **{f"FC{2 * D + 1}": (lambda D=D: tw.folded_cube(D)) for D in range(2, 6)},
    "Petersen": _petersen,
    "Z2xZ2": lambda: tw.validate_scheme(np.array([[x ^ y for y in range(4)] for x in range(4)])),
    "C9-relabelled": lambda: _relabelled(tw.odd_cycle(4), (0, 2, 4, 1, 3)),
    "C7-relabelled": lambda: _relabelled(tw.odd_cycle(3), (0, 1, 3, 2)),
}


@pytest.mark.parametrize("name", [*REAL_SCHEMES, "Petersen-line-graph"])
def test_slice_search_matches_the_3d_reference_on_real_supports(name, request):
    # the P support of each scheme and the Krein support of each certified one
    scheme = request.getfixturevalue("petersen_line_graph") if name == "Petersen-line-graph" else REAL_SCHEMES[name]()
    supports = [scheme.tensor.p != 0]
    if scheme.tensor.pp is not None:
        supports.append(_krein_support(_eigenmatrix_krein(scheme.tensor)))
    for nonzero in supports:
        assert list(_orderings(nonzero)) == reference_pattern_orderings(nonzero)


def test_first_q_ordering_holds_no_pattern_mask():
    # C_201 (D=100): each candidate reads one (D+1)^2 slice, so the first
    # Q-ordering allocates well under one (D+1)^3 boolean mask (1 MB)
    support = _krein_support(_eigenmatrix_krein(tw.odd_cycle(100).tensor))
    tracemalloc.start()
    try:
        first = next(_orderings(support), None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first is not None and peak < 2 * 2**20, peak


def test_c7_theta_matches_cosines(c7):
    # adjacency eigenvalues of the 7-cycle are 2 cos(2 pi j / 7)
    expected = np.sort(2 * np.cos(2 * np.pi * np.arange(4) / 7))
    assert np.allclose(np.sort(c7.spectral.theta), expected, atol=1e-12)


def test_c7_theta_against_adjacency_oracle(c7):
    ev = np.linalg.eigvalsh(c7.scheme.class_matrix(1))
    for th in c7.spectral.theta:
        assert np.abs(ev - th).min() < 1e-10


def test_o4_theta_set(o4):
    assert sorted(np.rint(o4.spectral.theta).astype(int)) == [-3, -1, 2, 4]
    assert o4.spectral.theta[0] == pytest.approx(4.0)  # valency leads


def test_p0_row_and_multiplicity_sum(all_bundles):
    for bundle in all_bundles:
        sp = bundle.spectral
        assert np.allclose(sp.P[0], 1.0)
        assert sp.m.sum() == sp.n
        assert sp.m[0] == 1


def test_pq_orthogonality(all_bundles):
    for bundle in all_bundles:
        sp = bundle.spectral
        gram = sp.P @ sp.Q
        assert np.abs(gram - sp.n * np.eye(sp.D + 1)).max() < 1e-8 * sp.n


def test_eigenvalue_duality_relation(all_bundles):
    # p_i(j) / k_i = q_j(i) / m_j
    for bundle in all_bundles:
        sp = bundle.spectral
        lhs = sp.P / sp.k[:, None]
        rhs = (sp.Q / sp.m[:, None]).T
        assert np.abs(lhs - rhs).max() < 1e-10


def test_basis_change_reconstructions(c7, o4):
    # A_i = sum_j p_i(j) E_j and E_i = (1/n) sum_j q_i(j) A_j
    for bundle in (c7, o4):
        sp = bundle.spectral
        scheme = bundle.scheme
        A = np.stack([(sp.relation == i).astype(float) for i in range(sp.D + 1)])
        for i in range(sp.D + 1):
            recon_A = np.tensordot(sp.P[i], dense_idempotents(sp), axes=(0, 0))
            assert np.abs(recon_A - A[i]).max() < 1e-8
            recon_E = np.tensordot(sp.Q[i], A, axes=(0, 0)) / sp.n
            assert np.abs(recon_E - dense_idempotents(sp)[i]).max() < 1e-8


def test_valency_product_formula(all_bundles):
    for bundle in all_bundles:
        pp = bundle.spectral.pp
        k = bundle.scheme.tensor.k
        for i in range(pp.D + 1):
            num = int(np.prod(pp.b[:i], dtype=object))
            den = int(np.prod(pp.c[1 : i + 1], dtype=object))
            assert num % den == 0 and num // den == k[i]


def test_krein_nonnegative_and_diagonal(all_bundles):
    for bundle in all_bundles:
        sp = bundle.spectral
        assert sp.krein.min() > -1e-8
        assert np.abs(sp.krein[0] - np.diag(sp.m)).max() < 1e-8


def test_idempotency(all_bundles):
    for bundle in all_bundles:
        E = dense_idempotents(bundle.spectral)
        D1 = E.shape[0]
        for i in range(D1):
            for j in range(D1):
                resid = E[i] @ E[j] - (i == j) * E[i]
                assert np.abs(resid).max() < 1e-9


def test_detect_p_identity_on_cycle(c7):
    assert c7.spectral.p_ordering == (0, 1, 2, 3)
    orderings = list(_orderings(c7.scheme.tensor.p != 0))
    # every distance power of an odd cycle is again a cycle
    assert orderings == [(0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2)]


def test_detect_p_trivial_scheme():
    scheme = tw.validate_scheme([[0]])
    assert list(_orderings(scheme.tensor.p != 0)) == [(0,)]
    sp = tw.spectral_data(scheme)
    assert sp.p_ordering == (0,) and sp.q_ordering == (0,)


def test_petersen_both_orderings_metric():
    verts = list(combinations(range(5), 2))
    adj = [[j for j, w in enumerate(verts) if not (set(v) & set(w))] for v in verts]
    scheme = tw.scheme_from_graph(adj)
    assert list(_orderings(scheme.tensor.p != 0)) == [(0, 1, 2), (0, 2, 1)]


def test_group_scheme_not_p_polynomial():
    rel = np.array([[x ^ y for y in range(4)] for x in range(4)])
    scheme = tw.validate_scheme(rel)
    assert list(_orderings(scheme.tensor.p != 0)) == []
    with pytest.raises(NotPPolynomial):
        tw.spectral_data(scheme)


def test_colliding_eigenvalues_rejected():
    from terwlab.errors import DegenerateSpectrum
    from terwlab.spectral import _check_distinct

    with pytest.raises(DegenerateSpectrum):
        _check_distinct(np.array([2.0, 1.0, 1.0 + 1e-12]))
    _check_distinct(np.array([2.0, 1.0, -1.0]))  # distinct values pass


def test_detect_q_greedy_matches_full_search(c7, c9):
    for bundle in (c7, c9):
        krein = bundle.spectral.krein
        greedy = list(_orderings(_krein_support(krein)))
        assert greedy == reference_orderings(_krein_support(krein)) and bundle.spectral.q_ordering in greedy


def test_line_graph_petersen_not_q_polynomial(petersen_line_graph):
    sp = tw.spectral_data(petersen_line_graph)
    assert sp.is_q_polynomial is False
    assert sp.theta_star is None and sp.ppstar is None


def test_almost_bipartite_flags(all_bundles):
    for bundle in all_bundles:
        assert tw.is_almost_bipartite(bundle.spectral.pp)


def test_almost_bipartite_false_cases():
    assert not tw.is_almost_bipartite(tw.spectral_data(tw.validate_scheme([[0]])).pp)
    # folded 8-cube is bipartite: a_D = 0
    nbits = 8
    full = (1 << nbits) - 1
    reps = [v for v in range(1 << nbits) if not (v & 1)]
    index = {v: i for i, v in enumerate(reps)}
    adj = []
    for v in reps:
        nbrs = []
        for bit in range(nbits):
            w = v ^ (1 << bit)
            if w & 1:
                w ^= full
            nbrs.append(index[w])
        adj.append(nbrs)
    scheme = tw.scheme_from_graph(adj)
    assert scheme.n == 128 and scheme.D == 4
    pp = tw.spectral_data(scheme).pp
    assert pp.a[pp.D] == 0 and not tw.is_almost_bipartite(pp)


def test_dual_array_gives_multiplicities(all_bundles):
    # m_i = b*_0 ... b*_{i-1} / (c*_1 ... c*_i)
    for bundle in all_bundles:
        sp = bundle.spectral
        ps = sp.ppstar
        for i in range(sp.D + 1):
            expected = np.prod(ps.b[:i]) / np.prod(ps.c[1 : i + 1])
            assert expected == pytest.approx(sp.m[i], rel=1e-9)


def test_theta_star_zero_is_first_multiplicity(all_bundles):
    for bundle in all_bundles:
        sp = bundle.spectral
        assert sp.theta_star[0] == pytest.approx(float(sp.m[1]), abs=1e-9)


def test_alternate_p_ordering_gives_same_census(c7):
    # a table with its classes in another metric ordering: spectral_data
    # finds that ordering's metric structure as the first one, and the
    # module-level conclusions do not change
    scheme = tw.validate_scheme(relabel_classes(c7.scheme, (0, 2, 3, 1)).relation)
    sp2 = tw.spectral_data(scheme)
    assert sp2.p_ordering == (0, 1, 2, 3)
    assert np.allclose(np.sort(sp2.theta), np.sort(c7.spectral.theta))
    ctx2 = tw.build_context(scheme, sp2, 0)
    census2 = tw.census(tw.decompose(ctx2))
    assert census2 == tw.census(c7.modules) == {(0, 3): 1, (1, 2): 1}
    assert tw.solve_multiplicities(sp2).matches_census(census2)


def reference_krein(E, m, n):
    """Reference: the former dense form, n * sum(E_i o E_j o E_h) / m_h with one n x n product per pair."""
    D1 = E.shape[0]
    flat = E.reshape(D1, -1)
    krein = np.empty((D1, D1, D1))
    for i in range(D1):
        for j in range(i, D1):
            krein[:, i, j] = krein[:, j, i] = flat @ (E[i] * E[j]).ravel() * n / m
    return krein


def reference_bose_mesner(E, P, relation):
    """Reference: the former dense residuals, with one n x n product per pair of idempotents.

    Returns the idempotent residual and the class-1 expansion residual.
    """
    n = E.shape[1]
    worst = max(float(np.abs(E.sum(axis=0) - np.eye(n)).max()), float(np.abs(E[0] - 1.0 / n).max()))
    for i in range(len(E)):
        for j in range(i, len(E)):
            prod = E[i] @ E[j]
            if i == j:
                prod = prod - E[i]
            worst = max(worst, float(np.abs(prod).max()))
    A1 = (relation == 1).astype(np.float64)
    return worst, float(np.abs(np.tensordot(P[1], E, axes=(0, 0)) - A1).max())


def _perturbed(Q, size, seed=0):
    return Q * (1.0 + np.random.default_rng(seed).uniform(-size, size, Q.shape))


def test_krein_parameters_match_stacked_reference(all_bundles):
    # q[h, i, j] = sum_l k_l Q_il Q_jl Q_hl / (n m_h) is the dense entrywise
    # sum grouped by class, for any Q: a perturbed Q gives the same Krein
    # tensor in both forms and fails the krein[0] = diag(m) gate in both
    from terwlab.spectral import _krein_parameters

    for bundle in all_bundles:
        sp = bundle.spectral
        m = sp.m.astype(np.float64)
        for Q in (sp.Q, _perturbed(sp.Q, 1e-3)):
            reference = reference_krein(Q[:, sp.relation] / sp.n, m, sp.n)
            krein = _krein_parameters(Q, sp.k, m, sp.n)
            scale = max(1.0, float(np.abs(reference).max()))
            assert np.abs(krein - reference).max() < 1e-12 * scale, bundle.name
            off_diag = [np.abs(kr[0] - np.diag(m)).max() > 1e-6 * scale for kr in (krein, reference)]
            assert off_diag == [Q is not sp.Q] * 2, bundle.name


def test_bose_mesner_residuals_match_dense_reference(all_bundles):
    # the residuals are read off the coefficients of the class matrices; the
    # dense products of E_j = Q[j, relation] / n give the same values up to
    # rounding, and a perturbed Q or P fails the same gate in both forms
    import re

    from terwlab.errors import NumericalCheckFailure
    from terwlab.spectral import IDEMPOTENT_TOL, _verify_bose_mesner

    for bundle in all_bundles:
        sp = bundle.spectral
        dense = reference_bose_mesner(dense_idempotents(sp), sp.P, sp.relation)
        assert np.abs(np.subtract(_verify_bose_mesner(sp.Q, sp.P, sp.pp, sp.n), dense)).max() < 1e-13, bundle.name

        noisy = _perturbed(sp.Q, 1e-6)
        worst, _ = reference_bose_mesner(noisy[:, sp.relation] / sp.n, sp.P, sp.relation)
        assert worst > IDEMPOTENT_TOL
        with pytest.raises(NumericalCheckFailure, match=re.escape(f"idempotent residual {worst:.3e} exceeds")):
            _verify_bose_mesner(noisy, sp.P, sp.pp, sp.n)

        P = sp.P.copy()
        P[1] *= 1.0 + 1e-6
        _, recon = reference_bose_mesner(dense_idempotents(sp), P, sp.relation)
        assert recon > 1e-8 * max(1.0, float(np.abs(P[1]).max()))
        with pytest.raises(NumericalCheckFailure, match="class-1 matrix does not match"):
            _verify_bose_mesner(sp.Q, P, sp.pp, sp.n)


def reference_bose_mesner_tensordot(Q, P, p, n):
    """Reference: the gate in its former form, E_i E_j read off the (D+1)^3 tensor p by two contractions."""
    from terwlab.errors import NumericalCheckFailure
    from terwlab.spectral import IDEMPOTENT_TOL

    delta = np.eye(len(Q))
    worst = float(np.abs(Q.sum(axis=0) / n - delta[0]).max())
    worst = max(worst, float(np.abs(Q[0] / n - 1.0 / n).max()))
    prod = np.tensordot(np.tensordot(Q, p, axes=(1, 1)), Q, axes=(2, 1)) / n**2
    prod -= delta[:, None, :] * Q[:, :, None] / n
    worst = max(worst, float(np.abs(prod).max()))
    if worst > IDEMPOTENT_TOL:
        raise NumericalCheckFailure(f"idempotent residual {worst:.3e} exceeds {IDEMPOTENT_TOL}")
    recon = float(np.abs(P[1] @ Q / n - delta[1]).max())
    if recon > 1e-8 * max(1.0, float(np.abs(P[1]).max())):
        raise NumericalCheckFailure("class-1 matrix does not match its spectral expansion")
    return worst, recon


def test_bose_mesner_recurrence_matches_the_tensor_contractions(all_bundles, cycle_contexts):
    # the gate runs the class recurrence on the coefficient columns of A_l E_j;
    # the former form contracts Q twice with p: the residuals agree, and a
    # perturbed Q or P fails both with the same message
    from terwlab.errors import NumericalCheckFailure
    from terwlab.spectral import _verify_bose_mesner

    cases = [(bundle.name, bundle.spectral, bundle.scheme) for bundle in all_bundles]
    cases += [(name, ctx.spectral, ctx.scheme) for name, ctx in cycle_contexts.items()]
    for name, sp, scheme in cases:
        p = relabel_classes(scheme, sp.p_ordering).tensor.p
        got, want = _verify_bose_mesner(sp.Q, sp.P, sp.pp, sp.n), reference_bose_mesner_tensordot(sp.Q, sp.P, p, sp.n)
        assert np.abs(np.subtract(got, want)).max() < 1e-13, name
        P = sp.P.copy()
        P[1] *= 1.0 + 1e-6
        for Q, P in ((_perturbed(sp.Q, 1e-6), sp.P), (sp.Q, P)):
            with pytest.raises(NumericalCheckFailure) as want:
                reference_bose_mesner_tensordot(Q, P, p, sp.n)
            with pytest.raises(NumericalCheckFailure) as got:
                _verify_bose_mesner(Q, P, sp.pp, sp.n)
            assert str(got.value) == str(want.value), name


CERTIFIED = [(f"O{D}", tw.odd_graph, D) for D in (4, 5, 6)] + [(f"FC{2 * D + 1}", tw.folded_cube, D) for D in (3, 4, 5)]


@pytest.mark.parametrize("family, D", [c[1:] for c in CERTIFIED], ids=[c[0] for c in CERTIFIED])
def test_certified_identity_is_the_first_p_ordering(family, D):
    # spectral_data takes the identity on a certified tensor without the search;
    # test_scheme.py's cycle ladder test checks the same on C_7..C_61
    tensor = family(D).tensor
    assert tensor.pp is not None
    assert next(_orderings(tensor.p != 0)) == tuple(range(D + 1))


def test_spectral_data_never_forms_the_tensor_of_a_certified_scheme(monkeypatch):
    # C_601 (D=300): validate_scheme and spectral_data read the array alone
    from terwlab import scheme as scheme_module
    from terwlab.errors import NumericalCheckFailure

    def formed(pp):
        raise AssertionError(f"p formed at D = {pp.D}")

    monkeypatch.setattr(scheme_module, "_tensor_from_array", formed)
    scheme = tw.odd_cycle(300)
    try:
        tw.spectral_data(scheme)
    except NumericalCheckFailure as exc:  # the basis gate fails here, after the P side
        assert str(exc).startswith("eigenspace basis"), exc
    assert scheme.tensor._p is None


def test_eigenspace_bases_are_orthonormal_and_fixed_by_the_idempotents(all_bundles):
    for bundle in all_bundles:
        sp = bundle.spectral
        assert sp.U.shape == (sp.n, sp.n)
        assert np.abs(sp.U.T @ sp.U - np.eye(sp.n)).max() < 1e-12, bundle.name
        lab = sp.eigenspace_labels()
        for t in range(sp.D + 1):
            Ut = sp.U[:, lab == t]
            assert Ut.shape == (sp.n, sp.m[t])
            assert np.abs(Ut.T @ Ut - np.eye(sp.m[t])).max() < 1e-12, (bundle.name, t)
            assert np.abs(dense_idempotents(sp)[t] @ Ut - Ut).max() < 1e-12, (bundle.name, t)


def _gaps(theta):
    """min_{s != t} |theta_s - theta_t| for each t."""
    return np.array([np.delete(np.abs(theta - th), t).min() for t, th in enumerate(theta)])


def test_eigen_residual_bound_covers_the_dense_basis_residual(all_bundles, cycle_contexts):
    # the basis gate reads r_t / gap_t in place of the dense |E_t U_t - U_t|_max
    # with E_t = Q[t, relation] / n: the bound covers the dense residual up to
    # the rounding of that product, and both pass the gate's tolerance, also
    # on the cycles, whose gaps are the smallest (0.0106 on C61)
    from terwlab.spectral import IDEMPOTENT_TOL

    eps = np.finfo(np.float64).eps
    spectra = {bundle.name: bundle.spectral for bundle in all_bundles}
    spectra |= {name: ctx.spectral for name, ctx in cycle_contexts.items()}
    for name, sp in spectra.items():
        assert not sp.eig_residual.flags.writeable
        lab = sp.eigenspace_labels()
        bound = sp.eig_residual / _gaps(sp.theta)
        for t in range(sp.D + 1):
            Ut = sp.U[:, lab == t]
            dense = np.abs(sp.Q[t][sp.relation] / sp.n @ Ut - Ut).max()
            assert dense <= bound[t] + sp.n * eps, (name, t)
            assert max(dense, bound[t]) <= IDEMPOTENT_TOL, (name, t)


def test_basis_gate_fires_on_a_basis_rotated_across_eigenspaces(fc7, monkeypatch):
    # turn the first basis vector of the second eigenspace towards the first
    # of the third: the basis stays orthonormal, and r_t / gap_t reads at
    # least sin(angle), so a rotation by 1e-6 fails the gate and one by 1e-13
    # passes it
    import re

    import terwlab.spectral as spectral
    from terwlab.errors import NumericalCheckFailure

    bases = spectral._eigenspace_bases

    def rotated_by(angle):
        def rotated(Q, relation, m):
            U = bases(Q, relation, m)
            pair = [m[0], m[0] + m[1]]
            c, s = np.cos(angle), np.sin(angle)
            U[:, pair] = U[:, pair] @ np.array([[c, -s], [s, c]])
            return U
        return rotated

    monkeypatch.setattr(spectral, "_eigenspace_bases", rotated_by(1e-13))
    tw.spectral_data(fc7.scheme)
    monkeypatch.setattr(spectral, "_eigenspace_bases", rotated_by(1e-6))
    with pytest.raises(NumericalCheckFailure, match=r"eigenspace basis residual \S+ exceeds 1e-09") as err:
        tw.spectral_data(fc7.scheme)
    assert float(re.search(r"residual (\S+)", str(err.value)).group(1)) >= 0.99 * np.sin(1e-6)


def test_orthogonality_gate_fires_on_a_basis_skewed_inside_one_eigenspace(fc7, monkeypatch):
    # add eps of one basis vector of the second eigenspace to another: both
    # stay in the eigenspace, so r_t / gap_t stays under its gate (it runs
    # first, and its message would not match), while delta_t reads about eps
    import terwlab.spectral as spectral
    from terwlab.errors import NumericalCheckFailure

    bases = spectral._eigenspace_bases

    def skewed_by(eps):
        def skewed(Q, relation, m):
            U = bases(Q, relation, m)
            U[:, m[0]] += eps * U[:, m[0] + 1]
            return U
        return skewed

    assert fc7.spectral.m[1] >= 2
    monkeypatch.setattr(spectral, "_eigenspace_bases", skewed_by(1e-13))
    tw.spectral_data(fc7.scheme)
    monkeypatch.setattr(spectral, "_eigenspace_bases", skewed_by(1e-6))
    with pytest.raises(NumericalCheckFailure, match=r"eigenspace basis orthogonality \S+ exceeds 1e-09"):
        tw.spectral_data(fc7.scheme)


def test_orthogonality_bounds_cover_the_dense_gram_blocks(all_bundles, cycle_contexts):
    # the gate reads delta_t off each U_t's own Gram matrix and bounds the
    # blocks across eigenspaces by the residuals; the dense U^T U is the
    # reference, up to the rounding of its sums (a computed r_t of 0 on a
    # cycle gives a bound of 0 against a dense block of 1.6e-18).  The built
    # bases leave every block at rounding level, so each is also skewed by
    # 1e-8 of the first vector of U_2 added to the first of U_1: that block
    # then reads 1e-8, and the bound must follow it through r_1
    from terwlab.spectral import _check_distinct, _orthogonality_bounds

    eps = np.finfo(np.float64).eps
    spectra = {bundle.name: bundle.spectral for bundle in all_bundles}
    spectra |= {name: ctx.spectral for name, ctx in cycle_contexts.items()}
    for name, sp in spectra.items():
        lab, off = sp.eigenspace_labels(), ~np.eye(sp.D + 1, dtype=bool)
        skewed = sp.U.copy()
        skewed[:, sp.m[0]] += 1e-8 * sp.U[:, sp.m[0] + sp.m[1]]
        R = (sp.relation == 1).astype(np.float64) @ skewed - skewed * np.repeat(sp.theta, sp.m)
        residual = np.sqrt(np.bincount(lab, np.einsum("ij,ij->j", R, R)))
        for U, r in ((sp.U, sp.eig_residual), (skewed, residual)):
            gram = np.abs(U.T @ U - np.eye(sp.n))
            dense = np.array([[gram[np.ix_(lab == s, lab == t)].max() for t in range(sp.D + 1)]
                              for s in range(sp.D + 1)])
            bounds = _orthogonality_bounds(U, _check_distinct(sp.theta), sp.m, r)
            assert (bounds[off] + sp.n * eps >= dense[off]).all(), name
            assert np.abs(np.diag(bounds) - np.diag(dense)).max() <= sp.n * eps, name
        assert dense[1, 2] >= 0.99e-8, name
        assert _orthogonality_bounds(sp.U, _check_distinct(sp.theta), sp.m, sp.eig_residual).max() <= 1e-9, name


def reference_orthogonality_bounds(U, spread, m, r):
    """Reference: the former bounds, one Gram matrix per eigenspace."""
    delta = np.array([np.abs(Ut.T @ Ut - np.eye(len(Ut.T))).max() for Ut in np.split(U, np.cumsum(m)[:-1], axis=1)])
    norm = np.sqrt(1.0 + m * delta)
    return (np.outer(norm, r) + np.outer(r, norm)) / spread + np.diag(delta)


def test_orthogonality_bounds_are_the_per_eigenspace_reference(all_bundles, cycle_contexts):
    # the Gram matrices of one multiplicity are one matmul on a stack, each the same BLAS product
    # as alone on a basis laid out as spectral_data builds it (column-major): equal to the bit,
    # also on a basis that is not the built one; a row-major basis takes another BLAS path
    from terwlab.spectral import _check_distinct, _orthogonality_bounds

    spectra = {bundle.name: bundle.spectral for bundle in all_bundles}
    spectra |= {name: ctx.spectral for name, ctx in cycle_contexts.items()}
    rng = np.random.default_rng(5)
    eps = np.finfo(np.float64).eps
    for name, sp in spectra.items():
        spread = _check_distinct(sp.theta)
        skewed = np.asfortranarray(sp.U + 1e-9 * rng.standard_normal(sp.U.shape))
        assert sp.U.flags.f_contiguous, name
        for U in (sp.U, skewed, np.ascontiguousarray(skewed)):
            got = _orthogonality_bounds(U, spread, sp.m, sp.eig_residual)
            want = reference_orthogonality_bounds(U, spread, sp.m, sp.eig_residual)
            if U.flags.f_contiguous:
                assert np.array_equal(got, want), name
            assert np.abs(got - want).max() <= sp.n * eps, name


def _projector_gap(sp, A):
    """max_t |U_t U_t^T - V_t V_t^T|_max, with V_t the eigenvectors ``eigh`` gives A for theta_t."""
    w, V = np.linalg.eigh(A)
    nearest = np.argmin(np.abs(w[:, None] - sp.theta[None, :]), axis=1)
    assert np.bincount(nearest, minlength=sp.D + 1).tolist() == sp.m.tolist()
    lab = sp.eigenspace_labels()
    return max(np.abs(sp.U[:, lab == t] @ sp.U[:, lab == t].T - V[:, nearest == t] @ V[:, nearest == t].T).max()
               for t in range(sp.D + 1))


def test_eigenspace_projectors_match_the_eigh_reference(all_bundles, cycle_contexts):
    # eigh of the dense A stays here as the reference: its spectrum carries
    # the multiplicities m_t, and each U_t U_t^T is its spectral projector;
    # past C61 the cycles are sampled, as the quotient stages grow like D^4
    spectra = {bundle.name: bundle.spectral for bundle in all_bundles}
    spectra |= {name: ctx.spectral for name, ctx in cycle_contexts.items()}
    spectra["FC11"] = tw.spectral_data(tw.folded_cube(5))
    for D in range(40, 101, 20):
        spectra[f"C{2 * D + 1}"] = tw.spectral_data(tw.odd_cycle(D))
    for name, sp in spectra.items():
        assert _projector_gap(sp, (sp.relation == 1).astype(np.float64)) <= 1e-10, name


def test_spectral_data_takes_no_n_by_n_eigensolve_and_repeats_to_the_bit(fc9, monkeypatch):
    # only the (D+1) x (D+1) tridiagonal matrix is handed to an eigensolver,
    # and the greedy pivots need no seed: two runs give the same bases
    shapes = []
    for fn in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, fn)
        monkeypatch.setattr(np.linalg, fn, lambda M, solver=solver: shapes.append(np.shape(M)) or solver(M))
    for scheme in (tw.odd_graph(5), fc9.scheme):
        shapes.clear()
        first = tw.spectral_data(scheme)
        assert shapes and all(shape == (scheme.D + 1, scheme.D + 1) for shape in shapes), shapes
        assert first.U.tobytes() == tw.spectral_data(scheme).U.tobytes()


def test_eigenspace_groups_partition_the_columns(all_bundles):
    for bundle in all_bundles:
        sp = bundle.spectral
        lab = sp.eigenspace_labels()
        assert sp.U.shape == (sp.n, sp.n), bundle.name
        assert np.array_equal(lab, np.repeat(np.arange(sp.D + 1), sp.m)), bundle.name
        assert np.bincount(lab, minlength=sp.D + 1).tolist() == sp.m.tolist() and sp.m.min() >= 1, bundle.name


def test_generated_schemes_keep_their_relation(all_bundles, cycle_contexts):
    # every generator numbers its classes in P-order, so spectral_data
    # relabels nothing and holds no second n x n copy of the relation
    for bundle in all_bundles:
        sp = bundle.spectral
        assert sp.p_ordering == tuple(range(sp.D + 1)), bundle.name
        assert sp.relation is bundle.scheme.relation, bundle.name
        assert relabel_classes(bundle.scheme, sp.p_ordering) is bundle.scheme, bundle.name
    for name, ctx in cycle_contexts.items():
        assert ctx.spectral.relation is ctx.scheme.relation, name



def _dense_eig_residual(scheme, sp, U):
    """Reference: ||A U_t - theta_t U_t||_F for each eigenspace t of ``U``, with the dense class-1 matrix A."""
    A = relabel_classes(scheme, sp.p_ordering).class_matrix(1)
    R = A @ U - U * np.repeat(sp.theta, sp.m)
    return np.sqrt(np.bincount(sp.eigenspace_labels(), np.einsum("ij,ij->j", R, R)))


def test_eig_residual_matches_the_dense_reference(all_bundles, cycle_contexts):
    # r_t is rounding on the schemes, so the gathered sums and the dense
    # product agree to 1e-12 relative to the size of A U_t they cancel,
    # |theta_t| sqrt(m_t); on a basis rotated across eigenspaces r_t is far
    # above rounding and the two agree to 1e-12 relative to r_t itself
    from terwlab.spectral import _eig_residual

    schemes = {bundle.name: (bundle.scheme, bundle.spectral) for bundle in all_bundles}
    schemes |= {name: (ctx.scheme, ctx.spectral) for name, ctx in cycle_contexts.items()}
    rng = np.random.default_rng(7)
    for name, (scheme, sp) in schemes.items():
        size = (1.0 + np.abs(sp.theta)) * np.sqrt(sp.m)
        assert np.abs(sp.eig_residual - _dense_eig_residual(scheme, sp, sp.U)).max() <= 1e-12 * size.min(), name
        U = sp.U @ np.linalg.qr(rng.standard_normal((sp.n, sp.n)))[0]
        got, want = _eig_residual(U, sp.relation, sp.theta, sp.m), _dense_eig_residual(scheme, sp, U)
        assert want.min() > 1e-3, name
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0, err_msg=name)


def _largest_run(m):
    """The most columns of U in one run of consecutive eigenspaces of equal multiplicity."""
    cuts = [0, *(np.flatnonzero(np.diff(m)) + 1).tolist(), len(m)]
    return max(int(m[a:b].sum()) for a, b in zip(cuts, cuts[1:]))


@pytest.mark.parametrize("make, D", [(tw.odd_graph, 5), (tw.folded_cube, 4)], ids=["O5", "FC9"])
def test_spectral_data_forms_no_n_by_n_adjacency_or_product(make, D, monkeypatch):
    # no class matrix is formed, and the traced peak is U, the copy, the
    # residual and one gather of the largest run of equal multiplicities,
    # and a slack of 128 KiB for numpy's 64 KiB ufunc buffer, the k x n
    # neighbour table and the (D+1)-size arrays: the dense A, A U and U Theta
    # were three n x n float64 arrays more
    from terwlab.scheme import AssociationScheme

    scheme = make(D)
    monkeypatch.setattr(AssociationScheme, "class_matrix", lambda self, i: pytest.fail("class matrix formed"))
    tracemalloc.start()
    try:
        sp = tw.spectral_data(scheme)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= sp.U.nbytes + 3 * sp.n * _largest_run(sp.m) * 8 + 2**17
