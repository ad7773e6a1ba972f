from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import terwlab as tw
from conftest import search
from terwlab import scheme as scheme_module
from terwlab.errors import AxiomViolation
from terwlab.generators import distance_relation
from terwlab.scheme import _triple_counts, relabel_classes


def cycle_relation(n):
    idx = np.arange(n)
    diff = np.abs(idx[:, None] - idx[None, :])
    return np.minimum(diff, n - diff)


def brute_triple_counts(rel):
    """Independent oracle: count triples with explicit python loops."""
    n = rel.shape[0]
    D = int(rel.max())
    p = np.zeros((D + 1, D + 1, D + 1), dtype=np.int64)
    seen = np.zeros((D + 1, D + 1, D + 1), dtype=bool)
    for x in range(n):
        for y in range(n):
            h = rel[x, y]
            counts = np.zeros((D + 1, D + 1), dtype=np.int64)
            for z in range(n):
                counts[rel[x, z], rel[z, y]] += 1
            if seen[h].any():
                assert np.array_equal(p[h], counts), (x, y)
            p[h] = counts
            seen[h] = True
    return p


def test_single_vertex_scheme():
    scheme = tw.validate_scheme([[0]])
    assert scheme.n == 1 and scheme.D == 0
    assert scheme.tensor.p.tolist() == [[[1]]]


def test_seven_cycle_tensor_matches_brute_force():
    rel = cycle_relation(7)
    scheme = tw.validate_scheme(rel)
    assert scheme.D == 3
    assert np.array_equal(scheme.tensor.p, brute_triple_counts(rel))


def product_relation(a, b):
    """The direct product of the symmetrized group schemes of Z_a and Z_b."""
    ra, rb = cycle_relation(a), cycle_relation(b)
    return (ra[:, None, :, None] * (b // 2 + 1) + rb[None, :, None, :]).reshape(a * b, a * b)


@st.composite
def product_schemes(draw):
    """Relation tables of valid schemes that need not be P-polynomial:
    ``product_relation(a, b)`` with the nonzero classes renamed by a random
    permutation."""
    a = draw(st.integers(min_value=1, max_value=6))
    b = draw(st.integers(min_value=1, max_value=6))
    rel = product_relation(a, b)
    classes = np.unique(rel)
    names = np.zeros(int(rel.max()) + 1, dtype=np.int64)
    names[classes[1:]] = np.array(draw(st.permutations(range(1, len(classes)))), dtype=np.int64)
    return names[rel]


@given(product_schemes())
@settings(max_examples=25, deadline=None)
def test_triple_counts_match_brute_force_on_random_schemes(rel):
    # validate_scheme may decide by the class-1 certificate or by the full scan
    D = int(rel.max())
    expected = brute_triple_counts(rel)
    assert np.array_equal(_triple_counts(rel, rel.shape[0], D).p, expected)
    assert np.array_equal(tw.validate_scheme(rel).tensor.p, expected)


@pytest.fixture
def full_scan_calls(monkeypatch):
    """Record each call of the full axiom-iv scan made by ``validate_scheme``."""
    calls = []

    def spy(rel, n, D):
        calls.append((n, D))
        return _triple_counts(rel, n, D)

    monkeypatch.setattr(scheme_module, "_triple_counts", spy)
    return calls


DISTANCE_REGULAR = (
    [(f"C{2 * D + 1}", tw.odd_cycle, D) for D in range(3, 31)]
    + [(f"O{D}", tw.odd_graph, D) for D in (3, 4, 5)]
    + [(f"FC{2 * D + 1}", tw.folded_cube, D) for D in (2, 3, 4, 5)]
)


@pytest.mark.parametrize("family, D", [c[1:] for c in DISTANCE_REGULAR], ids=[c[0] for c in DISTANCE_REGULAR])
def test_certificate_decides_distance_regular_schemes(family, D, full_scan_calls):
    rel = family(D).relation
    tensor = tw.validate_scheme(rel).tensor
    assert full_scan_calls == []
    reference = _triple_counts(rel, rel.shape[0], D)
    assert (tensor.p == reference.p).all() and (tensor.k == reference.k).all()


@pytest.mark.parametrize(
    "rel",
    [relabel_classes(tw.odd_cycle(3), (0, 1, 3, 2)).relation, product_relation(3, 3)],
    ids=["C7-order-0132", "Z3xZ3"],
)
def test_full_scan_decides_when_certificate_fails(rel, full_scan_calls):
    # C_7 with classes 2 and 3 swapped is not in a P-order; the class-1 graph
    # of Z_3 x Z_3 is three disjoint triangles, so c_2 = 0
    tensor = tw.validate_scheme(rel).tensor
    assert full_scan_calls == [(rel.shape[0], int(rel.max()))]
    assert np.array_equal(tensor.p, brute_triple_counts(rel))


ON_DEMAND = (
    [(f"C{2 * D + 1}", tw.odd_cycle, D) for D in range(3, 13)]
    + [("O4", tw.odd_graph, 4), ("FC7", tw.folded_cube, 3)]
)


@pytest.mark.parametrize("family, D", [c[1:] for c in ON_DEMAND], ids=[c[0] for c in ON_DEMAND])
def test_certified_tensor_forms_p_on_demand(family, D):
    # the certificate keeps the array and k; p is formed on the first read and kept
    rel = family(D).relation
    tensor = tw.validate_scheme(rel).tensor
    assert tensor.pp is not None and tensor._p is None
    p = tensor.p
    assert tensor.p is p and not p.flags.writeable
    assert np.array_equal(p, brute_triple_counts(rel))
    assert np.array_equal(tensor.k, np.diagonal(p[0]))
    assert tensor.D == D and tw.intersection_array(tensor) is tensor.pp


def test_seven_cycle_intersection_array():
    scheme = tw.validate_scheme(cycle_relation(7))
    pp = tw.intersection_array(scheme.tensor)
    assert pp.c.tolist() == [0, 1, 1, 1]
    assert pp.b.tolist() == [2, 1, 1, 0]
    assert pp.a.tolist() == [0, 0, 0, 1]


def test_flipped_pair_breaks_axiom_iv():
    rel = cycle_relation(7).copy()
    rel[0, 2] = rel[2, 0] = 1  # true distance is 2
    with pytest.raises(AxiomViolation) as err:
        tw.validate_scheme(rel)
    assert err.value.axiom == "iv"
    assert err.value.witness is not None


def reference_axiom_iv_scan(rel):
    """Reference: scan every (i, j, h) and report the first violation as
    ``(witness, message)``, or ``None`` when the triple counts are constant."""
    D = int(rel.max())
    A = np.stack([(rel == i) for i in range(D + 1)]).astype(np.float64)
    masks = [rel == h for h in range(D + 1)]
    for i in range(D + 1):
        for j in range(D + 1):
            M = A[i] @ A[j]
            for h in range(D + 1):
                vals = M[masks[h]]
                v0 = vals.flat[0]
                if not np.all(vals == v0):
                    bad = int(np.argwhere(vals != v0)[0][0])
                    xy = tuple(int(w) for w in np.argwhere(masks[h])[bad])
                    message = (
                        f"axiom (iv) violated: count of z with classes ({i},{j}) is not "
                        f"constant on class {h}: pair {xy} sees {int(M[xy])}, expected {int(v0)}"
                    )
                    return (h, i, j, xy), message
    return None


def _flipped(rel, *pairs):
    """Copy of ``rel`` with each symmetric pair ``(x, y)`` moved to class ``cls``."""
    rel = rel.copy()
    for x, y, cls in pairs:
        rel[x, y] = rel[y, x] = cls
    return rel


PETERSEN = tw.odd_graph(2).relation
# regular graphs that are not distance-regular: the certificate sees constant
# valency and fails later, so the full scan must report the witness
PRISM = distance_relation([[1, 2, 3], [0, 2, 4], [0, 1, 5], [0, 4, 5], [1, 3, 5], [2, 3, 4]])
C8_1_4 = distance_relation([[(x + s) % 8 for s in (1, 4, 7)] for x in range(8)])


def _path_relation(n):
    idx = np.arange(n)
    return np.abs(idx[:, None] - idx[None, :])


@pytest.mark.parametrize(
    "rel",
    [
        _flipped(cycle_relation(7), (0, 2, 1)),
        _flipped(cycle_relation(7), (3, 6, 1)),
        _flipped(cycle_relation(9), (0, 3, 2)),
        _flipped(cycle_relation(9), (2, 4, 4)),
        # swapping two classes on one row keeps A_1 and every row's class
        # counts, so the first violation sits at (i, j) = (1, 2) and (1, 3)
        _flipped(cycle_relation(11), (0, 3, 4), (0, 4, 3)),
        _flipped(cycle_relation(11), (0, 4, 5), (0, 5, 4)),
        _flipped(PETERSEN, (0, int(np.argmax(PETERSEN[0] == 2)), 1)),
        _flipped(PETERSEN, (4, int(np.argmax(PETERSEN[4] == 1)), 2)),
        _path_relation(4),
        PRISM,
        C8_1_4,
    ],
    ids=[
        "C7-a", "C7-b", "C9-a", "C9-b", "C11-swap34", "C11-swap45", "petersen-a", "petersen-b", "P4",
        "prism", "C8-1-4",
    ],
)
def test_axiom_iv_witness_matches_full_scan(rel):
    expected = reference_axiom_iv_scan(rel)
    assert expected is not None
    with pytest.raises(AxiomViolation) as err:
        tw.validate_scheme(rel)
    assert err.value.axiom == "iv"
    assert (err.value.witness, str(err.value)) == expected


@pytest.mark.parametrize("D", range(3, 31))
def test_cycle_ladder_tensor_and_orderings(D):
    n = 2 * D + 1
    scheme = tw.odd_cycle(D)
    p = scheme.tensor.p
    assert np.array_equal(p, p.transpose(0, 2, 1))
    if D <= 12:
        assert np.array_equal(p, brute_triple_counts(scheme.relation))
    # the distance-j graph of C_n is a cycle exactly when gcd(j, n) = 1; its
    # i-th class is the distance min(ij mod n, n - ij mod n)
    multipliers = [j for j in range(1, D + 1) if gcd(j, n) == 1]
    expected = [tuple(min(i * j % n, n - i * j % n) for i in range(D + 1)) for j in multipliers]
    orderings = list(search(scheme.tensor.p != 0))
    assert len(orderings) == sum(gcd(j, n) == 1 for j in range(1, n)) // 2
    assert orderings[0] == tuple(range(D + 1))
    assert orderings == expected


def reference_axioms_i_to_iii(rel):
    """The whole-table passes of axioms i-iii that ``validate_scheme``'s row-0
    test and row blocks replaced: (axiom, message, witness) of the first
    violation, or None."""
    n, D = len(rel), int(rel.max())
    counts = np.bincount(rel.ravel(), minlength=D + 1)
    if (counts == 0).any():
        empty = int(np.argwhere(counts == 0)[0][0])
        return "i", f"class {empty} is empty", empty
    diag = np.diagonal(rel)
    if (diag != 0).any():
        x = int(np.argwhere(diag != 0)[0][0])
        return "ii", f"relation({x},{x}) = {rel[x, x]} != 0", (x, x)
    if counts[0] > n:
        xy = tuple(int(v) for v in np.argwhere((rel == 0) & ~np.eye(n, dtype=bool))[0])
        return "ii", f"class 0 holds the off-diagonal pair {xy}", xy
    asym = rel != rel.T
    if asym.any():
        xy = tuple(int(v) for v in np.argwhere(asym)[0])
        return "iii", f"relation{xy} = {rel[xy]} but the reverse pair has class {rel[xy[::-1]]}", xy
    return None


@st.composite
def corrupted_tables(draw):
    """C_n tables with a few entries overwritten by classes 0..D+2; a D+2 leaves class D+1 empty."""
    n = draw(st.sampled_from([3, 5, 7, 9, 15, 21]))
    rel = cycle_relation(n)
    for _ in range(draw(st.integers(0, 4))):
        x, y = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rel[x, y] = draw(st.integers(0, n // 2 + 2))
    return rel


@given(corrupted_tables())
@settings(max_examples=300, deadline=None)
def test_axioms_i_to_iii_name_the_whole_table_witness(rel):
    # blocks of a few rows, so that the symmetry pass really runs block by block
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scheme_module, "BLOCK_ENTRIES", 2 * len(rel))
        assert len(scheme_module._row_blocks(len(rel))) > 1
        expected = reference_axioms_i_to_iii(rel)
        try:
            tw.validate_scheme(rel)
            got = None
        except AxiomViolation as err:
            got = None if err.axiom == "iv" else (err.axiom, str(err), err.witness)
    if expected is not None:
        expected = (expected[0], f"axiom ({expected[0]}) violated: {expected[1]}", expected[2])
    assert got == expected


def test_asymmetric_relation_rejected():
    rel = cycle_relation(7).copy()
    rel[0, 2] = 3
    with pytest.raises(AxiomViolation) as err:
        tw.validate_scheme(rel)
    assert err.value.axiom == "iii"


def test_nonzero_diagonal_rejected():
    rel = cycle_relation(7).copy()
    rel[4, 4] = 1
    with pytest.raises(AxiomViolation) as err:
        tw.validate_scheme(rel)
    assert err.value.axiom == "ii"


def test_off_diagonal_class_zero_rejected():
    rel = cycle_relation(7).copy()
    rel[0, 1] = rel[1, 0] = 0
    with pytest.raises(AxiomViolation) as err:
        tw.validate_scheme(rel)
    assert err.value.axiom == "ii"


def test_empty_class_rejected():
    rel = cycle_relation(7) * 2  # classes 2, 4, 6 with 1, 3, 5 empty
    with pytest.raises(AxiomViolation) as err:
        tw.validate_scheme(rel)
    assert err.value.axiom == "i"


def test_tensor_diagonal_slab_is_valency(all_bundles):
    for bundle in all_bundles:
        tensor = bundle.scheme.tensor
        D = tensor.D
        expected = np.zeros_like(tensor.p[0])
        np.fill_diagonal(expected, tensor.k)
        assert np.array_equal(tensor.p[0], expected)
        assert tensor.k.min() >= 1


def test_product_identity_exact(all_bundles):
    # A_i A_j = sum_h p[h, i, j] A_h as an exact integer matrix identity
    for bundle in all_bundles:
        scheme = bundle.scheme
        D = scheme.D
        A = np.stack([scheme.class_matrix(i) for i in range(D + 1)])
        p = scheme.tensor.p
        for i in range(D + 1):
            for j in range(D + 1):
                lhs = A[i] @ A[j]
                rhs = np.tensordot(p[:, i, j].astype(np.float64), A, axes=(0, 0))
                assert np.array_equal(lhs, rhs), (bundle.name, i, j)


def test_disconnected_class_one_graph_saves_as_explicit_matrix(tmp_path):
    # Z_3 x Z_3 is a valid scheme whose class-1 graph is three disjoint triangles
    from terwlab.generators import scheme_to_json

    scheme = tw.validate_scheme(product_relation(3, 3))
    assert scheme_to_json(scheme)["relation"]["kind"] == "explicit"
    path = tmp_path / "z3xz3.json"
    tw.save_scheme(scheme, path)
    loaded = tw.load_scheme(path)
    assert loaded.relation.dtype == scheme.relation.dtype == np.int8
    assert np.array_equal(loaded.relation, scheme.relation)
    assert np.array_equal(loaded.tensor.p, scheme.tensor.p)


def test_relabel_classes_round_trip():
    scheme = tw.validate_scheme(cycle_relation(7))
    from terwlab.scheme import relabel_classes

    relabeled = relabel_classes(scheme, (0, 2, 3, 1))
    assert relabeled.tensor is not None
    back = relabel_classes(relabeled, (0, 3, 1, 2))
    assert np.array_equal(back.relation, scheme.relation)
    assert np.array_equal(back.tensor.p, scheme.tensor.p)
