import hashlib
import json
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import terwlab as tw
from terwlab import generators
from terwlab.errors import AxiomViolation, InvalidParameter, NumericalCheckFailure, ParseError, ResourceLimit
from terwlab.generators import distance_relation, scheme_from_json, scheme_to_json
from terwlab.scheme import BLOCK_ENTRIES, class_dtype


def reference_distance_relation(adjacency):
    """The per-source Python BFS that ``distance_relation`` replaced, after a scan for self-loops, then repeats."""
    n = len(adjacency)
    for v, row in enumerate(adjacency):
        if v in row:
            raise ParseError(f"vertex {v} lists itself as a neighbour")
    for v, row in enumerate(adjacency):
        repeated = sorted(w for w in set(row) if list(row).count(w) > 1)
        if repeated:
            raise ParseError(f"vertex {v} lists neighbour {repeated[0]} more than once")
    rel = np.full((n, n), -1, dtype=np.int64)
    for s in range(n):
        dist = rel[s]
        dist[s] = 0
        frontier = [s]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for v in frontier:
                for w in adjacency[v]:
                    if dist[w] < 0:
                        dist[w] = d
                        nxt.append(w)
            frontier = nxt
    if rel.min() < 0:
        x, y = map(int, np.argwhere(rel < 0)[0])
        raise ParseError(f"graph is disconnected: no path from {x} to {y}")
    return rel


def cycle_adjacency(D):
    """Neighbour array of C_{2D+1}: vertex v is adjacent to v - 1 and v + 1 mod n."""
    v = np.arange(2 * D + 1)
    return np.stack([(v - 1) % len(v), (v + 1) % len(v)], axis=1)


def odd_graph_adjacency(D):
    """Neighbour array of K(2D+1, D): D-subsets in colexicographic order,
    adjacent when disjoint, tested on their bitmasks all at once.

    Colexicographic order of equal-size subsets is the numeric order of
    their bitmasks, and each row lists its D+1 neighbours in ascending order.
    """
    strings = 1 << (2 * D + 1)
    bits = np.arange(strings, dtype=np.min_scalar_type(strings))
    masks = bits[np.bitwise_count(bits) == D]
    n = len(masks)
    disjoint = (masks[:, None] & masks) == 0
    return (np.flatnonzero(disjoint) % n).reshape(n, D + 1)


def folded_cube_adjacency(D):
    """Neighbour array of the folded (2D+1)-cube: flip each of the 2D+1 bits of
    the representative, and complement the strings that left bit 0 set."""
    nbits = 2 * D + 1
    flips = (np.arange(1 << (nbits - 1))[:, None] << 1) ^ (1 << np.arange(nbits))
    flips ^= (flips & 1) * ((1 << nbits) - 1)
    return flips >> 1


def reference_odd_graph_adjacency(D):
    """The per-row builder ``odd_graph_adjacency`` replaced: one ``flatnonzero`` a vertex."""
    verts = sorted(combinations(range(2 * D + 1), D), key=lambda s: tuple(reversed(s)))
    masks = np.array([sum(1 << e for e in v) for v in verts], dtype=np.int64)
    disjoint = (masks[:, None] & masks[None, :]) == 0
    return [np.flatnonzero(row).tolist() for row in disjoint]


def reference_scheme_to_json(scheme):
    """The per-vertex writer ``scheme_to_json`` replaced: one ``flatnonzero`` and ``sorted`` a vertex."""
    rel = scheme.relation
    if scheme.D >= 1:
        adjacency = [sorted(int(w) for w in np.flatnonzero(rel[v] == 1)) for v in range(scheme.n)]
        if scheme.tensor.pp is not None or np.array_equal(reference_distance_relation(adjacency), rel):
            return {"n": scheme.n, "D": scheme.D, "relation": {"kind": "distance_graph", "adjacency": adjacency}}
    return {"n": scheme.n, "D": scheme.D, "relation": {"kind": "explicit", "matrix": rel.tolist()}}


def _outcome(fn, adjacency):
    try:
        return "table", fn(adjacency).tolist()
    except ParseError as exc:
        return "error", str(exc)


@st.composite
def adjacency_lists(draw):
    """Adjacency lists on 1..40 vertices: possibly asymmetric, with repeated
    neighbours and self-loops; a random spanning cycle is added half the time,
    so both connected and disconnected graphs appear."""
    n = draw(st.integers(min_value=1, max_value=40))
    rows = draw(st.lists(st.lists(st.integers(0, n - 1), max_size=6), min_size=n, max_size=n))
    if draw(st.booleans()):
        order = draw(st.permutations(range(n)))
        for a, b in zip(order, order[1:] + order[:1]):
            rows[a].append(b)
    return rows


@st.composite
def undirected_adjacency_lists(draw):
    """Symmetric adjacency lists on 1..40 vertices: every drawn edge is listed
    at both ends, so repeated edges and self-loops appear twice or more; a
    random spanning path is added half the time, so both connected and
    disconnected graphs appear."""
    n = draw(st.integers(min_value=1, max_value=40))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))
    if draw(st.booleans()):
        order = draw(st.permutations(range(n)))
        edges += list(zip(order, order[1:]))
    rows = [[] for _ in range(n)]
    for a, b in edges:
        rows[a].append(b)
        rows[b].append(a)
    return rows


def _simple(rows):
    """``rows`` with each list's self-loop and repeated neighbours dropped, so that the search runs."""
    return [sorted(set(row) - {v}) for v, row in enumerate(rows)]


@given(st.one_of(adjacency_lists(), undirected_adjacency_lists(),
                 adjacency_lists().map(_simple), undirected_adjacency_lists().map(_simple)))
@settings(max_examples=400, deadline=None)
def test_distance_relation_matches_reference_bfs(adjacency):
    assert _outcome(distance_relation, adjacency) == _outcome(reference_distance_relation, adjacency)


def test_distance_relation_edge_cases():
    for adjacency in ([[]], [[0]], [[0, 0]], [[1, 1], [0]], [[1], []], [[1], [2], [0]], [[1], [0], [3], [2]]):
        assert _outcome(distance_relation, adjacency) == _outcome(reference_distance_relation, adjacency)
    assert distance_relation([[1], [2], [0]]).tolist() == [[0, 1, 2], [2, 0, 1], [1, 2, 0]]


@pytest.mark.parametrize(
    "fault, message",
    [(lambda v, row: row + [v], "vertex 0 lists itself as a neighbour"),
     (lambda v, row: row + [v] if v == 2 else row, "vertex 2 lists itself as a neighbour"),
     (lambda v, row: row + [row[0]], "vertex 0 lists neighbour 1 more than once"),
     (lambda v, row: row + [4] if v == 3 else row, "vertex 3 lists neighbour 4 more than once")],
    ids=["loops-equal", "loop-ragged", "repeats-equal", "repeat-ragged"],
)
def test_self_loops_and_repeated_neighbours_are_parse_errors(fault, message):
    # C_7 with a vertex that also lists itself, or one neighbour twice, would
    # pass as C_7 with valencies [1, 2, 2, 2]; the file loader and
    # scheme_from_graph both refuse it, from lists of equal length (read as
    # one array) and from ragged ones
    rows = [fault(v, list(row)) for v, row in enumerate(C7_ADJACENCY)]
    doc = {"n": 7, "D": 3, "relation": {"kind": "distance_graph", "adjacency": rows}}
    with pytest.raises(ParseError, match=message):
        scheme_from_json(doc)
    with pytest.raises(ParseError, match=message):
        tw.scheme_from_graph(rows)
    with pytest.raises(ParseError, match=message):
        tw.scheme_from_graph(np.array(rows) if len(set(map(len, rows))) == 1 else rows)


def test_empty_distance_graph_is_an_axiom_violation():
    # an empty graph is an input error, not an uncaught ValueError from min() of an empty table
    doc = {"n": 0, "D": 0, "relation": {"kind": "distance_graph", "adjacency": []}}
    with pytest.raises(AxiomViolation, match="vertex set is empty"):
        scheme_from_json(doc)


def test_distance_relation_matches_reference_on_families(all_bundles):
    for bundle in all_bundles:
        adjacency = scheme_to_json(bundle.scheme)["relation"]["adjacency"]
        reference = reference_distance_relation(adjacency)
        # as lists, and as the n x k array the loader and the family builders pass
        assert np.array_equal(distance_relation(adjacency), reference)
        assert np.array_equal(distance_relation(np.array(adjacency)), reference)


@pytest.mark.parametrize("D", [2, 3, 4, 5])
def test_odd_graph_adjacency_matches_pairwise_disjointness(D):
    # the double loop the vectorized disjointness test replaced, and the per-row builder
    verts = sorted(combinations(range(2 * D + 1), D), key=lambda s: tuple(reversed(s)))
    masks = [sum(1 << e for e in v) for v in verts]
    expected = [[j for j, mw in enumerate(masks) if not (mv & mw)] for mv in masks]
    assert odd_graph_adjacency(D).tolist() == expected == reference_odd_graph_adjacency(D)


FAMILY_ADJACENCY = {"odd_cycle": cycle_adjacency, "odd_graph": odd_graph_adjacency,
                    "folded_cube": folded_cube_adjacency}
CLOSED_FORM_CASES = ([("odd_cycle", D) for D in (*range(1, 101), 300)]
                     + [("odd_graph", D) for D in (2, 3, 4, 5)] + [("folded_cube", D) for D in (2, 3, 4, 5)])


def test_closed_forms_are_the_bfs_distance_tables():
    # C_3..C_201 and C_601, O_2..O_5, FC_5..FC_11
    for family, D in CLOSED_FORM_CASES:
        scheme = generators.generate(family, D)
        rel = scheme.relation
        assert np.array_equal(rel, distance_relation(FAMILY_ADJACENCY[family](D))), (family, D)
        assert rel.dtype == class_dtype(D) and not rel.flags.writeable, (family, D)
        assert scheme.D == D and scheme.tensor.pp is not None, (family, D)


def test_family_builders_run_no_bfs(monkeypatch):
    monkeypatch.setattr(generators, "distance_relation", lambda adjacency: pytest.fail("BFS called"))
    for family, D in (("odd_cycle", 3), ("odd_cycle", 150), ("odd_graph", 4), ("folded_cube", 4)):
        assert generators.generate(family, D).tensor.pp is not None


def _swap_classes(a, b):
    """A wrong closed form: the right one with classes a and b exchanged."""
    def wrong(distance):
        def swapped(x, y):
            d = distance(x, y)
            return np.where(d == a, b, np.where(d == b, a, d))
        return swapped
    return wrong


@pytest.mark.parametrize(
    "family, D, wrong",
    [("odd_cycle", 3, _swap_classes(2, 3)),
     ("odd_graph", 3, _swap_classes(1, 2)),
     # the Hamming distance of the representatives: the certified table of the 2D-cube
     ("folded_cube", 3, lambda distance: lambda x, y: np.bitwise_count(x ^ y))],
)
def test_a_wrong_closed_form_raises(family, D, wrong, monkeypatch):
    # each wrong table is a valid scheme (an AxiomViolation would escape pytest.raises):
    # only the missing certificate, or the diameter, tells it from the family's
    real = generators._closed_form_scheme
    monkeypatch.setattr(generators, "_closed_form_scheme",
                        lambda name, D, labels, distance: real(name, D, labels, wrong(distance)))
    with pytest.raises(NumericalCheckFailure, match=rf"{family}\(D={D}\)"):
        generators.generate(family, D)


class TableBuilt(Exception):
    """Raised in place of validation, to stop a builder once its table is built."""


@pytest.mark.parametrize("family, D", [("odd_cycle", 1000), ("odd_graph", 6), ("folded_cube", 6)])
def test_building_a_table_holds_one_row_block_of_temporaries(family, D, monkeypatch):
    # the table is taken, and tracing stopped, where the builder hands it to validation
    seen = []

    def stop(table):
        seen.append((table, tracemalloc.get_traced_memory()[1]))
        raise TableBuilt

    monkeypatch.setattr(generators, "validate_scheme", stop)
    tracemalloc.start()
    try:
        with pytest.raises(TableBuilt):
            generators.generate(family, D)
    finally:
        tracemalloc.stop()
    (table, peak), = seen
    n = len(table)
    assert n * n > 8 * BLOCK_ENTRIES  # even a one-byte n x n temporary would break the bound
    # beyond the table: at most one row block of intp (8 bytes an entry), and the labels
    assert peak <= table.nbytes + 8 * BLOCK_ENTRIES + (1 << 16), (family, peak - table.nbytes)


@pytest.fixture(scope="module")
def c601():
    return tw.odd_cycle(300)


def test_scheme_files_match_the_per_vertex_writer(all_bundles, c601):
    # save_scheme writes json.dumps of this document, so equal dumps are byte-identical files
    for scheme in [bundle.scheme for bundle in all_bundles] + [c601]:
        assert json.dumps(scheme_to_json(scheme)) == json.dumps(reference_scheme_to_json(scheme))


def test_save_load_round_trip_keeps_the_narrow_table_and_array(tmp_path, all_bundles, c601):
    for scheme in [bundle.scheme for bundle in all_bundles] + [c601]:
        path = tmp_path / "scheme.json"
        tw.save_scheme(scheme, path)
        loaded = tw.load_scheme(path)
        assert loaded.relation.dtype == scheme.relation.dtype == class_dtype(scheme.D)
        assert np.array_equal(loaded.relation, scheme.relation)
        assert not loaded.relation.flags.writeable
        pp, again = scheme.tensor.pp, loaded.tensor.pp
        assert all(np.array_equal(getattr(again, f), getattr(pp, f)) for f in "cab")
        assert np.array_equal(loaded.tensor.k, scheme.tensor.k)
    assert c601.relation.dtype == np.int16
    assert all(bundle.scheme.relation.dtype == np.int8 for bundle in all_bundles)


def test_class_dtype_is_the_narrowest_signed_type():
    assert [class_dtype(D) for D in (0, 127, 128, 32767, 32768)] == [np.int8, np.int8, np.int16, np.int16, np.int32]
    # a BFS past 127 levels widens its table: the path on 130 vertices has diameter 129
    path = [[w for w in (v - 1, v + 1) if 0 <= w < 130] for v in range(130)]
    assert distance_relation(path).dtype == np.int16
    assert np.array_equal(distance_relation(path), reference_distance_relation(path))


C7_ADJACENCY = [[1, 6], [0, 2], [1, 3], [2, 4], [3, 5], [4, 6], [5, 0]]


@pytest.mark.parametrize(
    "kind, at, entry",
    [("distance_graph", (0, 1), 6.7), ("distance_graph", (0, 1), 6.0), ("distance_graph", (0, 1), "6"),
     ("distance_graph", (0, 0), True), ("explicit", (0, 1), 1.5), ("explicit", (0, 1), 1.0),
     ("explicit", (0, 1), "1"), ("explicit", (0, 1), True)],
)
def test_non_integer_entries_are_parse_errors(kind, at, entry):
    # each entry would read as the valid C_7 entry it replaces if it were truncated or cast
    rows = C7_ADJACENCY if kind == "distance_graph" else tw.odd_cycle(3).relation.tolist()
    rows = [list(row) for row in rows]
    rows[at[0]][at[1]] = entry
    field = "adjacency" if kind == "distance_graph" else "matrix"
    doc = {"n": 7, "D": 3, "relation": {"kind": kind, field: rows}}
    with pytest.raises(ParseError, match="not a JSON integer"):
        scheme_from_json(doc)


@pytest.mark.parametrize(
    "relation, message",
    [({"kind": "distance_graph", "adjacency": [[1, 10**30], [0]]}, "out of range"),
     ({"kind": "explicit", "matrix": [[0, 10**30], [1, 0]]}, "bad class matrix"),
     ({"kind": "distance_graph", "adjacency": [[1], 0]}, "list of lists"),
     ({"kind": "explicit", "matrix": None}, "list of lists")],
)
def test_malformed_entries_are_parse_errors(relation, message):
    with pytest.raises(ParseError, match=message):
        scheme_from_json({"n": 2, "D": 1, "relation": relation})


def test_odd_cycle_basic():
    for D in (1, 2, 3, 4):
        scheme = tw.odd_cycle(D)
        assert scheme.n == 2 * D + 1 and scheme.D == D
        assert scheme.tensor.k[1:].tolist() == [2] * D


def test_odd_cycle_invalid():
    with pytest.raises(InvalidParameter):
        tw.odd_cycle(0)


def test_odd_cycle_limits():
    with pytest.raises(ResourceLimit):
        tw.odd_cycle(2500)  # 5001 vertices


def test_odd_graph_o4():
    scheme = tw.odd_graph(3)
    assert scheme.n == 35 and scheme.D == 3
    assert scheme.tensor.k[1] == 4
    pp = tw.intersection_array(scheme.tensor)
    assert pp.a.tolist() == [0, 0, 0, 2]
    assert tw.is_almost_bipartite(pp)


def test_odd_graph_petersen():
    scheme = tw.odd_graph(2)
    assert scheme.n == 10 and scheme.D == 2
    assert scheme.tensor.k[1] == 3


def test_odd_graph_limits():
    with pytest.raises(InvalidParameter):
        tw.odd_graph(1)
    with pytest.raises(ResourceLimit):
        tw.odd_graph(8)  # C(17, 8) = 24310 vertices


def test_folded_cube_families():
    fc7 = tw.folded_cube(3)
    assert fc7.n == 64 and fc7.D == 3 and fc7.tensor.k[1] == 7
    assert tw.is_almost_bipartite(tw.intersection_array(fc7.tensor))
    clebsch = tw.folded_cube(2)
    assert clebsch.n == 16 and clebsch.D == 2 and clebsch.tensor.k[1] == 5


def test_folded_cube_limits():
    with pytest.raises(InvalidParameter):
        tw.folded_cube(1)
    with pytest.raises(ResourceLimit):
        tw.folded_cube(7)  # 2^14 = 16384 vertices


def test_generated_schemes_validate(all_bundles):
    for bundle in all_bundles:
        assert bundle.scheme.tensor is not None
        assert int(bundle.scheme.relation.max()) == bundle.scheme.D


def test_round_trip_distance_graph(tmp_path, c7):
    path = tmp_path / "c7.json"
    tw.save_scheme(c7.scheme, path)
    doc = json.loads(path.read_text())
    assert doc["relation"]["kind"] == "distance_graph"
    loaded = tw.load_scheme(path)
    assert np.array_equal(loaded.relation, c7.scheme.relation)


def test_scheme_to_json_runs_the_bfs_only_on_uncertified_tables(monkeypatch):
    # a certified array proves the table is the class-1 distance table; a
    # relabeled table carries none, and the BFS decides its kind
    from terwlab import generators
    from terwlab.scheme import relabel_classes

    certified = (tw.odd_cycle(5), tw.odd_graph(3), tw.folded_cube(3))
    c7 = tw.odd_cycle(3)
    relabeled = [relabel_classes(c7, order) for order in ((0, 2, 3, 1), (0, 1, 3, 2))]
    calls = []

    def spy(adjacency):
        calls.append(len(adjacency))
        return distance_relation(adjacency)

    monkeypatch.setattr(generators, "distance_relation", spy)
    for scheme in certified:
        doc = scheme_to_json(scheme)
        assert doc["relation"]["kind"] == "distance_graph"
        assert np.array_equal(distance_relation(doc["relation"]["adjacency"]), scheme.relation)
    assert calls == []
    assert [scheme_to_json(s)["relation"]["kind"] for s in relabeled] == ["distance_graph", "explicit"]
    assert calls == [7, 7]


def test_round_trip_explicit():
    scheme = tw.validate_scheme([[0]])
    doc = scheme_to_json(scheme)
    assert doc["relation"]["kind"] == "explicit"
    again = scheme_from_json(doc)
    assert again.n == 1 and again.D == 0


def test_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        tw.load_scheme(path)


def test_missing_file():
    with pytest.raises(ParseError):
        tw.load_scheme("/nonexistent/scheme.json")


def test_wrong_declared_diameter(tmp_path, c7):
    doc = scheme_to_json(c7.scheme)
    doc["D"] = 2
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError):
        tw.load_scheme(path)


def test_disconnected_graph_rejected():
    with pytest.raises(ParseError):
        tw.scheme_from_graph([[1], [0], [3], [2]])


def test_non_distance_regular_graph_rejected():
    from terwlab.errors import AxiomViolation

    # the path on four vertices has non-constant triple counts
    with pytest.raises(AxiomViolation) as err:
        tw.scheme_from_graph([[1], [0, 2], [1, 3], [2]])
    assert err.value.axiom == "iv"


def test_out_of_range_neighbor(tmp_path):
    path = tmp_path / "oob.json"
    path.write_text(json.dumps({"n": 2, "D": 1, "relation": {"kind": "distance_graph", "adjacency": [[1], [5]]}}))
    with pytest.raises(ParseError):
        tw.load_scheme(path)


def test_unknown_family():
    with pytest.raises(InvalidParameter):
        tw.generators.generate("hypercube", 3)


def test_bfs_diameter_matches_D(all_bundles):
    for bundle in all_bundles:
        rel = bundle.scheme.relation
        assert int(rel.max()) == bundle.scheme.D


# sha256 of the files `terwlab gen` wrote when the builders ran the BFS; the closed forms write the same bytes
PINNED_FILES = {
    ("odd_graph", 4): "97b70bb663d2fff494edc916f565f33f2373087761f4c44a8910dc178d786110",
    ("odd_graph", 5): "67b396f8b8ef3d33bbc3057549eabec2c956dc55a1c4bcfcc48c8dc2c4c80d19",
    ("folded_cube", 4): "8c2cdd2f048df960748a0fc49bdf904a2f595dc83f1eccea5bb69166c118f90f",
    ("odd_cycle", 18): "8717b4449e5fd99083fcd311a5ac8ca3c6d96acfc8370f37a210b910ce6e5507",
    ("odd_cycle", 300): "cf4da7a2ed06987375d21d137cb67fef39902a7496d96c90707aa66c6a10a193",
}


@pytest.mark.parametrize("family, D", sorted(PINNED_FILES))
def test_gen_files_are_pinned(family, D, tmp_path):
    path = tmp_path / "scheme.json"
    tw.save_scheme(generators.generate(family, D), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_FILES[family, D]
