"""Concrete scheme families and scheme file I/O.

Three distance-regular families serve as test instances: odd cycles
C_{2D+1}, Odd graphs (Kneser graphs K(2D+1, D)), and folded (2D+1)-cubes.
Each generator writes its distance table from the family's closed form
(Brouwer-Cohen-Neumaier, *Distance-Regular Graphs*, ch. 9), one row block
of whole-array operations at a time, with no neighbour array and no BFS,
and runs the axiom validation, which must certify the table as the
distance table of its class-1 graph.  The table is held in the narrowest
signed integer type that holds D (``scheme.class_dtype``: int8 while
D < 128).  Loading a ``distance_graph`` file, or building a scheme from a
user's graph (:func:`scheme_from_graph`), runs the BFS of
:func:`distance_relation`.

Scheme files are JSON::

    {"n": 7, "D": 3, "relation": {"kind": "distance_graph",
                                  "adjacency": [[1, 6], [0, 2], ...]}}
    {"n": 1, "D": 0, "relation": {"kind": "explicit", "matrix": [[0]]}}

Class indices are 0-based integers; for ``distance_graph`` the classes are
BFS distances in the listed graph.  Every neighbour and every class entry
must be a JSON integer: a float, a string or a boolean is a
:class:`ParseError`, and so is a neighbour list that names its own vertex
or one neighbour twice.  Neighbour lists of equal length are read into one
array; ragged lists, which no scheme file of this module writes, are read
as lists.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import InvalidParameter, NumericalCheckFailure, ParseError, ResourceLimit
from .scheme import AssociationScheme, _row_blocks, class_dtype, validate_scheme

#: refuse to build instances larger than this many vertices
DEFAULT_VERTEX_CAP = 5000


def distance_relation(adjacency) -> np.ndarray:
    """BFS distance table of a connected graph, read-only, in :func:`class_dtype` of its diameter.

    ``adjacency`` is an n x k integer array of neighbour lists of equal
    length, or a list of n lists of any lengths.  The searches from all n
    sources run at once, one level per step, on the transposed table: entry
    (w, s) is the distance from s to w, and row w of the bool array
    ``front`` marks the sources whose search reaches w at the current
    level.  The next frontier is the OR, over the in-neighbours v of w (the
    vertices that list w), of the gathered rows ``front[v]``, less what is
    already reached.  The in-neighbour lists are padded with w itself; a
    padded slot gathers w's own frontier row, which is already reached.  On
    symmetric lists the in-neighbours are the neighbours.  Each level adds
    1 to every pair still unreached, so a pair ends at its distance.  A
    connected graph of diameter D takes D levels of one gather per slot.
    The levels are counted in the unsigned type that holds n; the result
    is one transposed copy in :func:`class_dtype` of the diameter.

    A list that names its own vertex, or one neighbour twice, raises
    :class:`ParseError` before the search: the distances would be those
    of the simple graph, and the table would be certified for a graph
    other than the one listed.  The first such vertex is named, a
    self-loop before a repeat.
    """
    if isinstance(adjacency, np.ndarray):
        n, k = adjacency.shape
        src = np.repeat(np.arange(n), k)
        dst = adjacency.ravel().astype(np.int64)
    else:
        n = len(adjacency)
        src = np.repeat(np.arange(n), [len(row) for row in adjacency])
        dst = np.array([w for row in adjacency for w in row], dtype=np.int64)
    loop = src == dst
    if loop.any():
        raise ParseError(f"vertex {src[loop.argmax()]} lists itself as a neighbour")
    arcs = np.sort(src * n + dst)
    twice = arcs[1:] == arcs[:-1]
    if twice.any():
        v, w = divmod(int(arcs[twice.argmax()]), n)
        raise ParseError(f"vertex {v} lists neighbour {w} more than once")
    order = np.argsort(dst, kind="stable")
    indeg = np.bincount(dst, minlength=n)
    slots = np.arange(len(dst)) - np.repeat(np.cumsum(indeg) - indeg, indeg)
    into = np.tile(np.arange(n), (max(1, int(indeg.max(initial=0))), 1))
    into[slots, dst[order]] = src[order]
    rel = np.zeros((n, n), dtype=np.min_scalar_type(n))
    front = np.eye(n, dtype=bool)
    unreached = ~front
    level = 0
    while unreached.any():
        nxt = front[into[0]]
        for vs in into[1:]:
            nxt |= front[vs]
        nxt &= unreached
        if not nxt.any():
            x, y = map(int, np.argwhere(unreached.T)[0])
            raise ParseError(f"graph is disconnected: no path from {x} to {y}")
        rel += unreached
        level += 1
        unreached ^= nxt
        front = nxt
    dist = rel.T.astype(class_dtype(level), order="C")
    dist.flags.writeable = False
    return dist


def scheme_from_graph(adjacency) -> AssociationScheme:
    """Distance scheme of a connected graph, validated; ``adjacency`` as :func:`distance_relation` takes it."""
    return validate_scheme(distance_relation(adjacency))


def _closed_form_scheme(name: str, D: int, labels: np.ndarray, distance) -> AssociationScheme:
    """The certified distance scheme whose table is ``distance(labels[x], labels[y])``.

    The table is filled one row block (:func:`~terwlab.scheme._row_blocks`)
    at a time, each by one whole-array call on a column of the block's
    labels against all of them, in :func:`class_dtype` of ``D``, and is
    held read-only.  Its class-1 graph is the family's graph, so the
    certificate of :func:`validate_scheme` proves it is that graph's
    distance table (see :func:`scheme_to_json`).  A table that misses the
    certificate or has another diameter is a wrong closed form, and raises
    :class:`NumericalCheckFailure` instead of passing as some other scheme.
    """
    n = len(labels)
    rel = np.empty((n, n), dtype=class_dtype(D))
    for rows in _row_blocks(n):
        rel[rows] = distance(labels[rows, None], labels)
    rel.flags.writeable = False
    scheme = validate_scheme(rel)
    if scheme.tensor.pp is None or scheme.D != D:
        raise NumericalCheckFailure(f"{name}(D={D}): closed form is not a certified distance table of diameter D")
    return scheme


def odd_cycle(D: int) -> AssociationScheme:
    """Distance scheme of the cycle on n = 2D+1 vertices: d(i, j) = min(|i - j|, n - |i - j|)."""
    if D < 1:
        raise InvalidParameter(f"odd_cycle needs D >= 1, got {D}")
    n = 2 * D + 1
    if n > DEFAULT_VERTEX_CAP:
        raise ResourceLimit(f"odd_cycle(D={D}) has {n} vertices, cap is {DEFAULT_VERTEX_CAP}")

    def distance(x, y):
        gap = np.abs(x - y)
        return np.minimum(gap, n - gap)

    return _closed_form_scheme("odd_cycle", D, np.arange(n, dtype=class_dtype(n)), distance)


def odd_graph(D: int) -> AssociationScheme:
    """Distance scheme of the Kneser graph K(2D+1, D).

    Vertices are the D-subsets of a (2D+1)-set in colexicographic order,
    which is the numeric order of their bitmasks, adjacent when disjoint.
    Two subsets that meet in s points are at distance min(2(D - s), 2s + 1)
    (Brouwer-Cohen-Neumaier, *Distance-Regular Graphs*, ch. 9).
    """
    if D < 2:
        raise InvalidParameter(f"odd_graph needs D >= 2, got {D}")
    n = math.comb(2 * D + 1, D)
    if n > DEFAULT_VERTEX_CAP:
        raise ResourceLimit(f"odd_graph(D={D}) has {n} vertices, cap is {DEFAULT_VERTEX_CAP}")
    strings = 1 << (2 * D + 1)
    bits = np.arange(strings, dtype=np.min_scalar_type(strings))  # uint16 for 4 <= D <= 7
    masks = bits[np.bitwise_count(bits) == D]

    def distance(x, y):
        shared = np.bitwise_count(x & y)  # uint8: every count and distance is at most 2D + 1
        return np.minimum(2 * (D - shared), 2 * shared + 1)

    return _closed_form_scheme("odd_graph", D, masks, distance)


def folded_cube(D: int) -> AssociationScheme:
    """Distance scheme of the folded (2D+1)-dimensional hypercube.

    Vertices are antipodal pairs of (2D+1)-bit strings, represented by the
    member with bit 0 clear, whose index is the string shifted right by
    one; two vertices are adjacent when their representatives differ in
    one coordinate, possibly after complementing.  Representatives at
    Hamming distance w are at distance min(w, 2D + 1 - w), and w is the
    popcount of the XOR of the indices.
    """
    if D < 2:
        raise InvalidParameter(f"folded_cube needs D >= 2, got {D}")
    nbits = 2 * D + 1
    n = 1 << (nbits - 1)
    if n > DEFAULT_VERTEX_CAP:
        raise ResourceLimit(f"folded_cube(D={D}) has {n} vertices, cap is {DEFAULT_VERTEX_CAP}")

    def distance(x, y):
        w = np.bitwise_count(x ^ y)
        return np.minimum(w, nbits - w)

    return _closed_form_scheme("folded_cube", D, np.arange(n, dtype=np.min_scalar_type(n)), distance)


def load_scheme(path) -> AssociationScheme:
    """Read and validate a scheme file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON in {path}: {exc}") from exc
    return scheme_from_json(doc)


def _integer_entries(rows, what: str) -> list[int]:
    """The entries of ``rows`` in row order; ParseError unless it is a list of
    lists of JSON integers (booleans are not)."""
    if not isinstance(rows, list) or not set(map(type, rows)) <= {list}:
        raise ParseError(f"bad {what}: expected a list of lists of integers")
    entries = list(chain.from_iterable(rows))
    if not set(map(type, entries)) <= {int}:
        bad = next(w for w in entries if type(w) is not int)
        raise ParseError(f"bad {what} entry {bad!r}: not a JSON integer")
    return entries


def scheme_from_json(doc) -> AssociationScheme:
    """Build a scheme from the parsed JSON document."""
    try:
        n, D = doc["n"], doc["D"]
        relation = doc["relation"]
        kind = relation["kind"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"scheme document missing required fields: {exc}") from exc
    for field, value in (("n", n), ("D", D)):
        if type(value) is not int:  # the rule of _integer_entries: booleans are not integers
            raise ParseError(f"bad {field} {value!r}: not a JSON integer")

    if kind == "distance_graph":
        adjacency = relation.get("adjacency")
        if not isinstance(adjacency, list) or len(adjacency) != n:
            raise ParseError(f"adjacency must list {n} neighbor lists")
        arcs = _integer_entries(adjacency, "adjacency")
        if arcs and (min(arcs) < 0 or max(arcs) >= n):
            raise ParseError("adjacency references a vertex out of range")
        if len(set(map(len, adjacency))) == 1:
            adjacency = np.array(arcs, dtype=np.int64).reshape(n, -1)
        rel = distance_relation(adjacency)
    elif kind == "explicit":
        matrix = relation.get("matrix")
        _integer_entries(matrix, "class matrix")
        try:
            rel = np.array(matrix, dtype=np.int64)
        except (OverflowError, ValueError) as exc:
            raise ParseError(f"bad class matrix: {exc}") from exc
        if rel.shape != (n, n):
            raise ParseError(f"class matrix has shape {rel.shape}, expected ({n}, {n})")
    else:
        raise ParseError(f"unknown relation kind {kind!r}")

    if int(rel.max(initial=0)) != D:
        raise ParseError(f"declared D={D} but relation table has max class {int(rel.max(initial=0))}")
    return validate_scheme(rel)


def scheme_to_json(scheme: AssociationScheme) -> dict:
    """JSON document for a scheme; distance schemes serialize as graphs.

    The adjacency lists are read off ``relation == 1`` in one pass, as an
    n x k array: every class of a scheme is regular, class 1 of valency k.
    A table is a distance table when a BFS of its class-1 graph gives it
    back; a disconnected class-1 graph gives none, and the scheme is
    written as its explicit matrix.  A scheme whose array is certified
    (``tensor.pp``) needs no BFS: c_h > 0 gives every pair of class h a
    neighbour one class closer, so the distance is at most the class, and a
    step along an edge changes the class by at most one, so the class is at
    most the distance.
    """
    rel = scheme.relation
    if scheme.D >= 1:
        adjacency = (np.flatnonzero(rel == 1) % scheme.n).reshape(scheme.n, -1)
        if scheme.tensor.pp is not None or _is_distance_table(adjacency, rel):
            return {
                "n": scheme.n,
                "D": scheme.D,
                "relation": {"kind": "distance_graph", "adjacency": adjacency.tolist()},
            }
    return {
        "n": scheme.n,
        "D": scheme.D,
        "relation": {"kind": "explicit", "matrix": rel.tolist()},
    }


def _is_distance_table(adjacency, rel: np.ndarray) -> bool:
    try:
        return np.array_equal(distance_relation(adjacency), rel)
    except ParseError:  # the class-1 graph is disconnected
        return False


def save_scheme(scheme: AssociationScheme, path) -> None:
    Path(path).write_text(json.dumps(scheme_to_json(scheme)) + "\n")


FAMILIES = {
    "odd_cycle": odd_cycle,
    "odd_graph": odd_graph,
    "folded_cube": folded_cube,
}


def generate(family: str, D: int) -> AssociationScheme:
    """Dispatch on family name; raises InvalidParameter for unknown names."""
    try:
        builder = FAMILIES[family]
    except KeyError:
        raise InvalidParameter(
            f"unknown family {family!r}; choose from {sorted(FAMILIES)}"
        ) from None
    return builder(D)
