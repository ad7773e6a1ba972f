"""Concrete scheme families and scheme file I/O.

Three distance-regular families serve as test instances: odd cycles
C_{2D+1}, Odd graphs (Kneser graphs K(2D+1, D)), and folded (2D+1)-cubes.
Each generator builds the graph, takes its distance partition, and runs
the axiom validation.

Scheme files are JSON::

    {"n": 7, "D": 3, "relation": {"kind": "distance_graph",
                                  "adjacency": [[1, 6], [0, 2], ...]}}
    {"n": 1, "D": 0, "relation": {"kind": "explicit", "matrix": [[0]]}}

Class indices are 0-based integers; for ``distance_graph`` the classes are
BFS distances in the listed graph.
"""

from __future__ import annotations

import json
from itertools import combinations
from pathlib import Path

import numpy as np

from .errors import InvalidParameter, ParseError, ResourceLimit
from .scheme import AssociationScheme, validate_scheme

#: refuse to build instances larger than this many vertices
DEFAULT_VERTEX_CAP = 5000


def distance_relation(adjacency: list[list[int]]) -> np.ndarray:
    """BFS distance table of a connected graph given as adjacency lists.

    The searches from all n sources run at once, one level per step, on
    the transposed table: entry (w, s) is the distance from s to w, and row
    w of the bool array ``front`` marks the sources whose search reaches w
    at the current level.  The next frontier is the OR, over the
    in-neighbours v of w (the vertices that list w), of the gathered rows
    ``front[v]``, less what is already reached.  The in-neighbour lists are
    padded with w itself; a padded slot gathers w's own frontier row, which
    is already reached.  On symmetric lists the in-neighbours are the
    neighbours.  Each level adds 1 to every pair still unreached, so a pair
    ends at its distance.  A connected graph of diameter D takes D levels
    of one gather per slot.
    """
    n = len(adjacency)
    src = np.repeat(np.arange(n), [len(row) for row in adjacency])
    dst = np.array([w for row in adjacency for w in row], dtype=np.int64)
    order = np.argsort(dst, kind="stable")
    indeg = np.bincount(dst, minlength=n)
    slots = np.arange(len(dst)) - np.repeat(np.cumsum(indeg) - indeg, indeg)
    into = np.tile(np.arange(n), (max(1, int(indeg.max(initial=0))), 1))
    into[slots, dst[order]] = src[order]
    rel = np.zeros((n, n), dtype=np.min_scalar_type(n))
    front = np.eye(n, dtype=bool)
    unreached = ~front
    while unreached.any():
        nxt = front[into[0]]
        for vs in into[1:]:
            nxt |= front[vs]
        nxt &= unreached
        if not nxt.any():
            x, y = map(int, np.argwhere(unreached.T)[0])
            raise ParseError(f"graph is disconnected: no path from {x} to {y}")
        rel += unreached
        unreached ^= nxt
        front = nxt
    return rel.T.astype(np.int64, order="C")


def scheme_from_graph(adjacency: list[list[int]]) -> AssociationScheme:
    """Distance scheme of a connected graph, validated."""
    return validate_scheme(distance_relation(adjacency))


def odd_cycle(D: int) -> AssociationScheme:
    """Distance scheme of the cycle on 2D+1 vertices."""
    if D < 1:
        raise InvalidParameter(f"odd_cycle needs D >= 1, got {D}")
    n = 2 * D + 1
    if n > DEFAULT_VERTEX_CAP:
        raise ResourceLimit(f"odd_cycle(D={D}) has {n} vertices, cap is {DEFAULT_VERTEX_CAP}")
    return scheme_from_graph([[(i - 1) % n, (i + 1) % n] for i in range(n)])


def _odd_graph_adjacency(D: int) -> list[list[int]]:
    """Adjacency lists of K(2D+1, D): D-subsets in colexicographic order,
    adjacent when disjoint, tested on their bitmasks all at once."""
    verts = sorted(combinations(range(2 * D + 1), D), key=lambda s: tuple(reversed(s)))
    masks = np.array([sum(1 << e for e in v) for v in verts], dtype=np.int64)
    disjoint = (masks[:, None] & masks[None, :]) == 0
    return [np.flatnonzero(row).tolist() for row in disjoint]


def odd_graph(D: int) -> AssociationScheme:
    """Distance scheme of the Kneser graph K(2D+1, D).

    Vertices are the D-subsets of a (2D+1)-set in colexicographic order,
    adjacent when disjoint.  The graph has diameter D.
    """
    if D < 2:
        raise InvalidParameter(f"odd_graph needs D >= 2, got {D}")
    import math

    n = math.comb(2 * D + 1, D)
    if n > DEFAULT_VERTEX_CAP:
        raise ResourceLimit(f"odd_graph(D={D}) has {n} vertices, cap is {DEFAULT_VERTEX_CAP}")
    scheme = scheme_from_graph(_odd_graph_adjacency(D))
    if scheme.D != D:
        raise InvalidParameter(f"odd_graph(D={D}) has diameter {scheme.D}")
    return scheme


def folded_cube(D: int) -> AssociationScheme:
    """Distance scheme of the folded (2D+1)-dimensional hypercube.

    Vertices are antipodal pairs of (2D+1)-bit strings, represented by the
    member with bit 0 clear; two vertices are adjacent when their
    representatives differ in one coordinate, possibly after complementing.
    """
    if D < 2:
        raise InvalidParameter(f"folded_cube needs D >= 2, got {D}")
    nbits = 2 * D + 1
    n = 1 << (nbits - 1)
    if n > DEFAULT_VERTEX_CAP:
        raise ResourceLimit(f"folded_cube(D={D}) has {n} vertices, cap is {DEFAULT_VERTEX_CAP}")
    full = (1 << nbits) - 1
    reps = [v for v in range(1 << nbits) if not (v & 1)]
    index = {v: i for i, v in enumerate(reps)}
    adjacency = []
    for v in reps:
        nbrs = []
        for bit in range(nbits):
            w = v ^ (1 << bit)
            if w & 1:
                w ^= full
            nbrs.append(index[w])
        adjacency.append(nbrs)
    scheme = scheme_from_graph(adjacency)
    if scheme.D != D:
        raise InvalidParameter(f"folded_cube(D={D}) has diameter {scheme.D}")
    return scheme


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


def scheme_from_json(doc) -> AssociationScheme:
    """Build a scheme from the parsed JSON document."""
    try:
        n = int(doc["n"])
        D = int(doc["D"])
        relation = doc["relation"]
        kind = relation["kind"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"scheme document missing required fields: {exc}") from exc

    if kind == "distance_graph":
        adjacency = relation.get("adjacency")
        if not isinstance(adjacency, list) or len(adjacency) != n:
            raise ParseError(f"adjacency must list {n} neighbor lists")
        try:
            adjacency = [[int(w) for w in row] for row in adjacency]
        except (TypeError, ValueError) as exc:
            raise ParseError(f"bad adjacency entry: {exc}") from exc
        if any(w < 0 or w >= n for row in adjacency for w in row):
            raise ParseError("adjacency references a vertex out of range")
        rel = distance_relation(adjacency)
    elif kind == "explicit":
        matrix = relation.get("matrix")
        try:
            rel = np.array(matrix, dtype=np.int64)
        except (TypeError, ValueError) as exc:
            raise ParseError(f"bad class matrix: {exc}") from exc
        if rel.shape != (n, n):
            raise ParseError(f"class matrix has shape {rel.shape}, expected ({n}, {n})")
    else:
        raise ParseError(f"unknown relation kind {kind!r}")

    if int(rel.max(initial=0)) != D:
        raise ParseError(f"declared D={D} but relation table has max class {int(rel.max())}")
    return validate_scheme(rel)


def scheme_to_json(scheme: AssociationScheme) -> dict:
    """JSON document for a scheme; distance schemes serialize as graphs.

    A table is a distance table when a BFS of its class-1 graph gives it
    back.  A scheme whose array is certified (``tensor.pp``) needs no BFS:
    c_h > 0 gives every pair of class h a neighbour one class closer, so
    the distance is at most the class, and a step along an edge changes the
    class by at most one, so the class is at most the distance.
    """
    rel = scheme.relation
    if scheme.D >= 1:
        adjacency = [sorted(int(w) for w in np.flatnonzero(rel[v] == 1)) for v in range(scheme.n)]
        if scheme.tensor.pp is not None or np.array_equal(distance_relation(adjacency), rel):
            return {
                "n": scheme.n,
                "D": scheme.D,
                "relation": {"kind": "distance_graph", "adjacency": adjacency},
            }
    return {
        "n": scheme.n,
        "D": scheme.D,
        "relation": {"kind": "explicit", "matrix": rel.tolist()},
    }


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
