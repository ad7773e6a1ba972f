"""Shared pipelines for the five standard test schemes.

Each bundle carries the validated scheme, its spectral data, the context
at base vertex 0, the measured module decomposition, and the solved
multiplicity table.  Building them once per session keeps the suite fast.
Tests that compare with the dense idempotents build them with
:func:`dense_idempotents`; the program never holds that stack.  Nor does
it hold A as an n x n matrix or the split operators: tests that read A,
R, F, L or R*, F*, L* as n x n matrices build them with
:func:`dense_adjacency`, :func:`split_operators` and
:func:`dense_dual_operators`, and tests that change A rebuild the
context's shell blocks from the changed matrix with :func:`with_adjacency`.
"""

from dataclasses import dataclass, replace

import numpy as np
import pytest

import terwlab as tw
from terwlab.context import shell_blocks


def dense_idempotents(spectral):
    """The (D+1, n, n) stack of primitive idempotents, E_j = Q[j, relation] / n."""
    return spectral.Q[:, spectral.relation] / spectral.n


def dense_adjacency(ctx):
    """The n x n class-1 adjacency A, from the relation in P-order."""
    return (ctx.spectral.relation == 1).astype(np.float64)


def with_adjacency(ctx, A):
    """``ctx`` with its shell blocks rebuilt from the n x n matrix ``A``."""
    return replace(ctx, blocks=shell_blocks(A, ctx.dist, ctx.D))


def split_operators(ctx, A=None):
    """Dense R, F, L: the entries of A with dist(y) - dist(z) = 1, 0, -1.

    ``A`` is the n x n adjacency, :func:`dense_adjacency` when None.
    """
    A = dense_adjacency(ctx) if A is None else A
    step = ctx.dist[:, None] - ctx.dist[None, :]
    return tuple(A * (step == s) for s in (1, 0, -1))


def dense_dual_operators(ctx, Astar=None):
    """Dense R*, F*, L*: sum_i E_{i+s} A* E_i for s = 1, 0, -1, with the dense idempotents.

    ``Astar`` is the n x n dual adjacency, diag(ctx.Astar) when None.
    """
    E, D = dense_idempotents(ctx.spectral), ctx.D
    Astar = np.diag(ctx.Astar) if Astar is None else Astar
    ops = []
    for s in (1, 0, -1):
        ops.append(sum((E[i + s] @ Astar @ E[i] for i in range(D + 1) if 0 <= i + s <= D),
                       np.zeros((ctx.n, ctx.n))))
    return tuple(ops)


@dataclass(frozen=True)
class Bundle:
    name: str
    scheme: object
    spectral: object
    ctx: object
    modules: tuple
    table: object


def _build(name, scheme) -> Bundle:
    spectral = tw.spectral_data(scheme)
    ctx = tw.build_context(scheme, spectral, 0)
    modules = tuple(tw.decompose(ctx, seed=0))
    table = tw.solve_multiplicities(spectral)
    return Bundle(name=name, scheme=scheme, spectral=spectral, ctx=ctx,
                  modules=modules, table=table)


@pytest.fixture(scope="session")
def c7():
    return _build("C7", tw.odd_cycle(3))


@pytest.fixture(scope="session")
def c9():
    return _build("C9", tw.odd_cycle(4))


@pytest.fixture(scope="session")
def o4():
    return _build("O4", tw.odd_graph(3))


@pytest.fixture(scope="session")
def fc7():
    return _build("FC7", tw.folded_cube(3))


@pytest.fixture(scope="session")
def fc9():
    return _build("FC9", tw.folded_cube(4))


@pytest.fixture(scope="session")
def all_bundles(c7, c9, o4, fc7, fc9):
    return (c7, c9, o4, fc7, fc9)


@pytest.fixture(scope="session")
def cycle_contexts():
    """Contexts at vertex 0 of the odd cycles C_{2D+1}, D = 3..30, keyed by name.

    The eigenvalue gaps of C_{2D+1} shrink like 1/D^2, so the ladder reaches
    the thinnest margins of the gates that divide by a gap.
    """
    contexts = {}
    for D in range(3, 31):
        scheme = tw.odd_cycle(D)
        contexts[f"C{2 * D + 1}"] = tw.build_context(scheme, tw.spectral_data(scheme), 0)
    return contexts


@pytest.fixture(scope="session")
def petersen_line_graph():
    """The line graph of the Petersen graph: P-polynomial but not Q-polynomial."""
    from itertools import combinations

    pverts = list(combinations(range(5), 2))
    pedges = [
        (i, j)
        for i in range(10)
        for j in range(i + 1, 10)
        if not (set(pverts[i]) & set(pverts[j]))
    ]
    adj = [
        [k for k, f in enumerate(pedges) if k != idx and (set(e) & set(f))]
        for idx, e in enumerate(pedges)
    ]
    return tw.scheme_from_graph(adj)
