import tracemalloc
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

import terwlab as tw
from conftest import dense_adjacency, dense_dual_operators, dense_idempotents, split_operators, with_adjacency
from terwlab.context import dual_blocks
from terwlab.errors import InvalidParameter, OrderingMissing
from terwlab.scheme import relabel_classes
from terwlab.spectral import _krein_support

#: the identity report of an almost-bipartite scheme, in report order; the
#: middle two are the band checks every scheme gets
IDENTITY_CHECKS = (
    "A E_i = theta_i E_i",
    "A = R + F + L",
    "Astar = Rstar + Fstar + Lstar",
    "F = Estar_D A Estar_D",
    "Estar_D A Estar_D != 0",
)


def test_estar_traces_are_valencies(c7):
    # shell sizes around any vertex equal the valencies
    assert np.bincount(c7.ctx.dist).tolist() == [1, 2, 2, 2]


def test_rfl_partition_exact(all_bundles):
    for bundle in all_bundles:
        R, F, L = split_operators(bundle.ctx)
        assert np.array_equal(dense_adjacency(bundle.ctx), R + F + L)
        assert np.array_equal(R, L.T)


def test_shell_blocks_reassemble_A(all_bundles, cycle_contexts):
    # the blocks and their transposes put back every entry of A; up[D] is
    # empty, and in these almost-bipartite schemes only the far shell has
    # a flat block
    contexts = {bundle.name: bundle.ctx for bundle in all_bundles} | cycle_contexts
    for name, ctx in contexts.items():
        shells, up, flat, off_band = ctx.blocks
        assert [S.tolist() for S in shells] == [np.flatnonzero(ctx.dist == s).tolist() for s in range(ctx.D + 1)]
        assert up[ctx.D].shape == (0, shells[ctx.D].size)
        assert [F is None for F in flat] == [True] * ctx.D + [False], name
        A = np.zeros((ctx.n, ctx.n))
        for s in range(ctx.D):
            A[np.ix_(shells[s + 1], shells[s])] = up[s]
            A[np.ix_(shells[s], shells[s + 1])] = up[s].T
        A[np.ix_(shells[ctx.D], shells[ctx.D])] = flat[ctx.D]
        assert np.array_equal(A, dense_adjacency(ctx)) and off_band == 0.0, name


@pytest.mark.parametrize("make", [tw.odd_graph, tw.folded_cube])
def test_context_holds_under_nine_tenths_n2_floats(make):
    # R*'s blocks of N are 0.21 n^2 float64 on O_5 and 0.24 n^2 on FC_9,
    # the shell blocks 0.39 n^2 and 0.46 n^2: the context holds no n x n A
    # or N and no far block of N, and building it makes no n x n scaled
    # copy of U
    scheme = make(5 if make is tw.odd_graph else 4)
    sp = tw.spectral_data(scheme)
    tracemalloc.start()
    try:
        ctx = tw.build_context(scheme, sp, 0)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ctx.identities.all_passed
    assert held <= 0.9 * 8 * scheme.n ** 2
    assert peak <= 1.3 * 8 * scheme.n ** 2


def test_identities_all_pass_two_vertices(all_bundles):
    for bundle in all_bundles:
        for x in (0, bundle.scheme.n // 2):
            ctx = tw.build_context(bundle.scheme, bundle.spectral, x)
            report = tw.verify_operator_identities(ctx)
            assert report.all_passed, (bundle.name, x)
            assert report.max_residual < 1e-9 * bundle.scheme.n


def test_exchange_identity_o4(o4):
    ctx = o4.ctx
    R, _, _ = split_operators(ctx)
    lhs = R * (ctx.dist == 1)[None, :]
    rhs = (ctx.dist == 2)[:, None] * R
    assert np.abs(lhs - rhs).max() < 1e-9


def test_dual_adjacency_eigenvalues(all_bundles):
    for bundle in all_bundles:
        ctx = bundle.ctx
        ths = bundle.spectral.theta_star
        for i in range(bundle.scheme.D + 1):
            resid = (ctx.Astar - ths[i]) * (ctx.dist == i)
            assert np.abs(resid).max() < 1e-9 * bundle.scheme.n


def test_dual_class_sum(all_bundles):
    for bundle in all_bundles:
        ctx = bundle.ctx
        total = bundle.spectral.Q[:, ctx.dist].sum(axis=0)
        assert np.abs(total - bundle.scheme.n * (ctx.dist == 0)).max() < 1e-9 * bundle.scheme.n


def test_flat_part_lives_on_far_shell(fc7):
    ctx = fc7.ctx
    D = fc7.scheme.D
    _, F, _ = split_operators(ctx)
    shell = ctx.dist == D
    far = shell[:, None] * dense_adjacency(ctx) * shell[None, :]
    assert np.abs(F - far).max() < 1e-10
    for i in range(D):
        assert np.abs(F * (ctx.dist == i)[None, :]).max() < 1e-10
    assert far.max() > 0.5


def test_base_vertex_covariance(o4):
    # vertex-transitive instance: identity residual profile matches across x
    reports = []
    for x in (0, 7, 20):
        ctx = tw.build_context(o4.scheme, o4.spectral, x)
        report = tw.verify_operator_identities(ctx)
        reports.append([c.passed for c in report.checks])
    assert reports[0] == reports[1] == reports[2]


def test_context_requires_q_ordering():
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
    scheme = tw.scheme_from_graph(adj)
    spectral = tw.spectral_data(scheme)
    with pytest.raises(OrderingMissing):
        tw.build_context(scheme, spectral, 0)


def test_vertex_out_of_range(c7):
    for x in (99, -1):
        with pytest.raises(InvalidParameter):
            tw.build_context(c7.scheme, c7.spectral, x)


def test_identity_report_names(all_bundles):
    # the five standard schemes are almost-bipartite; the 6-cycle is
    # bipartite and Q-polynomial, so it gets no far-shell checks; the
    # one-vertex scheme has no class 1 and gets the two band checks only
    for bundle in all_bundles:
        assert tuple(c.name for c in bundle.ctx.identities.checks) == IDENTITY_CHECKS, bundle.name
    hexagon = tw.scheme_from_graph([[(v - 1) % 6, (v + 1) % 6] for v in range(6)])
    for scheme, names in ((hexagon, IDENTITY_CHECKS[:3]), (tw.validate_scheme([[0]]), IDENTITY_CHECKS[1:3])):
        ctx = tw.build_context(scheme, tw.spectral_data(scheme), 0)
        assert tuple(c.name for c in ctx.identities.checks) == names


def _block_norms2(X: np.ndarray, sp) -> np.ndarray:
    """(D+1, D+1) squared Frobenius norms of the eigenspace blocks (j, i) of X."""
    starts = np.cumsum(sp.m) - sp.m
    return np.add.reduceat(np.add.reduceat(X * X, starts, axis=0), starts, axis=1)


def _triangle_counterexamples(ctx, zero_tol=1e-7):
    """Reference: the vanishing biconditionals for triple products at the base vertex.

    For every (h, i, j): p[h, i, j] = 0 iff E*_i A_j E*_h = 0, and
    q[h, i, j] = 0 iff E_i A*_j E_h = 0, with E*_i the mask ``dist == i``
    and A*_j = diag(Q[j, dist]).  The matrix side is exact (0/1 blocks).
    With E_i = U_i U_i^T, ||E_i A*_j E_h||_F = ||U_i^T A*_j U_h||_F; the
    Krein side compares those squared norms against ``zero_tol`` relative
    to the largest block, and the Krein parameters against the threshold
    of the Q-ordering search.  Returns the (h, i, j) of both sides that
    disagree.
    """
    sp, D, dist = ctx.spectral, ctx.D, ctx.dist
    p = relabel_classes(ctx.scheme, sp.p_ordering).tensor.p
    shells = [np.flatnonzero(dist == i) for i in range(D + 1)]
    bad_p = [
        (h, i, j)
        for j in range(D + 1)
        for i in range(D + 1)
        for h in range(D + 1)
        if (p[h, i, j] != 0) != bool((sp.relation[np.ix_(shells[i], shells[h])] == j).any())
    ]
    # frob2[h, i, j] is the squared norm of block (i, h) of U^T A*_j U
    frob2 = np.stack([_block_norms2(sp.U.T @ (sp.Q[j, dist][:, None] * sp.U), sp).T for j in range(D + 1)], axis=2)
    vanishing = frob2 > zero_tol * max(1.0, float(frob2.max()))
    bad_q = [tuple(int(v) for v in hij) for hij in np.argwhere(_krein_support(sp.krein) != vanishing)]
    return bad_p, bad_q


@pytest.mark.parametrize("which", ["c7", "o4"])
def test_triangle_vanishing(which, request):
    bundle = request.getfixturevalue(which)
    assert _triangle_counterexamples(bundle.ctx) == ([], [])


def test_triangle_vanishing_trivial_scheme():
    scheme = tw.validate_scheme([[0]])
    ctx = tw.build_context(scheme, tw.spectral_data(scheme), 0)
    assert _triangle_counterexamples(ctx) == ([], [])


def test_triangle_vanishing_fires_on_wrong_shells(c7):
    # vertices 1 and 2 swap shells: both sides find counterexamples
    dist = c7.ctx.dist.copy()
    dist[[1, 2]] = dist[[2, 1]]
    bad_p, bad_q = _triangle_counterexamples(replace(c7.ctx, dist=dist))
    assert bad_p and bad_q


def test_shell_ranks_cover_everything(all_bundles):
    for bundle in all_bundles:
        ranks = np.bincount(bundle.ctx.dist, minlength=bundle.scheme.D + 1)
        assert len(ranks) == bundle.scheme.D + 1 and int(ranks.sum()) == bundle.scheme.n


def _dual_step(ctx):
    """Eigenspace step j - i of each entry of N, which lies in block (j, i)."""
    lab = ctx.spectral.eigenspace_labels()
    return lab[:, None] - lab[None, :]


def _rounding(ctx):
    """Rounding scale of the dense products with the idempotents and A*."""
    return ctx.n * (1.0 + float(np.abs(ctx.Astar).max())) * np.finfo(np.float64).eps


def _eigenspaces(sp):
    """The column slice of each U_i in U."""
    ends = np.cumsum(sp.m).tolist()
    return [slice(e - m, e) for m, e in zip(sp.m.tolist(), ends)]


def _dense_N(ctx):
    """Reference: the whole n x n N = U^T A* U, by one dense product."""
    U = ctx.spectral.U
    return U.T @ (ctx.Astar[:, None] * U)


def _banded_N(ctx, below):
    """N on its three block bands: R*'s blocks ``below`` and their transposes, and F*'s blocks U_i^T A* U_i.

    The diagonal blocks are formed here, as the context does not hold them.
    """
    sp, N = ctx.spectral, np.zeros((ctx.n, ctx.n))
    blocks = _eigenspaces(sp)
    for i, s in enumerate(blocks):
        N[s, s] = sp.U[:, s].T @ (ctx.Astar[:, None] * sp.U[:, s])
        if i < ctx.D:
            N[blocks[i + 1], s] = below[i]
            N[s, blocks[i + 1]] = below[i].T
    return N


def _dense_trace_ladders(ctx, N):
    """Reference: the traces of E_t L*^d R*^d E_t by the walk of ``trace_ladders`` over the n x n ``N``."""
    sp = ctx.spectral
    lab, blocks = sp.eigenspace_labels(), _eigenspaces(sp)
    ladders = [[] for _ in range(sp.D + 1)]
    H = np.eye(int(sp.m[0]))
    for k in range(sp.D + 1):
        if k:
            H = np.hstack([N[blocks[k], blocks[k - 1]] @ H, np.eye(int(sp.m[k]))])
        for t, value in enumerate(np.bincount(lab[: blocks[k].stop], np.einsum("ij,ij->j", H, H)).tolist()):
            ladders[t].append(value)
    return ladders


def _identity(ctx, name):
    [check] = [c for c in tw.verify_operator_identities(ctx).checks if c.name == name]
    return check.residual


def test_held_blocks_are_dense_N_below_its_block_diagonal(all_bundles, cycle_contexts):
    # the context holds R*'s blocks (i+1, i) of N and the squared norm of
    # the far blocks below its block diagonal; mirrored, that norm is the
    # dense off-band norm.  On a basis rotated across eigenspaces, where
    # every block is far above rounding, dual_blocks still gives the dense
    # blocks and far norm, and the walk over R*'s blocks gives the dense
    # walk's traces
    name = "Astar = Rstar + Fstar + Lstar"
    rng = np.random.default_rng(6)
    contexts = {bundle.name: bundle.ctx for bundle in all_bundles} | cycle_contexts
    for key, ctx in contexts.items():
        sp, N, far = ctx.spectral, _dense_N(ctx), np.abs(_dual_step(ctx)) > 1
        blocks = _eigenspaces(sp)
        assert len(ctx.below) == ctx.D, key
        for B, s, r in zip(ctx.below, blocks, blocks[1:]):
            assert B.shape == (r.stop - r.start, s.stop - s.start) and B.base is None, key
            assert np.abs(B - N[r, s]).max() <= 1e-12 * ctx.n, key
        assert abs(_identity(ctx, name) - np.sqrt(np.sum(N[far] ** 2))) <= _rounding(ctx), key
        assert _identity(ctx, name) == np.sqrt(2 * ctx.far2), key
        for held, dense in zip(tw.trace_ladders(ctx), _dense_trace_ladders(ctx, N)):
            np.testing.assert_allclose(held, dense, rtol=1e-12, atol=0, err_msg=key)
        U = sp.U @ np.linalg.qr(rng.standard_normal((ctx.n, ctx.n)))[0]
        below, far2 = dual_blocks(U, sp.m, ctx.Astar)
        N = U.T @ (ctx.Astar[:, None] * U)
        for B, s, r in zip(below, blocks, blocks[1:]):
            assert np.abs(B - N[r, s]).max() <= 1e-12 * ctx.n, key
        assert far2 == pytest.approx(np.sum(np.tril(N)[far] ** 2), rel=1e-12), key
        rotated = replace(ctx, spectral=replace(sp, U=U), below=below, far2=far2)
        assert _identity(rotated, name) == pytest.approx(np.sqrt(np.sum(N[far] ** 2)), rel=1e-12), key
        for held, dense in zip(tw.trace_ladders(rotated), _dense_trace_ladders(rotated, N)):
            np.testing.assert_allclose(held, dense, rtol=1e-12, atol=0, err_msg=key)


def test_dual_operators_match_dense_idempotent_construction(all_bundles):
    # the bands of N, taken back to the standard basis, are the sums of
    # products with the dense idempotents: R* and L* from the held blocks,
    # F* from U_i^T A* U_i
    for bundle in all_bundles:
        ctx = bundle.ctx
        U, step, N = ctx.spectral.U, _dual_step(ctx), _banded_N(ctx, ctx.below)
        for dense, s in zip(dense_dual_operators(ctx), (1, 0, -1)):
            assert np.abs(dense - U @ (N * (step == s)) @ U.T).max() <= 1e-12 * ctx.n, bundle.name


def test_off_band_gate_bounds_dense_split_residual(all_bundles, fc7):
    # A* - R* - F* - L* with the dense idempotents: on the schemes it is
    # rounding, and noise on the far blocks of N, mirrored above the block
    # diagonal and held as its squared norm, lifts the gate far above
    # rounding while it still bounds the dense max norm
    name = "Astar = Rstar + Fstar + Lstar"
    for bundle in all_bundles:
        ctx = bundle.ctx
        dense = np.abs(np.diag(ctx.Astar) - sum(dense_dual_operators(ctx))).max()
        assert dense <= _identity(ctx, name) + _rounding(ctx), bundle.name
        assert _identity(ctx, name) <= 1e-9 * ctx.n, bundle.name
    ctx, U = fc7.ctx, fc7.spectral.U
    rng = np.random.default_rng(4)
    noise = np.tril(rng.standard_normal((ctx.n, ctx.n)) * 1e-4 * (np.abs(_dual_step(ctx)) > 1))
    perturbed = replace(ctx, far2=float(np.sum(noise ** 2)))
    Astar = U @ (_banded_N(ctx, ctx.below) + noise + noise.T) @ U.T
    dense = np.abs(Astar - sum(dense_dual_operators(ctx, Astar))).max()
    assert 1e-5 < dense <= _identity(perturbed, name)
    assert _identity(perturbed, name) > 1e-9 * ctx.n


def test_eigenvalue_identity_matches_dense_idempotents(all_bundles, cycle_contexts):
    # the Frobenius form in the bases bounds the dense max norm up to the
    # rounding of the dense E_i = Q[i, relation] / n and of A @ E_i: both
    # are rounding-level, and on C7 the dense one reads 1.235e-15 against
    # 1.220e-15, so the bound carries that rounding term explicitly.  The
    # reported residual is the largest of the spectral data's eig_residual,
    # whose entries are ||A U_i - theta_i U_i||_F as recomputed here
    eps = np.finfo(np.float64).eps
    contexts = {bundle.name: bundle.ctx for bundle in all_bundles} | cycle_contexts
    for name, ctx in contexts.items():
        sp = ctx.spectral
        E, A = dense_idempotents(sp), dense_adjacency(ctx)
        dense = max(np.abs(A @ E[i] - sp.theta[i] * E[i]).max() for i in range(sp.D + 1))
        rounding = ctx.n * (1.0 + float(np.abs(sp.theta).max())) * eps
        reported = _identity(ctx, "A E_i = theta_i E_i")
        assert dense <= reported + rounding, name
        assert reported <= 1e-9 * ctx.n, name
        lab = sp.eigenspace_labels()
        frobenius = [np.linalg.norm(A @ sp.U[:, lab == i] - sp.theta[i] * sp.U[:, lab == i])
                     for i in range(sp.D + 1)]
        assert np.abs(sp.eig_residual - frobenius).max() <= rounding, name
        assert reported == sp.eig_residual.max(), name


def _near_shell_loops(ctx, A):
    """Reference: F E*_i and E*_i A E*_i on the near shells i < D, as D masked n x n passes each."""
    shells = [ctx.dist == i for i in range(ctx.D)]
    _, F, _ = split_operators(ctx, A)
    flat = max((np.abs(F * s[None, :]).max() for s in shells), default=0.0)
    inner = max((np.abs(s[:, None] * A * s[None, :]).max() for s in shells), default=0.0)
    return flat, inner


def test_near_shell_checks_match_shell_loops(all_bundles):
    # F - E*_D A E*_D keeps the entries of A inside one near shell: the
    # entries that F E*_i = 0 and E*_i A E*_i = 0 for i < D read as well
    for bundle in all_bundles:
        residual = _identity(bundle.ctx, "F = Estar_D A Estar_D")
        assert (residual, residual) == _near_shell_loops(bundle.ctx, dense_adjacency(bundle.ctx)) == (0.0, 0.0)


def test_near_shell_checks_match_shell_loops_on_perturbed_operators(o4, fc9):
    # every entry nonzero and of a different size: the far-shell check fires,
    # and reads the loops' maxima to the bit; F is the mask of the perturbed A
    rng = np.random.default_rng(3)
    for bundle in (o4, fc9):
        ctx = bundle.ctx
        A = dense_adjacency(ctx) + rng.uniform(-1e-3, 1e-3, (ctx.n, ctx.n))
        residual = _identity(with_adjacency(ctx, A), "F = Estar_D A Estar_D")
        assert (residual, residual) == _near_shell_loops(ctx, A) and residual > 0.0, bundle.name


def _masked_identities(ctx, A):
    """Reference: the A-side identity residuals as max norms of masks of the dense ``A`` on ``dist``.

    R, F and L keep the entries (y, z) of A at steps dist(y) - dist(z) = 1,
    0, -1, so A = R + F + L reads the entries between shells more than one
    apart, F = E*_D A E*_D those inside one near shell, and
    E*_D A E*_D != 0 those inside the far shell.
    """
    def max_abs(where):
        return float(max(A.max(where=where, initial=0.0), -A.min(where=where, initial=0.0)))

    dist, D = ctx.dist.astype(np.int16), ctx.D
    step = dist[:, None] - dist[None, :]
    out = {"A = R + F + L": max_abs(np.abs(step) > 1)}
    if D >= 1 and tw.is_almost_bipartite(ctx.spectral.pp):
        on_far = (dist == D)[:, None] & (dist == D)[None, :]
        out["F = Estar_D A Estar_D"] = max_abs((step == 0) != on_far)
        out["Estar_D A Estar_D != 0"] = 0.0 if max_abs(on_far) > 0.5 else 1.0
    return out


def _block_identities(ctx):
    """The A-side residuals of the identity report, read off the shell blocks."""
    names = ("A = R + F + L", "F = Estar_D A Estar_D", "Estar_D A Estar_D != 0")
    return {c.name: c.residual for c in tw.verify_operator_identities(ctx).checks if c.name in names}


def test_block_identities_match_masked_reference(all_bundles, cycle_contexts):
    contexts = {bundle.name: bundle.ctx for bundle in all_bundles} | cycle_contexts
    for name, ctx in contexts.items():
        assert _block_identities(ctx) == _masked_identities(ctx, dense_adjacency(ctx)), name


def test_block_identities_match_masked_reference_on_perturbed_operators(c7, o4, fc9):
    # noise on every entry; the C_7 edge 0-2 between shells 0 and 2; a loop
    # at vertex 5 inside the near shell 2; the far-shell edge 3-4 removed
    rng = np.random.default_rng(5)
    cases = [(b.ctx, dense_adjacency(b.ctx) + rng.uniform(-1e-3, 1e-3, (b.ctx.n, b.ctx.n))) for b in (o4, fc9)]
    edge, loop, far = (dense_adjacency(c7.ctx) for _ in range(3))
    edge[0, 2] = edge[2, 0] = 1.0
    loop[5, 5] = 1.0
    far[3, 4] = far[4, 3] = 0.0
    cases += [(c7.ctx, A) for A in (edge, loop, far)]
    read = []
    for ctx, A in cases:
        blocks = _block_identities(with_adjacency(ctx, A))
        assert blocks == _masked_identities(ctx, A)
        read.append(tuple(blocks.values()))
    assert all(min(r[:2]) > 0.0 for r in read[:2])
    assert read[2:] == [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
