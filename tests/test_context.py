from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

import terwlab as tw
from conftest import dense_dual_operators, dense_idempotents, split_operators
from terwlab.errors import InvalidParameter, OrderingMissing


def test_estar_traces_are_valencies(c7):
    # shell sizes around any vertex equal the valencies
    traces = c7.ctx.Estar.sum(axis=1)
    assert traces.tolist() == [1, 2, 2, 2]


def test_rfl_partition_exact(all_bundles):
    for bundle in all_bundles:
        R, F, L = split_operators(bundle.ctx)
        assert np.array_equal(bundle.ctx.A, R + F + L)
        assert np.array_equal(R, L.T)


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
    lhs = R * ctx.Estar[1][None, :]
    rhs = ctx.Estar[2][:, None] * R
    assert np.abs(lhs - rhs).max() < 1e-9


def test_dual_adjacency_eigenvalues(all_bundles):
    for bundle in all_bundles:
        ctx = bundle.ctx
        ths = bundle.spectral.theta_star
        for i in range(bundle.scheme.D + 1):
            resid = (ctx.Astar - ths[i]) * ctx.Estar[i]
            assert np.abs(resid).max() < 1e-9 * bundle.scheme.n


def test_dual_class_sum(all_bundles):
    for bundle in all_bundles:
        ctx = bundle.ctx
        total = ctx.Astar_all.sum(axis=0)
        assert np.abs(total - bundle.scheme.n * ctx.Estar[0]).max() < 1e-9 * bundle.scheme.n


def test_flat_part_lives_on_far_shell(fc7):
    ctx = fc7.ctx
    D = fc7.scheme.D
    _, F, _ = split_operators(ctx)
    far = ctx.Estar[D][:, None] * ctx.A * ctx.Estar[D][None, :]
    assert np.abs(F - far).max() < 1e-10
    for i in range(D):
        assert np.abs(F * ctx.Estar[i][None, :]).max() < 1e-10
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


@pytest.mark.parametrize("which", ["c7", "o4"])
def test_triangle_vanishing(which, request):
    bundle = request.getfixturevalue(which)
    report = tw.triangle_vanishing_check(bundle.ctx)
    assert report.passed, (report.p_counterexamples, report.q_counterexamples)


def test_triangle_vanishing_trivial_scheme():
    scheme = tw.validate_scheme([[0]])
    ctx = tw.build_context(scheme, tw.spectral_data(scheme), 0)
    assert tw.triangle_vanishing_check(ctx).passed


def test_shell_ranks_cover_everything(all_bundles):
    for bundle in all_bundles:
        ranks = bundle.ctx.Estar.sum(axis=1)
        assert int(ranks.sum()) == bundle.scheme.n


def _estar_pair_loop(Estar):
    """Reference: the (D+1)^2 pair loop the broadcast replaced."""
    D = Estar.shape[0] - 1
    return max(
        np.abs(Estar[i] * Estar[j] - (i == j) * Estar[i]).max()
        for i in range(D + 1)
        for j in range(D + 1)
    )


def _estar_orthogonality(ctx):
    report = tw.verify_operator_identities(ctx)
    [check] = [c for c in report.checks if c.name == "Estar idempotent-orthogonal"]
    return check.residual


def test_estar_orthogonality_residual_is_exactly_zero(all_bundles):
    for bundle in all_bundles:
        assert _estar_orthogonality(bundle.ctx) == _estar_pair_loop(bundle.ctx.Estar) == 0.0


def test_estar_orthogonality_matches_pair_loop_off_01(c9):
    # entries away from 0/1 make every pair contribute; the residual is the
    # loop's to the bit
    rng = np.random.default_rng(0)
    Estar = c9.ctx.Estar + rng.uniform(-0.3, 0.3, c9.ctx.Estar.shape)
    assert _estar_orthogonality(replace(c9.ctx, Estar=Estar)) == _estar_pair_loop(Estar) > 0.1


def _exchange_loop(M, Estar, shift):
    """Reference: max_i ||M E*_i - E*_{i+shift} M||_inf as the D+1 passes the mask replaced."""
    D = Estar.shape[0] - 1
    worst = 0.0
    for i in range(D + 1):
        left = M * Estar[i][None, :]
        j = i + shift
        right = Estar[j][:, None] * M if 0 <= j <= D else 0.0
        worst = max(worst, float(np.abs(left - right).max()))
    return worst


def test_exchange_residual_matches_shell_loop(all_bundles):
    from terwlab.context import _exchange_residual

    for bundle in all_bundles:
        ctx = bundle.ctx
        for M in (*split_operators(ctx), ctx.A):
            for shift in (-1, 0, 1):
                assert _exchange_residual(M, ctx.dist, shift) == _exchange_loop(M, ctx.Estar, shift)


def test_exchange_residual_matches_shell_loop_on_perturbed_operator(o4):
    # every entry nonzero and of a different size: the masked maximum is the
    # loop's to the bit
    from terwlab.context import _exchange_residual

    ctx = o4.ctx
    R, _, _ = split_operators(ctx)
    M = R + np.random.default_rng(1).uniform(-1e-3, 1e-3, R.shape)
    for shift in (-1, 0, 1):
        value = _exchange_residual(M, ctx.dist, shift)
        assert value == _exchange_loop(M, ctx.Estar, shift) > 0.0


def _dense_dual_exchange(M, E, shift):
    """Reference: max_i ||M E_i - E_{i+shift} M||_inf with the dense idempotents."""
    D = E.shape[0] - 1
    worst = 0.0
    for i in range(D + 1):
        right = E[i + shift] @ M if 0 <= i + shift <= D else 0.0
        worst = max(worst, float(np.abs(M @ E[i] - right).max()))
    return worst


def _dual_step(ctx):
    """Eigenspace step j - i of each entry of N, which lies in block (j, i)."""
    lab = ctx.spectral.eigenspace_labels()
    return lab[:, None] - lab[None, :]


def _rounding(ctx):
    """Rounding scale of the dense products with the idempotents and A*."""
    return ctx.n * (1.0 + float(np.abs(ctx.Astar).max())) * np.finfo(np.float64).eps


def test_dual_operators_match_dense_idempotent_construction(all_bundles):
    # the bands of N, taken back to the standard basis, are the sums of
    # products with the dense idempotents
    for bundle in all_bundles:
        ctx = bundle.ctx
        U, step = ctx.spectral.U, _dual_step(ctx)
        for dense, s in zip(dense_dual_operators(ctx), (1, 0, -1)):
            assert np.abs(dense - U @ (ctx.N * (step == s)) @ U.T).max() <= 1e-12 * ctx.n, bundle.name


def _identity(ctx, name):
    [check] = [c for c in tw.verify_operator_identities(ctx).checks if c.name == name]
    return check.residual


DUAL_EXCHANGES = (
    ("Rstar E_i = E_{i+1} Rstar", 1),
    ("Fstar E_i = E_i Fstar", 0),
    ("Lstar E_i = E_{i-1} Lstar", -1),
)


def test_dual_exchange_frobenius_bounds_dense_max_norm(all_bundles):
    # the bands of N satisfy the exchange rules exactly; the dense R*, F*, L*
    # satisfy them up to the rounding of their products
    for bundle in all_bundles:
        ctx = bundle.ctx
        E = dense_idempotents(ctx.spectral)
        for (name, shift), op in zip(DUAL_EXCHANGES, dense_dual_operators(ctx)):
            dense = _dense_dual_exchange(op, E, shift)
            assert dense <= _identity(ctx, name) + _rounding(ctx), (bundle.name, name)
            assert _identity(ctx, name) <= 1e-9 * ctx.n, (bundle.name, name)


def test_dual_exchange_frobenius_bounds_dense_max_norm_off_pattern(fc7):
    # a perturbation that breaks every exchange rule: the residual moves far
    # above rounding, and the Frobenius form still bounds the max-norm form
    from terwlab.context import _block_norms2, _dual_exchange_residual

    ctx, sp = fc7.ctx, fc7.spectral
    rng = np.random.default_rng(2)
    noise = rng.standard_normal((ctx.n, ctx.n)) * 1e-4
    step = _dual_step(ctx)
    for name, shift in DUAL_EXCHANGES:
        X = ctx.N * (step == shift) + noise
        dense = _dense_dual_exchange(sp.U @ X @ sp.U.T, dense_idempotents(sp), shift)
        assert 1e-5 < dense <= _dual_exchange_residual(_block_norms2(X, sp), shift), name


def test_off_band_gate_bounds_dense_split_residual(all_bundles, fc7):
    # A* - R* - F* - L* with the dense idempotents: on the schemes it is
    # rounding, and noise on N's off-band blocks lifts the gate far above
    # rounding while it still bounds the dense max norm
    name = "Astar = Rstar + Fstar + Lstar"
    for bundle in all_bundles:
        ctx = bundle.ctx
        dense = np.abs(np.diag(ctx.Astar) - sum(dense_dual_operators(ctx))).max()
        assert dense <= _identity(ctx, name) + _rounding(ctx), bundle.name
        assert _identity(ctx, name) <= 1e-9 * ctx.n, bundle.name
    ctx, U = fc7.ctx, fc7.spectral.U
    noise = np.random.default_rng(4).standard_normal((ctx.n, ctx.n)) * 1e-4
    perturbed = replace(ctx, N=ctx.N + noise * (np.abs(_dual_step(ctx)) > 1))
    Astar = U @ perturbed.N @ U.T
    dense = np.abs(Astar - sum(dense_dual_operators(ctx, Astar))).max()
    assert 1e-5 < dense <= _identity(perturbed, name)
    assert _identity(perturbed, name) > 1e-9 * ctx.n


def test_eigenvalue_identity_matches_dense_idempotents(all_bundles):
    # the Frobenius form in the bases bounds the dense max norm up to the
    # rounding of the dense E_i = Q[i, relation] / n and of A @ E_i: both
    # are rounding-level, and on C7 the dense one reads 1.235e-15 against
    # 1.220e-15, so the bound carries that rounding term explicitly
    eps = np.finfo(np.float64).eps
    for bundle in all_bundles:
        ctx, sp = bundle.ctx, bundle.spectral
        E = dense_idempotents(sp)
        dense = max(np.abs(ctx.A @ E[i] - sp.theta[i] * E[i]).max() for i in range(sp.D + 1))
        rounding = ctx.n * (1.0 + float(np.abs(sp.theta).max())) * eps
        assert dense <= _identity(ctx, "A E_i = theta_i E_i") + rounding, bundle.name
        assert _identity(ctx, "A E_i = theta_i E_i") <= 1e-9 * ctx.n, bundle.name


def _near_shell_loops(ctx):
    """Reference: the two almost-bipartite checks as the D masked n x n passes each that one pass on dist replaced."""
    D, Estar = ctx.D, ctx.Estar
    _, F, _ = split_operators(ctx)
    flat = max((np.abs(F * Estar[i][None, :]).max() for i in range(D)), default=0.0)
    inner = max((np.abs(Estar[i][:, None] * ctx.A * Estar[i][None, :]).max() for i in range(D)), default=0.0)
    return flat, inner


NEAR_SHELL_CHECKS = ("F Estar_i = 0 for i < D", "Estar_i A Estar_i = 0 for i < D")


def test_near_shell_checks_match_shell_loops(all_bundles):
    for bundle in all_bundles:
        ctx = bundle.ctx
        assert tuple(_identity(ctx, name) for name in NEAR_SHELL_CHECKS) == _near_shell_loops(ctx) == (0.0, 0.0)


def test_near_shell_checks_match_shell_loops_on_perturbed_operators(o4, fc9):
    # every entry nonzero and of a different size: the masked maxima are the
    # loops' to the bit; F is the mask of the perturbed A
    rng = np.random.default_rng(3)
    for bundle in (o4, fc9):
        ctx = bundle.ctx
        perturbed = replace(ctx, A=ctx.A + rng.uniform(-1e-3, 1e-3, (ctx.n, ctx.n)))
        got = tuple(_identity(perturbed, name) for name in NEAR_SHELL_CHECKS)
        assert got == _near_shell_loops(perturbed) and min(got) > 0.0, bundle.name
