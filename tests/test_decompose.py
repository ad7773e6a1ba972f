import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import terwlab as tw
from terwlab.predictor import band_gap
from conftest import dense_adjacency, dense_dual_operators, dense_idempotents, split_operators, with_adjacency
from terwlab.context import shell_blocks

# censuses confirmed two independent ways: the oracle decomposition and the
# trace recurrence agree on every instance
EXPECTED_CENSUS = {
    "C7": {(0, 3): 1, (1, 2): 1},
    "C9": {(0, 4): 1, (1, 3): 1},
    "O4": {(0, 3): 1, (1, 1): 2, (1, 2): 3, (2, 0): 2, (2, 1): 6, (3, 0): 4},
    "FC7": {(0, 3): 1, (1, 1): 14, (1, 2): 6, (2, 0): 14},
    "FC9": {(0, 4): 1, (1, 2): 27, (1, 3): 8, (2, 0): 42, (2, 1): 48},
}


def test_census_values(all_bundles):
    for bundle in all_bundles:
        assert tw.census(bundle.modules) == EXPECTED_CENSUS[bundle.name]


def test_dimensions_cover_space(all_bundles):
    for bundle in all_bundles:
        assert sum(m.dim for m in bundle.modules) == bundle.scheme.n
        for m in bundle.modules:
            assert m.dim == m.d + 1  # thin modules


def test_pairwise_orthogonality(all_bundles):
    for bundle in all_bundles:
        mods = bundle.modules
        for i in range(len(mods)):
            for j in range(i + 1, len(mods)):
                overlap = mods[i].basis.T @ mods[j].basis
                assert np.abs(overlap).max() < 1e-8


def test_invariance(all_bundles):
    for bundle in all_bundles:
        ctx = bundle.ctx
        for m in bundle.modules:
            B = m.basis
            # column i lies on shell r + i, so A* acts on it as a scalar
            off_shell = ctx.dist[:, None] != m.r + np.arange(m.dim)
            assert not B[off_shell].any()
            for G in (dense_adjacency(ctx), np.diag(ctx.Astar)):
                W = G @ B
                assert np.abs(W - B @ (B.T @ W)).max() < 1e-8 * bundle.scheme.n


def test_thin_dual_thin_and_diameters(all_bundles):
    # dual thin with dual diameter d: the dual ladder has d + 1 rungs, one
    # per eigenspace t..t+d
    for bundle in all_bundles:
        for m in bundle.modules:
            assert m.dim == m.d + 1
            assert m.t + m.d <= bundle.scheme.D
            assert len(m.dual_ladder_norms2) == len(m.ladder_norms2) == m.d + 1
            assert m.dual_ladder_norms2.min() > 0


def test_endpoint_identities(all_bundles):
    for bundle in all_bundles:
        D = bundle.scheme.D
        for m in bundle.modules:
            assert m.r + m.d == D
            assert 2 * m.t + m.d >= D


def test_unique_full_diameter_module(all_bundles):
    for bundle in all_bundles:
        D = bundle.scheme.D
        full = [m for m in bundle.modules if m.d == D]
        assert len(full) == 1
        assert full[0].r == 0 and full[0].t == 0


def test_census_reproducible_across_seeds(o4, fc7):
    for bundle in (o4, fc7):
        censuses = [tw.census(tw.decompose(bundle.ctx, seed=s)) for s in (0, 1, 2)]
        assert censuses[0] == censuses[1] == censuses[2] == EXPECTED_CENSUS[bundle.name]


def test_trivial_module_measures_scheme_arrays(all_bundles):
    for bundle in all_bundles:
        pp = bundle.spectral.pp
        trivial = [m for m in bundle.modules if m.d == bundle.scheme.D][0]
        c, a, b = trivial.cab
        assert np.allclose(c, pp.c, atol=1e-9)
        assert np.allclose(a, pp.a, atol=1e-9)
        assert np.allclose(b, pp.b, atol=1e-9)
        ps = bundle.spectral.ppstar
        cs, as_, bs = trivial.cab_star
        assert np.allclose(cs, ps.c, atol=1e-8)
        assert np.allclose(as_, ps.a, atol=1e-8)
        assert np.allclose(bs, ps.b, atol=1e-8)


def test_measured_boundary_zeros(all_bundles):
    # c_0(W) = 0 and b_d(W) = 0 hold by construction of the bands; the flat
    # coefficients must vanish off the last rung for almost-bipartite schemes
    for bundle in all_bundles:
        for m in bundle.modules:
            _, a, _ = m.cab
            assert np.abs(a[: m.d]).max(initial=0.0) < 1e-9
            assert abs(a[m.d]) > 1e-6  # a_d(W) != 0


def test_norm_ladder(all_bundles):
    for bundle in all_bundles:
        for m in bundle.modules:
            report = tw.norm_ladder_check(m)
            assert report.primal_residual < 1e-8
            assert report.dual_residual < 1e-8
            assert report.all_positive
            assert len(report.products) == m.d


def test_isomorphic_modules_have_equal_measurements(o4, fc9):
    for bundle in (o4, fc9):
        by_class = {}
        for m in bundle.modules:
            by_class.setdefault((m.t, m.d), []).append(m)
        for mods in by_class.values():
            for other in mods[1:]:
                assert band_gap(mods[0].cab, other.cab) < 1e-6
                assert band_gap(mods[0].cab_star, other.cab_star) < 1e-6


def test_distinct_classes_have_distinct_B(o4, fc9):
    # different size, or same size but different row sums theta_t
    for bundle in (o4, fc9):
        reps = {}
        for m in bundle.modules:
            reps.setdefault((m.t, m.d), m)
        classes = list(reps.values())
        for i in range(len(classes)):
            for j in range(i + 1, len(classes)):
                if classes[i].d == classes[j].d:
                    assert band_gap(classes[i].cab, classes[j].cab) > 1e-6


def test_trivial_scheme_decomposition():
    scheme = tw.validate_scheme([[0]])
    ctx = tw.build_context(scheme, tw.spectral_data(scheme), 0)
    mods = tw.decompose(ctx)
    assert len(mods) == 1
    m = mods[0]
    assert (m.r, m.t, m.d) == (0, 0, 0)
    assert [x.tolist() for x in m.cab] == [[0.0], [0.0], [0.0]]


def test_modules_sorted_by_class(all_bundles):
    for bundle in all_bundles:
        keys = [(m.t, m.d) for m in bundle.modules]
        assert keys == sorted(keys)


def _certify_modules(ctx, modules, tol):
    """Certify the bases of ``modules``, one ladder each, on the shell blocks of ``ctx``."""
    from terwlab.decomposer import _actions, _certify

    shells, up, flat, _ = ctx.blocks
    ladders = [(m.r, [w[:, None] for _, w in m.rungs]) for m in modules]
    return _certify(ctx, shells, ladders, _actions(shells, up, flat, ladders), tol)


def _first_non_dual_thin(ctx, modules, tol):
    """The witness of the first module, in order, that a per-module pass finds not dual thin, gap first."""
    from terwlab.decomposer import _actions, _support

    shells, up, flat, _ = ctx.blocks
    theta = ctx.spectral.theta
    for m in modules:
        (T,), _ = _actions(shells, up, flat, [(m.r, [w[:, None] for _, w in m.rungs])])[0]
        off = np.abs(np.linalg.eigvalsh(T)[:, None] - theta)
        if off.min(axis=1).max() > tol * ctx.n:
            return (m.r, 1, "E", float(off.min(axis=1).max()))
        ranks = np.bincount(off.argmin(axis=1), minlength=len(theta))
        dstar = _support(ranks)[1]
        if ranks.max() > 1 or dstar != m.d:
            return (m.r, 1, "E", ranks.tolist())
    return None


def test_certify_rejects_non_dual_thin(c7, o4):
    # with theta_2 of C_7 moved by 1e-3, the eigenvalue of the trivial
    # module's B^T A B on E_2 W lies 1e-3 from every theta
    from terwlab.errors import NotThin

    theta = c7.spectral.theta.copy()
    theta[2] += 1e-3
    moved = replace(c7.ctx, spectral=replace(c7.spectral, theta=theta))
    with pytest.raises(NotThin, match="not dual thin: an eigenvalue of B\\^T A B lies 1.000e-03") as info:
        _certify_modules(moved, c7.modules, 1e-8)
    r, g, op, gap = info.value.witness
    assert (r, g, op) == (0, 1, "E")
    assert gap == pytest.approx(1e-3, abs=1e-12)
    # with theta = (2, 0.9, -1.8, 5) and a bound of 7 that every gap passes,
    # 1.247 and -0.445 are both nearest to 0.9: E_1 W has rank 2
    relabelled = replace(c7.ctx, spectral=replace(c7.spectral, theta=np.array([2.0, 0.9, -1.8, 5.0])))
    with pytest.raises(NotThin, match="not dual thin: eigenspace ranks") as info:
        _certify_modules(relabelled, c7.modules, 1.0)
    assert info.value.witness == (0, 1, "E", [1, 2, 1, 0])
    # on O_4 with the trivial module last (it meets every E_i, so it would
    # fail first), the gate names the module a per-module pass names
    mods = list(o4.modules[1:]) + [o4.modules[0]]
    theta = o4.spectral.theta.copy()
    theta[3] += 1e-3  # every module meeting E_3: (1, 2), (2, 1), (3, 0) and the trivial one
    moved = replace(o4.ctx, spectral=replace(o4.spectral, theta=theta))
    expected = _first_non_dual_thin(moved, mods, 1e-8)
    assert [(m.t, m.d) for m in mods].index((1, 2)) == 2 and expected[:3] == (mods[2].r, 1, "E")
    with pytest.raises(NotThin, match="not dual thin: an eigenvalue") as info:
        _certify_modules(moved, mods, 1e-8)
    assert info.value.witness[:3] == expected[:3]
    assert info.value.witness[3] == pytest.approx(expected[3], rel=1e-9)
    # with theta = (4, -3, 2, 9), -1 = theta_3 of O_4 is nearest to -3: the
    # (1, 1) modules pass, and the first (1, 2) module has E_1 W of rank 2
    relabelled = replace(o4.ctx, spectral=replace(o4.spectral, theta=np.array([4.0, -3.0, 2.0, 9.0])))
    expected = _first_non_dual_thin(relabelled, mods, 1.0)
    assert expected == (mods[2].r, 1, "E", [0, 2, 1, 0])
    with pytest.raises(NotThin, match="not dual thin: eigenspace ranks") as info:
        _certify_modules(relabelled, mods, 1.0)
    assert info.value.witness == expected


def _without_edge(ctx, x, y):
    A = dense_adjacency(ctx)
    A[x, y] = A[y, x] = 0.0
    return with_adjacency(ctx, A)


def test_non_invariant_ladder_raises_with_witness(c7):
    # without the edge 0-1 of C_7, the ladder from vertex 0 runs down the
    # 6 side only, and A maps its second rung e_6 off the ladder
    from terwlab.errors import NotThin

    ctx = _without_edge(c7.ctx, 0, 1)
    with pytest.raises(NotThin) as info:
        tw.decompose(ctx, seed=0)
    r, g, op, residual = info.value.witness
    assert (r, g, op) == (0, 1, "A")
    assert residual == pytest.approx(1.0, abs=1e-12)
    assert residual > 1e-8 * c7.scheme.n


def test_collected_dimension_mismatch_raises_with_counts(c7, o4):
    # without the edge 1-2, vertex 2 has no neighbour one shell down; the
    # ladder from shell 1 runs down the 6 side alone, onto the trivial
    # module's rungs e_5 and e_4, and the Gram gate names it
    from terwlab.errors import NotThin

    ctx = _without_edge(c7.ctx, 1, 2)
    with pytest.raises(NotThin, match="overlaps another module") as info:
        tw.decompose(ctx, seed=0)
    assert info.value.witness == (1, 1, "Gram", 1.0)
    # modules that leave part of the space out fail the collected-dimension
    # gate; the last module of O_4 has dimension 1, so n - 1 of n are left
    for bundle in (c7, o4):
        n, mods = bundle.scheme.n, list(bundle.modules)
        for j in (0, len(mods) - 1):
            with pytest.raises(NotThin, match=f"collected dimension {n - mods[j].dim} != {n}") as info:
                _certify_modules(bundle.ctx, mods[:j] + mods[j + 1:], 1e-8)
            assert info.value.witness == (n - mods[j].dim, n)
    assert o4.modules[-1].dim == 1


def _grown_kernels(ctx, monkeypatch):
    """The kernels K_r that ``decompose`` grows ladders from, keyed by r, and its number of complements."""
    from terwlab import decomposer

    kernels, calls = {}, []
    complement, ladders = decomposer._complement, decomposer._ladders

    def spy_ladders(up, flat, r, rungs, scale):
        kernels.setdefault(r, rungs[0].copy())  # _ladders calls itself on the parts of a split block
        return ladders(up, flat, r, rungs, scale)

    def spy_complement(W):
        calls.append(W.shape)
        return complement(W)

    with monkeypatch.context() as m:
        m.setattr(decomposer, "_ladders", spy_ladders)
        m.setattr(decomposer, "_complement", spy_complement)
        decomposer.decompose(ctx)
    return kernels, len(calls)


def test_complement_kernels_are_the_lowering_kernels(all_bundles, cycle_contexts, monkeypatch):
    # K_r, the complement of the lower ladders' rungs on shell r, spans the
    # null space of A[S_{r-1}, S_r] that an SVD finds; it is orthonormal to
    # 1e-14 (without the Newton-Schulz step, about 1e-12 on shell 4 of FC_9)
    from terwlab.decomposer import RANK_TOL

    contexts = {b.name: b.ctx for b in all_bundles} | cycle_contexts
    for name, ctx in contexts.items():
        kernels, calls = _grown_kernels(ctx, monkeypatch)
        up = ctx.blocks[1]
        assert kernels.pop(0).tolist() == [[1.0]], name
        for r, K in kernels.items():
            s, vt = np.linalg.svd(up[r - 1].T)[1:]
            N = vt[np.sum(s > RANK_TOL * max(1.0, s[0])):].T
            assert K.shape == N.shape, (name, r)
            assert np.abs(up[r - 1].T @ K).max() <= 1e-12, (name, r)
            assert np.abs(K.T @ K - np.eye(K.shape[1])).max() <= 1e-14, (name, r)
            assert np.abs(K @ K.T - N @ N.T).max() <= 1e-10, (name, r)
        if name.startswith("C"):
            # from shell 2 up every shell of an odd cycle is full
            assert sorted(kernels) == [1] and calls == 2, name


def test_complement_stops_early_on_non_unit_columns():
    # P = I - w w^T with w = (1, 1) has a zero diagonal: no pivot passes
    from terwlab.decomposer import _complement

    K = _complement(np.array([[1.0], [1.0]]))
    assert K.shape == (2, 0)
    # with w = (1, 1, 0) only e_2 is left before the diagonal runs out
    K = _complement(np.array([[1.0], [1.0], [0.0]]))
    assert K.shape == (3, 1) and np.isfinite(K).all()
    assert K[:, 0].tolist() == [0.0, 0.0, 1.0]


def test_ladders_split_blocks_by_where_they_stop(c7):
    # without the edge 2-3, e_2 has no rung on shell 3 while e_5 has one, so
    # the rung Gram matrix diag(0, 1) splits them into two blocks
    from terwlab.decomposer import _ladders

    shells, up, flat, _ = _without_edge(c7.ctx, 2, 3).blocks
    assert shells[2].tolist() == [2, 5] and shells[3].tolist() == [3, 4]
    blocks = _ladders(up, flat, 2, [np.eye(2)], 2.0)
    assert [[R.shape for R in L] for L in blocks] == [[(2, 1)], [(2, 1), (2, 1)]]
    assert shells[2][np.abs(blocks[0][0][:, 0]).argmax()] == 2
    assert shells[3][np.abs(blocks[1][1][:, 0]).argmax()] == 4


def test_ladders_split_blocks_by_flat_action(c7):
    # a loop at vertex 5 gives e_5 the flat coefficient 1 and e_2 the flat
    # coefficient 0; the rungs have equal norms, so only W^T A W splits them
    from terwlab.decomposer import _ladders

    A = dense_adjacency(c7.ctx)
    A[5, 5] = 1.0
    shells, up, flat, _ = shell_blocks(A, c7.ctx.dist, c7.ctx.D)
    blocks = _ladders(up, flat, 2, [np.eye(2)], 2.0)
    assert [[R.shape for R in L] for L in blocks] == [[(2, 1), (2, 1)], [(2, 1), (2, 1)]]
    assert shells[2][np.abs(blocks[0][0][:, 0]).argmax()] == 2
    assert shells[2][np.abs(blocks[1][0][:, 0]).argmax()] == 5


def test_uneven_ladders_raise_with_witness(c7):
    # with the edge 2-3 removed and the edge 4-5 weighted 1e-4, the rung
    # Gram matrix diag(0, 1e-8) lies inside one block, but only e_5 has a
    # rung above the zero threshold
    from terwlab.decomposer import _ladders
    from terwlab.errors import NotThin

    A = dense_adjacency(c7.ctx)
    A[2, 3] = A[3, 2] = 0.0
    A[4, 5] = A[5, 4] = 1e-4
    _, up, flat, _ = shell_blocks(A, c7.ctx.dist, c7.ctx.D)
    with pytest.raises(NotThin) as info:
        _ladders(up, flat, 2, [np.eye(2)], 2.0)
    assert info.value.witness == (2, 2, "R", 0.0)


def test_overlapping_modules_raise_with_witness(o4):
    # each ladder is invariant and the dimensions add up to n, but one
    # module of the (2, 1) class repeats another
    from terwlab.errors import NotThin

    mods = list(o4.modules)
    twins = [j for j, m in enumerate(mods) if (m.t, m.d) == (2, 1)]
    mods[twins[1]] = mods[twins[0]]
    with pytest.raises(NotThin, match="overlaps another module") as info:
        _certify_modules(o4.ctx, mods, 1e-8)
    r, g, op, residual = info.value.witness
    assert (r, g, op) == (mods[twins[0]].r, 1, "Gram")
    assert residual == pytest.approx(1.0, abs=1e-12)
    # the same ladders without the repeat pass the gate
    _certify_modules(o4.ctx, o4.modules, 1e-8)


def test_shell_blocks_bound_memory_and_dims_need_no_basis(monkeypatch):
    # one decompose of O_5 (n = 462) holds less than n^2 float64 beyond its
    # input: it forms no n x n product and no |A| copy (the dense
    # certificate peaked at 3.3 n^2)
    scheme = tw.odd_graph(5)
    ctx = tw.build_context(scheme, tw.spectral_data(scheme), 0)
    tw.decompose(ctx)  # the first call also pays for lazy imports
    tracemalloc.start()
    try:
        mods = tw.decompose(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * scheme.n ** 2
    monkeypatch.setattr(tw.IrreducibleModule, "basis", property(lambda m: pytest.fail("basis assembled")))
    assert sum(m.dim for m in mods) == scheme.n


@pytest.mark.parametrize("D", range(3, 18))
def test_odd_cycle_ladder(D):
    scheme = tw.odd_cycle(D)
    sp = tw.spectral_data(scheme)
    ctx = tw.build_context(scheme, sp, 0)
    mods = tw.decompose(ctx, seed=0)
    observed = tw.census(mods)
    assert observed == {(0, D): 1, (1, D - 1): 1}
    assert sum(m.dim for m in mods) == scheme.n
    Bcat = np.hstack([m.basis for m in mods])
    assert np.abs(Bcat.T @ Bcat - np.eye(scheme.n)).max() < 1e-8
    for m in mods:
        for G in (dense_adjacency(ctx), np.diag(ctx.Astar)):
            W = G @ m.basis
            assert np.abs(W - m.basis @ (m.basis.T @ W)).max() < 1e-8 * scheme.n
    if D <= 13:  # the recurrence's reach on cycles
        assert tw.solve_multiplicities(sp).matches_census(observed)


def test_seeds_rotate_blocks_but_keep_measurements(fc9):
    runs = [tw.decompose(fc9.ctx, seed=s) for s in (0, 1, 2)]
    for mods in runs:
        assert tw.census(mods) == EXPECTED_CENSUS["FC9"]
    for mods in runs[1:]:
        for a, b in zip(runs[0], mods):
            assert (a.t, a.d, a.r) == (b.t, b.d, b.r)
            assert band_gap(a.cab, b.cab) < 1e-9
            assert band_gap(a.cab_star, b.cab_star) < 1e-9
    block = [[m.basis for m in mods if (m.t, m.d) == (2, 1)] for mods in runs]
    assert len(block[0]) == 48
    stacked = [np.hstack(b) for b in block]
    for other in stacked[1:]:
        assert np.abs(stacked[0] - other).max() > 1e-3
        # same block: the span is the same, only the basis inside it moves
        assert np.abs(other - stacked[0] @ (stacked[0].T @ other)).max() < 1e-9


def _principal_vector(M):
    """Dominant left singular vector of M."""
    return np.linalg.svd(M, full_matrices=False)[0][:, 0]


def _reference_measure(ctx, mod):
    """Per-module matrix-vector measurement with the dense idempotents E_t and the
    dense split operators, one coefficient at a time: the bands and squared rung
    norms of both ladders."""
    r, t, d = mod.r, mod.t, mod.d
    E = dense_idempotents(ctx.spectral)
    out = []
    for ladder, ops in (
        ([(ctx.dist == r + i) * _principal_vector(E[t] @ mod.basis) for i in range(d + 1)],
         split_operators(ctx)),
        ([E[t + i] @ _principal_vector((ctx.dist == r)[:, None] * mod.basis) for i in range(d + 1)],
         dense_dual_operators(ctx)),
    ):
        up, flat, down = ops
        norms2 = [float(w @ w) for w in ladder]
        c, a, b = np.zeros(d + 1), np.zeros(d + 1), np.zeros(d + 1)
        for i in range(1, d + 1):
            c[i] = float((up @ ladder[i - 1]) @ ladder[i]) / norms2[i]
        for i in range(d + 1):
            a[i] = float((flat @ ladder[i]) @ ladder[i]) / norms2[i]
        for i in range(d):
            b[i] = float((down @ ladder[i + 1]) @ ladder[i]) / norms2[i]
        out.append((np.array([c, a, b]), np.array(norms2)))
    return out


def _cycle_bundle(D):
    scheme = tw.odd_cycle(D)
    ctx = tw.build_context(scheme, tw.spectral_data(scheme), 0)
    return ctx, tw.decompose(ctx, seed=0)


def test_batched_measurement_matches_per_module_reference(all_bundles):
    # the five standard schemes, and C_37 and C_61 for the long-D ladder
    cases = [(b.ctx, b.modules) for b in all_bundles] + [_cycle_bundle(D) for D in (18, 30)]
    for ctx, modules in cases:
        for m in modules:
            (cab, nrm2), (cab_star, dnrm2) = _reference_measure(ctx, m)
            # all three bands, the boundary zeros c_0 and b_d included
            assert np.abs(np.array(m.cab) - cab).max() < 1e-12
            assert np.abs(np.array(m.cab_star) - cab_star).max() < 1e-12
            assert np.allclose(m.ladder_norms2, nrm2, rtol=1e-12, atol=0)
            assert np.allclose(m.dual_ladder_norms2, dnrm2, rtol=1e-12, atol=0)


def test_certified_ranks_match_dense_idempotents(all_bundles):
    # rank(E_i W) from the dense n x n idempotents, the form the eigenspace
    # bases replaced: same dual endpoints, dual thin with dual diameter d,
    # and the same census
    from terwlab.decomposer import RANK_TOL, _support

    for bundle in all_bundles:
        E = dense_idempotents(bundle.spectral)
        dense = []
        for m in bundle.modules:
            ranks = [int(np.sum(np.linalg.svd(E[i] @ m.basis, compute_uv=False) > RANK_TOL))
                     for i in range(len(E))]
            t, dstar = _support(ranks)
            assert (t, dstar, max(ranks)) == (m.t, m.d, 1), bundle.name
            dense.append(replace(m, t=t))
        assert tw.census(dense) == tw.census(bundle.modules) == EXPECTED_CENSUS[bundle.name]


def _eigh_blocks(M):
    """The split of :func:`_eigenblocks` taken from ``eigh`` alone, with no certificate: [] when there is no cut."""
    from terwlab.decomposer import SPLIT_GAP

    w, Y = np.linalg.eigh(M)
    cuts = np.flatnonzero(np.diff(w) > SPLIT_GAP * max(1.0, float(np.abs(w).max()))) + 1
    return np.split(Y, cuts, axis=1) if cuts.size else []


def test_no_split_certificate_changes_no_decision(all_bundles, cycle_contexts, monkeypatch):
    # with every split taken from eigh, the modules are the same to the bit
    from terwlab import decomposer

    contexts = [b.ctx for b in all_bundles] + list(cycle_contexts.values())
    certified = [tw.decompose(ctx, seed=0) for ctx in contexts]
    monkeypatch.setattr(decomposer, "_eigenblocks", _eigh_blocks)
    for ctx, mods in zip(contexts, certified):
        ref = tw.decompose(ctx, seed=0)
        assert tw.census(ref) == tw.census(mods)
        assert [(m.r, m.t, m.d) for m in ref] == [(m.r, m.t, m.d) for m in mods]
        for a, b in zip(ref, mods):
            for x, y in zip(a.cab + a.cab_star + (a.ladder_norms2, a.dual_ladder_norms2),
                            b.cab + b.cab_star + (b.ladder_norms2, b.dual_ladder_norms2)):
                assert np.array_equal(x, y)


def test_no_split_certificate_fires_only_where_eigh_cuts_nowhere(monkeypatch):
    # mu I + E with |E|_F / max(1, |mu|) from 1e-9 to 1e-5, around the
    # certificate's bound SPLIT_GAP / 4
    from terwlab import decomposer

    rng = np.random.default_rng(7)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda M: calls.append(1) or eigh(M))
    fired = split = 0
    for _ in range(3000):
        g = int(rng.integers(2, 13))
        mu = float(rng.choice([-1.0, 1.0]) * rng.choice([0.0, 10 ** rng.uniform(-2, 3)]))
        E = rng.standard_normal((g, g))
        E += E.T
        E *= 10 ** rng.uniform(-9, -5) * max(1.0, abs(mu)) / np.linalg.norm(E)
        M = mu * np.eye(g) + E
        calls.clear()
        parts = decomposer._eigenblocks(M)
        skipped = not calls
        ref = _eigh_blocks(M)
        fired += skipped
        split += len(ref) > 0
        if skipped:
            assert parts == ref == []
        else:
            assert len(parts) == len(ref) and all(np.array_equal(x, y) for x, y in zip(parts, ref))
    assert 0 < fired and 0 < split and fired + split < 3000, (fired, split)


def test_no_split_certificate_skips_eigh_on_scalar_rung_matrices(o4, fc9, monkeypatch):
    # every rung matrix of the folded 9-cube is scalar on its block, and 14 of
    # O_4's 16 are
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda M: calls.append(M.ndim) or eigh(M))
    for bundle, expected in ((fc9, 0), (o4, 2)):
        calls.clear()
        tw.decompose(bundle.ctx, seed=0)
        assert calls.count(2) == expected, bundle.name  # _certify's batched eigh takes (g, k, k) stacks
