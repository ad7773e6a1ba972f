from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import terwlab as tw
from conftest import dense_dual_operators, dense_idempotents
from terwlab.errors import NegativeMultiplicity, NonIntegerMultiplicity
from terwlab.multiplicity import (
    LEADING_ZERO_TOL,
    ROUNDING_TOL,
    MultiplicityTable,
    _rung_windows,
)
from terwlab.predictor import band_grid
from terwlab.spectral import PPolyArray


def precedes(a, b) -> bool:
    """The order of the grid: a starts no later than b and ends no earlier."""
    return a[0] <= b[0] and b[0] + b[1] <= a[0] + a[1]


def test_upsilon_d3():
    cells = set(tw.upsilon_cells(3))
    assert cells == {(0, 3), (1, 2), (1, 1), (2, 1), (2, 0), (3, 0)}


def test_upsilon_d7_has_twenty_cells():
    assert len(tw.upsilon_cells(7)) == 20


def test_upsilon_trivial():
    assert tw.upsilon_cells(0) == ((0, 0),)


@given(st.integers(min_value=0, max_value=12))
@settings(max_examples=30, deadline=None)
def test_upsilon_membership_and_count(D):
    cells = tw.upsilon_cells(D)
    for (t, d) in cells:
        assert 0 <= d <= D
        assert 2 * t >= D - d and t <= D - d
    # one cell per (d, t) pair satisfying the band condition
    assert len(cells) == sum(g // 2 + 1 for g in range(D + 1))
    assert len(set(cells)) == len(cells)


@given(st.integers(min_value=0, max_value=9))
@settings(max_examples=20, deadline=None)
def test_upsilon_partial_order_axioms(D):
    cells = tw.upsilon_cells(D)
    for a in cells:
        assert precedes(a, a)
        for b in cells:
            if precedes(a, b) and precedes(b, a):
                assert a == b
            for c in cells:
                if precedes(a, b) and precedes(b, c):
                    assert precedes(a, c)


@given(st.integers(min_value=0, max_value=12))
@settings(max_examples=30, deadline=None)
def test_upsilon_minimum_and_linear_extension(D):
    cells = tw.upsilon_cells(D)
    top = (0, D)
    for cell in cells:
        assert precedes(top, cell)
        if precedes(cell, top):
            assert cell == top
    # linear extension: predecessors appear earlier
    index = {cell: i for i, cell in enumerate(cells)}
    for a in cells:
        for b in cells:
            if a != b and precedes(a, b):
                assert index[a] < index[b]


def test_trace_lhs_d0_is_multiplicity(all_bundles):
    for bundle in all_bundles:
        sp = bundle.spectral
        ladders = tw.trace_ladders(bundle.ctx)
        for t in range(sp.D + 1):
            assert ladders[t][0] == pytest.approx(float(sp.m[t]), rel=1e-9)


def test_trace_ladder_equals_per_cell_products(all_bundles):
    # the dense walk the ladders replaced: one R*^d E_t from scratch per cell,
    # with the n x n idempotent E_t in place of its eigenspace basis U_t
    for bundle in all_bundles:
        ctx, D = bundle.ctx, bundle.spectral.D
        E = dense_idempotents(bundle.spectral)
        Rstar, _, _ = dense_dual_operators(ctx)
        ladders = tw.trace_ladders(ctx)
        assert len(ladders) == D + 1
        for t in range(D + 1):
            assert len(ladders[t]) == D - t + 1
            for d in range(D - t + 1):
                M = E[t].copy()
                for _ in range(d):
                    M = Rstar @ M
                assert ladders[t][d] == pytest.approx(float(np.sum(M * M)), rel=1e-12), (bundle.name, t, d)


def reference_trace_ladders(ctx):
    """Reference: the walk of ``trace_ladders`` with one ``bincount`` per step, appended cell by cell."""
    sp = ctx.spectral
    lab, m = sp.eigenspace_labels(), sp.m.tolist()
    ends = np.cumsum(sp.m)
    ladders = [[] for _ in range(sp.D + 1)]
    H = np.eye(m[0])
    for k in range(sp.D + 1):
        if k:
            H = np.hstack([ctx.below[k - 1][: m[k]] @ H, np.eye(m[k])])
        for t, value in enumerate(np.bincount(lab[: ends[k]], np.einsum("ij,ij->j", H, H)).tolist()):
            ladders[t].append(value)
    return ladders


def test_trace_ladders_are_the_per_step_reference(all_bundles, cycle_contexts):
    # one bincount after the walk sums each cell's columns in the order the per-step one did: equal to the bit
    contexts = [bundle.ctx for bundle in all_bundles] + list(cycle_contexts.values())
    trivial = tw.validate_scheme([[0]])
    contexts.append(tw.build_context(trivial, tw.spectral_data(trivial), 0))
    for ctx in contexts:
        assert tw.trace_ladders(ctx) == reference_trace_ladders(ctx), ctx.n


def test_trace_identity_sweep(all_bundles):
    for bundle in all_bundles:
        sp = bundle.spectral
        ladders, closed = tw.trace_ladders(bundle.ctx), tw.krein_products(sp)
        for (t, d) in tw.upsilon_cells(sp.D):
            lhs, rhs = ladders[t][d], float(closed[t, d])
            assert abs(lhs - rhs) <= 1e-6 * max(1.0, abs(rhs)), (bundle.name, t, d)


def test_closed_traces_match_the_loop_reference(all_bundles, cycle_contexts):
    # m_t prod_{h=t}^{t+d-1} b*_h c*_{t+d-h}, multiplied from m_t onwards in
    # the order of h, is bit-identical to this loop; the array is formed once
    # per spectral data and shared by the trace check and the recurrence
    spectra = [bundle.spectral for bundle in all_bundles] + [ctx.spectral for ctx in cycle_contexts.values()]
    for sp in spectra:
        closed = sp.closed_traces
        assert sp.closed_traces is closed and np.array_equal(closed, tw.krein_products(sp), equal_nan=True)
        bs, cs = sp.ppstar.b.tolist(), sp.ppstar.c.tolist()
        for t in range(sp.D + 1):
            for d in range(sp.D + 1):
                if t + d > sp.D:
                    assert np.isnan(closed[t, d])
                    continue
                value = float(sp.m[t])
                for h in range(t, t + d):
                    value *= bs[h] * cs[t + d - h]
                assert closed[t, d] == value, (sp.n, t, d)


def restricted_trace(E, Rstar, mod, t, d) -> float:
    """Reference: trace of E_t L*^d R*^d E_t restricted to one module, with dense E_t and R*."""
    M = E[t] @ mod.basis
    for _ in range(d):
        M = Rstar @ M
    return float(np.sum(M * M))


def test_restricted_traces(c7, o4):
    # module-by-module contributions: ladder product when the module class
    # precedes the cell, zero otherwise
    for bundle in (c7, o4):
        sp = bundle.spectral
        E = dense_idempotents(sp)
        Rstar, _, _ = dense_dual_operators(bundle.ctx)
        for mod in bundle.modules:
            cls = (mod.t, mod.d)
            cs, _, bs = sp.bands.bands_star(*cls)
            for (t, d) in tw.upsilon_cells(sp.D):
                value = restricted_trace(E, Rstar, mod, t, d)
                if precedes(cls, (t, d)):
                    expected = 1.0
                    for h in range(t - mod.t, t - mod.t + d):
                        expected *= bs[h] * cs[h + 1]
                    assert abs(value - expected) < 1e-6 * max(1.0, abs(expected))
                else:
                    assert abs(value) < 1e-8 * bundle.scheme.n


def test_rhs_coefficient_against_dual_bands(c7):
    # for a cell carrying a module the helper bands equal the module bands,
    # so the leading coefficient is the product of its ladder weights
    sp = c7.spectral
    cs, _, bs = sp.bands.bands_star(2, 1)
    lead = rhs_coefficient(sp.bands, 2, 1, 2, 1)
    assert lead == pytest.approx(bs[0] * cs[1], abs=1e-10)


def test_rhs_coefficient_d0_is_one(c9):
    grid = c9.spectral.bands
    assert rhs_coefficient(grid, 3, 0, 3, 0) == 1.0
    # any predecessor contributes coefficient 1 to a d = 0 cell
    assert rhs_coefficient(grid, 3, 0, 1, 3) == 1.0


def test_solved_tables_match_census(all_bundles):
    for bundle in all_bundles:
        assert bundle.table.matches_census(tw.census(bundle.modules)), bundle.name
        assert bundle.table.total_dimension() == bundle.scheme.n
        assert bundle.table.mult[(0, bundle.scheme.D)] == 1
        assert max(bundle.table.pre_rounding.values()) < 1e-4


def test_d0_cells_count_eigenspace_dimensions(all_bundles):
    # with d = 0 every coefficient is 1: m_t counts modules covering t
    for bundle in all_bundles:
        sp = bundle.spectral
        for (t, d) in tw.upsilon_cells(sp.D):
            if d == 0:
                covering = sum(
                    v for (i, j), v in bundle.table.mult.items() if i <= t <= i + j
                )
                assert covering == sp.m[t]


def _zero_lead_spectrum():
    # synthetic spectrum with theta_0 = 0 makes b*_0(0, 1) vanish, forcing
    # the zero-coefficient path; the d = 0 cell then absorbs everything
    theta, theta_star = np.array([0.0, -2.0]), np.array([1.0, -1.0])
    sp = SimpleNamespace(
        D=1,
        theta=theta,
        theta_star=theta_star,
        m=np.array([1, 2]),
        ppstar=PPolyArray(c=np.array([0.0, 1.0]), a=np.array([0.0, 0.0]), b=np.array([0.0, 0.0])),
        bands=band_grid(theta, theta_star, 1),
    )
    sp.closed_traces = tw.krein_products(sp)
    return sp


def test_zero_leading_coefficient_branch():
    table = tw.solve_multiplicities(_zero_lead_spectrum())
    assert table.zero_coefficient_cells == ((0, 1),)
    assert table.mult == {(0, 1): 0, (1, 0): 2}


def test_trivial_scheme_table():
    sp = tw.spectral_data(tw.validate_scheme([[0]]))
    table = tw.solve_multiplicities(sp)
    assert table.mult == {(0, 0): 1}
    assert table.total_dimension() == 1


def rhs_coefficient(grid, t, d, i, j):
    """Coefficient of mult(i, j) in the trace equation of cell (t, d), for (i, j) preceding (t, d).

    The product of the first d rung weights b*_h c*_{h+1} of the (i, j)
    ladder, starting at offset t - i.
    """
    if d == 0:
        return 1.0
    cs, _, bs = grid.bands_star(i, j)
    return float(_rung_windows(bs[:-1] * cs[1:])[t - i, t - i + d - 1])


def reference_solve(spectral):
    """Reference: the recurrence with one coefficient per (cell, predecessor) pair.

    This is the former solver: every cell scans the whole grid for solved
    predecessors and works out each one's coefficient from its dual bands.
    """
    D = spectral.D
    grid = spectral.bands
    closed = tw.krein_products(spectral)
    cells = tw.upsilon_cells(D)
    mult, pre, zero_cells = {}, {}, []
    for (t, d) in cells:
        lhs = float(closed[t, d])
        lead = 1.0
        scale = 1.0
        if d:
            cs, _, bs = grid.bands_star(t, d)
            for h in range(d):
                lead *= bs[h] * cs[h + 1]
                scale *= max(1.0, abs(bs[h])) * max(1.0, abs(cs[h + 1]))
        acc = 0.0
        for (i, j) in cells:
            if (i, j) != (t, d) and precedes((i, j), (t, d)) and mult.get((i, j)):
                acc += mult[i, j] * rhs_coefficient(grid, t, d, i, j)
        if abs(lead) < LEADING_ZERO_TOL * scale:
            zero_cells.append((t, d))
            mult[t, d] = 0
            pre[t, d] = 0.0
            continue
        value = (lhs - acc) / lead
        rounded = int(round(value))
        residual = abs(value - rounded)
        if residual > ROUNDING_TOL:
            raise NonIntegerMultiplicity(f"mult({t}, {d}) = {value} is not near an integer")
        if rounded < 0:
            raise NegativeMultiplicity(f"mult({t}, {d}) = {value}")
        mult[t, d] = rounded
        pre[t, d] = residual
    return MultiplicityTable(D=D, mult=mult, pre_rounding=pre, zero_coefficient_cells=tuple(zero_cells))


def _assert_same_table(table, reference):
    # ==, not approx: the predecessors are summed in the same order
    assert table.mult == reference.mult
    assert table.pre_rounding == reference.pre_rounding
    assert table.zero_coefficient_cells == reference.zero_coefficient_cells


def test_solver_equals_reference_on_bundles(all_bundles):
    for bundle in all_bundles:
        _assert_same_table(bundle.table, reference_solve(bundle.spectral))


@pytest.mark.parametrize("D", range(3, 31))
def test_solver_equals_reference_on_cycles(D):
    # C_7..C_37 solve; from C_39 on both fail the rounding gate with the same value
    sp = tw.spectral_data(tw.odd_cycle(D))
    if D <= 18:
        _assert_same_table(tw.solve_multiplicities(sp), reference_solve(sp))
        return
    with pytest.raises(NonIntegerMultiplicity) as expected:
        reference_solve(sp)
    with pytest.raises(NonIntegerMultiplicity) as got:
        tw.solve_multiplicities(sp)
    assert str(got.value) == str(expected.value)


def test_solver_equals_reference_on_zero_coefficient_branch():
    fake = _zero_lead_spectrum()
    _assert_same_table(tw.solve_multiplicities(fake), reference_solve(fake))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_nan_or_infinite_trace_fails_the_rounding_gate(bad):
    # int(round(nan)) raised ValueError, which no stage reports as a failed check
    sp = tw.spectral_data(tw.odd_cycle(3))
    closed = sp.closed_traces.copy()
    closed[1, 2] = bad
    sp.__dict__["closed_traces"] = closed  # the cached property, replaced on this instance only
    with pytest.raises(NonIntegerMultiplicity, match=r"mult\(1, 2\)"):
        tw.solve_multiplicities(sp)


def test_census_diff_lists_the_differing_cells_in_sorted_order(all_bundles):
    for bundle in all_bundles:
        table, census = bundle.table, tw.census(bundle.modules)
        assert table.census_diff(census) == {} and table.matches_census(census), bundle.name
        last = max(census)
        # one count changed, and one cell added that the grid does not hold, listed last but sorting first
        changed = {**census, last: census[last] + 1, (0, 0): 2}
        diff = table.census_diff(changed)
        assert diff == {(0, 0): (0, 2), last: (census[last], census[last] + 1)}, bundle.name
        assert list(diff) == sorted(diff)
        assert not table.matches_census(changed)
