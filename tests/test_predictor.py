import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import terwlab as tw
from terwlab.errors import InvalidCell
from terwlab.predictor import band_gap, band_grid, feasibility_reports, tridiagonal


def predict_a0star(r, t, theta, theta_star):
    """Reference: the flat dual coefficient a*_0 on the lowest shell, for d >= 1, by its own formula."""
    th = np.asarray(theta, dtype=np.float64)
    ths = np.asarray(theta_star, dtype=np.float64)
    return float((ths[r + 1] * th[t] - th[t + 1] * ths[r]) / (th[t] - th[t + 1]))


def test_full_diameter_class_is_scheme_array(all_bundles):
    for bundle in all_bundles:
        sp = bundle.spectral
        c, a, b = sp.bands.bands(0, sp.D)
        assert np.allclose(c, sp.pp.c, atol=1e-9)
        assert np.allclose(a, sp.pp.a, atol=1e-9)
        assert np.allclose(b, sp.pp.b, atol=1e-9)
        cs, as_, bs = sp.bands.bands_star(0, sp.D)
        assert np.allclose(cs, sp.ppstar.c, atol=1e-8)
        assert np.allclose(as_, sp.ppstar.a, atol=1e-8)
        assert np.allclose(bs, sp.ppstar.b, atol=1e-8)


def test_b0_equals_theta_t(all_bundles):
    for bundle in all_bundles:
        sp = bundle.spectral
        for (t, d) in tw.upsilon_cells(sp.D):
            if d >= 1:
                _, _, b = sp.bands.bands(t, d)
                assert b[0] == pytest.approx(sp.theta[t], abs=1e-10)


def test_row_sums(all_bundles):
    # c_i + a_i + b_i = theta_t and c*_i + a*_i + b*_i = theta*_r: the row
    # sums of B(W) and B*(W), whose bands hold c_0 = b_d = 0
    for bundle in all_bundles:
        sp = bundle.spectral
        for (t, d) in tw.upsilon_cells(sp.D):
            assert np.abs(sum(sp.bands.bands(t, d)) - sp.theta[t]).max() < 1e-10
            assert np.abs(sum(sp.bands.bands_star(t, d)) - sp.theta_star[sp.D - d]).max() < 1e-10


def test_eigenvalues_of_predictions(all_bundles):
    for bundle in all_bundles:
        sp = bundle.spectral
        for (t, d) in tw.upsilon_cells(sp.D):
            r = sp.D - d
            eig = np.sort(np.linalg.eigvals(tridiagonal(*sp.bands.bands(t, d))).real)
            assert np.abs(eig - np.sort(sp.theta[t : t + d + 1])).max() < 1e-8
            eig_star = np.sort(np.linalg.eigvals(tridiagonal(*sp.bands.bands_star(t, d))).real)
            assert np.abs(eig_star - np.sort(sp.theta_star[r : r + d + 1])).max() < 1e-8


def test_trace_identities(all_bundles):
    for bundle in all_bundles:
        sp = bundle.spectral
        for (t, d) in tw.upsilon_cells(sp.D):
            r = sp.D - d
            _, a, _ = sp.bands.bands(t, d)
            _, as_, _ = sp.bands.bands_star(t, d)
            assert a.sum() == pytest.approx(sp.theta[t : t + d + 1].sum(), abs=1e-8)
            assert as_.sum() == pytest.approx(sp.theta_star[r : r + d + 1].sum(), abs=1e-8)


def test_c7_cell_12_eigenvalues(c7):
    sp = c7.spectral
    B = tridiagonal(*sp.bands.bands(1, 2))
    eig = np.sort(np.linalg.eigvals(B).real)
    assert np.abs(eig - np.sort(sp.theta[1:4])).max() < 1e-8


def test_a0star_matches_matrix_entry(all_bundles):
    # the reference formula for a*_0 against B*(W)[0, 0] from the grid
    for bundle in all_bundles:
        sp = bundle.spectral
        for (t, d) in tw.upsilon_cells(sp.D):
            if d >= 1:
                Bstar = tridiagonal(*sp.bands.bands_star(t, d))
                value = predict_a0star(sp.D - d, t, sp.theta, sp.theta_star)
                assert value == pytest.approx(Bstar[0][0], abs=1e-10)


def test_a0star_zero_for_trivial_class(all_bundles):
    for bundle in all_bundles:
        sp = bundle.spectral
        assert predict_a0star(0, 0, sp.theta, sp.theta_star) == pytest.approx(0.0, abs=1e-9)


def test_d0_branch(all_bundles):
    for bundle in all_bundles:
        sp = bundle.spectral
        D = sp.D
        B, Bstar = (tridiagonal(*read(D, 0)) for read in (sp.bands.bands, sp.bands.bands_star))
        assert B.shape == Bstar.shape == (1, 1)
        assert B[0, 0] == pytest.approx(sp.theta[D])
        assert Bstar[0, 0] == pytest.approx(sp.theta_star[D])


def test_invalid_cells(c7):
    sp = c7.spectral
    for (t, d) in [(0, 1), (0, 2), (3, 1), (4, 0), (-1, 3), (0, 4)]:
        with pytest.raises(InvalidCell):
            tw.feasibility(sp, t, d)


def test_oracle_agreement(all_bundles):
    for bundle in all_bundles:
        sp = bundle.spectral
        for m in bundle.modules:
            assert band_gap(m.cab, sp.bands.bands(m.t, m.d)) < 1e-6
            assert band_gap(m.cab_star, sp.bands.bands_star(m.t, m.d)) < 1e-6


def test_band_gap_is_the_dense_oracle_residual(all_bundles):
    # the residual predictor_vs_oracle reports, read from the bands, is the
    # largest entry of |measured - predicted| over the dense matrices, bit for bit
    for bundle in all_bundles:
        grid = bundle.spectral.bands
        for m in bundle.modules:
            for measured, predicted in ((m.cab, grid.bands(m.t, m.d)), (m.cab_star, grid.bands_star(m.t, m.d))):
                dense = float(np.abs(tridiagonal(*measured) - tridiagonal(*predicted)).max())
                assert band_gap(measured, predicted) == dense, (bundle.name, m.t, m.d)


def test_feasibility_of_realized_cells(all_bundles):
    for bundle in all_bundles:
        sp = bundle.spectral
        realized = set(tw.census(bundle.modules))
        for (t, d) in tw.upsilon_cells(sp.D):
            report = tw.feasibility(sp, t, d)
            if (t, d) in realized:
                assert report.feasible, (bundle.name, t, d)
            if not report.feasible:
                assert (t, d) not in realized


def test_feasibility_equals_its_dense_matrix_form(all_bundles):
    # traces from the a bands and products from the c, b bands equal the
    # same numbers read off the assembled matrices, bit for bit
    for bundle in all_bundles:
        sp = bundle.spectral
        for (t, d) in tw.upsilon_cells(sp.D):
            report = tw.feasibility(sp, t, d)
            r = sp.D - d
            for B, theta, products, trace_error in (
                (tridiagonal(*sp.bands.bands(t, d)), sp.theta[t : t + d + 1], report.products,
                 report.trace_B_error),
                (tridiagonal(*sp.bands.bands_star(t, d)), sp.theta_star[r : r + d + 1],
                 report.dual_products, report.trace_Bstar_error),
            ):
                assert products == tuple(B[i - 1, i] * B[i, i - 1] for i in range(1, d + 1))
                assert trace_error == abs(float(np.trace(B)) - float(theta.sum()))


@st.composite
def synthetic_cells(draw):
    D = draw(st.integers(min_value=1, max_value=7))
    d = draw(st.integers(min_value=0, max_value=D))
    t = draw(st.integers(min_value=-((D - d) // -2), max_value=D - d))
    # distinct, well-separated synthetic eigenvalue sequences
    perm = draw(st.permutations(list(range(D + 1))))
    theta = np.array([3.0 * p + 1.0 for p in perm])
    theta_star = np.array([2.5 * p + 0.5 for p in draw(st.permutations(list(range(D + 1))))])
    return D, t, d, theta, theta_star


@given(synthetic_cells())
@settings(max_examples=60, deadline=None)
def test_row_sum_property_on_synthetic_data(data):
    # the linear systems defining the bands force the row sums for any
    # distinct eigenvalue sequences, not just realized schemes
    D, t, d, theta, theta_star = data
    r = D - d
    grid = band_grid(theta, theta_star, D)
    c, a, b = grid.bands(t, d)
    assert np.abs(c + a + b - theta[t]).max() < 1e-8
    cs, as_, bs = grid.bands_star(t, d)
    assert np.abs(cs + as_ + bs - theta_star[r]).max() < 1e-8
    if d >= 1:
        a0s = predict_a0star(r, t, theta, theta_star)
        assert abs(as_[0] - a0s) < 1e-8


def reference_cab(t, d, theta, theta_star, D):
    """Reference: the former per-cell loop for the bands (c, a, b) of one cell."""
    r = D - d
    th, ths = np.asarray(theta, dtype=np.float64), np.asarray(theta_star, dtype=np.float64)
    if d == 0:
        return np.zeros(1), np.array([th[t]]), np.zeros(1)
    c, a, b = np.zeros(d + 1), np.zeros(d + 1), np.zeros(d + 1)
    b[0] = th[t]
    for i in range(1, d):
        num_c = th[t] * (ths[r + i + 1] - ths[r + 1]) - th[t + 1] * (ths[r + i] - ths[r])
        c[i] = num_c / (ths[r + i + 1] - ths[r + i - 1])
        num_b = th[t] * (ths[r + i - 1] - ths[r + 1]) - th[t + 1] * (ths[r + i] - ths[r])
        b[i] = num_b / (ths[r + i - 1] - ths[r + i + 1])
    c[d] = (th[t] * (ths[r + d] - ths[r + 1]) - th[t + 1] * (ths[r + d] - ths[r])) / (ths[r + d] - ths[r + d - 1])
    a[d] = (th[t] * (ths[r + d - 1] - ths[r + 1]) - th[t + 1] * (ths[r + d] - ths[r])) / (ths[r + d - 1] - ths[r + d])
    return c, a, b


def reference_cab_star(t, d, theta, theta_star, D):
    """Reference: the former per-cell loop for the dual bands (c*, a*, b*) of one cell."""
    r = D - d
    th, ths = np.asarray(theta, dtype=np.float64), np.asarray(theta_star, dtype=np.float64)
    if d == 0:
        return np.zeros(1), np.array([ths[r]]), np.zeros(1)
    cs, bs = np.zeros(d + 1), np.zeros(d + 1)
    bs[0] = th[t] * (ths[r] - ths[r + 1]) / (th[t] - th[t + 1])
    for i in range(1, d):
        quad = (th[t + i] ** 2 - th[t] ** 2) * (ths[r + 2] - ths[r + 1])
        cs[i] = (quad + (th[t] * th[t + 1] - th[t + i] * th[t + i + 1]) * (ths[r + 1] - ths[r])) / (
            (th[t + i - 1] - th[t + i]) * (th[t + i - 1] - th[t + i + 1]))
        bs[i] = (quad + (th[t] * th[t + 1] - th[t + i] * th[t + i - 1]) * (ths[r + 1] - ths[r])) / (
            (th[t + i + 1] - th[t + i]) * (th[t + i + 1] - th[t + i - 1]))
    cs[d] = th[t + d] * (ths[r + 1] - ths[r]) / (th[t + d - 1] - th[t + d])
    return cs, ths[r] - bs - cs, bs


def _assert_grid_is_per_cell_reference(sp):
    # the same floating-point operations in the same order: equal to the bit
    grid = sp.bands
    assert grid.cells == tw.upsilon_cells(sp.D)
    for (t, d) in grid.cells:
        for got, want in ((grid.bands(t, d), reference_cab(t, d, sp.theta, sp.theta_star, sp.D)),
                          (grid.bands_star(t, d), reference_cab_star(t, d, sp.theta, sp.theta_star, sp.D))):
            for x, y in zip(got, want):
                assert x.shape == y.shape and np.array_equal(x, y), (sp.D, t, d)


def test_band_grid_is_per_cell_reference_on_bundles(all_bundles):
    for bundle in all_bundles:
        _assert_grid_is_per_cell_reference(bundle.spectral)


@pytest.mark.parametrize("D", range(3, 31))
def test_band_grid_is_per_cell_reference_on_cycles(D):
    _assert_grid_is_per_cell_reference(tw.spectral_data(tw.odd_cycle(D)))


def test_per_cell_bands_reject_cells_off_the_grid(c9):
    sp = c9.spectral
    for (t, d) in ((0, sp.D + 1), (sp.D, 1), (0, 0), (-1, sp.D), (0, 1), (3, 3), (5, 0)):
        for read in (sp.bands.bands, sp.bands.bands_star):
            with pytest.raises(InvalidCell):
                read(t, d)


def reference_feasibility(spectral, t, d):
    """Reference: the former per-cell check, two dense tridiagonals and two ``eigvals`` calls."""
    bands, bands_star = spectral.bands.bands(t, d), spectral.bands.bands_star(t, d)
    (c, a, b), (cs, as_, bs) = bands, bands_star
    r = spectral.D - d
    th, ths = spectral.theta[t : t + d + 1], spectral.theta_star[r : r + d + 1]
    eig_B = np.sort(np.linalg.eigvals(tridiagonal(*bands)).real)
    eig_Bs = np.sort(np.linalg.eigvals(tridiagonal(*bands_star)).real)
    return {
        "products": tuple((b[:-1] * c[1:]).tolist()),
        "dual_products": tuple((bs[:-1] * cs[1:]).tolist()),
        "eig_B_error": float(np.abs(eig_B - np.sort(th)).max()),
        "eig_Bstar_error": float(np.abs(eig_Bs - np.sort(ths)).max()),
        "trace_B_error": abs(float(a.sum()) - float(th.sum())),
        "trace_Bstar_error": abs(float(as_.sum()) - float(ths.sum())),
    }


def _assert_feasibility_is_per_cell_reference(sp, name):
    # every cell at once, and one at a time: equal to the bit, as LAPACK runs the same geev on each
    # matrix of a stack and the products, sums and maxima are the same operations in the same order
    cells = list(sp.bands.cells)
    for report, (t, d) in zip(feasibility_reports(sp, cells), cells):
        want = reference_feasibility(sp, t, d)
        assert (report.t, report.d) == (t, d)
        for got in (report, tw.feasibility(sp, t, d)):
            assert {key: getattr(got, key) for key in want} == want, (name, t, d)


def test_feasibility_reports_are_the_per_cell_reference_on_bundles(all_bundles):
    for bundle in all_bundles:
        _assert_feasibility_is_per_cell_reference(bundle.spectral, bundle.name)


@pytest.mark.parametrize("D", range(3, 31))
def test_feasibility_reports_are_the_per_cell_reference_on_cycles(D):
    _assert_feasibility_is_per_cell_reference(tw.spectral_data(tw.odd_cycle(D)), f"C{2 * D + 1}")


def test_feasibility_reports_keep_the_order_asked_and_reject_cells_off_the_grid(c9):
    sp = c9.spectral
    cells = [(2, 1), (0, 4), (2, 1), (3, 0), (1, 2)]
    assert [(r.t, r.d) for r in feasibility_reports(sp, cells)] == cells
    assert feasibility_reports(sp, []) == []
    with pytest.raises(InvalidCell, match=r"\(0, 1\)"):
        feasibility_reports(sp, [(0, 4), (0, 1), (9, 9)])


def test_a_matrix_that_is_not_finite_gets_nan_eigenvalues():
    # eigvals refuses a stack holding a NaN; the other matrices of the stack keep their eigenvalues
    from terwlab.predictor import _sorted_eigenvalues

    M = np.stack([np.diag([2.0, 1.0]), np.array([[0.0, np.nan], [1.0, 0.0]]), np.array([[0.0, 1.0], [1.0, 0.0]])])
    eig = _sorted_eigenvalues(M)
    assert eig[0].tolist() == [1.0, 2.0]
    assert np.isnan(eig[1]).all()
    assert eig[2].tolist() == pytest.approx([-1.0, 1.0])


def test_band_entries_lays_out_upsilon_cells(c9):
    from terwlab.predictor import band_entries

    for D in (0, 1, 4, 9):
        layout = band_entries(D)
        assert layout.cells == tw.upsilon_cells(D)
        assert list(zip(layout.t.tolist(), layout.d.tolist())) == list(layout.cells)
        assert (layout.first[layout.t, layout.d] == layout.start).all()
        assert (layout.first >= 0).sum() == len(layout.cells)
        assert np.array_equal(layout.entry_d, np.repeat(layout.d, layout.d + 1))
        positions = np.sort(np.concatenate([kind[3] for kind in layout.kinds]))
        assert np.array_equal(positions, np.arange(len(layout.entry_d)))
    assert c9.spectral.bands.layout is c9.spectral.layout
