import re
from dataclasses import replace

import numpy as np
import pytest

import terwlab as tw
from terwlab.errors import BetaDegenerate, FitFailure, InvalidCell, OutOfRange
from terwlab.predictor import band_gap, tridiagonal
from terwlab.qs import _folded_cube_array, _odd_graph_array, qs_band_grid, qs_theta, qs_theta_star


@pytest.fixture(scope="module")
def params_c7(c7):
    sp = c7.spectral
    return tw.fit_qs(sp.theta, sp.theta_star, sp.D)


@pytest.fixture(scope="module")
def params_c9(c9):
    sp = c9.spectral
    return tw.fit_qs(sp.theta, sp.theta_star, sp.D)


def test_c7_fit_values(params_c7):
    # the 7-cycle eigenvalues are 2 cos(2 pi i / 7) = q^i + q^{-i}
    q = np.exp(2j * np.pi / 7)
    assert abs(params_c7.q - q) < 1e-10
    assert abs(params_c7.s - q**-1) < 1e-10
    assert abs(params_c7.h - 1) < 1e-10
    assert abs(params_c7.hstar - 1) < 1e-10
    assert params_c7.fit_residual < 1e-8
    assert params_c7.beta == pytest.approx(2 * np.cos(2 * np.pi / 7), abs=1e-12)


def test_c9_fit_values(params_c9):
    q = np.exp(2j * np.pi / 9)
    assert abs(params_c9.q - q) < 1e-10
    assert abs(params_c9.h - 1) < 1e-10
    assert params_c9.fit_residual < 1e-8


def test_round_trips(c7, c9, params_c7, params_c9):
    for bundle, params in ((c7, params_c7), (c9, params_c9)):
        sp = bundle.spectral
        for i in range(sp.D + 1):
            assert abs(qs_theta(params, i) - sp.theta[i]) < 1e-8
            assert abs(qs_theta_star(params, i) - sp.theta_star[i]) < 1e-8


def test_theta0_identity(params_c7):
    p = params_c7
    assert abs(p.h * (1 + p.s * p.q) - p.theta0) < 1e-10


def test_closed_form_h(params_c9):
    p, D = params_c9, params_c9.D
    h = (p.q - p.q ** (2 * D)) / ((p.q - 1) * (1 + p.s * p.q ** (2 * D + 1)))
    hstar = (
        p.q ** (2 * D + 1) * (1 - p.s * p.q**2) * (1 - p.s * p.q**3)
        / ((1 - p.q**2) * (1 - p.s**2 * p.q ** (2 * D + 4)))
    )
    assert abs(p.h - h) < 1e-8 * abs(h)
    assert abs(p.hstar - hstar) < 1e-8 * abs(hstar)


def test_guards_hold(params_c7, params_c9):
    for p in (params_c7, params_c9):
        D = p.D
        for i in range(1, 2 * D + 1):
            assert abs(p.q**i - 1) > 1e-6
        for i in range(2, 2 * D + 1):
            assert abs(p.s * p.q**i - 1) > 1e-6
        for i in range(1, 2 * D + 2):
            assert abs(p.s * p.q**i + 1) > 1e-6


def test_qs_forms_match_theta_forms(c7, c9, params_c7, params_c9):
    for bundle, params in ((c7, params_c7), (c9, params_c9)):
        sp = bundle.spectral
        grid = qs_band_grid(params)
        for (t, d) in grid.cells:
            for read, qs_read in ((sp.bands.bands, grid.bands), (sp.bands.bands_star, grid.bands_star)):
                gap = np.abs(tridiagonal(*read(t, d)) - tridiagonal(*qs_read(t, d))).max()
                assert gap < 1e-8, (bundle.name, t, d)


@pytest.mark.parametrize("D", range(4, 18))
def test_band_gap_equals_matrix_gap_on_cycles(D):
    # C_9..C_35: the gap read from the bands is the matrix gap, bit for bit,
    # cell by cell and over the whole grid
    sp = tw.spectral_data(tw.odd_cycle(D))
    grid = qs_band_grid(tw.fit_qs(sp.theta, sp.theta_star, D))
    worst = 0.0
    for (t, d) in grid.cells:
        for read, qs_read in ((sp.bands.bands, grid.bands), (sp.bands.bands_star, grid.bands_star)):
            x, y = read(t, d), qs_read(t, d)
            gap = float(np.abs(tridiagonal(*x) - tridiagonal(*y)).max())
            assert band_gap(x, y) == gap, (D, t, d)
            worst = max(worst, gap)
    assert sp.bands.gap(grid) == worst


def test_band_gap_reads_every_band():
    c, a, b = np.array([0.0, 1.0, 2.0]), np.array([3.0, 4.0, 5.0]), np.array([6.0, 7.0, 0.0])
    base = (c, a, b)
    assert band_gap(base, base) == 0.0
    # boundary entries c[0] and b[d] are not matrix entries
    assert band_gap(base, (c + [9.0, 0, 0], a, b + [0, 0, 9.0])) == 0.0
    assert band_gap(base, (c + [0, 0, 0.5], a, b)) == 0.5
    assert band_gap(base, (c, a - [0, 0.25, 0], b)) == 0.25
    assert band_gap(base, (c, a, b + [0.125, 0, 0])) == 0.125


def test_d0_qs_form(params_c7, c7):
    B = tridiagonal(*qs_band_grid(params_c7).bands(3, 0))
    assert B.shape == (1, 1)
    assert B[0, 0] == pytest.approx(c7.spectral.theta[3], abs=1e-10)


def test_closed_form_multiplicities_c7(c7, params_c7):
    # D = 3 puts every cell within reach of the six closed forms
    for (t, d) in tw.upsilon_cells(3):
        closed = tw.qs_multiplicity(params_c7, t, d)
        assert closed == pytest.approx(c7.table.mult[(t, d)], abs=1e-6), (t, d)


def test_closed_form_multiplicities_c9(c9, params_c9):
    covered = [(t, d) for (t, d) in tw.upsilon_cells(4) if d >= 1]
    assert len(covered) == 6
    for (t, d) in covered:
        closed = tw.qs_multiplicity(params_c9, t, d)
        assert closed == pytest.approx(c9.table.mult[(t, d)], abs=1e-6), (t, d)


def test_qs_multiplicity_out_of_range(params_c9):
    with pytest.raises(OutOfRange):
        tw.qs_multiplicity(params_c9, 2, 0)  # d = 0 < D - 3 = 1
    with pytest.raises(InvalidCell):
        tw.qs_multiplicity(params_c9, 0, 1)


def test_beta_degenerate_on_excluded_families(o4, fc7):
    # the excluded families sit exactly at beta = -2 and beta = +2
    for bundle in (o4, fc7):
        sp = bundle.spectral
        with pytest.raises(BetaDegenerate):
            tw.fit_qs(sp.theta, sp.theta_star, sp.D)


def test_fit_rejects_incompatible_sequences():
    theta = np.array([5.0, 2.0, -1.0, -4.5])  # no common recurrence with theta*
    theta_star = np.array([7.0, 1.0, -2.0, 3.0])
    with pytest.raises((FitFailure, BetaDegenerate)):
        tw.fit_qs(theta, theta_star, 3)


def test_exclusion_check(c7, c9, o4, fc7, fc9):
    for bundle, odd, folded in (
        (c7, False, False),
        (c9, False, False),
        (o4, True, False),
        (fc7, False, True),
        (fc9, False, True),
    ):
        report = tw.exclusion_check(bundle.spectral.pp, bundle.scheme.n)
        assert report.is_odd_graph == odd
        assert report.is_folded_cube == folded
        assert report.excluded == (odd or folded)


@pytest.mark.parametrize(
    "generate, closed_form, D",
    [(tw.odd_graph, _odd_graph_array, D) for D in range(2, 6)]
    + [(tw.folded_cube, _folded_cube_array, D) for D in range(2, 5)],
)
def test_exclusion_closed_forms_match_generated(generate, closed_form, D):
    scheme = generate(D)
    pp = tw.intersection_array(scheme.tensor)
    expected = closed_form(D)
    for field in ("c", "a", "b"):
        assert np.array_equal(getattr(pp, field), getattr(expected, field)), field
    report = tw.exclusion_check(pp, scheme.n)
    assert report.family == generate.__name__


def test_exclusion_vertex_count_match_but_different_array():
    # the triangular scheme on 10 vertices shares the Petersen vertex count
    # but not its intersection array
    from itertools import combinations

    verts = list(combinations(range(5), 2))
    adj = [[j for j, w in enumerate(verts) if j != i and (set(v) & set(w))]
           for i, v in enumerate(verts)]
    scheme = tw.scheme_from_graph(adj)
    assert scheme.n == 10
    pp = tw.intersection_array(scheme.tensor)
    report = tw.exclusion_check(pp, scheme.n)
    assert not report.excluded


def reference_qs_cab(params, t, d):
    """Reference: the former per-cell loop in scalar complex arithmetic for (c, a, b)."""
    from terwlab.qs import _real

    q, s, h = params.q, params.s, params.h
    scale = abs(h) * max(1.0, abs(s))
    if d == 0:
        return np.zeros(1), np.array([_real(h * q ** (-t) * (1 + s * q ** (2 * t + 1)), scale)]), np.zeros(1)
    c, a, b = np.zeros(d + 1), np.zeros(d + 1), np.zeros(d + 1)
    b[0] = _real(h * q ** (-t) * (s * q ** (2 * t + 1) + 1), scale)
    for i in range(1, d):
        den = q ** (t + i) * (q ** (2 * d - 2 * i + 1) - 1)
        c[i] = _real(h * (1 - q**i) * (1 + s * q ** (2 + 2 * d + 2 * t - i)) / den, scale)
        b[i] = _real(h * (q ** (2 * d + 1 - i) - 1) * (1 + s * q ** (2 * t + i + 1)) / den, scale)
    c[d] = _real(h * (1 - q**d) * (1 + s * q ** (2 + d + 2 * t)) / (q ** (t + d) * (q - 1)), scale)
    a[d] = _real(h * (q ** (d + 1) - 1) * (1 + s * q ** (1 + d + 2 * t)) / (q ** (t + d) * (q - 1)), scale)
    return c, a, b


def reference_qs_cab_star(params, t, d):
    """Reference: the former per-cell loop in scalar complex arithmetic for (c*, a*, b*)."""
    from terwlab.qs import _real

    q, s, hstar, D = params.q, params.s, params.hstar, params.D
    r = D - d
    theta_star_r = _real(qs_theta_star(params, r), abs(hstar))
    scale = abs(hstar) * max(1.0, abs(s)) ** 2
    if d == 0:
        return np.zeros(1), np.array([theta_star_r]), np.zeros(1)
    cs, bs = np.zeros(d + 1), np.zeros(d + 1)
    bs[0] = _real(hstar * (q ** (2 * d) - 1) * (1 + s * q ** (2 * t + 1))
                  / (q ** (D + d) * (1 - s * q ** (2 + 2 * t))), scale)
    for i in range(1, d):
        cs[i] = _real(hstar * (1 - q ** (2 * i)) * (1 - s**2 * q ** (2 + 2 * d + 4 * t + 2 * i))
                      / (q ** (D + d + 1) * (1 - s * q ** (2 * i + 2 * t)) * (1 - s * q ** (1 + 2 * i + 2 * t))), scale)
        bs[i] = _real(hstar * (q ** (2 * d - 2 * i) - 1) * (1 - s**2 * q ** (2 + 2 * i + 4 * t))
                      / (q ** (D + d - 2 * i) * (1 - s * q ** (2 + 2 * i + 2 * t)) * (1 - s * q ** (1 + 2 * i + 2 * t))),
                      scale)
    cs[d] = _real(hstar * (1 - q ** (2 * d)) * (1 + s * q ** (2 * t + 2 * d + 1))
                  / (q ** (D + d + 1) * (1 - s * q ** (2 * t + 2 * d))), scale)
    return cs, theta_star_r - bs - cs, bs


def _reference_failure(params):
    """The FitFailure the former cell-by-cell loop raised first, primal before dual, or None."""
    for (t, d) in tw.upsilon_cells(params.D):
        for form in (reference_qs_cab, reference_qs_cab_star):
            try:
                form(params, t, d)
            except FitFailure as exc:
                return (t, d), form, exc
    return None


def _failing_value(exc):
    return complex(str(exc).split("value ", 1)[1].split(" has", 1)[0])


@pytest.mark.parametrize("D", range(3, 31))
def test_qs_band_grid_is_per_cell_reference_on_cycles(D):
    # numpy's complex products and quotients round differently from Python's
    # scalar ones, so the grid equals the loop up to rounding
    sp = tw.spectral_data(tw.odd_cycle(D))
    params = tw.fit_qs(sp.theta, sp.theta_star, D)
    grid = qs_band_grid(params)
    for (t, d) in grid.cells:
        for got, want in ((grid.bands(t, d), reference_qs_cab(params, t, d)),
                          (grid.bands_star(t, d), reference_qs_cab_star(params, t, d))):
            for x, z in zip(got, want):
                assert x.shape == z.shape, (D, t, d)
                assert np.abs(x - z).max() <= 1e-13 * max(1.0, float(np.abs(z).max())), (D, t, d)
    assert grid.gap(sp.bands) <= 1e-8


@pytest.mark.parametrize("D", [5, 9])
def test_qs_band_grid_fails_where_the_per_cell_loop_fails(D):
    # s off the unit circle makes the bands complex: the grid raises the
    # FitFailure of the first cell and band the loop raises at
    sp = tw.spectral_data(tw.odd_cycle(D))
    params = tw.fit_qs(sp.theta, sp.theta_star, D)
    bad = replace(params, s=params.s * (1 + 1e-3))
    cell, form, expected = _reference_failure(bad)
    with pytest.raises(FitFailure) as got:
        qs_band_grid(bad)
    assert _failing_value(got.value) == pytest.approx(_failing_value(expected), rel=1e-12)
    assert _reference_failure(params) is None
    qs_band_grid(params)


@pytest.mark.parametrize("D", [3, 4, 7, 10, 15])
def test_qs_band_grid_gate_matches_the_per_cell_loop_on_perturbations(D):
    # complex perturbations of s, h, h* and q, from well inside the gate to
    # far outside it: the grid raises exactly when the loop does, naming
    # the same value
    sp = tw.spectral_data(tw.odd_cycle(D))
    params = tw.fit_qs(sp.theta, sp.theta_star, D)
    rng = np.random.default_rng(D)
    raised = 0
    for _ in range(8):
        nudged = {name: getattr(params, name) * (1 + 10 ** rng.uniform(-12, -4) * complex(*rng.standard_normal(2)))
                  for name in ("s", "h", "hstar", "q") if rng.random() < 0.5}
        bad = replace(params, **nudged)
        expected = _reference_failure(bad)
        if expected is None:
            qs_band_grid(bad)
            continue
        raised += 1
        with pytest.raises(FitFailure) as got:
            qs_band_grid(bad)
        assert _failing_value(got.value) == pytest.approx(_failing_value(expected[2]), rel=1e-12), nudged
    assert 0 < raised < 8


def test_qs_per_cell_forms_reject_cells_off_the_grid(params_c9):
    grid = qs_band_grid(params_c9)
    for (t, d) in ((0, 5), (4, 1), (0, 0)):
        for read in (grid.bands, grid.bands_star):
            with pytest.raises(InvalidCell):
                read(t, d)


def test_qs_band_grid_lets_nan_through(params_c9):
    # a NaN is not above the gate, for the grid as for the per-cell loop
    bad = replace(params_c9, h=complex("nan"))
    assert _reference_failure(bad) is None
    c, a, b = qs_band_grid(bad).cab
    assert np.isnan(b[0])


def test_closed_form_multiplicities_are_the_cells_of_diameter_at_least_D_minus_3(cycle_contexts, tmp_path, capsys):
    import json

    from terwlab.cli import main
    from terwlab.qs import closed_form_multiplicities

    for name, ctx in cycle_contexts.items():
        sp = ctx.spectral
        params = tw.fit_qs(sp.theta, sp.theta_star, sp.D)
        closed = closed_form_multiplicities(params)
        cells = sorted((t, d) for (t, d) in tw.upsilon_cells(sp.D) if d >= sp.D - 3)
        assert list(closed) == cells and len(cells) == 6, name
        assert closed == {(t, d): tw.qs_multiplicity(params, t, d) for (t, d) in cells}, name
        # qs --json lists the same cells in the same order
        path = tmp_path / f"{name}.json"
        tw.save_scheme(tw.odd_cycle(sp.D), path)
        assert main(["qs", "--scheme", str(path), "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)["closed_form_mult"]
        assert [((r["t"], r["d"]), r["mult"]) for r in rows] == list(closed.items()), name


def reference_fit_qs(theta, theta_star, D):
    """Reference: the former fit, its least-squares rows, model columns and residuals built by loops over i."""
    from terwlab.qs import FIT_TOL, QSParams

    th, ths = np.asarray(theta, dtype=np.float64), np.asarray(theta_star, dtype=np.float64)
    scale = max(1.0, float(np.abs(th).max()), float(np.abs(ths).max()))
    rows, rhs = [], []
    for i in range(1, D):
        rows.append([th[i], 1.0, 0.0])
        rhs.append(th[i - 1] + th[i + 1])
        rows.append([ths[i], 0.0, 1.0])
        rhs.append(ths[i - 1] + ths[i + 1])
    rows, rhs = np.array(rows), np.array(rhs)
    (beta, gamma, gamma_star), *_ = np.linalg.lstsq(rows, rhs, rcond=None)
    root = np.sqrt(complex(beta) ** 2 - 4)
    q1, q2 = (beta + root) / 2, (beta - root) / 2
    q = q1 if abs(q1) >= abs(q2) else q2
    if abs(abs(q) - 1.0) < 1e-9:
        q = q1 if q1.imag >= 0 else q2

    def fit_primal(q):
        M = np.empty((D, 2), dtype=complex)
        for i in range(1, D + 1):
            M[i - 1] = [(1 - q**i) * q ** (-i), -q * (1 - q**i)]
        sol, *_ = np.linalg.lstsq(M, (th[1:] - th[0]).astype(complex), rcond=None)
        return sol[0], sol[1]

    h, hs_prod = fit_primal(q)
    if abs(h) < 1e-10 * scale:
        q = 1 / q
        h, hs_prod = fit_primal(q)
    s = hs_prod / h
    col = np.array([(1 - q**i) * (1 - q ** (i - 2 * D - 1)) * q ** (-i) for i in range(1, D + 1)])
    sol, *_ = np.linalg.lstsq(col[:, None], (ths[1:] - ths[0]).astype(complex), rcond=None)
    params = QSParams(q=complex(q), s=complex(s), h=complex(h), hstar=complex(sol[0]), beta=float(beta),
                      gamma=float(gamma), gamma_star=float(gamma_star), theta0=float(th[0]),
                      theta_star0=float(ths[0]), D=D, fit_residual=0.0)
    resid = max(
        max(abs(th[i] - th[0] - h * (1 - q**i) * (1 - s * q ** (i + 1)) * q ** (-i)) for i in range(D + 1)),
        max(abs(ths[i] - qs_theta_star(params, i)) for i in range(D + 1)),
        max(abs(th[i] - qs_theta(params, i)) for i in range(D + 1)),
    )
    assert resid <= FIT_TOL * scale
    return replace(params, fit_residual=float(resid))


def reference_guard_failure(params):
    """Reference: the former guards as scalar tests in a loop over i; the message of the first failing one, or None."""
    from terwlab.qs import GUARD_TOL

    q, s, h, hstar, D = params.q, params.s, params.h, params.hstar, params.D
    if min(abs(q), abs(h), abs(hstar)) < GUARD_TOL:
        return "q, h, h* must be nonzero"
    for i in range(1, 2 * D + 1):
        if abs(q**i - 1) < GUARD_TOL:
            return f"q^{i} = 1 violates the eigenvalue distinctness guard"
    for i in range(2, 2 * D + 1):
        if abs(s * q**i - 1) < GUARD_TOL:
            return f"s q^{i} = 1 violates the eigenvalue distinctness guard"
    for i in range(1, 2 * D + 2):
        if abs(s * q**i + 1) < GUARD_TOL:
            return f"s q^{i} = -1 violates the module nonvanishing guard"
    return None


def reference_qs_grid(params):
    """Reference: the q,s grid with its q-power table and theta*_r built by list comprehensions."""
    from terwlab.predictor import band_entries

    q, s, h, hstar, D = params.q, params.s, params.h, params.hstar, params.D
    K = 4 * D + 2
    table = np.array([q**k for k in range(-K, K + 1)])
    layout = band_entries(D)
    t, d, i, _ = layout.kinds[0]
    Q = lambda k: table[k + K]  # noqa: E731
    inner_c = h * (1 - Q(i)) * (1 + s * Q(2 + 2 * d + 2 * t - i)) / (Q(t + i) * (Q(2 * d - 2 * i + 1) - 1))
    theta_star_r = np.array([qs_theta_star(params, k) for k in range(D + 1)])[D - layout.entry_d]
    return table, inner_c, theta_star_r


def _qs_params(D):
    sp = tw.spectral_data(tw.odd_cycle(D))
    return sp, tw.fit_qs(sp.theta, sp.theta_star, D)


@pytest.mark.parametrize("D", range(3, 31))
def test_fit_qs_is_the_loop_reference(D):
    # numpy's complex powers and products round apart from Python's scalar ones: equal up to rounding
    sp, params = _qs_params(D)
    want = reference_fit_qs(sp.theta, sp.theta_star, D)
    assert (params.beta, params.gamma, params.gamma_star) == (want.beta, want.gamma, want.gamma_star)
    assert (params.theta0, params.theta_star0, params.D) == (want.theta0, want.theta_star0, want.D)
    for name in ("q", "s", "h", "hstar"):
        assert abs(getattr(params, name) - getattr(want, name)) <= 1e-12 * max(1.0, abs(getattr(want, name))), name
    assert abs(params.fit_residual - want.fit_residual) <= 1e-11 * max(1.0, float(np.abs(sp.theta).max()))


@pytest.mark.parametrize("D", range(3, 31))
def test_guards_name_the_first_failing_exponent_as_the_loop_does(D):
    # each guard is forced at every exponent it covers, just inside and just outside GUARD_TOL: the
    # array form raises when the loop does, naming the same exponent, and passes when it passes
    from terwlab.qs import GUARD_TOL, _verify_guards

    _, params = _qs_params(D)
    q = params.q
    cases = [params, replace(params, h=0.5e-6), replace(params, q=complex(np.exp(2j * np.pi / (2 * D))))]
    for k in range(0, 2 * D + 3):
        for margin in (0.5, 2.0):
            nudge = 1 + margin * GUARD_TOL
            cases += [replace(params, s=nudge / q**k), replace(params, s=-nudge / q**k)]
    raised, exponents = set(), set()
    for case in cases:
        want = reference_guard_failure(case)
        if want is None:
            _verify_guards(case)
            continue
        raised.add(re.sub(r"\^\d+", "^i", want))
        exponents.add(want)
        with pytest.raises(FitFailure) as got:
            _verify_guards(case)
        assert str(got.value) == want
    assert raised == {"q, h, h* must be nonzero", "q^i = 1 violates the eigenvalue distinctness guard",
                      "s q^i = 1 violates the eigenvalue distinctness guard",
                      "s q^i = -1 violates the module nonvanishing guard"}
    assert len(exponents) == 2 + (2 * D - 1) + (2 * D + 1)  # every exponent of both s guards is named


@pytest.mark.parametrize("D", range(3, 31))
def test_qs_grid_table_and_theta_star_are_the_list_forms(D):
    from terwlab.qs import _qs_grid

    sp, params = _qs_params(D)
    table, inner_c, theta_star_r = reference_qs_grid(params)
    K = 4 * D + 2
    got = params.q ** np.arange(-K, K + 1)
    assert np.abs(got - table).max() <= 1e-13
    grid, got_theta_star_r = _qs_grid(params, sp.layout)
    assert np.abs(got_theta_star_r - theta_star_r).max() <= 1e-13 * max(1.0, float(np.abs(theta_star_r).max()))
    at = sp.layout.kinds[0][3]
    assert np.abs(grid.cab[0][at] - inner_c).max() <= 1e-12 * max(1.0, float(np.abs(inner_c).max()))
    assert grid.layout is sp.layout
