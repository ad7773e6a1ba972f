"""Acceptance suite.

Each test prints one PASS line per criterion after asserting it at its
stated tolerance.  The five standard instances are the odd cycles C_7 and
C_9, the Odd graph O_4, and the folded 7- and 9-cubes.
"""

import json
import time

import numpy as np
import pytest

import terwlab as tw
from terwlab.cli import main, run_verify
from terwlab.predictor import band_gap, tridiagonal


def _report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


def test_criterion_01_scheme_axioms():
    t0 = time.perf_counter()
    builders = [
        ("C7", lambda: tw.odd_cycle(3)),
        ("C9", lambda: tw.odd_cycle(4)),
        ("O4", lambda: tw.odd_graph(3)),
        ("FC7", lambda: tw.folded_cube(3)),
        ("FC9", lambda: tw.folded_cube(4)),
    ]
    for name, build in builders:
        scheme = build()  # generators run full validation
        tensor = scheme.tensor
        assert np.issubdtype(tensor.p.dtype, np.integer), name
        A = np.stack([scheme.class_matrix(i) for i in range(scheme.D + 1)])
        for i in range(scheme.D + 1):
            for j in range(scheme.D + 1):
                lhs = A[i] @ A[j]
                rhs = np.tensordot(tensor.p[:, i, j].astype(np.float64), A, axes=(0, 0))
                assert np.array_equal(lhs, rhs), (name, i, j)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(1, f"five schemes validated with exact product identity in {elapsed:.1f}s")


def test_criterion_02_operator_identities(all_bundles):
    worst = 0.0
    for bundle in all_bundles:
        n = bundle.scheme.n
        for x in (0, n // 2):
            ctx = tw.build_context(bundle.scheme, bundle.spectral, x)
            report = tw.verify_operator_identities(ctx)
            assert report.all_passed, (bundle.name, x)
            assert report.max_residual < 1e-9 * n, (bundle.name, x)
            worst = max(worst, report.max_residual / n)
    _report(2, f"operator identities on 2 vertices per scheme, worst residual/n {worst:.2e}")


def test_criterion_03_module_structure(all_bundles):
    count = 0
    for bundle in all_bundles:
        D = bundle.scheme.D
        for mod in bundle.modules:
            # thin: one dimension per shell; dual thin: the certificate
            # raises NotThin unless the d + 1 eigenvalues of B^T A B are
            # theta_t..theta_{t+d}, one each, so rank(E_i W) <= 1
            assert mod.dim == mod.d + 1, bundle.name
            assert mod.t + mod.d <= D
            assert mod.r + mod.d == D
            assert 2 * mod.t + mod.d >= D
            count += 1
    _report(3, f"thin/dual-thin and endpoint identities for {count} oracle modules")


def test_criterion_04_formula_vs_oracle(all_bundles):
    worst_entry = 0.0
    worst_eig = 0.0
    for bundle in all_bundles:
        sp = bundle.spectral
        for mod in bundle.modules:
            cab, cab_star = sp.bands.bands(mod.t, mod.d), sp.bands.bands_star(mod.t, mod.d)
            worst_entry = max(worst_entry, band_gap(mod.cab, cab), band_gap(mod.cab_star, cab_star))
            eig = np.sort(np.linalg.eigvals(tridiagonal(*cab)).real)
            worst_eig = max(worst_eig, float(np.abs(eig - np.sort(sp.theta[mod.t : mod.t + mod.d + 1])).max()))
            assert cab[1].sum() == pytest.approx(sp.theta[mod.t : mod.t + mod.d + 1].sum(), abs=1e-8)
            assert cab_star[1].sum() == pytest.approx(
                sp.theta_star[mod.r : mod.r + mod.d + 1].sum(), abs=1e-8
            )
    assert worst_entry < 1e-6
    assert worst_eig < 1e-8
    _report(4, f"measured vs predicted entries {worst_entry:.2e}, eigenvalue error {worst_eig:.2e}")


def test_criterion_05_positivity(all_bundles):
    checked = 0
    for bundle in all_bundles:
        for mod in bundle.modules:
            c, _, b = mod.cab
            cs, _, bs = mod.cab_star
            for i in range(1, mod.d + 1):
                assert b[i - 1] * c[i] > 0, bundle.name
                assert bs[i - 1] * cs[i] > 0, bundle.name
                checked += 2
    _report(5, f"{checked} consecutive products strictly positive")


def test_criterion_06_trace_formula(all_bundles):
    worst = 0.0
    for bundle in all_bundles:
        sp = bundle.spectral
        ladders, closed = tw.trace_ladders(bundle.ctx), tw.krein_products(sp)
        for (t, d) in tw.upsilon_cells(sp.D):
            lhs, rhs = ladders[t][d], float(closed[t, d])
            rel = abs(lhs - rhs) / max(1.0, abs(rhs))
            assert rel < 1e-6, (bundle.name, t, d)
            worst = max(worst, rel)
    _report(6, f"trace identity on every feasible cell, worst relative error {worst:.2e}")


def test_criterion_07_multiplicity_recurrence(all_bundles):
    for bundle in all_bundles:
        table = bundle.table
        assert table.matches_census(tw.census(bundle.modules)), bundle.name
        assert table.mult[(0, bundle.scheme.D)] == 1
        assert table.total_dimension() == bundle.scheme.n
        assert max(table.pre_rounding.values()) < 1e-4
    for bundle in all_bundles:
        censuses = [tw.census(tw.decompose(bundle.ctx, seed=s)) for s in (0, 1, 2)]
        assert censuses[0] == censuses[1] == censuses[2], bundle.name
    _report(7, "recurrence equals oracle census on all schemes, stable across 3 seeds")


def test_criterion_08_qs_engine(c7, c9):
    t0 = time.perf_counter()
    for bundle in (c7, c9):
        sp = bundle.spectral
        params = tw.fit_qs(sp.theta, sp.theta_star, sp.D)
        assert params.fit_residual < 1e-8

        D = sp.D
        h_closed = (params.q - params.q ** (2 * D)) / (
            (params.q - 1) * (1 + params.s * params.q ** (2 * D + 1))
        )
        hstar_closed = (
            params.q ** (2 * D + 1) * (1 - params.s * params.q**2) * (1 - params.s * params.q**3)
            / ((1 - params.q**2) * (1 - params.s**2 * params.q ** (2 * D + 4)))
        )
        assert abs(params.h - h_closed) < 1e-8 * abs(h_closed)
        assert abs(params.hstar - hstar_closed) < 1e-8 * abs(hstar_closed)

        grid = tw.qs_band_grid(params)
        cells = grid.cells
        for (t, d) in cells:
            for read, qs_read in ((sp.bands.bands, grid.bands), (sp.bands.bands_star, grid.bands_star)):
                assert np.abs(tridiagonal(*read(t, d)) - tridiagonal(*qs_read(t, d))).max() < 1e-8

        covered = [(t, d) for (t, d) in cells if d >= D - 3]
        if bundle.name == "C7":
            assert set(covered) == set(cells)  # all six cells when D = 3
        for (t, d) in covered:
            closed = tw.qs_multiplicity(params, t, d)
            assert abs(closed - bundle.table.mult[(t, d)]) < 1e-6, (bundle.name, t, d)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(8, f"q,s engine on C7 and C9 in {elapsed:.2f}s")


def test_criterion_09_exclusion_guard(tmp_path, capsys):
    for family, D, flag in (("odd_graph", 3, "is_odd_graph"), ("folded_cube", 3, "is_folded_cube")):
        path = str(tmp_path / f"{family}.json")
        assert main(["gen", "--family", family, "--D", str(D), "--out", path]) == 0
        assert main(["qs", "--scheme", path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["exclusion"][flag] is True
        assert "excluded family" in doc["skipped"]
        assert "params" not in doc
    _report(9, "qs reports the excluded family and skips fitting on O4 and FC7")


def test_criterion_10_end_to_end_verify(tmp_path):
    specs = [
        ("odd_cycle", 3), ("odd_cycle", 4), ("odd_graph", 3),
        ("folded_cube", 3), ("folded_cube", 4),
    ]
    timings = []
    for family, D in specs:
        path = str(tmp_path / f"{family}_{D}.json")
        assert main(["gen", "--family", family, "--D", str(D), "--out", path]) == 0
        t0 = time.perf_counter()
        report = run_verify(path, vertex=0, seed=0)
        elapsed = time.perf_counter() - t0
        assert report.passed, (family, D, [c.as_dict() for c in report.checks if c.status == "fail"])
        assert elapsed < 120.0, (family, D, elapsed)
        timings.append(elapsed)
    _report(10, f"verify exits clean on all five schemes, slowest {max(timings):.1f}s")
