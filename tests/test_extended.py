"""Instances beyond the five standard ones: longer cycles, O_5, and the
small-diameter edge cases.  Everything here exercises the same pipeline
at parameters the core suite does not reach (D up to 7, twelve module
classes, D < 3 skips)."""

import numpy as np
import pytest

import terwlab as tw
from terwlab.cli import run_verify
from terwlab.predictor import band_gap


@pytest.mark.parametrize("D", [5, 6, 7])
def test_long_odd_cycles(D):
    scheme = tw.odd_cycle(D)
    sp = tw.spectral_data(scheme)
    ctx = tw.build_context(scheme, sp, 0)
    modules = tw.decompose(ctx)
    table = tw.solve_multiplicities(sp)
    observed = tw.census(modules)
    assert table.matches_census(observed)
    assert observed == {(0, D): 1, (1, D - 1): 1}

    params = tw.fit_qs(sp.theta, sp.theta_star, D)
    assert abs(params.q - np.exp(2j * np.pi / scheme.n)) < 1e-9
    covered = [(t, d) for (t, d) in tw.upsilon_cells(D) if d >= D - 3]
    assert len(covered) == 6
    for (t, d) in covered:
        closed = tw.qs_multiplicity(params, t, d)
        assert closed == pytest.approx(table.mult[(t, d)], abs=1e-6), (D, t, d)
    assert sp.bands.gap(tw.qs_band_grid(params)) < 1e-8


def test_o5_full_pipeline():
    scheme = tw.odd_graph(4)
    assert scheme.n == 126
    sp = tw.spectral_data(scheme)
    ctx = tw.build_context(scheme, sp, 0)
    modules = tw.decompose(ctx)
    table = tw.solve_multiplicities(sp)
    assert table.matches_census(tw.census(modules))
    assert table.total_dimension() == 126
    worst = max(band_gap(m.cab, sp.bands.bands(m.t, m.d)) for m in modules)
    assert worst < 1e-6


def test_census_vertex_independent(c9, fc7):
    # vertex-transitive families: same census from any base vertex
    for bundle in (c9, fc7):
        base = tw.census(bundle.modules)
        for x in (1, bundle.scheme.n - 1):
            ctx = tw.build_context(bundle.scheme, bundle.spectral, x)
            assert tw.census(tw.decompose(ctx)) == base


def test_verify_small_diameter_cycles(tmp_path):
    # D = 1 and D = 2 cycles run the whole pipeline; the q,s stage skips
    for D in (1, 2):
        path = tmp_path / f"c{2 * D + 1}.json"
        tw.save_scheme(tw.odd_cycle(D), path)
        report = run_verify(str(path))
        assert report.passed, [c.as_dict() for c in report.checks]
        qs_check = [c for c in report.checks if c.name == "qs_engine"][0]
        assert qs_check.status == "skip"
        assert "D >= 3" in qs_check.detail


def test_verify_petersen_and_clebsch(tmp_path):
    # the D = 2 members of the excluded families: skip reports the family
    for family, fname in (("odd_graph", "is_odd_graph"), ("folded_cube", "is_folded_cube")):
        scheme = tw.generators.generate(family, 2)
        path = tmp_path / f"{family}2.json"
        tw.save_scheme(scheme, path)
        report = run_verify(str(path))
        assert report.passed, [c.as_dict() for c in report.checks]
        qs_check = [c for c in report.checks if c.name == "qs_engine"][0]
        assert qs_check.status == "skip"
        assert "excluded family" in qs_check.detail


def test_verify_fails_without_q_ordering(tmp_path):
    # line graph of the Petersen graph: metric but not cometric
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
    path = tmp_path / "lg_petersen.json"
    tw.save_scheme(tw.scheme_from_graph(adj), path)
    report = run_verify(str(path))
    assert not report.passed
    pq = [c for c in report.checks if c.name == "pq_orderings"][0]
    assert pq.status == "fail" and "OrderingMissing" in pq.detail


@pytest.mark.parametrize("D", range(3, 31))
def test_verify_diameter_ladder(D, tmp_path):
    # C_7..C_61: the spectral data and every stage after them pass, with
    # the census {(0,D):1, (1,D-1):1}; the recurrence passes up to D = 18
    # and from D = 19 fails its rounding gate alone
    path = tmp_path / f"c{2 * D + 1}.json"
    tw.save_scheme(tw.odd_cycle(D), path)
    checks = {c.name: c for c in run_verify(str(path)).checks}
    assert checks["pq_orderings"].status == "pass"
    assert checks["decomposition"].detail == f"2 modules, census={{(0,{D}):1, (1,{D - 1}):1}}"
    recurrence = checks.pop("multiplicity_recurrence")
    assert all(c.status == "pass" for c in checks.values()), [c.as_dict() for c in checks.values()]
    if D <= 18:
        assert recurrence.status == "pass"
    else:
        assert recurrence.status == "fail" and recurrence.detail.startswith("NonIntegerMultiplicity"), D


DENSE_TABLES = {
    "O5": (lambda: tw.odd_graph(5), {(0, 5): 1, (1, 3): 4, (1, 4): 5, (2, 1): 5, (2, 2): 9, (2, 3): 20, (3, 0): 5,
                                     (3, 1): 25, (3, 2): 36, (4, 0): 20, (4, 1): 45, (5, 0): 25}),
    "FC9": (lambda: tw.folded_cube(4), {(0, 4): 1, (1, 2): 27, (1, 3): 8, (2, 0): 42, (2, 1): 48}),
    "FC11": (lambda: tw.folded_cube(5), {(0, 5): 1, (1, 3): 44, (1, 4): 10, (2, 1): 165, (2, 2): 110, (3, 0): 132}),
}


@pytest.mark.parametrize("name", sorted(DENSE_TABLES))
def test_dense_instances_keep_census_and_multiplicity_table(name):
    build, expected = DENSE_TABLES[name]
    scheme = build()
    sp = tw.spectral_data(scheme)
    table = tw.solve_multiplicities(sp)
    assert table.nonzero() == expected and table.zero_coefficient_cells == ()
    assert tw.census(tw.decompose(tw.build_context(scheme, sp, 0))) == expected
