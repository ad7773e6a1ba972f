import json
import os

import numpy as np
import pytest

import terwlab as tw
from terwlab.cli import main, run_verify
from terwlab.predictor import tridiagonal
from terwlab.spectral import is_almost_bipartite

STAGE_NAMES = [
    "axioms", "pq_orderings", "almost_bipartite", "operator_identities", "decomposition",
    "module_structure", "predictor_vs_oracle", "trace_formula", "multiplicity_recurrence", "qs_engine",
]


@pytest.fixture(scope="module")
def c7_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("schemes") / "c7.json"
    tw.save_scheme(tw.odd_cycle(3), path)
    return str(path)


@pytest.fixture(scope="module")
def o4_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("schemes") / "o4.json"
    tw.save_scheme(tw.odd_graph(3), path)
    return str(path)


def test_gen_and_validate(tmp_path, capsys):
    out = str(tmp_path / "c9.json")
    assert main(["gen", "--family", "odd_cycle", "--D", "4", "--out", out]) == 0
    assert main(["validate", "--scheme", out, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert doc["schema"] == "terw-lab/1"
    assert doc["n"] == 9 and doc["D"] == 4 and doc["valid"]


def test_gen_matches_library(tmp_path):
    out = tmp_path / "c7.json"
    assert main(["gen", "--family", "odd_cycle", "--D", "3", "--out", str(out)]) == 0
    loaded = tw.load_scheme(out)
    assert np.array_equal(loaded.relation, tw.odd_cycle(3).relation)


def test_gen_invalid_parameter(tmp_path):
    out = str(tmp_path / "x.json")
    assert main(["gen", "--family", "odd_cycle", "--D", "0", "--out", out]) == 2


@pytest.mark.parametrize("family, D", [("folded_cube", 7), ("odd_graph", 1), ("odd_cycle", 2500)])
def test_gen_out_of_range_D_is_input_error(family, D, tmp_path, capsys):
    # over the vertex cap or below the family's least D: an input error, not a failed check
    out = tmp_path / "x.json"
    assert main(["gen", "--family", family, "--D", str(D), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("input error: ")
    assert not out.exists()


def test_analyze_json(c7_file, capsys):
    assert main(["analyze", "--scheme", c7_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["almost_bipartite"] is True
    assert doc["identities"]["all_passed"] is True
    assert [c["name"] for c in doc["identities"]["checks"]] == [
        "A E_i = theta_i E_i",
        "A = R + F + L",
        "Astar = Rstar + Fstar + Lstar",
        "F = Estar_D A Estar_D",
        "Estar_D A Estar_D != 0",
    ]


def test_predict_json(c7_file, capsys):
    assert main(["predict", "--scheme", c7_file, "--t", "1", "--d", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["B"]) == 3
    assert doc["feasibility"]["feasible"] is True
    # the printed matrices are those of the grid bands, on a d = 0 cell too
    sp = tw.spectral_data(tw.load_scheme(c7_file))
    for (t, d) in ((1, 2), (0, 3), (3, 0)):
        assert main(["predict", "--scheme", c7_file, "--t", str(t), "--d", str(d), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["t"], doc["d"], doc["r"]) == (t, d, sp.D - d)
        assert doc["B"] == tridiagonal(*sp.bands.bands(t, d)).tolist()
        assert doc["Bstar"] == tridiagonal(*sp.bands.bands_star(t, d)).tolist()
        assert doc["a0star"] == (doc["Bstar"][0][0] if d else None)
        assert doc["feasibility"] == tw.feasibility(sp, t, d).as_dict()


@pytest.mark.parametrize("t, d", [(9, 9), (0, 1)])
def test_predict_off_the_grid_is_input_error(t, d, c7_file, capsys):
    assert main(["predict", "--scheme", c7_file, "--t", str(t), "--d", str(d), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: (t, d) = ({t}, {d}) is not feasible for D = 3\n"


def test_decompose_json(c7_file, capsys):
    assert main(["decompose", "--scheme", c7_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["census"] == [{"t": 0, "d": 3, "count": 1}, {"t": 1, "d": 2, "count": 1}]
    assert all(m["thin"] is True and m["dual_thin"] is True for m in doc["modules"])


def test_multiplicities_with_oracle(c7_file, capsys):
    assert main(["multiplicities", "--scheme", c7_file, "--oracle", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["matches_oracle"] is True
    assert doc["total_dimension"] == 7


def test_qs_subcommand(c7_file, capsys):
    assert main(["qs", "--scheme", c7_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["exclusion"] == {"is_odd_graph": False, "is_folded_cube": False}
    assert doc["params"]["fit_residual"] < 1e-8
    mult_01 = [r for r in doc["closed_form_mult"] if (r["t"], r["d"]) == (0, 3)]
    assert mult_01[0]["mult"] == pytest.approx(1.0, abs=1e-9)


def test_qs_skips_excluded_family(o4_file, capsys):
    assert main(["qs", "--scheme", o4_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["exclusion"]["is_odd_graph"] is True
    assert "excluded family" in doc["skipped"]
    assert "params" not in doc


def test_verify_passes(c7_file, capsys):
    assert main(["verify", "--scheme", c7_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "pass"
    assert [c["name"] for c in doc["checks"]] == STAGE_NAMES


def test_verify_report_deterministic(c7_file):
    a = json.dumps(run_verify(c7_file, 0).as_dict(), sort_keys=True)
    b = json.dumps(run_verify(c7_file, 0).as_dict(), sort_keys=True)
    assert a == b


def test_verify_excluded_family_skips_qs(o4_file, capsys):
    assert main(["verify", "--scheme", o4_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    qs_checks = [c for c in doc["checks"] if c["name"] == "qs_engine"]
    assert qs_checks[0]["status"] == "skip"
    assert "excluded family" in qs_checks[0]["detail"]


def test_verify_corrupted_scheme_records_axiom_violation(tmp_path, capsys):
    rel = tw.odd_cycle(3).relation.copy()
    rel[0, 2] = rel[2, 0] = 1
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"n": 7, "D": 3, "relation": {"kind": "explicit", "matrix": rel.tolist()}}))
    assert main(["verify", "--scheme", str(path), "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    axioms = [c for c in doc["checks"] if c["name"] == "axioms"]
    assert axioms[0]["status"] == "fail"
    assert "AxiomViolation" in axioms[0]["detail"]
    assert doc["verdict"] == "fail"
    assert {(c["status"], c["detail"]) for c in doc["checks"][1:]} == {("skip", "scheme unavailable")}


def test_malformed_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{oops")
    assert main(["verify", "--scheme", str(path)]) == 2
    assert main(["validate", "--scheme", str(path)]) == 2


@pytest.mark.parametrize("relation", [
    {"kind": "distance_graph", "adjacency": [[1, 6.7], [0, 2], [1, 3], [2, 4], [3, 5], [4, 6], [5, 0]]},
    {"kind": "explicit", "matrix": [[0, 1.5, 2, 3, 3, 2, 1]] + tw.odd_cycle(3).relation.tolist()[1:]},
], ids=["adjacency", "matrix"])
def test_non_integer_entry_is_input_error(tmp_path, capsys, relation):
    path = tmp_path / "float.json"
    path.write_text(json.dumps({"n": 7, "D": 3, "relation": relation}))
    assert main(["validate", "--scheme", str(path)]) == 2
    assert "not a JSON integer" in capsys.readouterr().err


@pytest.mark.parametrize("header, status", [
    ({}, 0), ({"n": 7.9}, 2), ({"D": "3"}, 2), ({"n": True}, 2),
], ids=["valid", "float n", "string D", "boolean n"])
def test_header_fields_must_be_json_integers(tmp_path, capsys, header, status):
    # each bad field would read as C_7's own n or D if it were cast with int()
    path = tmp_path / "c7.json"
    path.write_text(json.dumps({**tw.generators.scheme_to_json(tw.odd_cycle(3)), **header}))
    assert main(["validate", "--scheme", str(path)]) == status
    assert ("not a JSON integer" in capsys.readouterr().err) == (status == 2)


def test_missing_file_is_input_error():
    assert main(["validate", "--scheme", "/nonexistent.json"]) == 2


@pytest.mark.parametrize("argv, scheme, n", [
    *(pytest.param(argv, "c7_file", 7, id=" ".join(argv)) for argv in (
        ["verify", "--vertex", "99"], ["verify", "--vertex", "-1"], ["analyze", "--vertex", "99"],
        ["decompose", "--vertex", "99"], ["multiplicities", "--oracle", "--vertex", "99"],
        ["multiplicities", "--vertex", "99"], ["predict", "--t", "1", "--d", "2", "--vertex", "99"],
        ["qs", "--vertex", "99"], ["validate", "--vertex", "99"],
    )),
    # no Q-polynomial ordering: the vertex is rejected before the orderings are sought
    pytest.param(["verify", "--vertex", "99"], "lpg_file", 15,
                 id="verify --vertex 99 on a scheme that is not Q-polynomial"),
])
def test_vertex_out_of_range_is_input_error(argv, scheme, n, request, capsys):
    assert main([*argv, "--scheme", request.getfixturevalue(scheme), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: base vertex {argv[-1]} out of range for {n} vertices\n"


def test_text_rendering_lists_all_checks(c7_file, capsys):
    assert main(["verify", "--scheme", c7_file]) == 0
    text = capsys.readouterr().out
    for name in ("axioms", "qs_engine", "multiplicity_recurrence"):
        assert name in text
    assert "verdict: PASS" in text


def test_tol_override_can_force_failure(c7_file):
    # an absurdly tight tolerance turns the identity checks into failures
    assert main(["analyze", "--scheme", c7_file, "--tol", "1e-30"]) == 1
    assert main(["analyze", "--scheme", c7_file]) == 0


def test_verify_checks_identities_once(c7_file, monkeypatch):
    import terwlab.context as context

    calls = []
    real = context.verify_operator_identities

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(context, "verify_operator_identities", counted)
    assert main(["verify", "--scheme", c7_file, "--json"]) == 0
    assert main(["analyze", "--scheme", c7_file, "--tol", "1e-30", "--json"]) == 1
    assert len(calls) == 2


def test_tol_rejudges_the_same_identity_residuals(c7_file):
    # --tol changes the verdict of the identity stage, never its residual
    stage = {
        tol: [c for c in run_verify(c7_file, tol=tol).checks if c.name == "operator_identities"][0]
        for tol in (None, 1e-30)
    }
    assert stage[None].status == "pass" and stage[1e-30].status == "fail"
    assert stage[None].residual == stage[1e-30].residual > 0
    ctx = tw.build_context(tw.odd_cycle(3), tw.spectral_data(tw.odd_cycle(3)), 0)
    assert stage[None].residual == tw.verify_operator_identities(ctx).max_residual


def test_parser_reuse_leaks_no_option_between_calls(c7_file, capsys, monkeypatch):
    # one process runs several subcommands through the cached parser; each
    # call must print what it prints when it runs alone on a fresh parser
    import terwlab.cli as cli

    calls = [
        ["verify", "--scheme", c7_file, "--json"],
        ["multiplicities", "--scheme", c7_file, "--oracle", "--json"],
        ["predict", "--scheme", c7_file, "--t", "1", "--d", "2", "--json"],
        ["verify", "--scheme", c7_file, "--tol", "1e-3", "--json"],
        ["analyze", "--scheme", c7_file, "--tol", "1e-30", "--json"],
        ["analyze", "--scheme", c7_file, "--json"],
        ["verify", "--scheme", c7_file, "--json"],
    ]

    def run(argv):
        code = main(argv)
        return code, capsys.readouterr().out

    alone = []
    for argv in calls:
        cli._parser.cache_clear()
        alone.append(run(argv))
    built = []
    real_build = cli.build_parser

    def counted_build():
        built.append(1)
        return real_build()

    monkeypatch.setattr(cli, "build_parser", counted_build)
    cli._parser.cache_clear()
    assert [run(argv) for argv in calls] == alone
    assert len(built) == 1
    assert [code for code, _ in alone] == [0, 0, 0, 0, 1, 0, 0]


# ---------------------------------------------------------------- stage table

def test_stages_read_only_earlier_values():
    from terwlab.cli import STAGES

    assert [name for name, _, _, _ in STAGES] == STAGE_NAMES
    provided = set()
    for name, provides, reads, _ in STAGES:
        assert set(reads) <= provided, name
        provided.add(provides)


@pytest.fixture(scope="module")
def lpg_file(tmp_path_factory, petersen_line_graph):
    path = tmp_path_factory.mktemp("schemes") / "lpg.json"
    tw.save_scheme(petersen_line_graph, path)
    return str(path)


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


def _verify_checks(path, capsys):
    assert main(["verify", "--scheme", path, "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "fail"
    assert [c["name"] for c in doc["checks"]] == STAGE_NAMES
    return {c["name"]: (c["status"], c.get("detail")) for c in doc["checks"]}


def _after(checks, stage):
    return {name: checks[name] for name in STAGE_NAMES[STAGE_NAMES.index(stage) + 1:]}


def test_missing_q_ordering_skips_every_later_stage(lpg_file, capsys):
    checks = _verify_checks(lpg_file, capsys)
    assert checks["axioms"][0] == "pass"
    assert checks["pq_orderings"] == ("fail", "OrderingMissing: no Q-polynomial ordering")
    assert set(_after(checks, "pq_orderings").values()) == {("skip", "spectral data unavailable")}


def test_context_failure_skips_only_its_readers(c7_file, capsys, monkeypatch):
    import terwlab.cli as cli
    from terwlab.errors import NumericalCheckFailure

    monkeypatch.setattr(cli, "build_context", _raise(NumericalCheckFailure("no context")))
    checks = _verify_checks(c7_file, capsys)
    assert [checks[name][0] for name in STAGE_NAMES[:3]] == ["pass"] * 3
    assert checks["operator_identities"] == ("fail", "NumericalCheckFailure: no context")
    lost = ("skip", "context unavailable")
    assert _after(checks, "operator_identities") == {
        "decomposition": lost,
        "module_structure": lost,
        "predictor_vs_oracle": lost,
        "trace_formula": lost,
        "multiplicity_recurrence": lost,
        "qs_engine": ("pass", None),  # reads the spectral data only
    }


def test_oracle_failure_skips_only_its_readers(c7_file, capsys, monkeypatch):
    import terwlab.cli as cli
    from terwlab.errors import NotThin

    monkeypatch.setattr(cli, "decompose_standard_module", _raise(NotThin("no modules")))
    checks = _verify_checks(c7_file, capsys)
    assert [checks[name][0] for name in STAGE_NAMES[:4]] == ["pass"] * 4
    assert checks["decomposition"] == ("fail", "NotThin: no modules")
    lost = ("skip", "decomposition unavailable")
    assert _after(checks, "decomposition") == {
        "module_structure": lost,
        "predictor_vs_oracle": lost,
        "trace_formula": ("pass", None),  # reads the spectral data and the context only
        "multiplicity_recurrence": lost,
        "qs_engine": ("pass", None),  # compares closed-form multiplicities only when the table exists
    }


@pytest.mark.parametrize("argv", [
    ["analyze"], ["predict", "--t", "1", "--d", "1"], ["decompose"], ["multiplicities"], ["qs"],
], ids=lambda argv: argv[0])
def test_subcommands_share_the_q_polynomial_guard(argv, lpg_file, capsys):
    assert main([*argv, "--scheme", lpg_file, "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "check failed: OrderingMissing: no Q-polynomial ordering\n"


def test_validate_reads_no_spectral_data(c7_file, capsys, monkeypatch):
    import terwlab.cli as cli
    from terwlab.errors import NumericalCheckFailure

    monkeypatch.setattr(cli, "spectral_data", _raise(NumericalCheckFailure("no spectrum")))
    assert main(["validate", "--scheme", c7_file, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["valid"] is True


@pytest.mark.parametrize("argv", [
    ["analyze"], ["predict", "--t", "1", "--d", "2"], ["decompose"], ["multiplicities"], ["multiplicities", "--oracle"],
    ["qs"],
], ids=" ".join)
def test_spectral_failure_reaches_every_subcommand(argv, c7_file, capsys, monkeypatch):
    # every subcommand builds its values through the stage table, so it sees the stage's failure
    import terwlab.cli as cli
    from terwlab.errors import NumericalCheckFailure

    monkeypatch.setattr(cli, "spectral_data", _raise(NumericalCheckFailure("no spectrum")))
    assert main([*argv, "--scheme", c7_file, "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "check failed: NumericalCheckFailure: no spectrum\n"


def test_multiplicities_oracle_honours_tol(c7_file, capsys):
    # the oracle of multiplicities --oracle gets --tol, as that of decompose does
    for sub in (["decompose"], ["multiplicities", "--oracle"]):
        assert main([*sub, "--scheme", c7_file, "--tol", "1e-30"]) == 1
        assert capsys.readouterr().err.startswith("check failed: NotThin: ")


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1"])
@pytest.mark.parametrize("sub", [
    ["gen"], ["validate"], ["analyze"], ["predict", "--t", "1", "--d", "2"], ["decompose"], ["multiplicities"],
    ["multiplicities", "--oracle"], ["qs"], ["verify"],
], ids=" ".join)
def test_tol_that_is_not_positive_and_finite_is_input_error(sub, tol, c7_file, tmp_path, capsys, monkeypatch):
    # a NaN or infinite tol would pass every gate, and a negative one fail every gate;
    # it is refused before any subcommand reads a scheme file or writes one
    from terwlab import generators

    loads = []
    real_load = generators.load_scheme
    monkeypatch.setattr(generators, "load_scheme", lambda *a, **k: loads.append(1) or real_load(*a, **k))
    out = tmp_path / "gen.json"
    where = ["--family", "odd_cycle", "--D", "3", "--out", str(out)] if sub == ["gen"] else ["--scheme", c7_file]
    assert main([*sub, *where, f"--tol={tol}", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: tolerance {float(tol)} is not positive and finite\n"
    assert loads == [] and not out.exists()


@pytest.fixture(scope="module")
def c8_file(tmp_path_factory):
    # the 8-cycle: P- and Q-polynomial, bipartite (a_D = 0), so not almost-bipartite
    path = tmp_path_factory.mktemp("schemes") / "c8.json"
    tw.save_scheme(tw.scheme_from_graph([[(i - 1) % 8, (i + 1) % 8] for i in range(8)]), path)
    return str(path)


def test_qs_rule_is_shared(c7_file, c8_file, o4_file):
    from terwlab import qs

    reasons = {}
    for path in (c7_file, c8_file, o4_file):
        sp = tw.spectral_data(tw.load_scheme(path))
        reasons[path] = qs.skip_reason(sp.pp, sp.n)[1]
    five = tw.spectral_data(tw.odd_cycle(2))
    assert reasons == {c7_file: None, c8_file: qs.NOT_ALMOST_BIPARTITE, o4_file: "excluded family: odd_graph"}
    assert qs.skip_reason(five.pp, five.n)[1] == "q,s model needs D >= 3, scheme has D = 2"


def test_qs_subcommand_rejects_a_scheme_that_is_not_almost_bipartite(c8_file, capsys):
    assert main(["qs", "--scheme", c8_file, "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "scheme is not almost-bipartite; q,s model does not apply\n"


def test_multiplicities_oracle_refuses_before_the_oracle_runs(c8_file, monkeypatch, capsys):
    from terwlab import cli

    calls = []
    monkeypatch.setattr(cli, "build_context", lambda *args: calls.append("context"))
    monkeypatch.setattr(cli, "decompose_standard_module", lambda *args, **kwargs: calls.append("oracle"))
    assert main(["multiplicities", "--oracle", "--scheme", c8_file, "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "scheme is not almost-bipartite; multiplicity recurrence does not apply\n"
    assert calls == []


def test_no_subcommand_forms_the_tensor_of_a_certified_scheme(tmp_path, monkeypatch, capsys):
    from terwlab import scheme as scheme_module

    def formed(pp):
        raise AssertionError(f"p formed at D = {pp.D}")

    monkeypatch.setattr(scheme_module, "_tensor_from_array", formed)
    path = str(tmp_path / "c9.json")
    assert main(["gen", "--family", "odd_cycle", "--D", "4", "--out", path]) == 0
    for argv in (["validate"], ["analyze"], ["predict", "--t", "0", "--d", "4"], ["decompose"],
                 ["multiplicities", "--oracle"], ["qs"], ["verify"]):
        assert main([*argv, "--scheme", path, "--json"]) == 0, argv
    capsys.readouterr()


def test_verify_skips_qs_on_a_scheme_that_is_not_almost_bipartite(c8_file, capsys):
    main(["verify", "--scheme", c8_file, "--json"])
    doc = json.loads(capsys.readouterr().out)
    [check] = [c for c in doc["checks"] if c["name"] == "qs_engine"]
    assert check == {"name": "qs_engine", "status": "skip", "detail": "scheme is not almost-bipartite"}


def test_verify_stdout_is_byte_identical_in_and_across_processes(tmp_path, capfd):
    # the eigenspace bases come from LAPACK's symmetric eigensolver; the
    # report must not depend on the run or the process
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    for label, scheme in (("O4", tw.odd_graph(3)), ("FC9", tw.folded_cube(4)), ("C35", tw.odd_cycle(17))):
        path = str(tmp_path / f"{label}.json")
        tw.save_scheme(scheme, path)
        argv = ["verify", "--scheme", path, "--json"]
        outs = []
        for _ in range(2):
            main(argv)
            outs.append(capfd.readouterr().out)
        for _ in range(2):
            done = subprocess.run([sys.executable, "-m", "terwlab.cli", *argv], capture_output=True,
                                  env={**os.environ, "PYTHONPATH": src}, timeout=120)
            outs.append(done.stdout.decode())
        assert outs[0] and outs.count(outs[0]) == 4, label


# ---------------------------------------------------------------- module checks

def _stage(fn, bundle, table, spectral=None):
    """(status, residual, detail) of a module stage on the module table ``table``."""
    spectral = bundle.spectral if spectral is None else spectral
    values = {"spectral data": spectral, "almost-bipartite flag": is_almost_bipartite(spectral.pp),
              "decomposition": table}
    return fn(None, values)[:3]


def _set(table, j, **columns):
    """``table`` with entry ``j`` of each named column set to the given value.

    The stages read the oracle's output as the columns of one table, so a
    changed module is a changed entry of those columns.
    """
    from dataclasses import replace

    changed = {}
    for name, value in columns.items():
        column = getattr(table, name).copy()
        column[j] = value
        changed[name] = column
    return replace(table, **changed)


def _changed(bundle, j, **columns):
    """The bundle's module table with entry ``j`` of the named columns changed."""
    return _set(bundle.modules, j, **columns)


def _norm_ladder(mod):
    """The two norm-balance residuals of one module and whether all its ladder products are positive,
    from its bands and ladder norms alone."""
    (c, _, b), (cs, _, bs) = mod.cab, mod.cab_star
    n2, dn2 = mod.ladder_norms2, mod.dual_ladder_norms2
    residuals = (np.abs(c[1:] * n2[1:] - b[:-1] * n2[:-1]).max(initial=0.0),
                 np.abs(cs[1:] * dn2[1:] - bs[:-1] * dn2[:-1]).max(initial=0.0))
    return max(residuals), bool((b[:-1] * c[1:] > 0).all() and (bs[:-1] * cs[1:] > 0).all())


def test_module_structure_residual_is_the_largest_norm_ladder_residual(all_bundles):
    from terwlab.cli import _module_structure

    for bundle in all_bundles:
        reports = [_norm_ladder(m) for m in bundle.modules]
        worst = max(residual for residual, _ in reports)
        assert _stage(_module_structure, bundle, bundle.modules) == ("pass", worst, None), bundle.name
        assert bundle.modules.norm_residual.tolist() == [residual for residual, _ in reports]
        assert bundle.modules.products_positive.tolist() == [positive for _, positive in reports]


def test_module_structure_names_the_first_failing_module(o4):
    from terwlab.cli import _module_structure

    # the modules come sorted by class: (0,3), (1,1) x2, (1,2) x3, (2,0) x2, (2,1) x6, (3,0) x4
    assert [(m.t, m.d) for m in o4.modules][3] == (1, 2)
    broken = _changed(o4, 3, r=o4.modules.r[3] + 1)  # r + d = D fails
    assert _stage(_module_structure, o4, broken) == ("fail", None, "endpoint identities fail at (1,2)")
    low = _changed(o4, 3, t=0)  # 2t + d >= D fails
    assert _stage(_module_structure, o4, low) == ("fail", None, "endpoint identities fail at (0,2)")
    negative = _changed(o4, 9, products_positive=False)
    assert _stage(_module_structure, o4, negative) == ("fail", None, "nonpositive ladder product at (2,1)")
    # the earlier module is named, whichever check it fails
    negative = _set(negative, 3, r=negative.r[3] + 1)
    assert _stage(_module_structure, o4, negative) == ("fail", None, "endpoint identities fail at (1,2)")


def test_predictor_vs_oracle_failures(o4, fc7):
    from dataclasses import replace

    from terwlab.cli import _predictor_vs_oracle

    assert _stage(_predictor_vs_oracle, o4, o4.modules)[0] == "pass"
    # a band moved by 1e-3: a_2 of module 3, in the table's flat bands
    c, a, b = o4.modules.cab
    a = a.copy()
    a[o4.modules.start[3] + 2] += 1e-3
    moved = replace(o4.modules, cab=(c, a, b))
    status, residual, detail = _stage(_predictor_vs_oracle, o4, moved)
    assert (status, detail) == ("fail", "measured vs predicted exceeds 1e-6")
    assert residual == pytest.approx(1e-3, abs=1e-9)
    # (2, 1) is not a feasible class of the folded 7-cube
    assert [(m.t, m.d) for m in fc7.modules][1] == (1, 1)
    infeasible = _changed(fc7, 1, t=2)
    assert _stage(_predictor_vs_oracle, fc7, infeasible)[::2] == ("fail", "predicted class (2,1) infeasible")
    # with theta_1 moved by 1e-8 the predicted bands move by less than 1e-6,
    # but their eigenvalues leave theta by more than 1e-8
    theta = o4.spectral.theta.copy()
    theta[1] += 1e-8
    status, residual, detail = _stage(_predictor_vs_oracle, o4, o4.modules,
                                      spectral=replace(o4.spectral, theta=theta))
    assert (status, detail) == ("fail", "spectral identities of predictions exceed 1e-8")
    assert 1e-8 < residual < 1e-6


def test_no_stage_or_report_builds_module_objects(o4_file, capsys, monkeypatch):
    # verify's stages, and the decompose and multiplicities --oracle reports, read the
    # oracle's table as columns: no IrreducibleModule is built on their path
    from terwlab import decomposer

    monkeypatch.setattr(decomposer, "IrreducibleModule", lambda **fields: pytest.fail("module object built"))
    for argv in (["verify"], ["decompose"], ["multiplicities", "--oracle"]):
        assert main([*argv, "--scheme", o4_file, "--json"]) == 0
        assert strict_json(capsys.readouterr().out)["schema"] == "terw-lab/1"


# ---------------------------------------------------------------- almost-bipartite hypothesis

def _cycle(n):
    return [[(i - 1) % n, (i + 1) % n] for i in range(n)]


def _cube(k):
    return [[v ^ (1 << b) for b in range(k)] for v in range(1 << k)]


def _folded_cube(k):
    # the (k-1)-cube with each vertex also joined to its antipode
    full = (1 << (k - 1)) - 1
    return [[v ^ (1 << b) for b in range(k - 1)] + [v ^ full] for v in range(1 << (k - 1))]


def _johnson(n, e):
    from itertools import combinations

    verts = list(combinations(range(n), e))
    return [[j for j, w in enumerate(verts) if len(set(v) & set(w)) == e - 1] for v in verts]


def _hamming(d, q):
    from itertools import product

    words = list(product(range(q), repeat=d))
    return [[j for j, w in enumerate(words) if sum(a != b for a, b in zip(v, w)) == 1] for v in words]


#: P- and Q-polynomial schemes that are not almost-bipartite: four bipartite ones (a_D = 0),
#: and J(6,2) and H(3,3) (a_1 > 0)
NOT_ALMOST_BIPARTITE = {
    "C4": lambda: _cycle(4),
    "C8": lambda: _cycle(8),
    "3-cube": lambda: _cube(3),
    "folded 8-cube": lambda: _folded_cube(8),
    "J(6,2)": lambda: _johnson(6, 2),
    "H(3,3)": lambda: _hamming(3, 3),
}


@pytest.fixture(scope="module")
def not_almost_bipartite(tmp_path_factory):
    """(scheme file, D) of each scheme of :data:`NOT_ALMOST_BIPARTITE`."""
    files = {}
    for name, adjacency in NOT_ALMOST_BIPARTITE.items():
        scheme = tw.scheme_from_graph(adjacency())
        path = tmp_path_factory.mktemp("schemes") / "scheme.json"
        tw.save_scheme(scheme, path)
        files[name] = (str(path), scheme.D)
    return files


@pytest.mark.parametrize("name", NOT_ALMOST_BIPARTITE)
def test_verify_skips_the_theorems_off_the_almost_bipartite_hypothesis(name, not_almost_bipartite, capsys):
    from terwlab import qs

    path, _ = not_almost_bipartite[name]
    assert main(["verify", "--scheme", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "pass"
    checks = {c["name"]: (c["status"], c.get("detail")) for c in doc["checks"]}
    assert checks["almost_bipartite"] == ("pass", "almost_bipartite=False")
    assert {n: v for n, v in checks.items() if v[0] != "pass"} == {
        n: ("skip", qs.NOT_ALMOST_BIPARTITE) for n in ("predictor_vs_oracle", "multiplicity_recurrence", "qs_engine")
    }
    assert checks["trace_formula"] == ("pass", None)


@pytest.mark.parametrize("name", NOT_ALMOST_BIPARTITE)
@pytest.mark.parametrize("argv, what", [
    (["predict"], "module prediction"),
    (["multiplicities"], "multiplicity recurrence"),
    (["multiplicities", "--oracle"], "multiplicity recurrence"),
    (["qs"], "q,s model"),
], ids=lambda x: " ".join(x) if isinstance(x, list) else None)
def test_subcommands_refuse_a_scheme_that_is_not_almost_bipartite(argv, what, name, not_almost_bipartite, capsys):
    path, D = not_almost_bipartite[name]
    cell = ["--t", "0", "--d", str(D)] if argv == ["predict"] else []  # (0, D) is on every grid
    assert main([*argv, *cell, "--scheme", path, "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"scheme is not almost-bipartite; {what} does not apply\n"


def test_module_structure_off_the_hypothesis_checks_positivity_and_norms_only(o4):
    from terwlab.cli import _module_structure

    def stage(modules):
        values = {"spectral data": o4.spectral, "almost-bipartite flag": False, "decomposition": modules}
        return _module_structure(None, values)[:3]

    residual = _stage(_module_structure, o4, o4.modules)[1]
    assert stage(_changed(o4, 3, r=o4.modules.r[3] + 1)) == ("pass", residual, None)  # r + d = D fails
    assert stage(_changed(o4, 3, t=0)) == ("pass", residual, None)  # 2t + d >= D fails
    negative = _changed(o4, 9, products_positive=False)
    assert stage(negative) == ("fail", None, "nonpositive ladder product at (2,1)")


# ---------------------------------------------------------------- NaN residuals

def _nan_cell(ladders):
    ladders[1][-1] = float("nan")  # (1, D - 1): the second cell, where a running max would drop it
    return ladders


def _nan_module(table):
    return _set(table, 1, norm_residual=float("nan"))  # the second module, where a running max would drop it


def _nan_fit(params):
    from dataclasses import replace

    return replace(params, fit_residual=float("nan"))


def _nan_star_band(grid):
    from dataclasses import replace

    c, a, b = grid.cab_star
    return replace(grid, cab_star=(c, np.where(np.arange(len(a)) == 1, np.nan, a), b))


def _nan_band(grid):
    # a of the cell (0, D) at i = 1: realized on every scheme, and read by the predictor and q,s stages only
    from dataclasses import replace

    c, a, b = grid.cab
    return replace(grid, cab=(c, np.where(np.arange(len(a)) == 1, np.nan, a), b))


def _nan_eigenvalue(eig):
    eig[0, -1] = np.nan
    return eig


def strict_json(text):
    """``json.loads`` that rejects the bare tokens NaN, Infinity and -Infinity, as RFC 8259 parsers do."""
    def reject(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize(
    "scheme, module, name, inject, stage",
    [("c7_file", "terwlab.multiplicity", "trace_ladders", _nan_cell, "trace_formula"),
     ("o4_file", "terwlab.predictor", "band_gap", lambda gap: float("nan"), "predictor_vs_oracle"),
     ("o4_file", "terwlab.cli", "decompose_standard_module", _nan_module, "module_structure"),
     ("c7_file", "terwlab.qs", "fit_qs", _nan_fit, "qs_engine"),
     ("c7_file", "terwlab.qs", "qs_band_grid", _nan_star_band, "qs_engine"),
     # the eigenvalues of one stack of feasibility matrices
     ("c7_file", "terwlab.predictor", "_sorted_eigenvalues", _nan_eigenvalue, "predictor_vs_oracle"),
     # the predicted grid on the layout the grid stages share, read by both of its band stages
     ("c7_file", "terwlab.spectral", "band_grid", _nan_band, "predictor_vs_oracle qs_engine")],
)
def test_a_nan_residual_fails_its_stage(scheme, module, name, inject, stage, request, capsys, monkeypatch):
    import importlib

    target = importlib.import_module(module)
    real = getattr(target, name)
    monkeypatch.setattr(target, name, lambda *args, **kwargs: inject(real(*args, **kwargs)))
    assert main(["verify", "--scheme", request.getfixturevalue(scheme), "--json"]) == 1
    # strict JSON: the NaN residual is written as null
    checks = {c["name"]: c for c in strict_json(capsys.readouterr().out)["checks"]}
    for failed in stage.split():
        assert checks[failed]["status"] == "fail"
        assert "residual" in checks[failed] and checks[failed]["residual"] is None
    assert [c["name"] for c in checks.values() if c["status"] == "fail"] == stage.split()


def test_json_reports_write_no_bare_nan(c7_file, capsys):
    # every report that carries a residual nulls one that is not finite, and a NaN
    # anywhere else makes the report raise instead of printing a bare token
    from dataclasses import replace

    import terwlab.cli as cli
    from terwlab.context import CheckResult
    from terwlab.predictor import FeasibilityReport

    assert CheckResult("x", float("nan"), 1.0).as_dict()["residual"] is None
    report = FeasibilityReport(t=0, d=1, products=(1.0,), dual_products=(1.0,), eig_B_error=float("inf"),
                               eig_Bstar_error=float("nan"), trace_B_error=0.0, trace_Bstar_error=-float("inf"))
    doc = report.as_dict()
    assert [doc[k] for k in ("eig_B_error", "eig_Bstar_error", "trace_B_error", "trace_Bstar_error")] == \
        [None, None, 0.0, None]
    params = tw.fit_qs(*(lambda sp: (sp.theta, sp.theta_star, sp.D))(tw.spectral_data(tw.odd_cycle(3))))
    assert replace(params, fit_residual=float("nan")).as_dict()["fit_residual"] is None
    table = tw.solve_multiplicities(tw.spectral_data(tw.odd_cycle(3)))
    table = replace(table, pre_rounding={cell: float("nan") for cell in table.pre_rounding})
    assert all(row["pre_rounding"] is None for row in table.as_dict()["mult"])
    with pytest.raises(ValueError):
        cli._emit({"B": [[float("nan")]]}, True, None)
    cli._emit({"residual": None}, True, None)
    assert strict_json(capsys.readouterr().out) == {"schema": cli.SCHEMA, "residual": None}


_OUT_OF_MEMORY = MemoryError("Unable to allocate 116. GiB for an array with shape (2500, 2500, 2500) and data type float64")


def test_a_stage_out_of_memory_fails_as_a_resource_limit(c7_file, capsys, monkeypatch):
    import terwlab.cli as cli

    monkeypatch.setattr(cli, "spectral_data", _raise(_OUT_OF_MEMORY))
    assert main(["verify", "--scheme", c7_file, "--json"]) == 1
    checks = {c["name"]: c for c in strict_json(capsys.readouterr().out)["checks"]}
    assert checks["axioms"]["status"] == "pass"
    assert checks["pq_orderings"] == {
        "name": "pq_orderings", "status": "fail",
        "detail": f"ResourceLimit: stage pq_orderings ran out of memory: {_OUT_OF_MEMORY}"}
    assert {c["status"] for name, c in checks.items() if name not in ("axioms", "pq_orderings")} == {"skip"}
    # the other subcommands run the same stages, and exit 2 with no report
    for argv in (["analyze"], ["qs"], ["multiplicities"], ["decompose"], ["predict", "--t", "1", "--d", "2"]):
        assert main([*argv, "--scheme", c7_file, "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: stage pq_orderings ran out of memory: {_OUT_OF_MEMORY}\n"


@pytest.mark.parametrize(
    "argv, where, step",
    [(["multiplicities"], ("terwlab.multiplicity", "solve_multiplicities"), "solve_multiplicities"),
     (["predict", "--t", "1", "--d", "2"], ("terwlab.predictor", "feasibility"), "feasibility"),
     (["predict", "--t", "1", "--d", "2"], ("terwlab.predictor", "BandGrid.bands_star"), "bands_star"),
     (["predict", "--t", "1", "--d", "2"], ("terwlab.predictor", "BandGrid.bands"), "bands"),
     (["qs"], ("terwlab.qs", "fit_qs"), "fit_qs"),
     (["qs"], ("terwlab.qs", "closed_form_multiplicities"), "closed_form_multiplicities")],
    ids=["multiplicities", "predict-feasibility", "predict-bands_star", "predict-bands", "qs-fit", "qs-closed-form"],
)
def test_a_step_after_the_stages_out_of_memory_is_a_resource_limit(c7_file, capsys, monkeypatch, argv, where, step):
    # the steps a subcommand runs after the stage runner map a MemoryError
    # as the runner does: exit 2, one input-error line naming the step, and
    # no traceback
    import importlib

    module, name = where
    target = importlib.import_module(module)
    *owner, attribute = name.split(".")
    for part in owner:
        target = getattr(target, part)
    monkeypatch.setattr(target, attribute, _raise(_OUT_OF_MEMORY))
    assert main([*argv, "--scheme", c7_file, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: step {step} ran out of memory: {_OUT_OF_MEMORY}\n"


def test_verify_builds_the_grid_layout_once(c7_file, capsys, monkeypatch):
    # the predicted grid, the q,s grid, the trace check and the recurrence share one layout
    import terwlab.predictor as predictor
    import terwlab.spectral as spectral

    calls = []
    real = predictor.band_entries

    def counted(D):
        calls.append(D)
        return real(D)

    for module in (predictor, spectral):
        monkeypatch.setattr(module, "band_entries", counted)
    assert main(["verify", "--scheme", c7_file, "--json"]) == 0
    assert calls == [3]
    checks = {c["name"]: c["status"] for c in strict_json(capsys.readouterr().out)["checks"]}
    assert set(checks.values()) == {"pass"}
