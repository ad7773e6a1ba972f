"""Command-line interface.

Subcommands: gen, validate, analyze, predict, decompose, multiplicities,
qs, verify.  Reports go to stdout (human-readable tables by default, JSON
with --json); diagnostics go to stderr.  Exit codes: 0 all checks passed,
1 a check failed, 2 input error.  JSON reports carry a schema tag and,
given the same scheme and vertex, are byte-identical across runs.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import generators, multiplicity, predictor, qs
from .context import build_context
from .decomposer import census as module_census
from .decomposer import decompose as decompose_standard_module
from .decomposer import RANK_TOL
from .errors import (
    AxiomViolation,
    InvalidCell,
    InvalidParameter,
    OrderingMissing,
    ParseError,
    ResourceLimit,
    TerwLabError,
)
from .spectral import is_almost_bipartite, spectral_data

SCHEMA = "terw-lab/1"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


def _emit(doc: dict, as_json: bool, render_text) -> None:
    if as_json:
        print(json.dumps({"schema": SCHEMA, **doc}, sort_keys=True))
    else:
        render_text(doc)


def _load(args):
    """The scheme of ``--scheme``; raises :class:`InvalidParameter` when ``--vertex`` is not one of its vertices."""
    scheme = generators.load_scheme(args.scheme)
    if not 0 <= args.vertex < scheme.n:
        raise InvalidParameter(f"base vertex {args.vertex} out of range for {scheme.n} vertices")
    return scheme


def _q_polynomial(scheme):
    """Spectral data of a scheme that has a Q-polynomial ordering."""
    sp = spectral_data(scheme)
    if not sp.is_q_polynomial:
        raise OrderingMissing("no Q-polynomial ordering")
    return sp


def _oracle(ctx, args) -> list:
    """The oracle's modules at the run's tolerance, if given."""
    return decompose_standard_module(ctx, tol=RANK_TOL if args.tol is None else args.tol)


# ---------------------------------------------------------------- verify

@dataclass
class VerifyCheck:
    name: str
    status: str           # pass / fail / skip
    residual: float | None = None
    detail: str | None = None
    elapsed: float = 0.0

    def as_dict(self) -> dict:
        doc = {"name": self.name, "status": self.status}
        if self.residual is not None:
            doc["residual"] = self.residual
        if self.detail is not None:
            doc["detail"] = self.detail
        return doc


@dataclass
class VerifyReport:
    scheme_path: str
    vertex: int
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def as_dict(self) -> dict:
        # elapsed times are intentionally left out: reports must be
        # byte-identical for identical (scheme, vertex)
        return {
            "scheme": self.scheme_path,
            "vertex": self.vertex,
            "checks": [c.as_dict() for c in self.checks],
            "verdict": "pass" if self.passed else "fail",
        }

    def render_text(self) -> str:
        lines = [f"verify {self.scheme_path} (vertex={self.vertex})"]
        for c in self.checks:
            residual = "" if c.residual is None else f"  residual={c.residual:.3e}"
            detail = "" if c.detail is None else f"  [{c.detail}]"
            lines.append(f"  {c.status.upper():4s}  {c.name:28s}{residual}{detail}  ({c.elapsed:.2f}s)")
        lines.append(f"verdict: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


# Each stage takes the run's options and the values of the stages before it,
# and returns (status, residual, detail, value); a value of None is missing.

def _axioms(args, values):
    s = _load(args)
    return "pass", None, f"n={s.n} D={s.D}", s


def _pq_orderings(args, values):
    sp = _q_polynomial(values["scheme"])
    return "pass", None, f"p_ordering={list(sp.p_ordering)} q_ordering={list(sp.q_ordering)}", sp


def _almost_bipartite(args, values):
    almost_bip = is_almost_bipartite(values["spectral data"].pp)
    return "pass", None, f"almost_bipartite={almost_bip}", almost_bip


def _operator_identities(args, values):
    c = build_context(values["scheme"], values["spectral data"], args.vertex)
    rep = c.identities.at_tol(args.tol)
    if not rep.all_passed:
        bad = [chk.name for chk in rep.checks if not chk.passed]
        return "fail", rep.max_residual, f"failed: {bad}", c
    return "pass", rep.max_residual, None, c


def _decomposition(args, values):
    mods = _oracle(values["context"], args)
    return "pass", None, f"{len(mods)} modules, census={_census_str(module_census(mods))}", mods


def _module_structure(args, values):
    D = values["spectral data"].D
    worst = 0.0
    # the oracle fills in each module's norm_ladder_check as two fields
    for mod in values["decomposition"]:
        if mod.r + mod.d != D or 2 * mod.t + mod.d < D:
            return "fail", None, f"endpoint identities fail at ({mod.t},{mod.d})", None
        if not mod.products_positive:
            return "fail", None, f"nonpositive ladder product at ({mod.t},{mod.d})", None
        worst = max(worst, mod.norm_residual)
    return "pass", worst, None, True


def _predictor_vs_oracle(args, values):
    spectral = values["spectral data"]
    grid = spectral.bands
    worst = 0.0
    eig_worst = 0.0
    # the modules come sorted by class; each class's measured bands are
    # stacked against its predicted bands tiled alike, exact because every
    # module's bands end in the boundary zeros c_0 = b_d = 0 on both sides
    for (t, d), group in itertools.groupby(values["decomposition"], key=lambda mod: (mod.t, mod.d)):
        group = list(group)
        for measured, predicted in (([mod.cab for mod in group], grid.bands(t, d)),
                                    ([mod.cab_star for mod in group], grid.bands_star(t, d))):
            stacked = tuple(np.concatenate(x) for x in zip(*measured))
            worst = max(worst, predictor.band_gap(stacked, tuple(np.tile(x, len(group)) for x in predicted)))
        fr = predictor.feasibility(spectral, t, d)
        eig_worst = max(eig_worst, fr.eig_B_error, fr.eig_Bstar_error,
                        fr.trace_B_error, fr.trace_Bstar_error)
        if not fr.feasible:
            return "fail", worst, f"predicted class ({t},{d}) infeasible", None
    if worst > 1e-6:
        return "fail", worst, "measured vs predicted exceeds 1e-6", None
    if eig_worst > 1e-8:
        return "fail", eig_worst, "spectral identities of predictions exceed 1e-8", None
    return "pass", worst, None, True


def _trace_formula(args, values):
    spectral = values["spectral data"]
    ladders = multiplicity.trace_ladders(values["context"])
    closed = spectral.closed_traces.tolist()
    worst = 0.0
    for (t, d) in predictor.upsilon_cells(spectral.D):
        lhs = ladders[t][d]
        rhs = closed[t][d]
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    if worst > 1e-6:
        return "fail", worst, "trace identity exceeds 1e-6 relative", None
    return "pass", worst, None, True


def _multiplicity_recurrence(args, values):
    spectral = values["spectral data"]
    tab = multiplicity.solve_multiplicities(spectral)
    observed = module_census(values["decomposition"])
    if not tab.matches_census(observed):
        return "fail", None, f"recurrence {tab.nonzero()} != census {observed}", None
    if tab.mult.get((0, spectral.D)) != 1:
        return "fail", None, "mult(0, D) != 1", None
    if tab.total_dimension() != spectral.n:
        return "fail", None, "dimension sum mismatch", None
    residual = max(tab.pre_rounding.values(), default=0.0)
    return "pass", residual, None, tab


def _qs_engine(args, values):
    spectral, table = values["spectral data"], values.get("multiplicity table")
    _, skipped = qs.skip_reason(spectral.pp, spectral.n)
    if skipped is not None:
        return "skip", None, skipped, None
    params = qs.fit_qs(spectral.theta, spectral.theta_star, spectral.D)
    # bands, not matrices: both sides vanish off the three bands
    worst = max(params.fit_residual, spectral.bands.gap(qs.qs_band_grid(params)))
    if worst > 1e-8:
        return "fail", worst, "q,s forms disagree with eigenvalue forms", None
    if table is not None:
        for (t, d) in spectral.bands.cells:
            if d >= spectral.D - 3:
                closed = qs.qs_multiplicity(params, t, d)
                if abs(closed - table.mult[t, d]) > 1e-6:
                    return "fail", worst, f"closed-form mult({t},{d}) = {closed} != recurrence", None
    return "pass", worst, None, True


#: (check name, value it provides, values it reads, fn), in report order;
#: the q,s stage also reads the multiplicity table when there is one
STAGES = (
    ("axioms", "scheme", (), _axioms),
    ("pq_orderings", "spectral data", ("scheme",), _pq_orderings),
    ("almost_bipartite", "almost-bipartite flag", ("spectral data",), _almost_bipartite),
    ("operator_identities", "context", ("scheme", "spectral data"), _operator_identities),
    ("decomposition", "decomposition", ("context",), _decomposition),
    ("module_structure", None, ("spectral data", "decomposition"), _module_structure),
    ("predictor_vs_oracle", None, ("spectral data", "decomposition"), _predictor_vs_oracle),
    ("trace_formula", None, ("spectral data", "context"), _trace_formula),
    ("multiplicity_recurrence", "multiplicity table", ("spectral data", "decomposition"),
     _multiplicity_recurrence),
    ("qs_engine", None, ("spectral data",), _qs_engine),
)


def run_verify(scheme_path: str, vertex: int = 0, tol: float | None = None) -> VerifyReport:
    """Run the :data:`STAGES` table on one scheme file.

    The stages run in table order: axioms, P/Q orderings, almost-bipartite
    test, operator identities, oracle decomposition, module structure,
    predictor against oracle, trace identity, multiplicity recurrence and
    the q,s model.  A stage that reads a missing value is skipped with the
    reason that value went missing for, "<value> unavailable" from the
    stage that failed to provide it, and its own value goes missing too.
    """
    args = argparse.Namespace(scheme=scheme_path, vertex=vertex, tol=tol)
    report = VerifyReport(scheme_path=str(scheme_path), vertex=vertex, checks=[])
    values, missing = {}, {}  # value -> payload; value -> why it is missing
    for name, provides, reads, fn in STAGES:
        lost = [missing[r] for r in reads if r not in values]
        if lost:
            report.checks.append(VerifyCheck(name, "skip", detail=lost[0]))
            missing[provides] = lost[0]
            continue
        t0 = time.perf_counter()
        try:
            status, residual, detail, value = fn(args, values)
        except (ParseError, InvalidParameter):
            raise  # unreadable input or an out-of-range option is not a check failure
        except TerwLabError as exc:
            status, residual, detail, value = "fail", None, f"{type(exc).__name__}: {exc}", None
        report.checks.append(VerifyCheck(name, status, residual, detail, elapsed=time.perf_counter() - t0))
        if value is None:
            missing[provides] = f"{provides} unavailable"
        else:
            values[provides] = value
    return report


def _census_str(cen: dict) -> str:
    return "{" + ", ".join(f"({t},{d}):{v}" for (t, d), v in sorted(cen.items())) + "}"


# ---------------------------------------------------------------- subcommands

def _cmd_gen(args) -> int:
    scheme = generators.generate(args.family, args.D)
    generators.save_scheme(scheme, args.out)
    print(f"wrote {args.family}(D={args.D}): n={scheme.n} -> {args.out}", file=sys.stderr)
    return EXIT_OK


def _cmd_validate(args) -> int:
    scheme = _load(args)
    tensor = scheme.tensor
    doc = {
        "n": scheme.n,
        "D": scheme.D,
        "valencies": tensor.k.tolist(),
        "valid": True,
    }

    def text(doc):
        print(f"valid scheme: n={doc['n']} D={doc['D']} valencies={doc['valencies']}")

    _emit(doc, args.json, text)
    return EXIT_OK


def _cmd_analyze(args) -> int:
    scheme = _load(args)
    sp = _q_polynomial(scheme)
    ctx = build_context(scheme, sp, args.vertex)
    rep = ctx.identities.at_tol(args.tol)
    doc = {
        "vertex": args.vertex,
        "p_ordering": list(sp.p_ordering),
        "q_ordering": list(sp.q_ordering),
        "theta": sp.theta.tolist(),
        "theta_star": sp.theta_star.tolist(),
        "almost_bipartite": is_almost_bipartite(sp.pp),
        "identities": rep.as_dict(),
    }

    def text(doc):
        print(f"vertex {doc['vertex']}  theta={np.round(doc['theta'], 6).tolist()}")
        print(f"theta*={np.round(doc['theta_star'], 6).tolist()}")
        for chk in doc["identities"]["checks"]:
            status = "pass" if chk["passed"] else "FAIL"
            print(f"  {status}  {chk['name']:34s} residual={chk['residual']:.3e}")

    _emit(doc, args.json, text)
    return EXIT_OK if rep.all_passed else EXIT_CHECK_FAILED


def _cmd_predict(args) -> int:
    sp = _q_polynomial(_load(args))
    try:
        fr = predictor.feasibility(sp, args.t, args.d)
    except InvalidCell as exc:
        raise InvalidParameter(str(exc)) from exc  # an option off the grid, like --vertex out of range
    Bstar = predictor.tridiagonal(*sp.bands.bands_star(args.t, args.d)).tolist()
    doc = {
        "t": args.t, "d": args.d, "r": sp.D - args.d,
        "B": predictor.tridiagonal(*sp.bands.bands(args.t, args.d)).tolist(),
        "Bstar": Bstar,
        "a0star": Bstar[0][0] if args.d else None,
        "feasibility": fr.as_dict(),
    }

    def text(doc):
        print(f"class (t={doc['t']}, d={doc['d']}), endpoint r={doc['r']}")
        print("B(W) =")
        print(np.array(doc["B"]))
        print("B*(W) =")
        print(np.array(doc["Bstar"]))
        print(f"feasible: {doc['feasibility']['feasible']}")

    _emit(doc, args.json, text)
    return EXIT_OK


def _cmd_decompose(args) -> int:
    scheme = _load(args)
    ctx = build_context(scheme, _q_polynomial(scheme), args.vertex)
    mods = _oracle(ctx, args)
    doc = {
        "vertex": args.vertex,
        "census": [
            {"t": t, "d": d, "count": v} for (t, d), v in sorted(module_census(mods).items())
        ],
        "modules": [
            {
                "r": m.r, "t": m.t, "d": m.d, "dim": m.dim,
                "thin": True, "dual_thin": True,  # the oracle certifies every module thin and dual thin
                "B": predictor.tridiagonal(*m.cab).tolist(),
                "Bstar": predictor.tridiagonal(*m.cab_star).tolist(),
            }
            for m in mods
        ],
    }

    def text(doc):
        print(f"{len(doc['modules'])} irreducible modules (vertex={doc['vertex']})")
        for row in doc["census"]:
            print(f"  (t={row['t']}, d={row['d']}): {row['count']}")

    _emit(doc, args.json, text)
    return EXIT_OK


def _cmd_multiplicities(args) -> int:
    scheme = _load(args)
    sp = _q_polynomial(scheme)
    tab = multiplicity.solve_multiplicities(sp)
    doc = tab.as_dict()
    exit_code = EXIT_OK
    if args.oracle:
        ctx = build_context(scheme, sp, args.vertex)
        observed = module_census(_oracle(ctx, args))
        doc["oracle_census"] = [
            {"t": t, "d": d, "count": v} for (t, d), v in sorted(observed.items())
        ]
        cells = sorted(set(tab.mult) | set(observed))
        doc["oracle_diff"] = [
            {"t": t, "d": d, "recurrence": tab.mult.get((t, d), 0), "oracle": observed.get((t, d), 0)}
            for (t, d) in cells
            if tab.mult.get((t, d), 0) != observed.get((t, d), 0)
        ]
        doc["matches_oracle"] = not doc["oracle_diff"]
        if not doc["matches_oracle"]:
            exit_code = EXIT_CHECK_FAILED

    def text(doc):
        print("mult(t, d) from the trace recurrence:")
        for row in doc["mult"]:
            if row["count"]:
                print(f"  (t={row['t']}, d={row['d']}): {row['count']}")
        print(f"total dimension {doc['total_dimension']}")
        if "matches_oracle" in doc:
            print(f"matches oracle census: {doc['matches_oracle']}")
            for row in doc["oracle_diff"]:
                print(f"  differs at (t={row['t']}, d={row['d']}): "
                      f"recurrence {row['recurrence']} vs oracle {row['oracle']}")

    _emit(doc, args.json, text)
    return exit_code


def _cmd_qs(args) -> int:
    sp = _q_polynomial(_load(args))
    excl, skipped = qs.skip_reason(sp.pp, sp.n)
    if skipped == qs.NOT_ALMOST_BIPARTITE:
        print(f"{skipped}; q,s model does not apply", file=sys.stderr)
        return EXIT_CHECK_FAILED
    doc = {"exclusion": {"is_odd_graph": excl.is_odd_graph,
                         "is_folded_cube": excl.is_folded_cube}}
    if skipped is not None:
        doc["skipped"] = skipped

        def text(doc):
            print(f"q,s fit skipped: {doc['skipped']}")

        _emit(doc, args.json, text)
        return EXIT_OK
    params = qs.fit_qs(sp.theta, sp.theta_star, sp.D)
    doc["params"] = params.as_dict()
    # the six cells with d >= D - 3, the ones the closed forms cover
    cells = sorted((t, d) for (t, d) in predictor.upsilon_cells(sp.D) if d >= sp.D - 3)
    doc["closed_form_mult"] = [{"t": t, "d": d, "mult": qs.qs_multiplicity(params, t, d)} for (t, d) in cells]

    def text(doc):
        p = doc["params"]
        print(f"q = {complex(*p['q'])}  s = {complex(*p['s'])}")
        print(f"h = {complex(*p['h'])}  h* = {complex(*p['hstar'])}  residual {p['fit_residual']:.2e}")
        for row in doc["closed_form_mult"]:
            print(f"  mult({row['t']}, {row['d']}) = {row['mult']:.6f}")

    _emit(doc, args.json, text)
    return EXIT_OK


def _cmd_verify(args) -> int:
    report = run_verify(args.scheme, vertex=args.vertex, tol=args.tol)
    _emit(report.as_dict(), args.json, lambda doc: print(report.render_text()))
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="terwlab", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON report")
    common.add_argument("--tol", type=float, default=None,
                        help="positive, finite absolute tolerance of the operator-identity report (default 1e-9 n) "
                             "and per-vertex tolerance of the module certificate, gated at tol * n (default 1e-8); "
                             "the identities are gated at their default first, so it cannot loosen them")
    # parsed and never read: the oracle has no seed, but perfbench's op lists still pass --seed 0
    common.add_argument("--seed", type=int, help=argparse.SUPPRESS)
    common.add_argument("--vertex", type=int, default=0, help="base vertex")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[common], help="generate a scheme file")
    p.add_argument("--family", required=True, choices=sorted(generators.FAMILIES))
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_gen)

    for name, fn, extra in [
        ("validate", _cmd_validate, ()),
        ("analyze", _cmd_analyze, ()),
        ("predict", _cmd_predict, ("t", "d")),
        ("decompose", _cmd_decompose, ()),
        ("multiplicities", _cmd_multiplicities, ("oracle",)),
        ("qs", _cmd_qs, ()),
        ("verify", _cmd_verify, ()),
    ]:
        p = sub.add_parser(name, parents=[common], help=f"{name} a scheme file")
        p.add_argument("--scheme", required=True)
        if "t" in extra:
            p.add_argument("--t", type=int, required=True)
            p.add_argument("--d", type=int, required=True)
        if "oracle" in extra:
            p.add_argument("--oracle", action="store_true", help="also run the oracle and diff")
        p.set_defaults(fn=fn)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first call and reused: parse_args starts every call
    # from a fresh namespace, so no option carries over between calls
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, AxiomViolation, InvalidParameter, ResourceLimit, FileNotFoundError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except TerwLabError as exc:
        print(f"check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
