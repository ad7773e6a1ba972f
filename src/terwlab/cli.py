"""Command-line interface.

Subcommands: gen, validate, analyze, predict, decompose, multiplicities,
qs, verify.  ``--tol`` is checked before any of them runs.  Each one that
reads a scheme runs the :data:`STAGES` table up to the value it reports
(``verify`` runs all of it), then formats that value.  Reports go to
stdout (human-readable tables by default, JSON with --json); diagnostics
go to stderr.  Exit codes: 0 all checks passed, 1 a check failed, 2 input
error.  A stage that runs out of memory raises :class:`ResourceLimit`
naming it: ``verify`` reports that stage as failed, the other subcommands
exit 2, as they do when a step they run after the stages runs out.  JSON
reports carry a schema tag and, given the same scheme and vertex, are
byte-identical across runs; they are strict JSON, with a residual that is
not finite written as null.
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
from .context import build_context, check_tol
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
    finite_or_none,
)
from .spectral import is_almost_bipartite, spectral_data

SCHEMA = "terw-lab/1"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


def _emit(doc: dict, as_json: bool, render_text) -> None:
    if as_json:
        # a NaN or infinity left in a report raises here rather than print as a bare token
        print(json.dumps({"schema": SCHEMA, **doc}, sort_keys=True, allow_nan=False))
    else:
        render_text(doc)


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
            doc["residual"] = finite_or_none(self.residual)
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
# Residuals are gated as ``not worst <= tol``, so that a NaN fails.


def _worst(residuals) -> float:
    """The largest residual of a sequence or array, 0.0 for none, NaN when any is NaN (the builtin ``max`` drops a NaN that is not first)."""
    return float(np.max(np.asarray(residuals, dtype=float), initial=0.0))


def _axioms(args, values):
    s = generators.load_scheme(args.scheme)
    if not 0 <= args.vertex < s.n:
        raise InvalidParameter(f"base vertex {args.vertex} out of range for {s.n} vertices")
    return "pass", None, f"n={s.n} D={s.D}", s


def _pq_orderings(args, values):
    sp = spectral_data(values["scheme"])
    if not sp.is_q_polynomial:
        raise OrderingMissing("no Q-polynomial ordering")
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
    mods = decompose_standard_module(values["context"], tol=RANK_TOL if args.tol is None else args.tol)
    return "pass", None, f"{len(mods)} modules, census={_census_str(module_census(mods))}", mods


def _module_structure(args, values):
    D = values["spectral data"].D
    endpoints = values["almost-bipartite flag"]  # the endpoint identities are theorems only there
    # the oracle fills in each module's norm_ladder_check as two fields
    for mod in values["decomposition"]:
        if endpoints and (mod.r + mod.d != D or 2 * mod.t + mod.d < D):
            return "fail", None, f"endpoint identities fail at ({mod.t},{mod.d})", None
        if not mod.products_positive:
            return "fail", None, f"nonpositive ladder product at ({mod.t},{mod.d})", None
    worst = _worst([mod.norm_residual for mod in values["decomposition"]])
    if not worst < np.inf:
        return "fail", worst, "norm ladder residual is not finite", None
    return "pass", worst, None, True


def _predictor_vs_oracle(args, values):
    if not values["almost-bipartite flag"]:
        return "skip", None, qs.NOT_ALMOST_BIPARTITE, None
    spectral, mods = values["spectral data"], values["decomposition"]
    grid = spectral.bands
    # the modules come sorted by class; the first infeasible class fails the stage with the
    # gap of the modules up to and including that class
    reports = predictor.feasibility_reports(spectral, list(dict.fromkeys((mod.t, mod.d) for mod in mods)))
    infeasible = next((fr for fr in reports if not fr.feasible), None)
    if infeasible is not None:
        mods = [mod for mod in mods if (mod.t, mod.d) <= (infeasible.t, infeasible.d)]
    # the measured bands of all modules stacked against their predicted bands gathered alike, exact
    # because every module's bands end in the boundary zeros c_0 = b_d = 0 on both sides
    d = np.array([mod.d for mod in mods], dtype=np.int64)
    ends = np.cumsum(d + 1)
    at = np.arange(ends[-1]) + np.repeat(grid.first[[mod.t for mod in mods], d] - (ends - d - 1), d + 1)
    worst = _worst([predictor.band_gap(tuple(np.concatenate(x) for x in zip(*(getattr(mod, side) for mod in mods))),
                                       tuple(x[at] for x in getattr(grid, side)))
                    for side in ("cab", "cab_star")])
    if infeasible is not None:
        return "fail", worst, f"predicted class ({infeasible.t},{infeasible.d}) infeasible", None
    eig_worst = _worst([[fr.eig_B_error, fr.eig_Bstar_error, fr.trace_B_error, fr.trace_Bstar_error] for fr in reports])
    if not worst <= 1e-6:
        return "fail", worst, "measured vs predicted exceeds 1e-6", None
    if not eig_worst <= 1e-8:
        return "fail", eig_worst, "spectral identities of predictions exceed 1e-8", None
    return "pass", worst, None, True


def _trace_formula(args, values):
    spectral = values["spectral data"]
    t, d = spectral.layout.t, spectral.layout.d
    # ladders[t] lists d = 0..D - t, so in their concatenation (t, d) sits at t (D + 1) - t (t - 1) / 2 + d
    traced = np.fromiter(itertools.chain.from_iterable(multiplicity.trace_ladders(values["context"])), dtype=float)
    traced = traced[t * (spectral.D + 1) - t * (t - 1) // 2 + d]
    closed = spectral.closed_traces[t, d]
    worst = _worst(np.abs(traced - closed) / np.maximum(1.0, np.abs(closed)))
    if not worst <= 1e-6:
        return "fail", worst, "trace identity exceeds 1e-6 relative", None
    return "pass", worst, None, True


def _multiplicity_recurrence(args, values):
    if not values["almost-bipartite flag"]:
        return "skip", None, qs.NOT_ALMOST_BIPARTITE, None
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
    worst = _worst((params.fit_residual, spectral.bands.gap(qs.qs_band_grid(params, spectral.layout))))
    if not worst <= 1e-8:
        return "fail", worst, "q,s forms disagree with eigenvalue forms", None
    if table is not None:
        for (t, d), closed in qs.closed_form_multiplicities(params).items():
            if not abs(closed - table.mult[t, d]) <= 1e-6:
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
    ("module_structure", None, ("spectral data", "almost-bipartite flag", "decomposition"), _module_structure),
    ("predictor_vs_oracle", None, ("spectral data", "almost-bipartite flag", "decomposition"),
     _predictor_vs_oracle),
    ("trace_formula", None, ("spectral data", "context"), _trace_formula),
    ("multiplicity_recurrence", "multiplicity table", ("spectral data", "almost-bipartite flag", "decomposition"),
     _multiplicity_recurrence),
    ("qs_engine", None, ("spectral data",), _qs_engine),
)


def _memory_guarded(what: str, fn, *args):
    """``fn(*args)``; a MemoryError is a :class:`ResourceLimit` naming ``what``, a stage or a step after the stages."""
    try:
        return fn(*args)
    except MemoryError as exc:
        raise ResourceLimit(f"{what} ran out of memory: {str(exc) or 'MemoryError'}") from None


def run_verify(scheme_path: str, vertex: int = 0, tol: float | None = None) -> VerifyReport:
    """Run the :data:`STAGES` table on one scheme file.

    The stages run in table order: axioms, P/Q orderings, almost-bipartite
    test, operator identities, oracle decomposition, module structure,
    predictor against oracle, trace identity, multiplicity recurrence and
    the q,s model.  A stage that reads a missing value is skipped with the
    reason that value went missing for, "<value> unavailable" from the
    stage that failed to provide it, and its own value goes missing too.
    On a scheme that is not almost-bipartite, which the paper's theorems
    exclude, the predictor, recurrence and q,s stages skip, and the module
    structure stage drops the endpoint identities.
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
            status, residual, detail, value = _memory_guarded(f"stage {name}", fn, args, values)
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


def _values(args, last: str, values: dict | None = None) -> dict:
    """Run :data:`STAGES` in order up to the stage that provides ``last``, and return the values.

    Given ``values`` from an earlier call, the run resumes: the stages whose values are there
    are not run again.  A stage that raises ends the run.  One that fails with a value passes
    the value on, as the identity stage does when ``--tol`` fails it, so the oracle still runs
    at that tolerance.
    """
    values = {} if values is None else values
    for name, provides, _, fn in STAGES:
        if provides not in values:
            values[provides] = _memory_guarded(f"stage {name}", fn, args, values)[3]
        if provides == last:
            return values


def _refused(values, what: str) -> bool:
    """Whether the scheme is not almost-bipartite, so that the paper's ``what`` does not apply; says so on stderr."""
    if not values["almost-bipartite flag"]:
        print(f"{qs.NOT_ALMOST_BIPARTITE}; {what} does not apply", file=sys.stderr)
    return not values["almost-bipartite flag"]


# ---------------------------------------------------------------- subcommands

def _cmd_gen(args) -> int:
    scheme = generators.generate(args.family, args.D)
    generators.save_scheme(scheme, args.out)
    print(f"wrote {args.family}(D={args.D}): n={scheme.n} -> {args.out}", file=sys.stderr)
    return EXIT_OK


def _cmd_validate(args) -> int:
    scheme = _values(args, "scheme")["scheme"]
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
    values = _values(args, "context")
    sp = values["spectral data"]
    rep = values["context"].identities.at_tol(args.tol)
    doc = {
        "vertex": args.vertex,
        "p_ordering": list(sp.p_ordering),
        "q_ordering": list(sp.q_ordering),
        "theta": sp.theta.tolist(),
        "theta_star": sp.theta_star.tolist(),
        "almost_bipartite": values["almost-bipartite flag"],
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
    values = _values(args, "almost-bipartite flag")
    if _refused(values, "module prediction"):
        return EXIT_CHECK_FAILED
    sp = values["spectral data"]
    try:
        fr = _memory_guarded("step feasibility", predictor.feasibility, sp, args.t, args.d)
    except InvalidCell as exc:
        raise InvalidParameter(str(exc)) from exc  # an option off the grid, like --vertex out of range
    # feasibility has formed the grid: the steps below read the cell's bands off it
    Bstar = predictor.tridiagonal(*_memory_guarded("step bands_star", sp.bands.bands_star, args.t, args.d)).tolist()
    doc = {
        "t": args.t, "d": args.d, "r": sp.D - args.d,
        "B": predictor.tridiagonal(*_memory_guarded("step bands", sp.bands.bands, args.t, args.d)).tolist(),
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
    mods = _values(args, "decomposition")["decomposition"]
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
    values = _values(args, "almost-bipartite flag")
    if _refused(values, "multiplicity recurrence"):
        return EXIT_CHECK_FAILED
    if args.oracle:
        values = _values(args, "decomposition", values)
    tab = _memory_guarded("step solve_multiplicities", multiplicity.solve_multiplicities, values["spectral data"])
    doc = tab.as_dict()
    if args.oracle:
        observed = module_census(values["decomposition"])
        doc["oracle_census"] = [
            {"t": t, "d": d, "count": v} for (t, d), v in sorted(observed.items())
        ]
        doc["oracle_diff"] = [{"t": t, "d": d, "recurrence": rec, "oracle": orc}
                              for (t, d), (rec, orc) in tab.census_diff(observed).items()]
        doc["matches_oracle"] = not doc["oracle_diff"]

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
    return EXIT_OK if doc.get("matches_oracle", True) else EXIT_CHECK_FAILED


def _cmd_qs(args) -> int:
    values = _values(args, "almost-bipartite flag")
    if _refused(values, "q,s model"):
        return EXIT_CHECK_FAILED
    sp = values["spectral data"]
    excl, skipped = qs.skip_reason(sp.pp, sp.n)
    doc = {"exclusion": {"is_odd_graph": excl.is_odd_graph,
                         "is_folded_cube": excl.is_folded_cube}}
    if skipped is not None:
        doc["skipped"] = skipped

        def text(doc):
            print(f"q,s fit skipped: {doc['skipped']}")

        _emit(doc, args.json, text)
        return EXIT_OK
    params = _memory_guarded("step fit_qs", qs.fit_qs, sp.theta, sp.theta_star, sp.D)
    closed = _memory_guarded("step closed_form_multiplicities", qs.closed_form_multiplicities, params)
    doc["params"] = params.as_dict()
    doc["closed_form_mult"] = [{"t": t, "d": d, "mult": mult} for (t, d), mult in closed.items()]

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
        if args.tol is not None:
            check_tol(args.tol)  # before any stage, so no subcommand reads a file for a bad --tol
        return args.fn(args)
    except (ParseError, AxiomViolation, InvalidParameter, ResourceLimit, FileNotFoundError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except TerwLabError as exc:
        print(f"check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
