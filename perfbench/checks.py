"""Output checks for one CLI op, and the data read from its report.

An op is one in-process call of ``terwlab.cli.main``.  Exit code 0 means all
of its checks passed and 1 means a check failed; both are results and are
counted as data.  Anything else (exit code 2, an uncaught exception, a
report without the schema tag or one whose verdict contradicts its exit
code) is a benchmark error.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

SCHEMA = "terw-lab/1"

#: verify stage -> layer that runs it
STAGE_LAYER = {
    "axioms": "scheme",
    "pq_orderings": "spectral",
    "almost_bipartite": "spectral",
    "operator_identities": "context",
    "decomposition": "decomposer",
    "module_structure": "decomposer",
    "predictor_vs_oracle": "predictor",
    "trace_formula": "multiplicity",
    "multiplicity_recurrence": "multiplicity",
    "qs_engine": "qs",
}

#: verify check -> per-layer residual metric it feeds
CHECK_RESIDUAL = {
    "operator_identities": "context.identity_residual_max",
    "module_structure": "decomposer.ladder_residual_max",
    "predictor_vs_oracle": "predictor.residual_max",
    "trace_formula": "multiplicity.trace_residual_max",
    "multiplicity_recurrence": "multiplicity.rounding_residual_max",
    "qs_engine": "qs.fit_residual_max",
}
RESIDUAL_METRICS = tuple(CHECK_RESIDUAL.values())

_EXC_DETAIL = re.compile(r"^([A-Z]\w*): ")
_MODULE_COUNT = re.compile(r"^(\d+) modules")


class BenchmarkError(Exception):
    """The program did something no op may do; the run is aborted."""


class CheckError(Exception):
    """An op's output failed a check; the run is reported as incorrect."""


@dataclass
class OpResult:
    """What the benchmark keeps from one op's output."""

    code: int
    failure: dict | None  # {"stage", "exception"} when code == 1
    checks_passed: int
    checks_total: int
    residuals: dict = field(default_factory=dict)
    modules: int | None = None  # irreducible module count, when the report gives it


def check_op(subcommand: str, n: int, code, out: str, err: str) -> OpResult:
    if code not in (0, 1):
        raise BenchmarkError(f"{subcommand}: exit code {code!r}; stderr: {err.strip()[:300]}")
    report = _parse_report(subcommand, out)
    if subcommand == "verify":
        return _check_verify(code, report)
    if subcommand == "analyze":
        return _check_analyze(code, report, err)
    if subcommand == "multiplicities":
        result = _check_single(subcommand, code, report, err, _multiplicities_data(report, n) if report else {})
        if report:
            result.modules = sum(row["count"] for row in report["mult"])
        return result
    if subcommand == "qs":
        residuals = {}
        if report and "params" in report:
            residuals["qs.fit_residual_max"] = abs(report["params"]["fit_residual"])
        result = _check_single(subcommand, code, report, err, residuals)
        if report and "skipped" in report:
            result.checks_passed = 0  # a skipped check is not a passed one, as in verify
        return result
    raise CheckError(f"no output check for subcommand {subcommand!r}")


def _parse_report(subcommand: str, out: str) -> dict | None:
    if not out.strip():
        return None
    try:
        report = json.loads(out)
    except json.JSONDecodeError as exc:
        raise CheckError(f"{subcommand}: stdout is not one JSON report: {exc}") from None
    if not isinstance(report, dict) or report.get("schema") != SCHEMA:
        raise CheckError(f"{subcommand}: report lacks the {SCHEMA} schema tag")
    return report


def _check_verify(code: int, report: dict | None) -> OpResult:
    if report is None:
        raise CheckError("verify: no report")
    verdict = report.get("verdict")
    if verdict not in ("pass", "fail") or (verdict == "pass") != (code == 0):
        raise CheckError(f"verify: verdict {verdict!r} disagrees with exit code {code}")
    checks = report["checks"]
    failed = [c for c in checks if c["status"] == "fail"]
    if bool(failed) != (code == 1):
        raise CheckError("verify: failed checks disagree with the verdict")
    failure = None
    if failed:
        match = _EXC_DETAIL.match(failed[0].get("detail") or "")
        failure = {"stage": failed[0]["name"], "exception": match.group(1) if match else None}
    residuals = {}
    modules = None
    for c in checks:
        if c.get("residual") is not None and c["name"] in CHECK_RESIDUAL:
            residuals[CHECK_RESIDUAL[c["name"]]] = abs(c["residual"])
        if c["name"] == "decomposition" and c["status"] == "pass":
            modules = int(_MODULE_COUNT.match(c["detail"]).group(1))
    passed = sum(c["status"] == "pass" for c in checks)
    return OpResult(code, failure, passed, len(checks), residuals, modules)


def _check_analyze(code: int, report: dict | None, err: str) -> OpResult:
    if report is None:
        if code == 0:
            raise CheckError("analyze: exit code 0 without a report")
        return OpResult(code, _stderr_failure("analyze", err), 0, 1)
    identities = report["identities"]["checks"]
    all_passed = all(c["passed"] for c in identities)
    if all_passed != report["identities"]["all_passed"] or all_passed != (code == 0):
        raise CheckError(f"analyze: identity verdict disagrees with exit code {code}")
    failure = None
    if not all_passed:
        failure = {"stage": "identities:" + ",".join(c["name"] for c in identities if not c["passed"]),
                   "exception": None}
    residuals = {"context.identity_residual_max": max((abs(c["residual"]) for c in identities), default=0.0)}
    return OpResult(code, failure, sum(c["passed"] for c in identities), len(identities), residuals)


def _multiplicities_data(report: dict, n: int) -> dict:
    if report["total_dimension"] != n:
        raise CheckError(f"multiplicities: total_dimension {report['total_dimension']} != n = {n}")
    rounding = [abs(row["pre_rounding"]) for row in report["mult"] if row["pre_rounding"] is not None]
    return {"multiplicity.rounding_residual_max": max(rounding, default=0.0)}


def _check_single(subcommand: str, code: int, report: dict | None, err: str, residuals: dict) -> OpResult:
    """Subcommands whose report is one check: a report and exit 0, or no report and exit 1."""
    if (report is not None) != (code == 0):
        raise CheckError(f"{subcommand}: exit code {code} with{'out' if report is None else ''} a report")
    if code == 0:
        return OpResult(0, None, 1, 1, residuals)
    return OpResult(1, _stderr_failure(subcommand, err), 0, 1)


def _stderr_failure(subcommand: str, err: str) -> dict:
    """Failure record of a subcommand that printed no report: the CLI's stderr line names the class."""
    match = re.search(r"check failed: ([A-Z]\w*): ", err)
    if match:
        return {"stage": subcommand, "exception": match.group(1)}
    if err.strip():
        return {"stage": subcommand, "exception": None}
    raise CheckError(f"{subcommand}: exit code 1 with neither a report nor a diagnostic")
