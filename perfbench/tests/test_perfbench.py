"""Self-checks of the benchmark and of its traced run.

    python3 -m pytest perfbench/tests -q

The traced-run checks run every workload once with the shortest budget
(one untraced pass, one traced pass and the memory pass), and the same for
``PARAMS_ONLY``, a small op list of the subcommands that never call the
module oracle; about 70 s on a 2-core machine.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from checks import BenchmarkError, CheckError, check_op  # noqa: E402
from spans import LAYERS, OP, Span, origin_layer, self_times  # noqa: E402
from workloads import FC9, WORKLOADS, Instance, Workload  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

C29 = Instance("C29", "odd_cycle", 14)  # the recurrence's first failing cycle
PARAMS_ONLY = Workload(
    "params_only",
    (FC9, C29),
    tuple((sub, FC9.label) for sub in ("analyze", "multiplicities", "qs"))
    + tuple((sub, C29.label) for sub in ("multiplicities", "qs")),
)


@pytest.fixture(scope="module")
def traced_runs():
    return {name: run.run(w, seed=0, seconds=0, trace=1) for name, w in WORKLOADS.items()}


@pytest.fixture(scope="module")
def params_only_run():
    return run.run(PARAMS_ONLY, seed=0, seconds=0, trace=1)


def _metrics(record):
    return {name: m["value"] for name, m in record["result"]["metrics"].items()}


# ---------------------------------------------------------------- traced run

def test_traced_runs_are_correct(traced_runs):
    for name, (record, _) in traced_runs.items():
        assert record["check_errors"] == [], name
        assert record["result"]["correct"] and record["result"]["failed"] == 0


def test_every_layer_is_called_on_some_workload(traced_runs):
    for layer in LAYERS:
        assert any(_metrics(rec)[f"{layer}.calls"] > 0 for rec, _ in traced_runs.values()), layer


def test_params_only_never_calls_the_decomposer(params_only_run):
    record, _ = params_only_run
    assert record["result"]["correct"]
    metrics = _metrics(record)
    assert metrics["decomposer.calls"] == 0
    assert metrics["decomposer.self_s"] == 0
    assert metrics["multiplicity.calls"] > 0 and metrics["qs.fit_qs.self_s"] > 0
    assert [(f["instance"], f["subcommand"], f["layer"]) for f in record["failures"]] == [
        ("C29", "multiplicities", "multiplicity")
    ]


def test_self_times_are_nonnegative_and_sum_to_the_op_span(traced_runs, params_only_run):
    for _, bench in [*traced_runs.values(), params_only_run]:
        traced = [p for p in bench.passes if p.tracer is not None]
        assert traced
        for p in traced:
            spans = p.tracer.spans
            selfs = self_times(spans)
            assert min(selfs) >= 0
            for i, s in enumerate(spans):
                if s.name == OP:
                    inside = [j for j, t in enumerate(spans) if t.op_id == s.op_id]
                    assert sum(selfs[j] for j in inside) == s.duration


def test_traced_and_untraced_passes_give_identical_reports(traced_runs, params_only_run):
    for _, bench in [*traced_runs.values(), params_only_run]:
        untraced = bench.passes[0]
        assert untraced.tracer is None
        first = {op.index: (code, out) for op, (code, out, _) in zip(untraced.ops, untraced.raw)}
        for p in bench.passes[1:]:
            for op, (code, out, _) in zip(p.ops, p.raw):
                assert (code, out) == first[op.index], (op.subcommand, op.instance)


def test_per_layer_metrics_match_benchmark_json(traced_runs):
    names = [m["name"] for m in BENCHMARK["per_layer"]]
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for record, _ in traced_runs.values():
        metrics = record["result"]["metrics"]
        assert list(metrics) == names
        assert all(metrics[n]["unit"] == units[n] for n in names)


def test_failure_records_name_the_ops_that_exit_1(traced_runs):
    for record, bench in traced_runs.values():
        first = bench.passes[0]
        failing = sorted((op.instance, op.subcommand) for op, (code, _, _) in zip(first.ops, first.raw) if code == 1)
        assert sorted((f["instance"], f["subcommand"]) for f in record["failures"]) == failing
        assert all(f["layer"] in LAYERS for f in record["failures"])


def test_cycle_reach_matches_failure_records(traced_runs):
    record, _ = traced_runs["cycle_ladder"]
    metrics = _metrics(record)
    for layer in ("spectral", "decomposer", "multiplicity"):
        first_failure = min(int(f["instance"][1:]) // 2 for f in record["failures"] if f["layer"] == layer)
        assert metrics[f"{layer}.reach_D"] == first_failure - 1, layer
    # the ladder's multiplicities ops run the recurrence past the oracle's boundary
    assert metrics["decomposer.reach_D"] < metrics["multiplicity.reach_D"] < metrics["spectral.reach_D"]
    assert 0 < metrics["ops.failed_frac"] < 1


# ---------------------------------------------------------------- untraced run

def test_end_to_end_metrics_match_benchmark_json():
    record, bench = run.run(WORKLOADS["dense_verify"], seed=1, seconds=0, trace=0)
    metrics = record["result"]["metrics"]
    assert [(n, m["unit"]) for n, m in metrics.items()] == [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]]
    assert all(m["value"] > 0 for m in metrics.values())
    assert record["environment"]["instances"]["O5"] == {"n": 462, "D": 5, "modules": 200}
    # the run seed orders the ops but does not change them
    assert all(op.argv[-4:] == ["--seed", "0", "--vertex", "0"] for op in bench.ops)


# ---------------------------------------------------------------- units

def test_self_times_subtract_child_coverage():
    spans = [
        Span(OP, 0, 100, None, "0:0"),
        Span("cli.main", 5, 95, 0, "0:0"),
        Span("spectral.spectral_data", 10, 40, 1, "0:0", error="NumericalCheckFailure"),
        Span("scheme.intersection_tensor", 12, 20, 2, "0:0"),
        Span("spectral.detect_q_polynomial", 21, 39, 2, "0:0", error="NumericalCheckFailure"),
    ]
    assert self_times(spans) == [10, 60, 4, 8, 18]
    assert origin_layer(spans, list(range(5)), "NumericalCheckFailure") == "spectral"
    assert origin_layer(spans, list(range(5)), "ParseError") is None


def test_scaling_divides_out_the_probe():
    assert run.scaled(2.0, run.PROBE_REF_S, run.PROBE_REF_S) == pytest.approx(2.0)
    # a machine running at half speed doubles both the op and the probes
    assert run.scaled(4.0, 2 * run.PROBE_REF_S, 2 * run.PROBE_REF_S) == pytest.approx(2.0)
    assert run.speed_probe() > 0


def test_harrell_davis_quantiles():
    for x in (0.0, 0.1, 0.5, 0.93, 1.0):
        assert run.betainc(1, 1, x) == pytest.approx(x)
        assert run.betainc(2.5, 1, x) == pytest.approx(x ** 2.5)
    assert run.betainc(0.3, 0.3, 0.5) == pytest.approx(0.5)
    assert run.harrell_davis([3.0, 1.0], 0.5) == pytest.approx(2.0)
    assert run.harrell_davis([5.0], 0.9) == pytest.approx(5.0)
    assert run.harrell_davis(list(range(101)), 0.9) == pytest.approx(90, abs=1)


def test_verdict_must_agree_with_exit_code():
    report = json.dumps({"schema": "terw-lab/1", "verdict": "pass", "checks": []})
    with pytest.raises(CheckError):
        check_op("verify", 7, 1, report, "")
    with pytest.raises(CheckError):
        check_op("verify", 7, 0, json.dumps({"verdict": "pass", "checks": []}), "")
    with pytest.raises(BenchmarkError):
        check_op("verify", 7, 2, "", "input error: nope")


def test_multiplicities_must_sum_to_n():
    report = {"schema": "terw-lab/1", "total_dimension": 6, "mult": [{"t": 0, "d": 3, "count": 1, "pre_rounding": 0.0}]}
    with pytest.raises(CheckError):
        check_op("multiplicities", 7, 0, json.dumps(report), "")
    failed = check_op("multiplicities", 7, 1, "", "check failed: NonIntegerMultiplicity: mult(5, 6) = -0.0001")
    assert failed.failure == {"stage": "multiplicities", "exception": "NonIntegerMultiplicity"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense_verify", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
