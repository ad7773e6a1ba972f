"""terwlab benchmark: runs one workload of CLI ops and prints its metrics.

    python3 perfbench/run.py --workload dense_verify --seed 0 --seconds 50 --trace 0

Run from the repository root; terwlab is imported from ``src/``.  One client
issues the ops one after another (a closed loop); each op is an in-process
call of ``terwlab.cli.main([subcommand, "--scheme", file, "--json", ...])``
with stdout and stderr captured.  Every op runs with the same oracle
``--seed`` and ``--vertex`` (see ``workloads.py``); the run's ``--seed``
orders the ops within each pass.  Set-up builds, validates and writes the
workload's scheme files ``SETUP_REPS`` times and reports the median.  BLAS
keeps its library default thread count.

Times are scaled to a fixed machine speed.  A short fixed probe of
interpreter and small-matrix work (``speed_probe``) runs before the first
op of a pass and after every op, and around every set-up repetition; each
measured time is multiplied by ``PROBE_REF_S`` over the mean of the two
probes around it.  On a shared host the speed of the same work drifts by
tens of percent over minutes; the probe drifts with it, and the program's
own changes do not move the probe.  Wall times are kept in the record.

``--trace 0`` measures whole passes over the op list with tracing off and
prints the end-to-end metrics.  ``--trace 1`` runs untraced passes for half
the time, traced passes for the other half, then one memory pass, and
prints the per-layer metrics (see ``spans.py``).

Every op's output is checked (``checks.py``).  The last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; ``failed``
counts outputs that failed a check, and the exit code is 1 if any did.
Ops that exit 1 are verdicts of the program, not benchmark failures: they
are kept as failure records and show in ``checks_passed_frac``.  A program
error (exit code 2 or an uncaught exception) aborts the run with exit code
3 and no result line.  Each run writes its record, and a traced run its
spans, to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from checks import RESIDUAL_METRICS, STAGE_LAYER, BenchmarkError, CheckError, check_op
from spans import LAYERS, OP, Span, Tracer, child_times, is_layer_outermost, origin_layer, self_times
from workloads import WORKLOADS, Workload, op_argv

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_REPS = 5
MB = 1024 * 1024

#: the probe's median time on the 2-core x86-64 VM (2.1 GHz) the figures in
#: METRICS.md come from, so scaled times read as seconds on that machine
PROBE_REF_S = 0.0056
_PROBE_MATRIX = np.random.default_rng(0).standard_normal((48, 48)) / 48

#: the memory pass runs only the ops on instances at least this large: below
#: it an n x n float matrix is under 80 KB, and tracemalloc would slow the
#: Python loops of small instances many times over for nothing to see
MEMORY_MIN_N = 100

#: functions whose calls or self time are reported on their own
FUNCTION_METRICS = (
    "generators.distance_relation.self_s",
    "context.verify_operator_identities.calls",
    "context.verify_operator_identities.self_s",
    "decomposer.decompose.self_s",
    "decomposer.measure_all.self_s",
    "decomposer.measure_module.self_s",
    "decomposer.norm_ladder_check.self_s",
    "multiplicity.trace_lhs.self_s",
    "multiplicity.solve_multiplicities.self_s",
    "qs.exclusion_check.self_s",
    "qs.fit_qs.self_s",
)
PEAK_ALLOC_LAYERS = ("scheme", "spectral", "context", "decomposer")
REACH_LAYERS = ("spectral", "decomposer", "multiplicity")


def speed_probe() -> float:
    """Seconds taken by a fixed piece of interpreter loop and small-matrix work."""
    start = time.perf_counter()
    total = 0
    for i in range(30000):
        total += i * i % 7
    x = _PROBE_MATRIX
    for _ in range(300):
        x = _PROBE_MATRIX @ x + _PROBE_MATRIX
    return time.perf_counter() - start


def scaled(seconds: float, probe_before: float, probe_after: float) -> float:
    return seconds * PROBE_REF_S * 2 / (probe_before + probe_after)


def import_terwlab():
    """Import terwlab from this checkout's ``src/``; refuse any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import terwlab
    import terwlab.cli

    if Path(terwlab.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"terwlab was imported from {terwlab.__file__}, not from {src}")
    return terwlab


@dataclass
class Op:
    index: int
    subcommand: str
    instance: str
    n: int
    argv: list


@dataclass
class Pass:
    number: int
    ops: list  # Op, in workload order (each pass runs them in its own order)
    wall_s: float
    latencies: list  # scaled seconds, one per op
    wall_latencies: list  # seconds, one per op
    probes: list  # speed_probe seconds, before the first op and after each op
    raw: list  # (exit code, stdout, stderr), one per op
    tracer: Tracer | None = None
    results: list | None = None  # OpResult per op (None where a check failed), after checking


class Bench:
    def __init__(self, tw, workload: Workload, seed: int, workdir: Path):
        self.tw = tw
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.sizes: dict = {}  # label -> (n, D)
        self.ops: list[Op] = []
        self.passes: list[Pass] = []

    def setup(self) -> tuple[list, list]:
        """Build, validate and write every scheme file; returns each repetition's scaled and wall time."""
        generators = self.tw.generators
        self.workdir.mkdir(parents=True, exist_ok=True)
        times, wall = [], []
        probe = speed_probe()
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            for inst in self.workload.instances:
                scheme = generators.generate(inst.family, inst.D)
                generators.save_scheme(scheme, self.workdir / f"{inst.label}.json")
                self.sizes[inst.label] = (scheme.n, scheme.D)
            wall.append(time.perf_counter() - start)
            probe, before = speed_probe(), probe
            times.append(scaled(wall[-1], before, probe))
        self.ops = [
            Op(i, sub, label, self.sizes[label][0], op_argv(sub, str(self.workdir / f"{label}.json")))
            for i, (sub, label) in enumerate(self.workload.ops)
        ]
        return times, wall

    def run_pass(self, ops: list[Op], tracer: Tracer | None = None) -> Pass:
        cli = self.tw.cli  # looked up per call, so an installed tracer's cli.main is the one run
        number = len(self.passes)
        latencies, wall_latencies, raw = [], [], []
        begin = time.perf_counter()
        probes = [speed_probe()]
        for op in ops:
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    if tracer is None:
                        code = cli.main(op.argv)
                    else:
                        with tracer.op(f"{number}:{op.index}"):
                            code = cli.main(op.argv)
            except Exception as exc:
                detail = "".join(traceback.format_exception(exc))
                raise BenchmarkError(f"{op.subcommand} on {op.instance} raised:\n{detail}") from exc
            wall_latencies.append(time.perf_counter() - start)
            raw.append((code, out.getvalue(), err.getvalue()))
            probes.append(speed_probe())
            latencies.append(scaled(wall_latencies[-1], probes[-2], probes[-1]))
        wall = time.perf_counter() - begin
        rows = sorted(zip(ops, latencies, wall_latencies, raw), key=lambda row: row[0].index)
        ops, latencies, wall_latencies, raw = (list(column) for column in zip(*rows))
        done = Pass(number, ops, wall, latencies, wall_latencies, probes, raw, tracer)
        self.passes.append(done)
        return done

    def run_passes(self, budget_s: float, min_passes: int, tracer: Tracer | None = None) -> list[Pass]:
        """Whole passes until the next one would overrun the budget, at least ``min_passes``.

        Each pass runs the ops in its own order, drawn from the seed and the
        pass number, so that a stretch of slow machine time does not always
        fall on the same ops (the ladder's ops are ordered by size).
        """
        passes: list[Pass] = []
        begin = time.perf_counter()
        while len(passes) < min_passes or (
            time.perf_counter() - begin + statistics.median(p.wall_s for p in passes) <= budget_s
        ):
            order = random.Random(f"{self.seed}/{len(self.passes)}").sample(self.ops, len(self.ops))
            passes.append(self.run_pass(order, tracer))
        return passes

    def run_traced(self, tracer: Tracer, budget_s: float, ops: list[Op] | None = None) -> list[Pass]:
        """Traced passes over all ops within the budget, or one traced pass over ``ops``."""
        with tracer.installed():
            if ops is None:
                return self.run_passes(budget_s, 1, tracer)
            return [self.run_pass(ops, tracer)]

    def check(self) -> tuple[list, list]:
        """Check every op of every pass; returns (failure records, check errors).

        Every pass must give each op the same exit code and failure record,
        and each ``verify`` op the same report bytes.  Traced passes must
        give every op the same report as its first, untraced run.
        """
        errors = []
        first: dict = {}  # op index -> (stdout, result) of its first run
        for p in self.passes:
            p.results = []
            for op, (code, out, err) in zip(p.ops, p.raw):
                try:
                    result = check_op(op.subcommand, op.n, code, out, err)
                except CheckError as exc:
                    errors.append(f"{op.subcommand} {op.instance}: {exc}")
                    result = None
                p.results.append(result)
                if op.index not in first:
                    first[op.index] = (out, result)
                    continue
                out0, result0 = first[op.index]
                if result is None or result0 is None:
                    continue
                if (result.code, result.failure) != (result0.code, result0.failure):
                    errors.append(f"{op.subcommand} {op.instance}: exit code or failure differs between passes")
                elif (op.subcommand == "verify" or p.tracer is not None) and out != out0:
                    errors.append(f"{op.subcommand} {op.instance}: report differs between passes")
        failures = [
            {"instance": op.instance, "subcommand": op.subcommand, **r.failure,
             "layer": STAGE_LAYER.get(r.failure["stage"])}
            for op, r in zip(self.passes[0].ops, self.passes[0].results) if r is not None and r.failure is not None
        ]
        return failures, errors

    def environment(self) -> dict:
        modules = {}
        for op, r in zip(self.passes[0].ops, self.passes[0].results):
            if r is not None and r.modules is not None:
                modules.setdefault(op.instance, r.modules)
        return {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas_info(),
            "workload": self.workload.name,
            "seed": self.seed,
            "instances": {
                label: {"n": n, "D": D, "modules": modules.get(label)} for label, (n, D) in self.sizes.items()
            },
        }


def blas_info() -> dict:
    """BLAS library as numpy's build config names it, and its thread count as the library reports it."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


# ---------------------------------------------------------------- metrics

def op_latencies(passes: list[Pass], wall: bool = False) -> dict:
    """Op index -> its scaled (or wall) latencies over the passes."""
    samples: dict = {}
    for p in passes:
        for op, t in zip(p.ops, p.wall_latencies if wall else p.latencies):
            samples.setdefault(op.index, []).append(t)
    return samples


def typical_pass_s(passes: list[Pass]) -> float:
    return sum(statistics.median(v) for v in op_latencies(passes).values())


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b), by its continued fraction (modified Lentz)."""
    if x <= 0 or x >= 1:
        return float(x >= 1)
    if x > (a + 1) / (a + b + 2):
        return 1 - betainc(b, a, 1 - x)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)) / a
    tiny = 1e-300
    c, d = 1.0, 1 / (1 - (a + b) * x / (a + 1))
    f = d
    for m in range(1, 300):
        for numerator in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                          -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1 / ((1 + numerator * d) or tiny)
            c = (1 + numerator / c) or tiny
            f *= c * d
        if abs(c * d - 1) < 1e-15:
            break
    return front * f


def harrell_davis(values: list, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of all order statistics.

    It has a lower variance than one order statistic or the interpolation
    between two, which is what makes a percentile over a few dozen values
    steady from run to run.
    """
    x = sorted(values)
    n = len(x)
    edges = [betainc((n + 1) * q, (n + 1) * (1 - q), i / n) for i in range(n + 1)]
    return sum((hi - lo) * v for lo, hi, v in zip(edges, edges[1:], x))


def end_to_end(setup_times: list, passes: list[Pass]) -> dict:
    """End-to-end metrics of the untraced passes, in scaled seconds.

    Each op's latency is its median over the passes.  ``pass_s`` is the sum
    of these, and the op percentiles are taken over them: with a few passes
    a run's median pass is swayed by one slow stretch of machine time, and
    a percentile of the pooled samples jumps across the gaps between
    instance sizes.
    """
    typical = [statistics.median(v) for v in op_latencies(passes).values()]
    results = [r for p in passes for r in p.results]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "pass_s": (typical_pass_s(passes), "s"),
        "op_p50_s": (harrell_davis(typical, 0.5), "s"),
        "op_p90_s": (harrell_davis(typical, 0.9), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "checks_passed_frac": (sum(r.checks_passed for r in results) / sum(r.checks_total for r in results),
                               "ratio"),
    }


def per_layer(bench: Bench, untraced: list[Pass], traced: list[Pass], memory: list[Span], failures: list) -> dict:
    """Per-pass means over the traced passes, plus memory, residual and reach figures."""
    spans = traced[0].tracer.spans  # one tracer records every traced pass
    selfs = self_times(spans)
    children = child_times(spans)
    k = len(traced)
    metrics = {}
    for layer in LAYERS:
        mine = [i for i, s in enumerate(spans) if s.layer == layer]
        metrics[f"{layer}.calls"] = (len(mine) / k, "count")
        metrics[f"{layer}.self_s"] = (sum(selfs[i] for i in mine) / 1e9 / k, "s")
        metrics[f"{layer}.failed"] = (sum(spans[i].error is not None for i in mine) / k, "count")
    for name in FUNCTION_METRICS:
        function, kind = name.rsplit(".", 1)
        mine = [i for i, s in enumerate(spans) if s.name == function]
        value = len(mine) if kind == "calls" else sum(selfs[i] for i in mine) / 1e9
        metrics[name] = (value / k, "count" if kind == "calls" else "s")
    exclusion = [i for i, s in enumerate(spans) if s.name == "qs.exclusion_check"]
    metrics["qs.exclusion_check.child_s"] = (sum(children[i] for i in exclusion) / 1e9 / k, "s")
    for layer in PEAK_ALLOC_LAYERS:
        allocs = [s.alloc for i, s in enumerate(memory) if s.layer == layer and is_layer_outermost(memory, i)]
        metrics[f"{layer}.peak_alloc_mb"] = (max(allocs, default=0) / MB, "MB")

    results = traced[0].results
    verify = [r for op, r in zip(traced[0].ops, results) if op.subcommand == "verify"]
    metrics["decomposer.modules"] = (sum(r.modules or 0 for r in verify), "count")
    for name in RESIDUAL_METRICS:
        metrics[name] = (max((r.residuals.get(name, 0.0) for r in results), default=0.0), "abs")
    reach = reach_by_layer(bench, traced[0], failures)
    for layer in REACH_LAYERS:
        metrics[f"{layer}.reach_D"] = (reach[layer], "D")
    metrics["ops.failed_frac"] = (sum(r.code == 1 for r in results) / len(results), "ratio")
    metrics["trace.overhead_s"] = (typical_pass_s(traced) - typical_pass_s(untraced), "s")
    return metrics


def spans_by_op(p: Pass) -> dict:
    """Op index -> indices of that op's spans, for one traced pass."""
    by_op: dict = {}
    for i, s in enumerate(p.tracer.spans):
        number, index = s.op_id.split(":")
        if int(number) == p.number:
            by_op.setdefault(int(index), []).append(i)
    return by_op


def attribute_failures(bench: Bench, p: Pass, failures: list) -> None:
    """Give each failure outside ``verify`` the layer that raised it, from one traced pass."""
    by_op = spans_by_op(p)
    index = {(op.instance, op.subcommand): op.index for op in bench.ops}
    for f in failures:
        if f["layer"] is None:
            spans = by_op[index[f["instance"], f["subcommand"]]]
            layer = origin_layer(p.tracer.spans, spans, f["exception"]) if f["exception"] else None
            f["layer"] = layer or "cli"  # no exception: the CLI itself refused


def reach_by_layer(bench: Bench, p: Pass, failures: list) -> dict:
    """Largest D such that every cycle of the workload up to it passed the layer.

    A cycle passes a layer when one of its ops ran the layer in traced pass
    ``p`` and none of its ops failed there.  0 when the first cycle did not.
    """
    touched: dict = {}
    for index, spans in spans_by_op(p).items():
        layers = {p.tracer.spans[i].layer for i in spans}
        touched.setdefault(bench.ops[index].instance, set()).update(layers)
    failed_at = {(f["instance"], f["layer"]) for f in failures}
    cycles = sorted((i for i in bench.workload.instances if i.is_cycle), key=lambda i: i.D)
    reach = {}
    for layer in REACH_LAYERS:
        reach[layer] = 0
        for inst in cycles:
            if layer not in touched.get(inst.label, ()) or (inst.label, layer) in failed_at:
                break
            reach[layer] = inst.D
    return reach


def check_spans(spans: list[Span]) -> list:
    """Self times are non-negative and the self times of an op's spans sum to its op span."""
    errors = []
    selfs = self_times(spans)
    if any(v < 0 for v in selfs):
        errors.append("a span has negative self time")
    totals: dict = {}
    for s, v in zip(spans, selfs):
        totals[s.op_id] = totals.get(s.op_id, 0) + v
    for s in spans:
        if s.name == OP and totals[s.op_id] != s.duration:
            errors.append(f"self times of op {s.op_id} do not sum to its span")
    return errors


# ---------------------------------------------------------------- main

def run(workload: Workload, seed: int, seconds: float, trace: int) -> tuple[dict, Bench]:
    """Set up, measure and check one run; returns its record, also written to ``.bench_out/``, and the bench."""
    tw = import_terwlab()
    stem = f"{workload.name}-seed{seed}-trace{trace}"
    bench = Bench(tw, workload, seed, OUT / stem)
    setup_times, setup_wall = bench.setup()
    if trace:
        untraced = bench.run_passes(seconds / 2, 1)
        traced = bench.run_traced(Tracer(), seconds / 2)
        memory_ops = [op for op in bench.ops if op.n >= MEMORY_MIN_N]
        memory = bench.run_traced(Tracer(PEAK_ALLOC_LAYERS), 0, memory_ops) if memory_ops else []
        span_sets = {"spans": traced[0].tracer.spans, "memory-spans": memory[0].tracer.spans if memory else []}
    else:
        bench.run_passes(seconds, 2)
    failures, errors = bench.check()
    metrics = {}
    if trace and not errors:
        attribute_failures(bench, traced[0], failures)
        errors += check_spans(span_sets["spans"]) + check_spans(span_sets["memory-spans"])
        metrics = per_layer(bench, untraced, traced, span_sets["memory-spans"], failures)
    elif not errors:
        metrics = end_to_end(setup_times, bench.passes)
    attempted = sum(len(p.raw) for p in bench.passes)
    record = {
        "environment": bench.environment(),
        "pass_s": [p.wall_s for p in bench.passes],
        "op_latencies_s": op_latencies([p for p in bench.passes if p.tracer is None]),
        "op_wall_latencies_s": op_latencies([p for p in bench.passes if p.tracer is None], wall=True),
        "traced_passes": sum(p.tracer is not None for p in bench.passes),
        "op_samples": sum(len(p.latencies) for p in bench.passes),
        "ops_failed_frac": sum(code == 1 for code, _, _ in bench.passes[0].raw) / len(bench.ops),
        "setup_times_s": setup_times,
        "setup_wall_times_s": setup_wall,
        "probe_ref_s": PROBE_REF_S,
        "probe_median_s": statistics.median(t for p in bench.passes for t in p.probes),
        "failures": failures,
        "check_errors": errors,
        "result": {
            "correct": not errors,
            "attempted": attempted,
            "failed": min(len(errors), attempted),
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        },
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        for kind, spans in span_sets.items():
            with open(OUT / f"{stem}-{kind}.jsonl", "w") as fh:
                for s in spans:
                    fh.write(json.dumps(asdict(s)) + "\n")
    return record, bench


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        record, _ = run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    except ImportError as exc:
        print(f"benchmark error: cannot import terwlab from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3
    for error in record["check_errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print(f"passes {len(record['pass_s'])} (traced {record['traced_passes']}), op samples {record['op_samples']}, "
          f"ops_failed_frac {record['ops_failed_frac']:.4f}, failure records {len(record['failures'])}")
    wall = record["op_wall_latencies_s"].values()
    print(f"wall time: set-up {statistics.median(record['setup_wall_times_s']):.4g} s, "
          f"pass {sum(statistics.median(v) for v in wall):.4g} s; probe median {record['probe_median_s']:.4g} s")
    for name, metric in record["result"]["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(record["result"]))
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
