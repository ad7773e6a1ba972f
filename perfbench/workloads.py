"""Workload definitions: which scheme files are built and which CLI ops run on them.

Each workload is a fixed list of instances (scheme family and diameter) and
a fixed list of ops (subcommand, instance).  Every op runs with the same
oracle seed and base vertex, whatever the run's seed: the oracle's draws
decide how often a failing decomposition redraws and whether the stages
after it run, so a seed-dependent op list would change the work measured
from one run to the next.  The run seed orders the ops within each pass.
Why each workload exists is recorded in BENCHMARK.json and METRICS.md.
"""

from __future__ import annotations

from dataclasses import dataclass

#: oracle ``--seed`` and ``--vertex`` of every op
ORACLE_SEED = 0
BASE_VERTEX = 0


@dataclass(frozen=True)
class Instance:
    label: str
    family: str
    D: int

    @property
    def is_cycle(self) -> bool:
        return self.family == "odd_cycle"


@dataclass(frozen=True)
class Workload:
    name: str
    instances: tuple
    ops: tuple  # (subcommand, instance label), in workload order


def _cycle(D: int) -> Instance:
    return Instance(f"C{2 * D + 1}", "odd_cycle", D)


O5 = Instance("O5", "odd_graph", 5)  # Kneser K(11,5), n=462, D=5
FC9 = Instance("FC9", "folded_cube", 4)  # folded 9-cube, n=256, D=4

LADDER = tuple(_cycle(D) for D in range(3, 31))
#: cycles that also get a ``multiplicities`` op, which runs the recurrence
#: without the oracle; ``spectral_data`` fails from D=18, so beyond it the
#: op would only repeat the spectral failure its ``verify`` op records
RECURRENCE_LADDER = tuple(c for c in LADDER if c.D <= 17)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dense_verify",
            (O5, FC9),
            (("verify", "O5"), ("verify", "FC9")),
        ),
        Workload(
            "cycle_ladder",
            LADDER,
            tuple(("verify", c.label) for c in LADDER)
            + tuple(("multiplicities", c.label) for c in RECURRENCE_LADDER),
        ),
    )
}


def op_argv(subcommand: str, scheme_path: str) -> list:
    return [subcommand, "--scheme", scheme_path, "--json", "--seed", str(ORACLE_SEED), "--vertex", str(BASE_VERTEX)]
