"""The benchmark's workloads, generated from a seed.

Each workload is a fixed block of operations that the closed loop in
``run.py`` repeats back to back: CLI commands, run in process through
``dephrasure.cli.main`` with ``--out``, and, for ``verify_oracle``,
independent-route comparisons made through the library.  The seed jitters
grid offsets, picks the search points, seeds the random oracle codes and
is passed to the CLI as ``--seed``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

# grid side of the sweep_grid commands; fixed so that every seed sweeps
# the same number of points
SWEEP_STEPS = 15
# the chi3 search point on the superadditivity diagonal q = 3p, p in
# [0.107, 0.118], fixed: the search's work depends on the point
# erratically (11.8k-20.7k objective evaluations over eight seeded points
# in the window's lower half, against 16.5k-17.9k over five seeds at this
# point), and one 15-25 s search per block cannot average that out
CHI3_P = 0.11
# the points the second search point is drawn from, in the window's upper
# half; a fixed set, so that search_rates.json can hold the baseline rate
# of every search (at a fixed point the rates agree across seeds to 1e-15)
PB_POINTS = (0.1125, 0.1133, 0.1141, 0.1149, 0.1157, 0.1165, 0.1173, 0.118)
ORACLE_RANDOM_CODES = 40  # multiletter_ci vs brute_force_ci, n <= 3
ORACLE_REPETITION_CODES = 24  # multiletter_ci vs repetition_ci, n <= 6
ORACLE_TOL = 1e-9


@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``tag`` names its output file and its checks."""

    tag: str
    argv: tuple
    ext: str = "csv"
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class OracleCheck:
    """Two routes to one coherent information that must agree."""

    kind: str  # 'random' or 'repetition'
    n: int
    p: float
    q: float
    lam: float = 0.0
    amplitudes: tuple = ()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple
    checks: tuple = ()


def _r(x):
    return f"{x:.6f}"


def sweep_grid(seed):
    rng = random.Random(seed)
    hp, hq = (0.5 - 0.02 * rng.random() for _ in range(2))
    a, b = (0.04 + 0.02 * rng.random() for _ in range(2))
    corner = 0.002 + 0.002 * rng.random()
    s = ("--seed", str(seed))
    grid = ("--p-range", f"0:{_r(hp)}:{SWEEP_STEPS}", "--q-range", f"0:{_r(hq)}:{SWEEP_STEPS}")

    def sweep(tag, quantity, *extra, ext="csv", n=None, g=grid):
        argv = ("sweep", "--quantity", quantity, *g, *extra, *s)
        return Command(tag, argv, ext, {"quantity": quantity.split("(")[0], "n": n})

    commands = (
        sweep("single_ci", "single_ci"),
        sweep("repetition_rate3", "repetition_rate(3)", n=3),
        sweep("private_lb", "private_lb"),
        sweep("antideg", "antideg"),
        sweep("antideg_json", "antideg", "--format", "json", ext="json"),
        # on [0, 1/2]^2 the first point is q = 0, outside the witness region
        sweep("comp_witness", "comp_witness"),
        sweep("comp_witness_interior", "comp_witness",
              g=("--p-range", f"{_r(a)}:{_r(hp)}:{SWEEP_STEPS}",
                 "--q-range", f"{_r(b)}:{_r(hq)}:{SWEEP_STEPS}")),
        sweep("comp_witness_corner", "comp_witness",
              g=("--p-range", f"0.001:{_r(corner)}:3", "--q-range", f"0.001:{_r(corner)}:3")),
        Command("regions", ("regions", "--p-range", f"0:{_r(hp)}:{SWEEP_STEPS}", *s),
                meta={"quantity": "regions"}),
    )
    return Workload(
        "sweep_grid",
        "per-point scalar loops and CLI row output; no multi-letter codes or optimizers",
        commands,
    )


def code_search(seed, pb=None):
    """The search block; ``pb``, the second point, is drawn from PB_POINTS
    unless given."""
    pa = CHI3_P
    if pb is None:
        pb = random.Random(seed).choice(PB_POINTS)
    s = ("--seed", str(seed))
    commands = (
        # the second diagonal point has q = 1.5 > 1/2, which the CLI skips,
        # so exactly one chi3 search runs; the seed drives its swarm
        Command("diagonal", ("diagonal", "--codes", "rep3,chi3",
                             "--p-range", f"{_r(pa)}:0.5:2", *s),
                meta={"quantity": "diagonal"}),
        Command("optimize", ("optimize", "--p", _r(pb), "--q", _r(3 * pb), "--n", "2", *s),
                ext="json", meta={"quantity": "optimize", "n": 2}),
        # a sweep range has at least two steps, so this is the 2x2 grid
        # spanned by the two diagonal points
        Command("zdiag_rate2", ("sweep", "--quantity", "zdiag_rate(2)",
                                "--p-range", f"{_r(pa)}:{_r(pb)}:2",
                                "--q-range", f"{_r(3 * pa)}:{_r(3 * pb)}:2", *s),
                meta={"quantity": "zdiag_rate", "n": 2}),
    )
    return Workload(
        "code_search",
        "multiletter_ci under PSO and Powell, _zdiag_ci_fast under multi-start Powell",
        commands,
    )


def verify_oracle(seed):
    rng = np.random.default_rng(seed)
    checks = []
    # n cycles so that every seed does the same amount of work
    for i in range(ORACLE_RANDOM_CODES):
        n = 1 + i % 3
        size = 2 ** (2 * n)
        amps = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        p, q = rng.uniform(0.0, 0.5, 2)
        checks.append(OracleCheck("random", n, float(p), float(q), amplitudes=tuple(amps)))
    for i in range(ORACLE_REPETITION_CODES):
        n = 1 + i % 6
        p, q = rng.uniform(0.0, 0.5, 2)
        checks.append(OracleCheck("repetition", n, float(p), float(q), lam=float(rng.uniform())))
    commands = tuple(
        Command(f"verify_{suite}", ("verify", suite), "json", {"quantity": "verify"})
        for suite in ("oracle", "antideg", "thresholds", "compci")
    )
    return Workload(
        "verify_oracle",
        "single-shot block evaluations of varying shape, n from 1 to 6, and the verify suites",
        commands,
        tuple(checks),
    )


WORKLOADS = {"sweep_grid": sweep_grid, "code_search": code_search, "verify_oracle": verify_oracle}


def run_oracle_check(check):
    """Return |difference| between the two routes of one comparison."""
    from dephrasure import codes

    if check.kind == "random":
        code = codes.normalized_code(check.n, 2**check.n, np.array(check.amplitudes))
        other = codes.brute_force_ci(code, check.p, check.q)
    else:
        code = codes.repetition_code_state(check.n, check.lam)
        other = codes.repetition_ci(check.p, check.q, check.n, check.lam)
    return abs(codes.multiletter_ci(code, check.p, check.q) - other)
