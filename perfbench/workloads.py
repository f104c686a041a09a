"""The four benchmark workloads, as rounds of operations.

A round is one pass over a workload's operations.  Its inputs are drawn
from ``numpy.random.default_rng([seed, round_index])``: the same seed and
round give the same inputs, and every round of every seed does the same
amount of work up to small jitter in the law parameters and the target
ratios.  Varying the inputs from round to round keeps a cache that
outlives one call from turning the benchmark into a cache benchmark.

Each operation is either a ``thqaoa.cli.run`` argument list, whose CSV
output is checked, or a library call made through the package's module
attributes, whose ``record`` array (masses or class probabilities) is
checked.  ``check`` names a function of ``checks.py`` and its leading
arguments; the output is passed last.  This module does not import the
checks, so the measured process never loads them: ``run.py`` rebuilds the
same rounds and checks the saved outputs after the measured process ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

import numpy as np


@dataclass
class Op:
    label: str
    check: Tuple[str, tuple]
    argv: Optional[List[str]] = None
    call: Optional[Callable[[], Any]] = None
    record: Optional[Callable[[Any], np.ndarray]] = None


def pow2_grid(denominator, x_max, cap=None):
    """ceil(2^(x/denominator)) for x = 0..x_max, deduplicated."""
    grid = []
    for x in range(x_max + 1):
        r = math.ceil(2.0 ** (x / denominator))
        if cap is not None and r > cap:
            break
        if not grid or grid[-1] != r:
            grid.append(r)
    return grid


def log_grid(limit):
    """Quarter-octave rounds up to ``limit``, endpoint included (fig2, fig4)."""
    grid = pow2_grid(4, 4 * math.ceil(math.log2(limit)) + 4, cap=limit)
    return grid if grid[-1] == limit else grid + [limit]


FIG2_ROUNDS = log_grid(10**6)
FIG4_ROUNDS = log_grid(10**5)
FIG7_ROUNDS = pow2_grid(100, 5000)
FIG4_GAMMA_K = (100.0, 10.0, 1.0, 0.1, 0.01)
PARETO_ROUNDS = list(range(1, 1001))
FIG5_ROUNDS = list(range(1, 101))
CRS_ROUNDS = [1, 10, 100, 1000]

ANGLE_BINS = 3_000
ANGLE_ROUNDS = [1, 2, 3]
ANGLE_RESTARTS = 3
ANGLE_OPTIMIZER_SEED = 0

MAXCUT_N_RANGE = (4, 32)
MAXCUT_BOUND_KINDS = ("max_amplification", "gmth")

AUDIT_LAWS = 1000
AUDIT_FULL_SPACE_EVERY = 50


def _rounds_arg(rounds):
    return ",".join(str(r) for r in rounds)


def threshold_sweep(rng, ctx):
    u, s = rng.uniform(-2.0, 2.0), rng.uniform(0.5, 2.0)
    normal = f"normal:{u!r},{s!r}"
    ops = [Op("sweep-normal", ("check_sweep", (normal, FIG2_ROUNDS)),
              ["sweep", "--dist", normal, "--r", _rounds_arg(FIG2_ROUNDS)])]
    for k in FIG4_GAMMA_K:
        a = 0.5 * k * math.exp(rng.uniform(-0.05, 0.05))
        b = 0.5 * math.exp(rng.uniform(-0.2, 0.2))
        spec = f"gamma:{a!r},{b!r}"
        ops.append(Op(f"sweep-gamma-k{k:g}", ("check_sweep", (spec, FIG4_ROUNDS)),
                      ["sweep", "--dist", spec, "--r", _rounds_arg(FIG4_ROUNDS)]))
    pareto = f"pareto:18,{rng.uniform(0.5, 2.0)!r}"
    ops.append(Op("sweep-pareto-j0.1", ("check_pareto_sweep", (pareto, PARETO_ROUNDS)),
                  ["sweep", "--dist", pareto, "--r", f"linspace:1,{PARETO_ROUNDS[-1]},{len(PARETO_ROUNDS)}"]))
    p = rng.uniform(0.45, 0.55)
    binomial = f"binomial:200,{p!r}"
    matched = f"normal:{200 * p!r},{math.sqrt(200 * p * (1 - p))!r}"
    for label, spec in (("sweep-binomial", binomial), ("sweep-normal-matched", matched)):
        ops.append(Op(label, ("check_sweep", (spec, FIG5_ROUNDS)),
                      ["sweep", "--dist", spec, "--r", "linspace:1,100,100"]))
    r = 10 ** int(rng.integers(0, 7))
    for label, spec in (("curve-normal", normal), ("curve-binomial", binomial)):
        ops.append(Op(label, ("check_curve", (spec, r)),
                      ["curve", "--dist", spec, "--r", str(r)]))
    ops.append(Op("crs-normal", ("check_crs", (normal,)),
                  ["crs", "--dist", normal, "--r", _rounds_arg(CRS_ROUNDS), "--method", "integral"]))
    ops.append(Op("fig1", ("check_fig1", ()), ["reproduce", "fig1"]))
    ops.append(Op("fig5", ("check_fig5", ()), ["reproduce", "fig5"]))
    return ops


def angle_search(rng, ctx):
    # The optimizer seed is fixed: the random restarts draw gamma in units
    # of 2pi/sigma, so they start from the same standardized points on
    # every round and only the law moves the work.
    u, s = rng.uniform(-1.0, 1.0), rng.uniform(0.8, 1.25)
    spec = f"normal:{u!r},{s!r}"
    argv = ["gmqaoa", "--dist", spec, "--bins", str(ANGLE_BINS), "--r", _rounds_arg(ANGLE_ROUNDS),
            "--restarts", str(ANGLE_RESTARTS), "--seed", str(ANGLE_OPTIMIZER_SEED)]
    return [Op("gmqaoa-normal", ("check_angle_search", (u, s, ANGLE_BINS, ANGLE_ROUNDS)), argv)]


def maxcut_rounds(rng, ctx):
    lo, hi = MAXCUT_N_RANGE
    lams = [1.0] + [base + rng.uniform(-0.003, 0.003) for base in (16.0 / 17.0, 0.8786, 0.52)]
    ops = []
    for kind in MAXCUT_BOUND_KINDS:
        for i, lam in enumerate(lams):
            ops.append(Op(f"rounds-{kind}-lam{i}", ("check_round_search", (range(lo, hi + 1), lam, kind)),
                          ["maxcut", "--n-range", f"{lo},{hi}", "--lam", repr(lam), "--bound-kind", kind]))
    ops.append(Op("spectrum-knn300", ("check_maxcut_spectrum", (300,)),
                  ["maxcut", "--n", "300"]))
    ops.append(Op("bound-knn50", ("check_bound_knn", (50, FIG7_ROUNDS)),
                  ["bound", "--dist", "knn:50", "--r", "pow2:100,5000"]))
    ops.append(Op("fig8", ("check_fig8", ()), ["reproduce", "fig8"]))
    return ops


def amplification_audit(rng, ctx):
    """Many small laws, each built and then simulated under two phases.

    The simulate operations read the law the build operation made; if the
    build failed they fail too.  ``ctx["thqaoa"]`` is the package, absent
    when the rounds are rebuilt only to be checked.
    """
    thqaoa = ctx.get("thqaoa")
    ops = []
    for i in range(AUDIT_LAWS):
        size = int(rng.integers(2, 31))
        values = np.unique(rng.normal(0.0, 3.0, size))
        counts = rng.integers(1, 50, values.size)
        pairs = list(zip(values.tolist(), (int(c) for c in counts)))
        masses = counts / counts.sum()
        r = int(rng.integers(1, 7))
        betas, gammas = rng.uniform(-np.pi, np.pi, r), rng.uniform(-np.pi, np.pi, r)
        t = float(values[int(rng.integers(0, values.size))])
        full_space = i % AUDIT_FULL_SPACE_EVERY == 0
        held = {}

        def build(pairs=pairs, held=held):
            held["law"] = thqaoa.make_empirical(pairs)
            return held["law"]

        ops.append(Op("law", ("check_law_masses", (masses,)), call=build,
                      record=lambda law: law.spectrum.masses))
        phases = (
            ("simulate-identity", lambda: thqaoa.gmqaoa.identity_phase, None),
            ("simulate-threshold", lambda t=t: thqaoa.gmqaoa.threshold_phase(t), t),
        )
        for label, program_phase, threshold in phases:
            def simulate(program_phase=program_phase, held=held, betas=betas, gammas=gammas):
                angles = thqaoa.AngleSchedule(betas, gammas)
                return thqaoa.gmqaoa.simulate(held["law"], program_phase(), angles)

            check = ("check_audit_state", (masses, r, values, counts, betas, gammas, threshold, full_space))
            ops.append(Op(label, check, call=simulate, record=lambda state: state.probabilities()))
    return ops


WORKLOADS = {
    "threshold-sweep": threshold_sweep,
    "angle-search": angle_search,
    "maxcut-rounds": maxcut_rounds,
    "amplification-audit": amplification_audit,
}


def round_ops(workload, seed, round_index, ctx):
    rng = np.random.default_rng([seed, round_index])
    return WORKLOADS[workload](rng, ctx)
