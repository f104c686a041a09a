"""The benchmark's output checks reject deliberately wrong outputs.

Each test takes a genuine output of the program, shows that its check
accepts it, then corrupts it in one way and shows that the check rejects
it.  Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_checks.py
"""

import csv
import io
import math
import os
import sys
from contextlib import redirect_stdout

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
from checks import CheckError  # noqa: E402
from thqaoa import cli  # noqa: E402
from thqaoa.dist_models import make_empirical  # noqa: E402
from thqaoa.gmqaoa import identity_phase, simulate  # noqa: E402
from thqaoa.grover_kernel import AngleSchedule  # noqa: E402


def run_cli(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.run(list(argv)) == 0
    return list(csv.DictReader(out.getvalue().splitlines()))


def test_shifted_expectation_is_rejected():
    spec, rounds = "normal:0.3,1.2", [1, 7, 100, 5000]
    rows = run_cli("sweep", "--dist", spec, "--r", ",".join(map(str, rounds)))
    checks.check_sweep(spec, rounds, rows)
    rows[2]["e_r"] = repr(float(rows[2]["e_r"]) * (1.0 + 1e-7))
    with pytest.raises(CheckError, match="r=100: E_r"):
        checks.check_sweep(spec, rounds, rows)


def test_rising_angle_optimum_is_rejected():
    u, s, bins, rounds = 0.2, 0.9, 400, [1, 2]
    rows = run_cli("gmqaoa", "--dist", f"normal:{u},{s}", "--bins", str(bins), "--r", "1,2",
                   "--restarts", "2", "--seed", "3")
    checks.check_angle_search(u, s, bins, rounds, rows)
    law = checks.discretize_normal(u, s, bins)
    e = float(rows[0]["e_opt"]) + 0.01
    rows[1].update(e_opt=repr(e), c=repr((law.mean - e) / law.std),
                   quantile=repr(float(np.searchsorted(law.values, e, side="right")) / bins))
    with pytest.raises(CheckError, match="e_opt rises"):
        checks.check_angle_search(u, s, bins, rounds, rows)


@pytest.mark.parametrize("kind", ["max_amplification", "gmth"])
@pytest.mark.parametrize("lam", [1.0, 0.8786])
@pytest.mark.parametrize("shift", [-1, 1])
def test_round_count_off_by_one_is_rejected(kind, lam, shift):
    rows = run_cli("maxcut", "--n-range", "4,12", "--lam", repr(lam), "--bound-kind", kind)
    tallies = {}
    checks.check_round_search(range(4, 13), lam, kind, rows, tallies)
    target = next(row for row in rows if int(row["r"]) > 1)
    target["r"] = str(int(target["r"]) + shift)
    with pytest.raises(CheckError, match=f"n={target['n']}"):
        checks.check_round_search(range(4, 13), lam, kind, rows, tallies)


def test_amplification_above_cap_is_rejected():
    rng = np.random.default_rng(0)
    values = np.sort(rng.normal(0.0, 3.0, 12))
    counts = rng.integers(1, 50, values.size)
    law = make_empirical(list(zip(values.tolist(), (int(c) for c in counts))))
    masses = counts / counts.sum()
    betas, gammas = rng.uniform(-np.pi, np.pi, 3), rng.uniform(-np.pi, np.pi, 3)
    probabilities = simulate(law, identity_phase, AngleSchedule(betas, gammas)).probabilities()
    checks.check_state(masses, probabilities, 3)
    checks.check_full_space(values, counts, lambda v: v, betas, gammas, probabilities)
    checks.check_audit_state(masses, 3, values, counts, betas, gammas, None, True, probabilities)
    # Class 0 at just above 49 times its mass, the rest scaled to keep norm 1.
    forged = probabilities.copy()
    forged[0] = 49.5 * masses[0]
    forged[1:] *= (1.0 - forged[0]) / forged[1:].sum()
    with pytest.raises(CheckError, match="exceeds"):
        checks.check_state(masses, forged, 3)
    with pytest.raises(CheckError, match="full-space"):
        checks.check_full_space(values, counts, lambda v: v, betas, gammas, forged)
    with pytest.raises(CheckError, match="exceeds"):
        checks.check_audit_state(masses, 3, values, counts, betas, gammas, None, False, forged)


def test_moved_multiplicity_is_rejected():
    n = 7
    rows = run_cli("maxcut", "--n", str(n))
    checks.check_maxcut_spectrum(n, rows)
    # Move one assignment from class 3 to class 4: the total, the minimum
    # class, the masses and the cdf stay consistent with the new counts.
    counts = [int(row["count"]) for row in rows]
    counts[3] -= 1
    counts[4] += 1
    cum = 0
    for row, count in zip(rows, counts):
        cum += count
        row.update(count=str(count), mass=repr(count / 4**n), cdf=repr(cum / 4**n))
    with pytest.raises(CheckError, match="multiplicity"):
        checks.check_maxcut_spectrum(n, rows)


def test_fig1_needs_the_kappa_root():
    rows = run_cli("reproduce", "fig1")
    checks.check_fig1(rows)
    assert math.isclose(checks.kappa_reference(), 1.4492227075534169, rel_tol=1e-15)
    rows[0]["cth"] = "2.0001"
    with pytest.raises(CheckError, match="c_th"):
        checks.check_fig1(rows)
