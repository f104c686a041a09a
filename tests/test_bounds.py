"""Performance bounds: asymptotic slope, score ceilings, floors, envelopes."""

import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from scipy import optimize as sciopt

import oracles
from thqaoa import bounds, cli, gmqaoa
from thqaoa.bounds import (
    c_th,
    c_ths,
    kappa,
    max_amplification_floor,
    quantile_sandwich,
    simulated_amplification,
)
from thqaoa.dist_core import discretize_equal_mass
from thqaoa.dist_models import (
    make_binomial,
    make_empirical,
    make_normal,
    make_reflected_gamma,
    make_reflected_pareto,
    make_two_point,
)
from thqaoa.errors import DomainError
from thqaoa.gmth import min_rounds_exact_opt, optimize_threshold
from thqaoa.grover_kernel import (
    AngleSchedule,
    grover_probability,
    threshold_ratio,
)
from thqaoa.maxcut import knn_spectrum, min_rounds_for_ratio


def random_discrete_law(rng, max_atoms=12):
    n = int(rng.integers(2, max_atoms + 1))
    values = np.sort(rng.normal(0.0, 3.0, n))
    while np.any(np.diff(values) == 0.0):
        values = np.sort(rng.normal(0.0, 3.0, n))
    counts = rng.integers(1, 20, n)
    return make_empirical(list(zip(values.tolist(), (int(c) for c in counts))))


# ---------------------------------------------------------------------------
# kappa
# ---------------------------------------------------------------------------


def test_kappa_root_and_value():
    x1, k = kappa()
    assert 2.0 * x1 - math.tan(x1) == pytest.approx(0.0, abs=1e-12)
    assert k == pytest.approx(2.0 * math.sin(x1) ** 2 / x1, abs=1e-15)
    assert x1 == pytest.approx(1.1655611852072116, abs=1e-12)
    assert k == pytest.approx(1.449222707553417, abs=1e-12)
    # independent root finder
    x_ref = sciopt.brentq(lambda x: 2.0 * x - math.tan(x), 0.8, 1.4, xtol=1e-15)
    assert x1 == pytest.approx(x_ref, abs=1e-12)


# ---------------------------------------------------------------------------
# Per-round score ceiling
# ---------------------------------------------------------------------------


def test_c_th_single_round_is_two():
    rho_star, c1 = c_th(1)
    assert c1 == pytest.approx(2.0, abs=1e-9)
    assert 0.0 < rho_star <= 0.25


def test_c_th_matches_dense_scan():
    for r in (1, 2, 5, 17):
        rho_star, c_val = c_th(r)
        grid = np.geomspace(threshold_ratio(r) * 1e-7, threshold_ratio(r), 200_001)
        p = np.array([grover_probability(float(x), r) for x in grid])
        scores = (p - grid) / np.sqrt(grid * (1.0 - grid))
        assert c_val == pytest.approx(float(scores.max()), rel=1e-9)
        assert c_val >= scores.max() - 1e-12


def test_c_th_growth_and_asymptotic_slope():
    values = [c_th(r)[1] for r in range(1, 13)]
    assert all(b > a for a, b in zip(values, values[1:]))
    _, k = kappa()
    _, c50 = c_th(50)
    assert abs(c50 / 50.0 - k) < 0.05 * k
    with pytest.raises(DomainError):
        c_th(0)


def _hex_pairs(pairs):
    return [(rho_star.hex(), score.hex()) for rho_star, score in pairs]


def test_lockstep_c_th_equals_scalar_search_bit_for_bit():
    # The lockstep search must take every step of the scalar one.
    rng = np.random.default_rng(20260101)
    rounds = list(range(1, 201)) + rng.integers(201, 10**6, 150).tolist() + [10**6, 7, 1]
    expected = _hex_pairs(oracles.c_th_reference(r) for r in rounds)
    assert _hex_pairs(c_ths(rounds)) == expected
    assert _hex_pairs(c_th(r) for r in rounds[::37]) == expected[::37]


def test_c_th_round_limit():
    # The largest round count searched finishes and equals the scalar search.
    limit = bounds.C_TH_MAX_ROUNDS
    assert _hex_pairs(c_ths([1, limit])) == _hex_pairs(
        oracles.c_th_reference(r) for r in (1, limit)
    )
    # Past it the search could never finish.  Subprocesses with a timeout,
    # so that a search that does not stop fails the test instead of hanging it.
    src = os.path.dirname(os.path.dirname(os.path.abspath(bounds.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    huge = str(10**115)
    library = subprocess.run(
        [sys.executable, "-c", f"from thqaoa.bounds import c_th\nc_th({huge})"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert library.returncode == 1 and "DomainError" in library.stderr
    command = subprocess.run(
        [sys.executable, "-m", "thqaoa.cli", "cthr", "--r", f"1,{huge}"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert command.returncode == 2 and command.stdout == ""
    assert command.stderr.startswith("error: ") and command.stderr.count("\n") == 1


def test_lockstep_c_th_checks_rounds():
    assert c_ths([]) == []
    for rounds in ([3, 0], [2.5], [1, -4]):
        with pytest.raises(DomainError, match="round count"):
            c_ths(rounds)


# ---------------------------------------------------------------------------
# Amplification-capped floor
# ---------------------------------------------------------------------------


def test_floor_two_point_exact_values():
    r = 2
    den = (2 * r + 1) ** 2  # 25
    rho_small = 0.5 / den
    rep = max_amplification_floor(make_two_point(rho_small), r)
    assert rep.tau1 == -1.0 and rep.tau2 == 0.0
    assert rep.E_floor == pytest.approx(-rho_small * den, abs=1e-15)
    # minimum's mass already exceeds the budget: no value qualifies
    rep2 = max_amplification_floor(make_two_point(0.5), r)
    assert rep2.tau1 == -math.inf and rep2.tau2 == -1.0
    assert rep2.E_floor == -1.0


def test_floor_below_mean_and_optimum():
    rng = np.random.default_rng(13)
    for _ in range(20):
        law = random_discrete_law(rng)
        r = int(rng.integers(1, 8))
        rep = max_amplification_floor(law, r)
        assert rep.E_floor <= law.mean + 1e-12
        assert rep.E_floor <= optimize_threshold(law, r).E_r + 1e-12
        assert rep.E_floor >= law.spectrum.values[0] - 1e-12


def test_floor_continuous_is_conditional_mean_at_budget_quantile():
    norm = make_normal(0.0, 1.0)
    for r in (1, 3, 9):
        cap = 1.0 / (2 * r + 1) ** 2
        rep = max_amplification_floor(norm, r)
        assert rep.tau1 == rep.tau2
        assert norm.cdf(rep.tau1) == pytest.approx(cap, abs=1e-14)
        assert rep.E_floor == pytest.approx(
            oracles.normal_conditional_mean(0.0, 1.0, cap), abs=1e-9
        )
        assert rep.min_rounds_exact is None and rep.min_rounds_grover is None


def test_floor_report_fields():
    law = make_two_point(0.125)
    rep = max_amplification_floor(law, 3)
    assert rep.C_cap == pytest.approx(2.0 * math.sqrt(12.0), abs=1e-15)
    assert rep.quantile_bounds == pytest.approx((0.25 / 9.0, math.pi**2 / 144.0))
    L = 1.0 / math.e
    rep_l = max_amplification_floor(law, 3, L=L)
    assert rep_l.quantile_bounds == pytest.approx((L / 36.0, L * math.pi**2 / 144.0))
    assert rep.min_rounds_exact == min_rounds_exact_opt(law)
    assert rep.min_rounds_grover == 1  # (2r+1)^2 / 8 >= 1 from r = 1


_FLOOR_ROUNDS = [1, 10**6, 10**160, 2**1020]


def _floor_laws():
    return {
        "knn:50": knn_spectrum(50),
        "binomial:30,0.4": make_binomial(30, 0.4),
        "empirical -0.0": make_empirical([(-0.0, 1), (1.0, 9)]),  # no value qualifies from r = 2
        "normal": make_normal(0.0, 1.0),
        "gamma": make_reflected_gamma(2.0, 1.0),
        "pareto": make_reflected_pareto(1.0, 1.0),
    }


def _hex_rows(columns):
    return [tuple(v.hex() for v in row) for row in zip(*(c.tolist() for c in columns))]


def test_floor_terms_equal_per_r_reference_bit_for_bit():
    for name, law in _floor_laws().items():
        rounds = _FLOOR_ROUNDS
        if not hasattr(law, "spectrum"):
            rounds = _FLOOR_ROUNDS[:2]  # (2r+1)^2 passes the double range beyond
            for r in _FLOOR_ROUNDS[2:]:
                with pytest.raises(DomainError, match=f"r = {r}$"):
                    bounds._floor_terms(law, [1, r])
        expected = [tuple(v.hex() for v in oracles.floor_terms_reference(law, r)) for r in rounds]
        assert _hex_rows(bounds._floor_terms(law, rounds)) == expected, name


def test_floor_terms_of_many_spectra_equal_per_r_reference():
    # The round searches' form: one spectrum per round count, several
    # laws.  Past r ~ 6.7e153, den = inf must stay silent: tier-1 makes a
    # numpy RuntimeWarning an error.
    laws = [law for law in _floor_laws().values() if hasattr(law, "spectrum")]
    items = [(law, r) for r in _FLOOR_ROUNDS for law in laws]
    got = bounds._floor_terms([law.spectrum for law, _ in items], [r for _, r in items])
    expected = [tuple(v.hex() for v in oracles.floor_terms_reference(law, r)) for law, r in items]
    assert _hex_rows(got) == expected


# ---------------------------------------------------------------------------
# Grover-based minimum rounds
# ---------------------------------------------------------------------------


def test_grover_min_rounds_formula():
    # optimum masses 1/9 and 1/25 as counts: (2r+1)^2 * mass reaches 1
    # exactly at r = 1 and r = 2
    assert bounds._grover_min_rounds_of_law(make_empirical([(0.0, 1), (1.0, 8)])) == 1
    assert bounds._grover_min_rounds_of_law(make_empirical([(0.0, 1), (1.0, 24)])) == 2
    for f in (0.9, 0.3, 0.01, 1e-7):
        law = make_two_point(f)
        c0, total = law.multiplicities[0], law.total_count
        assert Fraction(c0, total) == Fraction(f)
        r_star = bounds._grover_min_rounds_of_law(law)
        assert r_star >= 1  # (2r+1)^2 * c0 >= total, and not one round sooner
        assert (2 * r_star + 1) ** 2 * c0 >= total > (2 * r_star - 1) ** 2 * c0, f
    # equal-mass discretization: the optimum carries 1 of 16 counts
    law = discretize_equal_mass(make_normal(0.0, 1.0), bins=16)
    assert law.min_mass() == 1.0 / 16.0
    assert bounds._grover_min_rounds_of_law(law) == 2


def test_grover_min_rounds_exact_for_knn_laws():
    # K_{n,n}: the optimum carries 2 of 4^n assignments; the count is exact
    # in integers past 2^50 rounds, where a float square root is not
    assert max_amplification_floor(knn_spectrum(51), 1).min_rounds_grover == 796131459065722
    for n in range(2, 80):
        law = knn_spectrum(n)
        assert law.multiplicities[0] == 2 and law.total_count == 4**n
        got = max_amplification_floor(law, 1).min_rounds_grover
        assert got == oracles.grover_min_rounds_reference(2, 4**n), n


def test_law_round_counts_stay_out_of_per_round_floors(monkeypatch, capsys):
    calls = []

    def counted(dist):
        calls.append(dist)
        return min_rounds_exact_opt(dist)

    monkeypatch.setattr(bounds, "min_rounds_exact_opt", counted)
    assert min_rounds_for_ratio(12, 0.9) >= 1  # per-r floors only
    assert calls == []
    assert cli.run(["bound", "--dist", "knn:6", "--r", "1,2,3,4"]) == 0
    assert len(calls) == 1  # once per call, not once per r
    assert len(capsys.readouterr().out.splitlines()) == 5


# ---------------------------------------------------------------------------
# Quantile envelope
# ---------------------------------------------------------------------------


def test_quantile_sandwich_shape():
    L = 0.37
    for r in (1, 10, 1000):
        lo, hi = quantile_sandwich(r, L)
        assert lo == pytest.approx(L / (4.0 * r * r))
        assert hi == pytest.approx(L * math.pi**2 / (16.0 * r * r))
        assert hi / lo == pytest.approx(math.pi**2 / 4.0, abs=1e-12)
    with pytest.raises(DomainError):
        quantile_sandwich(0, 0.5)
    with pytest.raises(DomainError):
        quantile_sandwich(1, 0.0)
    with pytest.raises(DomainError):
        quantile_sandwich(1, 1.0)


# ---------------------------------------------------------------------------
# Measured amplification
# ---------------------------------------------------------------------------


def test_simulated_amplification_matches_dense_oracle():
    rng = np.random.default_rng(15)
    for _ in range(10):
        law = random_discrete_law(rng, max_atoms=7)
        r = int(rng.integers(1, 4))
        sched = AngleSchedule(
            tuple(rng.uniform(0, 2 * math.pi, r)), tuple(rng.uniform(-2, 2, r))
        )
        _, probs_ref = oracles.full_space_simulate(
            law.spectrum.values, law.multiplicities, gmqaoa.identity_phase,
            sched.betas, sched.gammas,
        )
        for i, v in enumerate(law.spectrum.values):
            amp = simulated_amplification(law, gmqaoa.identity_phase, sched, float(v))
            assert amp == pytest.approx(
                probs_ref[i] / law.spectrum.masses[i], abs=1e-10
            )


def test_simulated_amplification_respects_universal_cap():
    rng = np.random.default_rng(16)
    for _ in range(30):
        law = random_discrete_law(rng)
        r = int(rng.integers(1, 5))
        cap = (2 * r + 1) ** 2
        sched = AngleSchedule(
            tuple(rng.uniform(0, 2 * math.pi, r)), tuple(rng.uniform(-3, 3, r))
        )
        for v in law.spectrum.values:
            amp = simulated_amplification(law, gmqaoa.identity_phase, sched, float(v))
            assert amp <= cap + 1e-9


def test_simulated_amplification_validation():
    law = make_two_point(0.3)
    sched = AngleSchedule((1.0,), (1.0,))
    with pytest.raises(DomainError):
        simulated_amplification(law, gmqaoa.identity_phase, sched, 0.5)
    with pytest.raises(DomainError):
        simulated_amplification(
            make_normal(0.0, 1.0), gmqaoa.identity_phase, sched, 0.0
        )
