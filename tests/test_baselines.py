"""Classical random-sampling baselines: Blom, exact order statistic, MC."""

import math

import numpy as np
import pytest
from scipy import special

import oracles
from thqaoa.baselines import (
    BLOM_CONTINUITY_CONSTANT,
    crs_blom,
    crs_expected_min,
    crs_monte_carlo,
)
from thqaoa.dist_models import (
    make_empirical,
    make_normal,
    make_reflected_gamma,
    make_reflected_pareto,
    make_two_point,
)
from thqaoa.errors import DomainError


def random_discrete_law(rng, max_atoms=12):
    n = int(rng.integers(2, max_atoms + 1))
    values = np.sort(rng.normal(0.0, 3.0, n))
    while np.any(np.diff(values) == 0.0):
        values = np.sort(rng.normal(0.0, 3.0, n))
    counts = rng.integers(1, 20, n)
    return make_empirical(list(zip(values.tolist(), (int(c) for c in counts))))


# ---------------------------------------------------------------------------
# Blom approximation
# ---------------------------------------------------------------------------


def test_blom_formula_and_affinity():
    c = BLOM_CONTINUITY_CONSTANT
    for r, u, s in ((1, 0.0, 1.0), (5, 2.0, 3.0), (100, -4.0, 0.5)):
        k = 2 * r
        expected = u + s * float(special.ndtri((1.0 - c) / (k - 2.0 * c + 1.0)))
        assert crs_blom(u, s, r) == pytest.approx(expected, abs=1e-15)
    # affine in (u, s)
    base = crs_blom(0.0, 1.0, 7)
    assert crs_blom(3.0, 2.5, 7) == pytest.approx(3.0 + 2.5 * base, abs=1e-12)
    # custom effort factor
    assert crs_blom(0.0, 1.0, 6, effort_factor=1) == pytest.approx(
        crs_blom(0.0, 1.0, 3), abs=1e-15
    )


def test_blom_tracks_exact_minimum():
    # asymptotic approximation: within 1% of the exact integral by k=20
    norm = make_normal(0.0, 1.0)
    for r in (10, 50, 200):
        exact = crs_expected_min(norm, 2 * r)
        assert crs_blom(0.0, 1.0, r) == pytest.approx(exact, rel=1e-2)


def test_blom_validation():
    with pytest.raises(DomainError):
        crs_blom(0.0, 0.0, 1)
    with pytest.raises(DomainError):
        crs_blom(math.inf, 1.0, 1)
    with pytest.raises(DomainError):
        crs_blom(0.0, 1.0, 0)


# ---------------------------------------------------------------------------
# Exact expected minimum
# ---------------------------------------------------------------------------


def test_discrete_expected_min_matches_oracle():
    rng = np.random.default_rng(18)
    for _ in range(15):
        law = random_discrete_law(rng)
        for k in (1, 2, 7, 64):
            ref = oracles.crs_min_discrete_reference(
                law.spectrum.values, law.spectrum.masses, k
            )
            assert crs_expected_min(law, k) == pytest.approx(ref, abs=1e-12)


def test_continuous_expected_min_matches_oracle():
    laws = [
        make_normal(0.0, 1.0),
        make_normal(-2.0, 0.5),
        make_reflected_gamma(2.0, 1.0),
        make_reflected_pareto(3.0, 1.0),
    ]
    for law in laws:
        for k in (1, 2, 10):
            ref = oracles.crs_min_continuous_reference(law, k)
            assert crs_expected_min(law, k) == pytest.approx(ref, rel=1e-6)


def test_expected_min_single_draw_is_mean():
    rng = np.random.default_rng(19)
    law = random_discrete_law(rng)
    assert crs_expected_min(law, 1) == pytest.approx(law.mean, abs=1e-12)
    norm = make_normal(1.5, 2.0)
    assert crs_expected_min(norm, 1) == pytest.approx(norm.mean, abs=1e-8)


def test_expected_min_non_increasing_in_draw_count():
    rng = np.random.default_rng(20)
    for law in (random_discrete_law(rng), make_normal(0.0, 1.0)):
        values = [crs_expected_min(law, k) for k in (1, 2, 4, 8, 16, 32)]
        assert all(b <= a + 1e-10 for a, b in zip(values, values[1:]))
        assert all(v <= law.mean + 1e-10 for v in values)
        assert all(v >= law.r_min - 1e-10 for v in values)


def test_two_point_expected_min_closed_form():
    # min of k draws is -1 unless every draw hits 0: E = -(1 - (1-rho)^k)
    rho = 0.3
    law = make_two_point(rho)
    for k in (1, 3, 10):
        assert crs_expected_min(law, k) == pytest.approx(
            -(1.0 - (1.0 - rho) ** k), abs=1e-14
        )


def test_expected_min_validation():
    with pytest.raises(DomainError):
        crs_expected_min(make_normal(0.0, 1.0), 0)


@pytest.mark.parametrize("k", [2**52, 2**53 - 2, 2**53, 2 * 10**20])
def test_continuous_expected_min_rejects_draw_counts_past_the_integral(k):
    # From k ~ 2**52 the weight k (1-u)^(k-1) sits where 1 - u is 1 or one
    # of a few doubles; the quadrature converged on garbage there (-8.9615
    # for the standard normal at k = 2**53 - 2, against -8.2772).
    laws = (make_normal(0.0, 1.0), make_reflected_gamma(0.5, 0.5), make_reflected_pareto(1.0, 1.0))
    for law in laws:
        with pytest.raises(DomainError, match=f"2\\*\\*52 .* k = {k}$"):
            crs_expected_min(law, k)


@pytest.mark.parametrize("k", [3 * 10**8, 10**9])
def test_continuous_expected_min_within_its_checked_tolerance_at_large_k(k):
    # The check is relative past |E| = 1: at k = 10**9 these errors are
    # 2.4e-8, 1.5e-7 and 6.0e-6, each over 1e-8 absolute.
    laws = (make_normal(0.0, 1.0), make_reflected_gamma(0.5, 0.5), make_reflected_pareto(1.0, 1.0))
    for law in laws:
        expected = oracles.crs_min_large_k_reference(law, k)
        assert abs(crs_expected_min(law, k) - expected) <= 1e-8 * max(1.0, abs(expected))


def test_continuous_expected_min_keeps_its_value_below_the_limit():
    assert crs_expected_min(make_normal(0.0, 1.0), 2 * 10**7).hex() == (-5.426282241369065).hex()


def test_sample_counts_past_the_double_range_are_rejected():
    norm, discrete = make_normal(0.0, 1.0), make_two_point(0.2)
    for k in (2**1024, 2**1024 - 2**970):  # the second rounds up to 2**1024
        for law in (norm, discrete):
            with pytest.raises(DomainError, match="finite double"):
                crs_expected_min(law, k)
            with pytest.raises(DomainError, match="finite double"):
                crs_monte_carlo(law, k, trials=10)
    with pytest.raises(DomainError, match="finite double"):
        crs_blom(0.0, 1.0, 2**1020, effort_factor=16)
    # the largest count that is a finite double still runs
    k = 2**1024 - 2**970 - 1
    assert crs_expected_min(discrete, k) == -1.0
    assert math.isfinite(crs_blom(0.0, 1.0, 2**1020, effort_factor=15))
    assert math.isfinite(crs_monte_carlo(norm, k, trials=10)[0])


# ---------------------------------------------------------------------------
# Monte Carlo backstop
# ---------------------------------------------------------------------------


def test_monte_carlo_within_five_sigma_of_exact():
    norm = make_normal(0.0, 1.0)
    for k in (2, 12):
        exact = crs_expected_min(norm, k)
        mean, stderr = crs_monte_carlo(norm, k, trials=20_000, seed=1)
        assert abs(mean - exact) < 5.0 * stderr
    rng = np.random.default_rng(21)
    law = random_discrete_law(rng)
    exact = crs_expected_min(law, 6)
    mean, stderr = crs_monte_carlo(law, 6, trials=20_000, seed=2)
    assert abs(mean - exact) < 5.0 * stderr


@pytest.mark.parametrize("k", [2000, 2 * 10**7, 2 * 10**20])
def test_monte_carlo_draws_the_minimum_at_any_draw_count(k):
    # One uniform per trial, whatever k: k = 2e20 once took forever.
    norm = make_normal(0.0, 1.0)
    mean, stderr = crs_monte_carlo(norm, k, trials=20_000, seed=3)
    assert abs(mean - oracles.crs_min_large_k_reference(norm, k)) < 5.0 * stderr


def test_monte_carlo_deterministic_and_seed_sensitive():
    norm = make_normal(0.0, 1.0)
    a = crs_monte_carlo(norm, 4, trials=5000, seed=7)
    b = crs_monte_carlo(norm, 4, trials=5000, seed=7)
    c = crs_monte_carlo(norm, 4, trials=5000, seed=8)
    assert a == b
    assert a != c
    # chunk-keyed generator: a longer run extends, never rewrites, the
    # estimate of the shared prefix chunk
    small = crs_monte_carlo(norm, 4, trials=4096, seed=7)
    big = crs_monte_carlo(norm, 4, trials=8192, seed=7)
    assert small != big  # different totals, same first chunk


def test_monte_carlo_single_trial_has_infinite_stderr():
    mean, stderr = crs_monte_carlo(make_normal(0.0, 1.0), 3, trials=1, seed=0)
    assert math.isfinite(mean)
    assert stderr == math.inf


def test_monte_carlo_validation():
    norm = make_normal(0.0, 1.0)
    with pytest.raises(DomainError):
        crs_monte_carlo(norm, 0, trials=10)
    with pytest.raises(DomainError):
        crs_monte_carlo(norm, 2, trials=0)
    with pytest.raises(DomainError):
        crs_monte_carlo(norm, 2, trials=10, seed=-1)
