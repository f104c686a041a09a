"""Concrete law families: moments, closed forms, factories, file loading."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

import oracles
from thqaoa.dist_core import DiscreteSpectrum
from thqaoa.dist_models import (
    empirical_from_file,
    make_binomial,
    make_empirical,
    make_normal,
    make_reflected_gamma,
    make_reflected_pareto,
    make_two_point,
    pareto_epsilon_for_exponent,
    pareto_limit_L,
)
from thqaoa.errors import DomainError
from thqaoa.maxcut import knn_spectrum


# ---------------------------------------------------------------------------
# Normal
# ---------------------------------------------------------------------------


def test_normal_density_integrates_to_one():
    law = make_normal(1.5, 2.0)
    val, _ = integrate.quad(oracles.reference_pdf(law), -30.0, 30.0)
    assert val == pytest.approx(1.0, abs=1e-12)


def test_normal_moments_and_z_view():
    law = make_normal(-3.0, 0.5)
    assert law.mean == -3.0 and law.std == 0.5
    std = make_normal(0.0, 1.0)
    from thqaoa.dist_core import StandardizedView

    view = StandardizedView(law)
    for z in (-1.7, 0.0, 2.2):
        assert view.cdf_z(z) == pytest.approx(std.cdf(z), abs=1e-13)


def test_normal_characteristic_closed_form():
    law = make_normal(1.2, 0.8)
    for g in (-2.0, 0.0, 0.7, 3.1):
        expected = np.exp(1j * 1.2 * g - 0.5 * (0.8 * g) ** 2)
        assert law.characteristic_function(g) == pytest.approx(expected, abs=1e-14)
        h = 1e-6
        numeric = (
            law.characteristic_function(g + h) - law.characteristic_function(g - h)
        ) / (2 * h)
        assert law.characteristic_derivative(g) == pytest.approx(numeric, abs=1e-7)


# ---------------------------------------------------------------------------
# Reflected gamma
# ---------------------------------------------------------------------------


def test_reflected_gamma_moments_vs_quadrature():
    law = make_reflected_gamma(2.5, 0.7)
    assert law.mean == pytest.approx(-2.5 / 0.7)
    assert law.std**2 == pytest.approx(2.5 / 0.7**2)
    pdf = oracles.reference_pdf(law)
    mean_quad, _ = integrate.quad(lambda x: x * pdf(x), -80.0, 0.0)
    second_quad, _ = integrate.quad(lambda x: x * x * pdf(x), -80.0, 0.0)
    assert law.mean == pytest.approx(mean_quad, abs=1e-9)
    assert law.std**2 == pytest.approx(second_quad - mean_quad**2, abs=1e-8)


def test_reflected_gamma_is_reflected_scipy_gamma():
    law = make_reflected_gamma(1.8, 0.4)
    g = stats.gamma(a=1.8, scale=1.0 / 0.4)
    for x in (-10.0, -4.0, -0.5):
        assert law.cdf(x) == pytest.approx(g.sf(-x), abs=1e-12)


# ---------------------------------------------------------------------------
# Binomial
# ---------------------------------------------------------------------------


def test_binomial_matches_scipy_pmf():
    law = make_binomial(15, 0.3)
    b = stats.binom(15, 0.3)
    assert np.allclose(law.spectrum.values, np.arange(16))
    assert np.allclose(law.spectrum.masses, b.pmf(np.arange(16)), atol=1e-15)
    assert law.mean == pytest.approx(15 * 0.3)
    assert law.std**2 == pytest.approx(15 * 0.3 * 0.7)
    assert law.spectrum.masses.sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Reflected Pareto
# ---------------------------------------------------------------------------


def test_reflected_pareto_cdf_and_mean():
    eps, x_m = 3.0, 1.2
    law = make_reflected_pareto(eps, x_m)
    alpha = eps + 2.0
    for x in (-6.0, -2.0, -1.3):
        assert law.cdf(x) == pytest.approx((x_m / -x) ** alpha, abs=1e-14)
    assert law.cdf(-1.0) == 1.0  # above the support top -x_m
    assert law.mean == pytest.approx(-x_m * alpha / (alpha - 1.0))
    pdf = oracles.reference_pdf(law)
    mean_quad, _ = integrate.quad(lambda x: x * pdf(x), -np.inf, -x_m, limit=300)
    assert law.mean == pytest.approx(mean_quad, rel=1e-9)


def test_pareto_helpers():
    for j in (0.1, 0.5, 0.99):
        assert pareto_epsilon_for_exponent(j) == pytest.approx(2.0 * (1.0 - j) / j)
    for eps in (0.5, 3.0, 18.0):
        assert pareto_limit_L(eps) == pytest.approx(
            (1.0 + 1.0 / (1.0 + eps)) ** -(2.0 + eps)
        )
    with pytest.raises(DomainError):
        pareto_epsilon_for_exponent(0.0)
    with pytest.raises(DomainError):
        pareto_epsilon_for_exponent(1.0)


# ---------------------------------------------------------------------------
# Two-point and empirical
# ---------------------------------------------------------------------------


def test_two_point_moments():
    for rho in (0.01, 0.25, 0.9):
        law = make_two_point(rho)
        assert law.mean == pytest.approx(-rho)
        assert law.std == pytest.approx(math.sqrt(rho * (1.0 - rho)))
        assert law.cdf(-1.0) == pytest.approx(rho)
        assert law.cdf(0.0) == 1.0


def test_empirical_exact_big_multiplicities():
    big = 2**200
    law = make_empirical([(-1.0, 2), (0.0, big), (1.0, 2)])
    total = big + 4
    assert law.total_count == total
    assert law.mean == pytest.approx(0.0, abs=1e-70)
    # exact rational variance: 4 / total
    assert law.std**2 == pytest.approx(4.0 / total, rel=1e-12)
    assert law.spectrum.masses[0] == pytest.approx(2.0 / total, rel=1e-15)


_SPECTRUM_ARRAYS = ("masses", "mass_prefix", "gain_prefix", "mass_suffix", "gain_suffix")


def _assert_spectrum_matches_fraction_oracle(spectrum, ref):
    for name in _SPECTRUM_ARRAYS:
        # exact equality: the integer construction must round each entry
        # exactly once, like the rational reference
        assert getattr(spectrum, name).tolist() == ref[name], name


def _random_law(rng, kind):
    """Ascending distinct values and positive counts of one random law."""
    size = int(rng.integers(2, 40))
    if kind == "uniform":
        values = rng.uniform(-1e3, 1e3, size)
    elif kind == "subnormal":
        # subnormals (k * 2^-1074) of both signs next to ordinary values
        tiny = rng.integers(1, 2**52, size) * 5e-324 * rng.choice([-1.0, 1.0], size)
        values = np.concatenate([tiny, [-1.0, 0.0, 2.5]])
    else:  # "spread": magnitudes from 1e-300 to 1e300, both signs
        values = 10.0 ** rng.uniform(-300.0, 300.0, size) * rng.choice([-1.0, 1.0], size)
    values = np.unique(values)
    counts = [int(rng.integers(1, 1000)) * 10 ** int(rng.integers(0, 181)) for _ in values]
    return values.tolist(), counts


@pytest.mark.parametrize("n", [1, 2, 7, 50, 300])
def test_knn_law_bit_identical_to_fraction_oracle(n):
    law = knn_spectrum(n)
    ref = oracles.fraction_spectrum(law.spectrum.values.tolist(), law.multiplicities)
    _assert_spectrum_matches_fraction_oracle(law.spectrum, ref)
    assert law.mean == float(ref["mean"])
    assert law.std == math.sqrt(float(ref["var"]))


@pytest.mark.parametrize("kind", ["uniform", "subnormal", "spread"])
@pytest.mark.parametrize("seed", range(8))
def test_random_law_bit_identical_to_fraction_oracle(kind, seed):
    rng = np.random.default_rng(seed)
    values, counts = _random_law(rng, kind)
    ref = oracles.fraction_spectrum(values, counts)
    _assert_spectrum_matches_fraction_oracle(
        DiscreteSpectrum.from_multiplicities(values, counts), ref
    )
    if kind == "spread":
        # squares of values up to 1e300 overflow a float variance; the
        # spectrum arrays above are the whole check for this family
        return
    law = make_empirical(zip(values, counts))
    _assert_spectrum_matches_fraction_oracle(law.spectrum, ref)
    assert law.mean == float(ref["mean"])
    assert law.std == math.sqrt(float(ref["var"]))


def test_huge_counts_bit_identical_to_fraction_oracle():
    values, counts = [-1.0, 0.0, 1.0], [2, 10**180, 2]
    law = make_empirical(zip(values, counts))
    ref = oracles.fraction_spectrum(values, counts)
    _assert_spectrum_matches_fraction_oracle(law.spectrum, ref)
    assert law.mean == float(ref["mean"]) == 0.0
    assert law.std == math.sqrt(float(ref["var"]))
    assert law.spectrum.masses[0] > 0.0


def test_empirical_from_file_roundtrip(tmp_path):
    path = tmp_path / "law.csv"
    path.write_text("-2.0,1\n-1.0,3\n0.5,4\n")
    law = empirical_from_file(str(path))
    assert law.multiplicities == (1, 3, 4)
    assert law.spectrum.values.tolist() == [-2.0, -1.0, 0.5]


def test_empirical_from_file_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("-2.0,1\noops\n")
    with pytest.raises(DomainError) as err:
        empirical_from_file(str(path))
    assert ":2:" in str(err.value)


# ---------------------------------------------------------------------------
# Factory validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "factory, args",
    [
        (make_normal, (0.0, 0.0)),
        (make_normal, (0.0, -1.0)),
        (make_reflected_gamma, (0.0, 1.0)),
        (make_reflected_gamma, (1.0, -2.0)),
        (make_binomial, (0, 0.5)),
        (make_binomial, (5, 1.5)),
        (make_reflected_pareto, (-0.5, 1.0)),
        (make_reflected_pareto, (1.0, 0.0)),
        (make_two_point, (0.0,)),
        (make_two_point, (1.0,)),
        (make_empirical, ([],)),
    ],
)
def test_factory_domain_validation(factory, args):
    with pytest.raises(DomainError):
        factory(*args)
