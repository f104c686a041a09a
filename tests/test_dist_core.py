"""Distribution layer: spectra, queries, discretization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from thqaoa import bounds
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


def random_discrete_law(rng, max_atoms=12):
    n = int(rng.integers(2, max_atoms + 1))
    values = np.sort(rng.normal(scale=3.0, size=n))
    while np.any(np.diff(values) < 1e-9):
        values = np.sort(rng.normal(scale=3.0, size=n))
    counts = rng.integers(1, 50, size=n)
    return make_empirical(list(zip(values.tolist(), counts.tolist())))


CONTINUOUS_LAWS = [
    make_normal(1.5, 2.0),
    make_reflected_gamma(2.5, 0.7),
    make_reflected_pareto(3.0, 1.2),
]

DISCRETE_LAWS = [
    make_binomial(9, 0.3),
    make_two_point(0.2),
    make_empirical([(-2.0, 3), (-0.5, 5), (1.0, 2), (2.5, 6)]),
]
# Every discrete law is an EmpiricalLaw, so the cases are named by their factory.
DISCRETE_IDS = ["BinomialLaw", "TwoPointLaw", "EmpiricalLaw"]


# ---------------------------------------------------------------------------
# DiscreteSpectrum construction invariants
# ---------------------------------------------------------------------------


@given(st.integers(min_value=2, max_value=30), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=60, deadline=None)
def test_spectrum_invariants(n, seed):
    rng = np.random.default_rng(seed)
    values = np.cumsum(rng.uniform(0.01, 1.0, size=n)) - 5.0
    counts = rng.integers(1, 10**6, size=n)
    spec = make_empirical(list(zip(values.tolist(), counts.tolist()))).spectrum
    assert np.all(np.diff(spec.values) > 0)
    assert np.all(spec.masses > 0)
    assert np.all(np.diff(spec.mass_prefix) >= 0)
    assert abs(spec.mass_prefix[-1] - 1.0) <= 1e-12
    assert spec.mass_prefix[-1] <= 1.0  # never overshoots
    assert spec.mass_prefix[-1] == 1.0


def test_spectrum_rejects_bad_input():
    with pytest.raises(DomainError):
        make_empirical([(0.0, 1), (0.0, 1)])  # duplicate values
    with pytest.raises(DomainError):
        make_empirical([(1.0, 1), (0.0, 1)])  # descending
    with pytest.raises(DomainError):
        make_empirical([(0.0, 1), (1.0, 1.5)])  # fractional count
    with pytest.raises(DomainError):
        make_empirical([(0.0, 3), (1.0, 0)])  # zero count


def test_from_multiplicities_huge_counts_keep_relative_precision():
    big = 10**180
    spec = make_empirical([(-1.0, 2), (0.0, big), (1.0, 2)]).spectrum
    assert spec.masses[0] == pytest.approx(2.0 / (big + 4), rel=1e-15)
    assert spec.mass_prefix[-1] == 1.0


# ---------------------------------------------------------------------------
# cdf / partial expectation / quantile
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("law", CONTINUOUS_LAWS, ids=lambda l: type(l).__name__)
def test_continuous_queries_match_quadrature(law):
    lo = law.quantile(0.001)
    hi = law.quantile(0.999)
    for x in np.linspace(lo, hi, 7):
        assert law.cdf(x) == pytest.approx(oracles.cdf_quad(law, x), abs=1e-10)
        assert law.partial_expectation(x) == pytest.approx(
            oracles.partial_expectation_quad(law, x), abs=1e-9
        )
    for p in (0.01, 0.25, 0.5, 0.9):
        assert law.quantile(p) == pytest.approx(oracles.quantile_root(law, p), abs=1e-7)


@pytest.mark.parametrize("law", DISCRETE_LAWS, ids=DISCRETE_IDS)
def test_discrete_cdf_right_continuous_step(law):
    values = law.spectrum.values
    prefix = law.spectrum.mass_prefix
    for i, v in enumerate(values):
        assert law.cdf(float(v)) == pytest.approx(prefix[i], abs=1e-15)
        below = law.cdf(float(v) - 1e-9)
        expected_below = prefix[i - 1] if i > 0 else 0.0
        assert below == pytest.approx(expected_below, abs=1e-12)
    assert law.cdf(float(values[-1]) + 1.0) == 1.0
    assert law.cdf(float(values[0]) - 1.0) == 0.0


@pytest.mark.parametrize(
    "law",
    CONTINUOUS_LAWS + DISCRETE_LAWS,
    ids=[type(l).__name__ for l in CONTINUOUS_LAWS] + DISCRETE_IDS,
)
def test_partial_expectation_saturates_at_mean(law):
    hi = law.r_max if math.isfinite(law.r_max) else law.quantile(1.0 - 1e-13)
    assert law.partial_expectation(hi + 1.0) == pytest.approx(law.mean, abs=1e-9)


@given(st.floats(min_value=0.001, max_value=0.999), st.integers(0, 2**31))
@settings(max_examples=60, deadline=None)
def test_discrete_quantile_is_smallest_value_reaching_p(p, seed):
    law = random_discrete_law(np.random.default_rng(seed))
    q = law.quantile(p)
    values = law.spectrum.values
    prefix = law.spectrum.mass_prefix
    candidates = values[prefix >= p - 1e-15]
    assert q == pytest.approx(float(candidates[0]))


@pytest.mark.parametrize("law", CONTINUOUS_LAWS, ids=lambda l: type(l).__name__)
def test_continuous_quantile_inverts_cdf(law):
    for p in (1e-6, 0.037, 0.5, 0.92, 1.0 - 1e-7):
        assert law.cdf(law.quantile(p)) == pytest.approx(p, abs=1e-10)


def test_quantile_domain_validation():
    law = make_normal(0.0, 1.0)
    for p in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(DomainError):
            law.quantile(p)


# ---------------------------------------------------------------------------
# Equal-mass discretization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bins", [10, 1000])
def test_discretize_equal_mass_normal(bins):
    law = make_normal(2.0, 1.5)
    disc = discretize_equal_mass(law, bins)
    assert disc.spectrum.values.size == bins
    assert np.allclose(disc.spectrum.masses, 1.0 / bins)
    assert np.all(np.diff(disc.spectrum.values) > 0)
    # bin representatives are conditional means, so the mean is preserved
    assert disc.mean == pytest.approx(law.mean, abs=1e-9)
    # discretization can only shrink spread
    assert disc.std <= law.std + 1e-12


@pytest.mark.parametrize(
    "law",
    [make_normal(2.0, 1.5), make_reflected_gamma(2.5, 0.7), make_reflected_pareto(0.5, 1.5)],
    ids=lambda l: type(l).__name__,
)
def test_discretize_equal_mass_atoms_equal_scalar_queries_bit_for_bit(law):
    # v_i = bins * (G(e_{i+1}) - G(e_i)) with the edges e_i = quantile(i / bins)
    bins = 10_000
    edges = [law.quantile(i / bins) for i in range(1, bins)]
    gains = [0.0] + [oracles.scalar_partial_expectation(law, e) for e in edges] + [law.mean]
    atoms = [(g1 - g0) * bins for g0, g1 in zip(gains, gains[1:])]
    assert all(a < b for a, b in zip(atoms, atoms[1:]))  # no neighbours merged
    disc = discretize_equal_mass(law, bins)
    assert [v.hex() for v in disc.spectrum.values.tolist()] == [a.hex() for a in atoms]


def test_discretize_equal_mass_validation():
    with pytest.raises(DomainError):
        discretize_equal_mass(make_normal(0.0, 1.0), 1)


@pytest.mark.parametrize(
    "law, bins",
    [
        (make_normal(2.0, 1.5), 2000),
        (make_reflected_gamma(2.5, 0.7), 2000),
        (make_reflected_pareto(0.5, 1.5), 2000),
        (make_reflected_gamma(0.05, 0.5), 1000),  # pooled runs: counts above 1
    ],
    ids=["NormalLaw", "ReflectedGammaLaw", "ReflectedParetoLaw", "ReflectedGammaLaw-pooled"],
)
def test_discretized_spectrum_equals_exact_fractions(law, bins):
    disc = discretize_equal_mass(law, bins)
    assert disc.total_count == bins
    ref = oracles.fraction_spectrum(disc.spectrum.values.tolist(), disc.multiplicities)
    for key in ("masses", "mass_prefix", "mass_suffix", "gain_prefix"):
        assert getattr(disc.spectrum, key).tolist() == ref[key], key
    assert disc.mean == float(ref["mean"])
    assert disc.std == math.sqrt(float(ref["var"]))


@pytest.mark.parametrize(
    "a, b, bins", [(0.05, 0.5, 10_000), (0.005, 0.5, 3000), (0.05, 0.5, 1000)]
)
def test_discretize_heavy_tail_pools_runs_into_ascending_atoms(a, b, bins):
    # the conditional means near 0 lose their bits to cancellation in G and
    # fall out of order; a pooled run can fall below the atom before it
    law = make_reflected_gamma(a, b)
    disc = discretize_equal_mass(law, bins)
    assert np.all(np.diff(disc.spectrum.values) > 0)
    assert sum(disc.multiplicities) == disc.total_count == bins
    assert max(disc.multiplicities) > 1
    assert abs(disc.mean - law.mean) <= 1e-12 * law.std


@pytest.mark.parametrize("bins, rounds", [(9, 1), (49, 3), (81, 4)])
def test_grover_min_rounds_of_a_discretized_law_use_its_counts(bins, rounds):
    # the optimum carries 1 of bins counts: (2r+1)^2 >= bins, and 1/bins as
    # a double is below 1/bins for these bins
    law = discretize_equal_mass(make_normal(0.0, 1.0), bins)
    assert (law.multiplicities[0], law.total_count) == (1, bins)
    assert bounds._grover_min_rounds_of_law(law) == rounds
