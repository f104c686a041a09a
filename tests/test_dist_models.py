"""Concrete law families: moments, closed forms, factories, file loading."""

import math
import re
import sys
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

import oracles
from thqaoa.dist_models import (
    MAX_BINOMIAL_TRIALS,
    empirical_from_file,
    make_binomial,
    make_empirical,
    make_normal,
    make_reflected_gamma,
    make_reflected_pareto,
    make_two_point,
    pareto_epsilon_for_exponent,
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
    for z in (-1.7, 0.0, 2.2):
        # F_Z(z) = F_X(mu + sigma z) is the standard normal cdf
        assert law.cdf(law.mean + law.std * z) == pytest.approx(std.cdf(z), abs=1e-13)


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


@pytest.mark.parametrize("x", [-5e-324, -1e-315, -2e-308])
def test_reflected_gamma_cdf_where_rate_times_x_underflows(x):
    # b*|x| is 0 or subnormal; F(x) = Q(a, b|x|) is still far from 1 at shape 0.005
    import mpmath

    law = make_reflected_gamma(0.005, 0.5)

    def exact(x):
        with mpmath.workprec(200):
            y = mpmath.mpf(law.b) * mpmath.mpf(-x)
            return float(1 - mpmath.gammainc(mpmath.mpf(law.a), 0, y, regularized=True))

    assert law.cdf(x) == pytest.approx(exact(x), rel=1e-15, abs=0.0)
    # The array path, beside a mass whose b*|t| does not underflow: the
    # next mass below F(x) has its quantile in the same region (F(x) itself
    # can map to -0.0 at x = -5e-324, where b*|t| is 0 only by rounding).
    u = np.array([math.nextafter(law.cdf(x), 0.0), 0.5])
    t = law.quantile_vec(u)
    f, _ = law._terms(t)
    assert 0.0 < -law.b * t[0] < sys.float_info.min <= -law.b * t[1]
    assert f[0] == pytest.approx(exact(t[0]), rel=1e-15, abs=0.0)
    assert [v.hex() for v in f.tolist()] == [oracles.scalar_cdf(law, v).hex() for v in t.tolist()]


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


_EXACT_FIELDS = ("masses", "mass_prefix", "gain_prefix", "mass_suffix", "mean", "std")


def _exact_fields(law):
    arrays = {name: getattr(law.spectrum, name).tolist() for name in _EXACT_FIELDS[:4]}
    return {**arrays, "mean": law.mean, "std": law.std}


@pytest.mark.parametrize("n, p", [(200, 0.5), (200, 0.47), (30, 0.4), (755, 0.5), (1043, 0.5)])
def test_binomial_masses_and_moments_are_correctly_rounded(n, p):
    # every entry equals the exact rational value rounded once, bit for bit
    law = make_binomial(n, p)
    assert law.spectrum.values.tolist() == list(range(n + 1))
    ref = oracles.binomial_spectrum(n, p)
    got = _exact_fields(law)
    for name in _EXACT_FIELDS:
        assert np.array(got[name]).tobytes() == np.array(ref[name]).tobytes(), name


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


@pytest.mark.parametrize(
    "eps, x_m, accepted",
    [
        (18.0, 1e-20, False),  # x_m**-19 overflows
        (18.0, 1e200, False),  # x_m**20 overflows
        (0.5, 1e-150, False),  # x_m**2.5 underflows to 0
        (18.0, 1e-16, False),  # x_m**20 = 1e-320 is subnormal
        (0.05, 2e150, False),  # x_m**2.05 is finite, (2.05/1.05) * x_m**2.05 overflows
        (18.0, 1e-15, True),
        (18.0, 1e15, True),
        (0.05, 1e-150, True),  # x_m**2.05 is about 3e-308, a normal double
    ],
)
def test_reflected_pareto_rejects_a_scale_whose_powers_leave_the_double_range(eps, x_m, accepted):
    if accepted:
        law = make_reflected_pareto(eps, x_m)
        t = np.array([-x_m * 1.5, -x_m * 1e10, -math.inf])
        assert np.isfinite(law._terms(t)[1]).all()
        return
    with pytest.raises(DomainError, match=re.escape(f"eps={eps!r}, x_m={x_m!r}")):
        make_reflected_pareto(eps, x_m)


def test_pareto_helpers():
    for j in (0.1, 0.5, 0.99):
        assert pareto_epsilon_for_exponent(j) == pytest.approx(2.0 * (1.0 - j) / j)
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


@pytest.mark.parametrize("rho", [0.2, 0.25, 0.3, 1e-7, 0.9, 5e-324, 1.0 - 2.0**-53])
def test_two_point_masses_and_moments_are_correctly_rounded(rho):
    law = make_two_point(rho)
    exact, rest = Fraction(rho), float(1 - Fraction(rho))
    assert law.spectrum.values.tolist() == [-1.0, 0.0]
    assert _exact_fields(law) == {
        "masses": [rho, rest],
        "mass_prefix": [rho, 1.0],
        "gain_prefix": [-rho, -rho],
        "mass_suffix": [1.0, rest],
        "mean": -rho,
        "std": math.sqrt(exact * (1 - exact)),
    }


def test_empirical_exact_big_multiplicities():
    big = 2**200
    law = make_empirical([(-1.0, 2), (0.0, big), (1.0, 2)])
    total = big + 4
    assert law.total_count == total
    assert law.mean == pytest.approx(0.0, abs=1e-70)
    # exact rational variance: 4 / total
    assert law.std**2 == pytest.approx(4.0 / total, rel=1e-12)
    assert law.spectrum.masses[0] == pytest.approx(2.0 / total, rel=1e-15)


_SPECTRUM_ARRAYS = ("masses", "mass_prefix", "gain_prefix", "mass_suffix")


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
    law = make_empirical(zip(values, counts))
    _assert_spectrum_matches_fraction_oracle(law.spectrum, ref)
    if kind == "spread":
        # squares of values up to 1e300 overflow the oracle's float
        # variance; the spectrum arrays above are the whole check here
        return
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
    # rows that do not parse, then rows that parse but are invalid: a zero
    # or negative count, a value that is not finite, a value not above the
    # one before
    for line in ("oops", "abc,3", "0,1.5", "0,nan", "1,2,3", "0,0", "nan,1", "-3,1", "0,-2", "-2.0,4", "inf,1"):
        path.write_text(f"-2.0,1\n{line}\n")
        with pytest.raises(DomainError) as err:
            empirical_from_file(str(path))
        assert f"{path}:2:" in str(err.value), line


# ---------------------------------------------------------------------------
# F and G: each law's one array evaluator against the scalar formulas
# ---------------------------------------------------------------------------

_TERMS_LAWS = {
    "normal": lambda: make_normal(0.0, 1.0),
    "gamma-a0.005": lambda: make_reflected_gamma(0.005, 0.5),
    "gamma-a0.5": lambda: make_reflected_gamma(0.5, 0.5),
    "gamma-a50": lambda: make_reflected_gamma(50.0, 0.5),
    "pareto-eps18": lambda: make_reflected_pareto(18.0, 1.0),
    "pareto-eps0.05": lambda: make_reflected_pareto(0.05, 1.0),
    "binomial": lambda: make_binomial(200, 0.47),
    "knn12": lambda: knn_spectrum(12),
}


def _terms_thresholds(law, rng, each=5000):
    """Over 20,000 thresholds: the double range's edges, the support
    edge, the gamma's underflow region, quantiles, the law's own scale
    and doubles of every exponent."""
    tiny, top = 5e-324, sys.float_info.max
    edge = -law.x_m if hasattr(law, "x_m") else law.mean
    special = [math.inf, -math.inf, 0.0, -0.0, tiny, -tiny, 1e308, -1e308, top, -top,
               sys.float_info.min, -sys.float_info.min, edge, law.mean]
    special += [_nudge(edge, k, d) for k in (1, 2, 1000) for d in (math.inf, -math.inf)]
    quantiles = law.quantile_vec(np.geomspace(tiny, 1.0 - 2.0**-53, each))
    scaled = law.mean + law.std * rng.standard_normal(each) * 10.0 ** rng.uniform(-3.0, 3.0, each)
    # |t| up to a few times the smallest normal: b*|t| underflows on the gammas
    underflow = np.ldexp(rng.uniform(-4.0, 4.0, each), rng.integers(-1074, -1021, each))
    bits = rng.integers(0, 2**64, 2 * each, dtype=np.uint64).view(np.float64)
    t = np.concatenate((special, quantiles, scaled, underflow, bits[np.isfinite(bits)][:each]))
    assert t.size >= 20_000
    return t


@pytest.mark.parametrize("name", list(_TERMS_LAWS))
def test_terms_equal_the_scalar_formulas_bit_for_bit(name):
    law = _TERMS_LAWS[name]()
    t = _terms_thresholds(law, np.random.default_rng(7))
    f, g = law._terms(t)
    expected_f = [oracles.scalar_cdf(law, x).hex() for x in t.tolist()]
    expected_g = [oracles.scalar_partial_expectation(law, x).hex() for x in t.tolist()]
    assert [v.hex() for v in f.tolist()] == expected_f
    assert [v.hex() for v in g.tolist()] == expected_g
    # the scalar queries are _terms of one threshold
    for i in range(0, t.size, 97):
        x = float(t[i])
        assert (law.cdf(x).hex(), law.partial_expectation(x).hex()) == (expected_f[i], expected_g[i]), x


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
        (make_normal, (0.0, 1e307)),  # quantiles overflow
        (make_reflected_gamma, (1.0, 1e-309)),  # mean overflows
        (make_reflected_pareto, (1e-320, 1.0)),  # std overflows
        (make_binomial, (math.nan, 0.5)),
        (make_binomial, (math.inf, 0.5)),
        (make_binomial, (MAX_BINOMIAL_TRIALS + 1, 0.5)),  # rejected before allocating
        (make_binomial, (200, 0.001)),  # the masses from k = 127 on underflow
        (make_binomial, (MAX_BINOMIAL_TRIALS, 0.4)),  # 0.4**1074 underflows
        (make_empirical, ([(0.0, 1.5), (1.0, 2)],)),  # would truncate to 1
        (make_empirical, ([(0.0, math.nan), (1.0, 2)],)),
        (make_empirical, ([(0.0, math.inf), (1.0, 2)],)),
        (make_empirical, ([(0.0, "3"), (1.0, 2)],)),
    ],
)
def test_factory_domain_validation(factory, args):
    with pytest.raises(DomainError):
        factory(*args)


def test_binomial_trial_cap_is_where_the_masses_underflow():
    # at p = 1/2 the smallest mass is 2**-n, a double down to n = 1074
    law = make_binomial(MAX_BINOMIAL_TRIALS, 0.5)
    assert law.spectrum.masses[0] == law.spectrum.masses[-1] == 2.0**-1074
    message = re.escape("binomial law with n=200, p=0.001: the mass at k=127 underflows to 0 (value 127.0)")
    with pytest.raises(DomainError, match=f"^{message}$"):
        make_binomial(200, 0.001)


def test_binomial_underflow_is_rejected_before_the_later_counts():
    # every count of Binomial(1074, 5e-324) has about a million bits; the
    # recurrence stops at k = 2, the first mass that rounds to 0
    message = re.escape("binomial law with n=1074, p=5e-324: the mass at k=2 underflows to 0 (value 2.0)")
    seconds = []
    for _ in range(3):
        start = time.perf_counter()
        with pytest.raises(DomainError, match=f"^{message}$"):
            make_binomial(1074, 5e-324)
        seconds.append(time.perf_counter() - start)
    assert min(seconds) < 0.1


def test_wide_support_is_checked_without_overflow_warnings():
    # neighbours 2e308 apart: a difference would overflow to inf and warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        law = make_empirical([(-1e308, 1), (1e308, 1)])
        with pytest.raises(DomainError):
            make_empirical([(1e308, 1), (-1e308, 1)])  # descending
    assert law.spectrum.values.tolist() == [-1e308, 1e308]


@pytest.mark.parametrize(
    "pairs, mean, std",
    [
        ([(-1e308, 1), (1e308, 1)], 0.0, 1e308),
        ([(-1e308, 1), (0.0, 1)], -5e307, 5e307),
        ([(-1e200, 1), (1e200, 1)], 0.0, 1e200),
        ([(-1e200, 3), (1e200, 1)], -5e199, math.sqrt(0.75) * 1e200),
    ],
)
def test_empirical_std_fits_where_the_variance_overflows(pairs, mean, std):
    # var = std^2 is past the largest double; std, at most half the
    # value range, is not
    law = make_empirical(pairs)
    assert law.mean == mean
    assert law.std == pytest.approx(std, rel=2**-52)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@given(
    values=st.lists(_FINITE, min_size=1, max_size=6, unique=True),
    counts=st.lists(st.integers(1, 2**80), min_size=6, max_size=6),
)
@settings(max_examples=400, deadline=None)
def test_empirical_std_is_the_root_of_the_rounded_variance(values, counts):
    import mpmath

    values = sorted(values)
    counts = counts[: len(values)]
    var = oracles.fraction_spectrum(values, counts)["var"]
    try:
        float_var = float(var)
    except OverflowError:
        # the variance overflows a double: std is the root of the exact
        # variance within one rounding of each step
        law = make_empirical(zip(values, counts))
        with mpmath.workprec(200):
            exact = float(mpmath.sqrt(mpmath.mpf(var.numerator) / var.denominator))
        assert abs(law.std - exact) <= math.ulp(exact), (law.std, exact)
        return
    if float_var == 0.0:  # one atom, or a variance below the smallest subnormal
        with pytest.raises(DomainError):
            make_empirical(zip(values, counts))
        return
    # the variance fits: sqrt of the once-rounded variance, bit for bit
    law = make_empirical(zip(values, counts))
    assert law.std.hex() == math.sqrt(float_var).hex()


# Any double: nan, +-inf, subnormals and the largest values, plus
# log-uniform magnitudes of both signs so that tiny and huge parameters
# turn up often.
_ANY_FLOAT = st.one_of(
    st.floats(),
    st.floats(-324.0, 308.0).map(lambda e: 10.0**e),
    st.floats(-324.0, 308.0).map(lambda e: -(10.0**e)),
)
# Binomial trial counts: small ones are built, the rest must be rejected
# before the n + 1 atoms are allocated.
_TRIALS = st.one_of(
    st.integers(-3, 2000),
    st.floats(max_value=2000.0),
    st.floats(min_value=MAX_BINOMIAL_TRIALS + 1.0),
    st.integers(MAX_BINOMIAL_TRIALS + 1, 10**30),
)
_PROBABILITY = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


def _nudge(x, ulps, direction):
    for _ in range(ulps):
        x = math.nextafter(x, direction)
    return x


@pytest.mark.parametrize(
    "factory, params",
    [
        (make_normal, st.tuples(_ANY_FLOAT, _ANY_FLOAT)),
        (make_reflected_gamma, st.tuples(_ANY_FLOAT, _ANY_FLOAT)),
        (make_reflected_pareto, st.tuples(_ANY_FLOAT, _ANY_FLOAT)),
        (make_binomial, st.tuples(_TRIALS, _ANY_FLOAT)),
        (make_two_point, st.tuples(_ANY_FLOAT)),
    ],
    ids=["normal", "gamma", "pareto", "binomial", "twopoint"],
)
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_factories_build_sound_laws_or_raise_domain_error(factory, params, data):
    args = data.draw(params, label="args")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning means an unchecked input
        try:
            law = factory(*args)
        except DomainError:
            return
        assert math.isfinite(law.mean) and math.isfinite(law.std) and law.std > 0.0
        for p in data.draw(st.lists(_PROBABILITY, min_size=1, max_size=4), label="p"):
            q = law.quantile(p)
            f = law.cdf(q)
            assert math.isfinite(q) and not math.isnan(f), (p, q, f)
            if abs(q) < sys.float_info.min:
                # The quantile underflowed (a reflected gamma of shape << 1
                # puts mass within the smallest subnormal of 0); F cannot be
                # resolved there.
                continue
            # cdf(quantile(p)) ~ p on the double grid: p lies between F at
            # a few ulps either side of q.  On a fine grid that is
            # |F(q) - p| <= tol; where F jumps between neighbouring doubles
            # (discrete laws, or a scale below the location's ulp) it says
            # that q is where F crosses p.
            below = law.cdf(_nudge(q, 4, -math.inf))
            above = law.cdf(_nudge(q, 4, math.inf))
            tol = 1e-9 * min(p, 1.0 - p) + 2.0**-52
            assert below - tol <= p <= above + tol, (p, q, below, above)
