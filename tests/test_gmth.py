"""Thresholded schedules: closed-form expectation, curves, optimizer, round counts."""

import dataclasses
import hashlib
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import oracles
from thqaoa import cli, figures, gmqaoa, gmth
from thqaoa.bounds import c_th
from thqaoa.dist_models import (
    ReflectedParetoLaw,
    make_binomial,
    make_empirical,
    make_normal,
    make_reflected_gamma,
    make_reflected_pareto,
    make_two_point,
)
from thqaoa.errors import DomainError
from thqaoa.gmth import (
    ThresholdCurve,
    _expectations,
    _golden_section_argmin_batch,
    expectation_at_threshold,
    min_rounds_exact_opt,
    optimize_threshold,
    optimize_thresholds,
    threshold_curve,
    threshold_report,
)
from thqaoa.grover_kernel import (
    amplification_ratio,
    grover_probability,
    optimal_binary_angles,
    threshold_ratio,
)
from thqaoa.maxcut import knn_spectrum


def random_discrete_law(rng, max_atoms=12):
    n = int(rng.integers(2, max_atoms + 1))
    values = np.sort(rng.normal(0.0, 3.0, n))
    while np.any(np.diff(values) == 0.0):
        values = np.sort(rng.normal(0.0, 3.0, n))
    counts = rng.integers(1, 50, n)
    return make_empirical(list(zip(values.tolist(), (int(c) for c in counts))))


def certainty_cap(law, r):
    """The smallest certainty threshold and the conditional mean below it."""
    tau = law.quantile(threshold_ratio(r))
    return tau, law.partial_expectation(tau) / law.cdf(tau)


# ---------------------------------------------------------------------------
# Closed-form expectation
# ---------------------------------------------------------------------------


def test_expectation_degenerate_thresholds_return_mean():
    law = random_discrete_law(np.random.default_rng(0))
    lo = law.spectrum.values[0] - 1.0
    hi = law.spectrum.values[-1] + 1.0
    for r in (1, 5):
        assert expectation_at_threshold(law, r, lo) == law.mean
        assert expectation_at_threshold(law, r, hi) == law.mean
    norm = make_normal(2.0, 1.0)
    assert expectation_at_threshold(norm, 3, math.inf) == norm.mean


def test_expectation_two_point_closed_forms():
    # marked class sits at -1: boosted branch gives exactly -1, the
    # general branch gives exactly -P(rho, r).
    for r in (1, 2, 6):
        thr = threshold_ratio(r)
        rho_hi = min(1.0 - 1e-9, 2.0 * thr)
        assert expectation_at_threshold(make_two_point(rho_hi), r, -0.5) == pytest.approx(
            -1.0, abs=1e-12
        )
        rho_lo = 0.5 * thr
        assert expectation_at_threshold(make_two_point(rho_lo), r, -0.5) == pytest.approx(
            -grover_probability(rho_lo, r), abs=1e-13
        )


def test_expectation_matches_simulator_on_random_spectra():
    rng = np.random.default_rng(42)
    for _ in range(25):
        law = random_discrete_law(rng)
        r = int(rng.integers(1, 7))
        # thresholds at interior support values: 0 < F(t) < 1
        for t in law.spectrum.values[:-1]:
            rho = law.cdf(float(t))
            sched = optimal_binary_angles(rho, r)
            state = gmqaoa.simulate(law, gmqaoa.threshold_phase(float(t)), sched)
            e_sim = gmqaoa.expectation_from_state(state)
            e_formula = expectation_at_threshold(law, r, float(t))
            assert e_formula == pytest.approx(e_sim, abs=1e-9)


def _expectation_from_kernel(law, r, t):
    """E_r(t) composed from the public kernel, as the closed form reads."""
    mu = law.mean
    rho = law.cdf(t)
    if rho <= 0.0 or rho >= 1.0:
        return mu, "edge"
    g_y = law.partial_expectation(t) - mu * rho
    if rho >= threshold_ratio(r):
        return mu + g_y / rho, "boosted"
    return mu + g_y * (amplification_ratio(rho, r) - 1.0) / (1.0 - rho), "general"


_CONTINUOUS_LAWS = st.one_of(
    st.builds(make_normal, st.floats(-1e3, 1e3), st.floats(1e-3, 1e3)),
    st.builds(make_reflected_gamma, st.floats(1e-3, 1e3), st.floats(1e-2, 1e2)),
    st.builds(make_reflected_pareto, st.floats(1e-2, 1e2), st.floats(1e-2, 1e2)),
)


@given(
    law=_CONTINUOUS_LAWS,
    r=st.one_of(st.integers(1, 1000), st.integers(1, 10**8)),
    branch=st.sampled_from(["edge", "boosted", "general"]),
    frac=st.floats(0.0, 1.0),
)
@example(law=make_normal(0.0, 1.0), r=1, branch="edge", frac=0.0)
@example(law=make_normal(0.0, 1.0), r=1, branch="boosted", frac=0.5)
@example(law=make_normal(0.0, 1.0), r=1, branch="general", frac=0.5)
@settings(max_examples=300, deadline=None)
def test_public_expectation_is_the_optimizers_objective_bit_for_bit(law, r, branch, frac):
    # The public function evaluates the optimizer's objective,
    # _expectations; it and the formula composed from the public kernel
    # must give the same double in every branch, so the paths cannot drift.
    rho_th = threshold_ratio(r)
    if branch == "edge":  # F(t) = 0 or 1
        t = (-math.inf, math.inf, law.r_max)[min(int(3 * frac), 2)]
    elif branch == "boosted":  # F(t) >= threshold_ratio(r)
        t = law.quantile(min(rho_th + frac * (1.0 - rho_th), 1.0 - 2.0**-53))
    else:  # 0 < F(t) < threshold_ratio(r)
        t = law.quantile(rho_th * 10.0 ** (-30.0 * frac - 1e-3))
    public = expectation_at_threshold(law, r, t)
    reference, taken = _expectation_from_kernel(law, r, t)
    event(f"branch {taken}")
    assert public.hex() == reference.hex(), (branch, taken)


def test_expectation_rejects_nan_marked_mass():
    # cdf(nan) is nan; the kernel's domain check still reports it
    with pytest.raises(DomainError):
        expectation_at_threshold(make_normal(0.0, 1.0), 1, math.nan)


@st.composite
def _law_terms(draw):
    """One (r, rho, G) triple, rho drawn in a chosen branch of the closed form."""
    r = draw(st.one_of(st.integers(1, 1000), st.integers(1, 10**8)))
    rho_th = threshold_ratio(r)
    branch = draw(st.sampled_from(["none", "all", "boosted", "general"]))
    frac = draw(st.floats(0.0, 1.0))
    if branch == "none":
        rho = 0.0
    elif branch == "all":
        rho = 1.0
    elif branch == "boosted":  # rho_th <= rho < 1
        rho = min(rho_th + frac * (1.0 - rho_th), 1.0 - 2.0**-53)
    else:  # 0 < rho < rho_th
        rho = rho_th * 10.0 ** (-300.0 * frac - 1e-3)
    return r, rho, draw(st.floats(-1e6, 1e6))


@given(mu=st.floats(-1e6, 1e6), terms=st.lists(_law_terms(), min_size=1, max_size=30))
@settings(max_examples=300, deadline=None)
def test_array_expectations_equal_scalar_objective_bit_for_bit(mu, terms):
    # Each element takes its own round count; a stand-in law hands the
    # kernel-composed formula the same (rho, G) at any threshold.
    rounds, rho, g = (list(column) for column in zip(*terms))
    rho_th = np.array([threshold_ratio(r) for r in rounds])
    k = np.array([2.0 * r + 1.0 for r in rounds])
    e = _expectations(mu, np.array(rho), np.array(g), rho_th, k)
    for r, rho_i, g_i, e_i in zip(rounds, rho, g, e.tolist()):
        law = SimpleNamespace(mean=mu, cdf=lambda t: rho_i, partial_expectation=lambda t: g_i)
        assert e_i.hex() == _expectation_from_kernel(law, r, 0.0)[0].hex(), (r, rho_i, g_i)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def test_report_field_identities():
    rng = np.random.default_rng(3)
    law = random_discrete_law(rng)
    r, t = 4, float(law.spectrum.values[1])
    rep = threshold_report(law, r, t)
    assert rep.r == r and rep.t_opt == t
    assert rep.T == pytest.approx(t - law.mean, abs=1e-12)
    assert rep.rho == oracles.scalar_cdf(law, t)
    assert rep.P == grover_probability(rep.rho, r)
    assert rep.eta == pytest.approx(rep.P / rep.rho, abs=1e-14)
    assert rep.E_r == pytest.approx(law.mean - rep.C_r * law.std, abs=1e-9)
    assert rep.quantile == oracles.scalar_cdf(law, rep.E_r)
    assert rep.lam == pytest.approx(rep.E_r / law.spectrum.values[0], abs=1e-12)


def test_report_lambda_absent_when_min_not_usable():
    # infinite support minimum
    rep = threshold_report(make_normal(0.0, 1.0), 2, -1.0)
    assert rep.lam is None
    # zero support minimum
    law = make_empirical([(0.0, 1), (1.0, 1)])
    assert threshold_report(law, 2, 0.5).lam is None


# ---------------------------------------------------------------------------
# Curves
# ---------------------------------------------------------------------------


def test_curve_support_grid_covers_spectrum():
    law = random_discrete_law(np.random.default_rng(5))
    curve = threshold_curve(law, 3, "support")
    assert np.array_equal(curve.thresholds, law.spectrum.values)
    assert np.allclose(curve.f_values, law.spectrum.mass_prefix)
    # last point marks everything: expectation is the mean
    assert curve.expectations[-1] == pytest.approx(law.mean, abs=1e-12)
    assert np.allclose(
        curve.scores, (law.mean - curve.expectations) / law.std, atol=1e-14
    )
    # agreement with the scalar evaluator
    for t, e in zip(curve.thresholds, curve.expectations):
        assert e == pytest.approx(expectation_at_threshold(law, 3, float(t)), abs=1e-12)


def test_curve_integer_grid_on_continuous_law():
    norm = make_normal(1.0, 2.0)
    curve = threshold_curve(norm, 2, 50)
    assert len(curve) == 50
    assert curve.f_values[0] == pytest.approx(1e-14, rel=1e-9)
    assert curve.f_values[-1] == 1.0
    assert curve.expectations[-1] == norm.mean
    for t, e in zip(curve.thresholds[:-1], curve.expectations[:-1]):
        assert e == pytest.approx(expectation_at_threshold(norm, 2, float(t)), abs=1e-12)


@pytest.mark.parametrize(
    "law, grid",
    [
        (make_binomial(200, 0.5), "support"),
        (knn_spectrum(12), "support"),
        (make_normal(0.0, 1.0), 2000),
        (make_reflected_gamma(0.5, 0.5), 2000),
        (make_reflected_pareto(18.0, 1.0), 2000),
        (make_binomial(200, 0.5), np.linspace(-1.0, 201.0, 2000).tolist()),
        (make_normal(0.0, 1.0), np.linspace(-6.0, 0.0, 2000).tolist()),
        (make_reflected_gamma(0.5, 0.5), np.linspace(-20.0, 0.0, 2000).tolist()),
        (make_reflected_pareto(18.0, 1.0), np.linspace(-4.0, -0.5, 2000).tolist()),
    ],
    ids=["binomial", "knn12", "normal", "gamma", "pareto",
         "binomial-list", "normal-list", "gamma-list", "pareto-list"],
)
def test_curve_points_equal_scalar_expectation_bit_for_bit(law, grid):
    for r in (1, 3, 100, 10**6):
        curve = threshold_curve(law, r, grid)
        reference = oracles.threshold_expectation_reference(law, r)
        points = zip(curve.thresholds.tolist(), curve.f_values.tolist(), curve.expectations.tolist())
        for t, f, e in points:
            # against the scalar formulas, and the public one-threshold query
            assert (f.hex(), e.hex()) == (oracles.scalar_cdf(law, t).hex(), reference(t).hex()), (r, t)
            assert e.hex() == expectation_at_threshold(law, r, t).hex(), (r, t)


def test_curve_nan_threshold_behaves_as_the_scalar_query():
    # a continuous law's cdf(nan) is nan, which the kernel rejects; a
    # discrete law's scalar and array lookups both put nan past the support
    with pytest.raises(DomainError):
        threshold_curve(make_normal(0.0, 1.0), 1, [0.0, math.nan])
    law = make_binomial(20, 0.5)
    curve = threshold_curve(law, 1, [5.0, math.nan])
    assert curve.expectations[-1] == expectation_at_threshold(law, 1, math.nan) == law.mean


def test_curve_explicit_grid_sorted():
    law = make_normal(0.0, 1.0)
    curve = threshold_curve(law, 1, [0.5, -1.0, -2.5])
    assert curve.thresholds.tolist() == [-2.5, -1.0, 0.5]


def test_curve_grid_validation():
    law = random_discrete_law(np.random.default_rng(6))
    norm = make_normal(0.0, 1.0)
    with pytest.raises(DomainError):
        threshold_curve(law, 1, "everything")
    with pytest.raises(DomainError):
        threshold_curve(norm, 1, "support")
    with pytest.raises(DomainError):
        threshold_curve(law, 1, 100)
    with pytest.raises(DomainError):
        threshold_curve(norm, 1, 1)
    with pytest.raises(DomainError):
        threshold_curve(law, 1, [])
    with pytest.raises(DomainError):
        threshold_curve(law, 0, "support")


def test_unimodality_counter_on_constructed_curves():
    def curve_with(expectations):
        e = np.asarray(expectations, dtype=np.float64)
        ts = np.arange(e.size, dtype=np.float64)
        return ThresholdCurve(
            r=1, thresholds=ts, f_values=ts, expectations=e, scores=-e
        )

    assert curve_with([3.0, 2.0, 1.0, 2.0, 3.0]).unimodality_violations() == 0
    assert curve_with([3.0, 3.0, 3.0]).unimodality_violations() == 0
    assert curve_with([3.0, 1.0, 2.0, 1.5, 3.0]).unimodality_violations() == 1
    assert curve_with([1.0, 2.0, 1.0, 2.0, 1.0]).unimodality_violations() == 2
    # sub-tolerance wiggles are flat
    assert curve_with([2.0, 1.0, 1.0 + 1e-13, 1.0, 3.0]).unimodality_violations() == 0


@given(seed=st.integers(min_value=0, max_value=10_000), r=st.integers(1, 10))
@settings(max_examples=60, deadline=None)
def test_curve_unimodality_on_random_spectra(seed, r):
    law = random_discrete_law(np.random.default_rng(seed), max_atoms=30)
    curve = threshold_curve(law, r, "support")
    assert curve.unimodality_violations(tol=1e-12) == 0


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


def test_discrete_optimum_matches_full_scan():
    rng = np.random.default_rng(9)
    for _ in range(30):
        law = random_discrete_law(rng, max_atoms=25)
        r = int(rng.integers(1, 9))
        rep = optimize_threshold(law, r)
        full = [
            expectation_at_threshold(law, r, float(t)) for t in law.spectrum.values
        ]
        assert rep.E_r == pytest.approx(min(full), abs=1e-12)
        assert rep.t_opt in law.spectrum.values
        tau, e_cap = certainty_cap(law, r)
        assert rep.t_opt <= tau
        assert rep.E_r <= e_cap + 1e-12


def test_continuous_optimum_beats_dense_scan():
    norm = make_normal(0.0, 1.0)
    for r in (1, 4, 20, 200):
        rep = optimize_threshold(norm, r)
        u_grid = np.geomspace(1e-12, threshold_ratio(r), 4001)
        dense = min(
            expectation_at_threshold(norm, r, norm.quantile(float(u))) for u in u_grid
        )
        assert rep.E_r <= dense + 1e-10
        tau, e_cap = certainty_cap(norm, r)
        assert rep.t_opt <= tau + 1e-12
        assert rep.E_r <= e_cap + 1e-12
        # the optimal threshold never reaches past the certainty mass
        assert rep.rho <= threshold_ratio(r) + 1e-15


def test_optimum_score_grows_with_rounds():
    norm = make_normal(0.0, 1.0)
    scores = [optimize_threshold(norm, r).C_r for r in (1, 2, 4, 8, 16)]
    assert all(b > a for a, b in zip(scores, scores[1:]))


def _bits(fields):
    return tuple(v.hex() if isinstance(v, float) else v for v in fields)


_FIG2_GRID = figures._log_round_grid(10**6)
_FIG4_GRID = figures._log_round_grid(10**5)
_ROUND_SETS = st.one_of(
    st.lists(st.integers(1, 1000), min_size=1, max_size=12),
    st.lists(st.integers(1, 10**8), min_size=1, max_size=6),
    # duplicates, in and out of order
    st.lists(st.integers(1, 30), min_size=1, max_size=6).map(lambda rs: rs + rs[::-1]),
    st.sampled_from([_FIG2_GRID, _FIG4_GRID]),
)


# Small exact laws: distinct values on a 1/16 grid, integer counts up to 10^30.
_EMPIRICAL_LAWS = st.lists(
    st.tuples(st.integers(-16_000, 16_000).map(lambda v: v / 16.0), st.integers(1, 10**30)),
    min_size=2,
    max_size=12,
    unique_by=lambda pair: pair[0],
).map(lambda pairs: make_empirical(sorted(pairs)))


@given(law=st.one_of(_CONTINUOUS_LAWS, _EMPIRICAL_LAWS), rounds=_ROUND_SETS)
@example(law=make_normal(0.0, 1.0), rounds=_FIG2_GRID)
@example(law=make_reflected_gamma(0.005, 0.5), rounds=_FIG4_GRID)
@example(law=make_reflected_gamma(50.0, 0.5), rounds=_FIG4_GRID)
@example(law=make_reflected_pareto(18.0, 1.0), rounds=list(range(1, 301)))
@example(law=make_normal(100.0, 50 ** 0.5), rounds=[1, 10**8, 1, 7])
@example(law=make_binomial(200, 0.5), rounds=[1, 2, 100, 2])
@settings(max_examples=120, deadline=None)
def test_batched_optima_equal_scalar_optima_bit_for_bit(law, rounds):
    # The lockstep search must take every step of the scalar one, so each
    # report field is the same double, not merely a close one.
    batch = optimize_thresholds(law, rounds)
    expected = {r: _bits(oracles.threshold_optimum_reference(law, r)) for r in set(rounds)}
    assert [_bits(dataclasses.astuple(rep)) for rep in batch] == [expected[r] for r in rounds]


def test_batched_optima_check_rounds_and_masses():
    law = make_normal(0.0, 1.0)
    assert optimize_thresholds(law, []) == []
    for rounds in ([3, 0], [2.5], [1, -4]):
        with pytest.raises(DomainError, match="round count"):
            optimize_thresholds(law, rounds)
    # exp of the search's lower end underflows to 0, outside the quantile's
    # domain: the message names the search's limit and the round count
    with pytest.raises(DomainError, match=f"up to about 1.6e155; got r = {10**160}$"):
        optimize_thresholds(law, [1, 10**160])


_DISCRETE_ROUNDS = [1, 2, 3, 10, 1000, 10**6, 10**16, 10**150]


def _hex_list(values):
    return [v.hex() for v in values.tolist()]


def test_discrete_scan_of_many_laws_equals_per_item_reference(monkeypatch):
    # One scan takes items of several laws, each with its own round count;
    # split into parts of whole items, it gives the same doubles.
    laws = [
        knn_spectrum(20),
        make_binomial(30, 0.4),
        make_empirical([(-0.0, 1), (1.0, 9)]),
        make_two_point(0.01),
    ]
    items = [(law, r) for r in _DISCRETE_ROUNDS for law in laws]
    expected = [
        tuple(oracles.threshold_optimum_reference(law, r)[i].hex() for i in (1, 3, 5)) for law, r in items
    ]
    for chunk in (gmth._DISCRETE_CHUNK, 7):
        monkeypatch.setattr(gmth, "_DISCRETE_CHUNK", chunk)
        t, rho, e = gmth._optimize_discrete(
            [law.spectrum for law, _ in items], [law.mean for law, _ in items], [r for _, r in items]
        )
        assert list(zip(*(_hex_list(c) for c in (t, rho, e)))) == expected, chunk


def test_discrete_scan_ties_go_to_the_smallest_threshold(monkeypatch):
    def plateaus(mu, rho, g, rho_th, k):  # a tie: every mass from 1e-4 on scores 0
        return np.where(rho < 1e-4, 1.0, 0.0)

    law = knn_spectrum(20)
    rounds = [1, 1, 2]
    monkeypatch.setattr(gmth, "_expectations", plateaus)
    t, _, _ = gmth._optimize_discrete(law.spectrum, law.mean, rounds)
    prefix = law.spectrum.mass_prefix
    for r, t_r in zip(rounds, t.tolist()):
        size = min(int(np.searchsorted(prefix, threshold_ratio(r), side="right")) + 1, prefix.size)
        scores = plateaus(None, prefix[:size], None, None, None)
        assert np.count_nonzero(scores == scores.min()) >= 2 and np.argmin(scores) > 0
        assert t_r == law.spectrum.values[np.argmin(scores)]


_BRACKETS = st.lists(
    st.tuples(st.floats(-50.0, 50.0), st.floats(0.0, 100.0), st.floats(-60.0, 60.0)),
    min_size=1,
    max_size=10,
)


@given(brackets=_BRACKETS, plateaus=st.booleans(), tol=st.sampled_from([1e-12, 1e-6, 0.5]))
@example(brackets=[(0.0, 1.0, 0.3)] * 3, plateaus=False, tol=1e-12)
@example(brackets=[(-1.0, 2.0, 0.0), (-1.0, 2.0 + 2**-40, 0.0), (5.0, 0.0, 5.0)], plateaus=True, tol=1e-12)
@example(brackets=[(3.0, 0.0, 3.0), (-50.0, 100.0, 7.5)], plateaus=False, tol=1e-12)
@settings(max_examples=200, deadline=None)
def test_batch_golden_section_equals_scalar_bit_for_bit(brackets, plateaus, tol):
    # Brackets of unequal width finish at different steps: a finished
    # search keeps being stepped with the rest, and only the result of the
    # step where it finished may count; the plateaus of a floored parabola
    # make the searches meet ties.
    a = np.array([lo for lo, _, _ in brackets])
    b = a + np.array([width for _, width, _ in brackets])
    m = np.array([centre for _, _, centre in brackets])

    def value_at(x):
        y = (x - m) * (x - m)
        return np.floor(y) if plateaus else y

    x_batch, f_batch = _golden_section_argmin_batch(value_at, a, b, tol)
    expected = []
    for lo, hi, centre in zip(a.tolist(), b.tolist(), m.tolist()):

        def scalar(x, centre=centre):
            y = (x - centre) * (x - centre)
            return float(math.floor(y)) if plateaus else y

        expected.append(tuple(v.hex() for v in oracles.golden_section_argmin(scalar, lo, hi, tol)))
    assert [(x.hex(), f.hex()) for x, f in zip(x_batch.tolist(), f_batch.tolist())] == expected


@given(law=_CONTINUOUS_LAWS, exponents=st.lists(st.floats(-320.0, -1e-9), min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
def test_search_terms_equal_scalar_queries_bit_for_bit(law, exponents):
    u = 10.0 ** np.array(exponents)
    u = u[(u > 0.0) & (u < 1.0)]
    t = law.quantile_vec(u)
    f, g = law._terms(t)
    for ui, ti, fi, gi in zip(u.tolist(), t.tolist(), f.tolist(), g.tolist()):
        tq = law.quantile(ui)
        assert (ti.hex(), fi.hex(), gi.hex()) == (
            tq.hex(),
            oracles.scalar_cdf(law, tq).hex(),
            oracles.scalar_partial_expectation(law, tq).hex(),
        ), ui


# Golden-section results as float.hex, recorded when the threshold search
# and c_th each had their own copy of the loop; the shared helper must
# reproduce them bit for bit.
_PINNED_C_TH = {
    1: ("0x1.2bec32e8d44acp-3", "0x1.0000000000001p+1"),
    7: ("0x1.8b3a15651ecb4p-8", "0x1.5ab9d91cd9521p+3"),
    50: ("0x1.1748aa2ccc1c2p-13", "0x1.24b90a83350a1p+6"),
    1000: ("0x1.6c505f4ca76f2p-22", "0x1.6a7c9cb3f5861p+10"),
    10**6: ("0x1.7e64830a015a4p-42", "0x1.61d076ea25572p+20"),
}
_PINNED_T_OPT = [
    (make_normal(0.0, 1.0), 1, "-0x1.c0f92aa84e57fp-1"),
    (make_normal(0.0, 1.0), 1000, "-0x1.36d22e906c224p+2"),
    (make_normal(0.0, 1.0), 10**6, "-0x1.c6a27e78762b5p+2"),
    (ReflectedParetoLaw(18.0, 1.0), 1, "-0x1.192d98845e1ecp+0"),
    (ReflectedParetoLaw(18.0, 1.0), 100, "-0x1.a23a0222f8e4cp+0"),
    # fig4's reflected Gamma(k/2, 1/2) at k = 0.01 and k = 100
    (make_reflected_gamma(0.005, 0.5), 1, "-0x1.ecb140b9df874p-6"),
    (make_reflected_gamma(0.005, 0.5), 1000, "-0x1.c2a55d3a02362p+3"),
    (make_reflected_gamma(0.005, 0.5), 10**5, "-0x1.ef45a80ea9317p+4"),
    (make_reflected_gamma(50.0, 0.5), 1, "-0x1.c1f1ee9bde1fep+6"),
    (make_reflected_gamma(50.0, 0.5), 1000, "-0x1.70a3c818e94b1p+7"),
    (make_reflected_gamma(50.0, 0.5), 10**5, "-0x1.b70e67f5c21c3p+7"),
]


def test_golden_section_optima_bit_pinned():
    for r, (rho_hex, score_hex) in _PINNED_C_TH.items():
        rho_star, score = c_th(r)
        assert (rho_star.hex(), score.hex()) == (rho_hex, score_hex), r
    for law, r, t_hex in _PINNED_T_OPT:
        assert optimize_threshold(law, r).t_opt.hex() == t_hex, (type(law).__name__, r)


# sha256 of the `reproduce` CSV bytes, recorded with numpy 2.4.6 and
# scipy 1.17.1: fig1 is c_th per round, fig2 the standard-normal threshold
# optima on a quarter-octave grid up to 10^6, fig5 the binomial and normal
# threshold optima, fig7 the amplification floor of K_{50,50} over its
# round grid, fig8 the exact K_{50,50} law (counts, masses, and the cdf
# as the law's correctly rounded prefix table).
_PINNED_REPRODUCE_SHA256 = {
    "fig1": "cb6408bdd28a598c7cc6b8b66f97da129c253afc01fbe0eadd0fd01941974a44",
    "fig2": "63013586fc2681fb4433ad6c154141856b475e171596ad23f70a3d63db7880a5",
    "fig5": "9459057a21d00d5cdb90ccd0badc22506c7a04101c98dcaf82fabeae7b674526",
    "fig7": "188e741296ffea84aa6a2907f41ed368e0aa044f37c5bbc10f8deac10273a22b",
    "fig8": "96db4612ba90e0330eb4105cbfd30f74c9d4f3f8c7338cc464a1a2277c2e4e9d",
}


@pytest.mark.parametrize("target", sorted(_PINNED_REPRODUCE_SHA256))
def test_reproduce_csv_bytes_pinned(target, tmp_path):
    out = tmp_path / f"{target}.csv"
    assert cli.run(["reproduce", target, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _PINNED_REPRODUCE_SHA256[target]


# sha256 of CLI CSV bytes, recorded like the pins above: the K_{300,300}
# law (181-digit counts), the amplification-floor report on K_{50,50} over
# a 4429-round grid, two multi-round threshold sweeps -- a Pareto law
# at r = 1..1000 and fig4's k = 0.01 Gamma law on 60 quarter-octave rounds --
# and two K_{n,n} round searches over n = 4..40, one per bound kind.  They
# stop below n = 53, where the float decisions start to miscount.  `pr` on
# masses down to 1e-300 covers the boosted branch, both sides of
# POLY_MAX_ROUNDS and eta held to its cap (2r+1)^2.
_PINNED_CLI_SHA256 = {
    "maxcut-n300": (
        ["maxcut", "--n", "300"],
        "477b263fdf99f776c95a05627d82e10edfd3ad958e87b68f6bd5b68424ad8815",
    ),
    "bound-knn50": (
        ["bound", "--dist", "knn:50", "--r", "pow2:100,5000"],
        "2d23abc86572f882ed7c2fe134489f2ccc670d0f6dffeb2d3898eeb847077800",
    ),
    "sweep-pareto": (
        ["sweep", "--dist", "pareto:18,1", "--r", "linspace:1,1000,1000"],
        "5d8b8649d38a56f8c3bad90c77dcf7a47b00a0f86662ba28950e123586214b1b",
    ),
    "maxcut-rounds-gmth": (
        ["maxcut", "--n-range", "4,40", "--lam", "0.9411764705882353", "--bound-kind", "gmth"],
        "c6e91a8e169a175cb72124cc0dc5a17d1472d9c7b6851b642092a83c0442ba3b",
    ),
    "maxcut-rounds-floor": (
        ["maxcut", "--n-range", "4,40", "--lam", "0.8786", "--bound-kind", "max_amplification"],
        "40c24027607941c0169c8f0096df50b2ea354de34c2cd4c3276156e027be99ac",
    ),
    "sweep-gamma": (
        ["sweep", "--dist", "gamma:0.005,0.5", "--r", "pow2:4,64"],
        "0b536c835840bd1cee741e1322201622cfc9f0f9fcb74d3fa6c45d87a5ae7130",
    ),
    "pr-geom": (
        ["pr", "--rho", "geom:1e-300,1,50", "--r", f"1,2,31,100,{2**300}"],
        "8f83f5b055773ef83bcf1616ad8dcad8cd865dbac37ce8e11cdc26813657e6a2",
    ),
}


@pytest.mark.parametrize("name", sorted(_PINNED_CLI_SHA256))
def test_exact_spectrum_csv_bytes_pinned(name, tmp_path):
    argv, digest = _PINNED_CLI_SHA256[name]
    out = tmp_path / f"{name}.csv"
    assert cli.run([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# ---------------------------------------------------------------------------
# Exact-optimum round count
# ---------------------------------------------------------------------------


def test_min_rounds_exact_opt_minimality():
    for f in (0.25, 0.3, 0.2, 0.01, 1e-6, 1e-12, 1e-30):
        law = make_two_point(f)
        r_star = min_rounds_exact_opt(law)
        assert f >= threshold_ratio(r_star)
        if r_star > 1:
            assert f < threshold_ratio(r_star - 1)


def test_min_rounds_exact_opt_edge_cases():
    # a law concentrated on one value cannot even be built (zero spread)
    with pytest.raises(DomainError):
        make_empirical([(-1.0, 7)])
    assert min_rounds_exact_opt(make_two_point(0.25)) == 1
    assert min_rounds_exact_opt(make_two_point(0.26)) == 1
    with pytest.raises(DomainError):
        min_rounds_exact_opt(make_normal(0.0, 1.0))


@given(
    targets=st.lists(st.one_of(st.none(), st.integers(1, 2**70)), min_size=1, max_size=30),
    limit=st.sampled_from([37, 2**63, math.inf]),
)
@example(targets=[1, 2, 3, 2**63, 2**63 + 1, None], limit=2**63)
@settings(max_examples=200, deadline=None)
def test_lockstep_round_searches_take_the_scalar_steps(targets, limit):
    # Searches finishing at different steps drop out of the lockstep; each
    # asks for the same round counts, in the same order, as alone.
    if limit == math.inf:
        targets = [target or 1 for target in targets]  # a search must end
    asked = [[] for _ in targets]

    def reached(indices, rounds):
        assert indices == sorted(set(indices))
        for i, r in zip(indices, rounds):
            asked[i].append(r)
        return [targets[i] is not None and r >= targets[i] for i, r in zip(indices, rounds)]

    found = gmth._first_rounds(reached, len(targets), limit)
    for i, target in enumerate(targets):
        alone = []

        def scalar(r, target=target):
            alone.append(r)
            return target is not None and r >= target

        assert found[i] == oracles.first_round_reference(scalar, limit)
        assert asked[i] == alone
