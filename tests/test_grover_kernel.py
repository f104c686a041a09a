"""Amplitude-amplification kernel: probability forms, schedules, ratios."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from thqaoa import gmqaoa
from thqaoa.dist_models import make_two_point
from thqaoa.errors import DomainError
from thqaoa.grover_kernel import (
    POLY_MAX_ROUNDS,
    AngleSchedule,
    amplification_ratio,
    grover_probability,
    grover_probability_poly,
    grover_probability_vec,
    optimal_binary_angles,
    threshold_ratio,
)


# ---------------------------------------------------------------------------
# Threshold ratio
# ---------------------------------------------------------------------------


def test_threshold_ratio_formula_and_monotonicity():
    assert threshold_ratio(1) == pytest.approx(0.25, abs=1e-15)
    prev = 1.0
    for r in range(1, 51):
        val = threshold_ratio(r)
        assert val == pytest.approx(math.sin(math.pi / (4 * r + 2)) ** 2, abs=1e-16)
        assert val < prev
        prev = val


@pytest.mark.parametrize("bad", [0, -1, 1.5])
def test_threshold_ratio_rejects_bad_rounds(bad):
    with pytest.raises(DomainError):
        threshold_ratio(bad)


# ---------------------------------------------------------------------------
# Probability forms
# ---------------------------------------------------------------------------


def test_probability_branches_and_junction():
    for r in (1, 2, 7, 30, 1000):
        thr = threshold_ratio(r)
        assert grover_probability(0.0, r) == 0.0
        assert grover_probability(1.0, r) == 1.0
        assert grover_probability(thr, r) == 1.0
        assert grover_probability(thr + 1e-12, r) == 1.0
        # continuity from below at the junction
        below = grover_probability(thr * (1.0 - 1e-9), r)
        assert below == pytest.approx(1.0, abs=1e-6)
        rho = 0.5 * thr
        expected = math.sin((2 * r + 1) * math.asin(math.sqrt(rho))) ** 2
        assert grover_probability(rho, r) == pytest.approx(expected, abs=1e-16)


def test_quarter_mass_single_round_is_certain():
    assert grover_probability(0.25, 1) == 1.0


def test_vectorized_matches_scalar():
    rng = np.random.default_rng(7)
    for r in (1, 3, 25):
        rho = np.concatenate([rng.uniform(0, 1, 200), [0.0, 1.0, threshold_ratio(r)]])
        vec = grover_probability_vec(rho, r)
        scalar = np.array([grover_probability(float(x), r) for x in rho])
        assert np.array_equal(vec, scalar) or np.allclose(vec, scalar, atol=1e-16)


@given(
    r=st.integers(min_value=1, max_value=POLY_MAX_ROUNDS),
    frac=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
@settings(max_examples=300, deadline=None)
def test_polynomial_form_matches_sine_form(r, frac):
    rho = frac * threshold_ratio(r)
    assert grover_probability_poly(rho, r) == pytest.approx(
        grover_probability(rho, r), abs=1e-10
    )


def test_polynomial_form_domain_errors():
    with pytest.raises(DomainError):
        grover_probability_poly(0.1, POLY_MAX_ROUNDS + 1)
    with pytest.raises(DomainError):
        grover_probability_poly(threshold_ratio(3) + 1e-6, 3)
    with pytest.raises(DomainError):
        grover_probability_poly(-0.1, 1)
    with pytest.raises(DomainError):
        grover_probability(1.2, 1)


# ---------------------------------------------------------------------------
# Optimal binary schedules
# ---------------------------------------------------------------------------


def _simulated_marked_probability(rho: float, schedule: AngleSchedule) -> float:
    """Run the schedule on the matching two-point law, measure the -1 class."""
    law = make_two_point(rho)
    state = gmqaoa.simulate(law, gmqaoa.threshold_phase(-0.5), schedule)
    return state.probability_of(-1.0)


def test_binary_angles_below_threshold_are_all_pi():
    for r in (1, 4, 9):
        rho = 0.8 * threshold_ratio(r)
        sched = optimal_binary_angles(rho, r)
        assert sched.betas == (math.pi,) * r
        assert sched.gammas == (math.pi,) * r
        assert _simulated_marked_probability(rho, sched) == pytest.approx(
            grover_probability(rho, r), abs=1e-9
        )


def test_binary_angles_above_threshold_structure_and_certainty():
    rng = np.random.default_rng(11)
    cases = []
    for r in (1, 2, 3, 5, 8):
        thr = threshold_ratio(r)
        cases.append((thr + 1e-6, r))  # barely above: fine-tuned at layer r
        cases.append((0.9, r))  # far above: k = 0, zeros after layer 1
        cases.append((float(rng.uniform(thr, 1.0)), r))
    for rho, r in cases:
        sched = optimal_binary_angles(rho, r)
        assert sched.r == r
        # pi-prefix, one fine-tuned pair, zero-padding
        k = next(
            i for i, b in enumerate(sched.betas) if not math.isclose(b, math.pi)
        )
        assert k < r
        assert all(b == 0.0 and g == 0.0 for b, g in
                   zip(sched.betas[k + 1:], sched.gammas[k + 1:]))
        assert _simulated_marked_probability(rho, sched) == pytest.approx(
            1.0, abs=1e-9
        )


@given(
    r=st.integers(min_value=1, max_value=12),
    frac=st.floats(min_value=1e-6, max_value=1.0 - 1e-9, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_binary_angles_reproduce_kernel_probability(r, frac):
    rho = 1e-4 + frac * (1.0 - 2e-4)
    sched = optimal_binary_angles(rho, r)
    assert _simulated_marked_probability(rho, sched) == pytest.approx(
        grover_probability(rho, r), abs=1e-9
    )


def test_binary_angles_reject_degenerate_mass():
    for rho in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(DomainError):
            optimal_binary_angles(rho, 3)


# ---------------------------------------------------------------------------
# Amplification ratio
# ---------------------------------------------------------------------------


def test_amplification_cap_and_saturation():
    for r in (1, 2, 5, 11):
        cap = (2 * r + 1) ** 2
        for rho in np.linspace(1e-9, 1.0, 500):
            assert amplification_ratio(float(rho), r) <= cap + 1e-9
        assert amplification_ratio(1e-14, r) == pytest.approx(cap, rel=1e-6)
    with pytest.raises(DomainError):
        amplification_ratio(0.0, 1)


@pytest.mark.parametrize("r", [1, 10, 10**3, 10**5, 10**7])
def test_probability_and_amplification_match_mpmath(r):
    # rho from 1e-300 to the last double below the threshold ratio; the
    # float eta may pass the (2r+1)^2 cap by rounding only (up to 4 ulps)
    cap = (2 * r + 1) ** 2 * (1.0 + 4.0 * 2.0**-52)
    top = math.nextafter(threshold_ratio(r), 0.0)
    for rho in np.geomspace(1e-300, top, 240).tolist():
        p_ref, eta_ref = oracles.grover_probability_reference(rho, r)
        assert abs(grover_probability(rho, r) - p_ref) <= 4e-15 * p_ref, rho
        eta = amplification_ratio(rho, r)
        assert abs(eta - eta_ref) <= 4e-15 * eta_ref, rho
        assert eta <= cap, rho


# ---------------------------------------------------------------------------
# Parameter containers
# ---------------------------------------------------------------------------


def test_params_and_schedule_validation():
    with pytest.raises(DomainError):
        AngleSchedule((0.1, 0.2), (0.3,))
    with pytest.raises(DomainError):
        AngleSchedule((), ())
    sched = AngleSchedule([1, 2], [3, 4])
    assert sched.r == 2
    assert sched.betas == (1.0, 2.0)
