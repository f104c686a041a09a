"""Mixer evolution engines: simulator, characteristic functions, pair sum,
angle optimization."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

import oracles
from thqaoa import gmqaoa
from thqaoa.dist_core import discretize_equal_mass
from thqaoa.dist_models import make_empirical, make_normal, make_reflected_gamma, make_two_point
from thqaoa.errors import ConvergenceWarning, DomainError
from thqaoa.gmqaoa import (
    expectation_from_state,
    expectation_pair_sum,
    identity_phase,
    optimize_angles,
    simulate,
    threshold_phase,
)
from thqaoa.grover_kernel import AngleSchedule, grover_probability, threshold_ratio


def random_discrete_law(rng, max_atoms=12):
    n = int(rng.integers(2, max_atoms + 1))
    values = np.sort(rng.normal(0.0, 3.0, n))
    while np.any(np.diff(values) == 0.0):
        values = np.sort(rng.normal(0.0, 3.0, n))
    counts = rng.integers(1, 20, n)
    return make_empirical(list(zip(values.tolist(), (int(c) for c in counts))))


def random_schedule(rng, r):
    return AngleSchedule(
        tuple(rng.uniform(0.0, 2.0 * math.pi, r)),
        tuple(rng.uniform(-2.0, 2.0, r)),
    )


def single_layer_closed_form(law, q, beta, gamma):
    """E after one layer, from the rank-one mixer algebra.

    amplitude_i = sqrt(f_i) (exp(i gamma q_i) + (e^{i beta}-1) phi_q), so
    E = mu (1 + |c|^2 |phi_q|^2) + 2 Re(conj(c phi_q) M_q) with
    phi_q = E[exp(i gamma q(X))] and M_q = E[X exp(i gamma q(X))].
    """
    values = law.spectrum.values
    masses = law.spectrum.masses
    qa = np.array([q(float(x)) for x in values])
    phi_q = np.sum(masses * np.exp(1j * gamma * qa))
    m_q = np.sum(values * masses * np.exp(1j * gamma * qa))
    c = np.exp(1j * beta) - 1.0
    return float(
        law.mean * (1.0 + abs(c) ** 2 * abs(phi_q) ** 2)
        + 2.0 * (np.conj(c * phi_q) * m_q).real
    )


# ---------------------------------------------------------------------------
# Collapsed simulator
# ---------------------------------------------------------------------------


@given(seed=st.integers(0, 10_000), r=st.integers(1, 8))
@settings(max_examples=150, deadline=None)
def test_simulate_preserves_norm(seed, r):
    rng = np.random.default_rng(seed)
    law = random_discrete_law(rng, max_atoms=25)
    state = simulate(law, identity_phase, random_schedule(rng, r))
    assert abs(state.norm_squared() - 1.0) < 1e-10


def test_simulate_norm_over_many_layers():
    rng = np.random.default_rng(1)
    law = random_discrete_law(rng, max_atoms=30)
    state = simulate(law, identity_phase, random_schedule(rng, 10_000))
    assert abs(state.norm_squared() - 1.0) < 1e-10


def test_zero_schedule_is_initial_state():
    law = random_discrete_law(np.random.default_rng(2))
    state = simulate(law, identity_phase, AngleSchedule((0.0, 0.0), (0.0, 0.0)))
    assert np.allclose(state.amplitudes, state.weights, atol=1e-15)
    assert expectation_from_state(state) == pytest.approx(law.mean, abs=1e-13)


def test_single_layer_matches_rank_one_algebra():
    rng = np.random.default_rng(3)
    for _ in range(20):
        law = random_discrete_law(rng)
        beta, gamma = rng.uniform(0, 2 * math.pi), rng.uniform(-2, 2)
        for q in (identity_phase, threshold_phase(float(law.spectrum.values[1]))):
            state = simulate(law, q, AngleSchedule((beta,), (gamma,)))
            assert expectation_from_state(state) == pytest.approx(
                single_layer_closed_form(law, q, beta, gamma), abs=1e-12
            )


def test_simulator_matches_full_space_oracle():
    rng = np.random.default_rng(4)
    for _ in range(15):
        law = random_discrete_law(rng, max_atoms=8)
        r = int(rng.integers(1, 5))
        sched = random_schedule(rng, r)
        t = float(rng.choice(law.spectrum.values[:-1]))
        for q in (identity_phase, threshold_phase(t)):
            state = simulate(law, q, sched)
            e_ref, probs_ref = oracles.full_space_simulate(
                law.spectrum.values, law.multiplicities, q, sched.betas, sched.gammas
            )
            assert expectation_from_state(state) == pytest.approx(e_ref, abs=1e-11)
            assert np.allclose(state.probabilities(), probs_ref, atol=1e-11)


def test_full_space_permutation_invariance():
    # the collapse assumes state ordering is irrelevant; shuffle the raw
    # solution list in the dense oracle and compare to the package
    rng = np.random.default_rng(5)
    law = random_discrete_law(rng, max_atoms=6)
    sched = random_schedule(rng, 3)
    expanded = np.repeat(law.spectrum.values, law.multiplicities)
    perm = rng.permutation(expanded.size)
    shuffled = expanded[perm]
    e_ref, _ = oracles.full_space_simulate(
        shuffled, np.ones(shuffled.size, dtype=int), identity_phase,
        sched.betas, sched.gammas,
    )
    state = simulate(law, identity_phase, sched)
    assert expectation_from_state(state) == pytest.approx(e_ref, abs=1e-12)


def test_degeneracy_collapse_equals_split_atoms():
    # splitting one atom into two equal-cost halves (only expressible in
    # the dense oracle; package spectra are merged) changes nothing
    rng = np.random.default_rng(6)
    law = make_empirical([(-2.0, 4), (-0.5, 6), (1.0, 2)])
    sched = random_schedule(rng, 3)
    split_values = [-2.0, -0.5, -0.5, 1.0]
    split_counts = [4, 3, 3, 2]
    e_ref, probs_ref = oracles.full_space_simulate(
        split_values, split_counts, identity_phase, sched.betas, sched.gammas
    )
    state = simulate(law, identity_phase, sched)
    assert expectation_from_state(state) == pytest.approx(e_ref, abs=1e-12)
    merged_middle = probs_ref[1] + probs_ref[2]
    assert state.probability_of(-0.5) == pytest.approx(merged_middle, abs=1e-12)


def test_simulate_rejects_continuous_laws():
    with pytest.raises(DomainError):
        simulate(make_normal(0.0, 1.0), identity_phase, AngleSchedule((1.0,), (1.0,)))


def test_probability_of_unknown_class():
    law = make_two_point(0.3)
    state = simulate(law, identity_phase, AngleSchedule((0.0,), (0.0,)))
    with pytest.raises(DomainError):
        state.probability_of(0.123)


# ---------------------------------------------------------------------------
# Characteristic machinery
# ---------------------------------------------------------------------------


def test_characteristic_function_bounds_and_origin():
    rng = np.random.default_rng(7)
    laws = [random_discrete_law(rng), make_normal(1.0, 2.0)]
    for law in laws:
        assert law.characteristic_function(0.0) == pytest.approx(1.0, abs=1e-14)
        for g in np.linspace(-5, 5, 41):
            assert abs(law.characteristic_function(float(g))) <= 1.0 + 1e-14


def test_characteristic_function_normal_vs_hermite_quadrature():
    u, s = 0.7, 1.3
    law = make_normal(u, s)
    nodes, weights = np.polynomial.hermite.hermgauss(200)
    for g in (-2.0, 0.5, 1.9):
        # E[e^{i g X}] with X = u + s sqrt(2) t, t ~ weight e^{-t^2}
        ref = np.sum(weights * np.exp(1j * g * (u + s * math.sqrt(2.0) * nodes))) / math.sqrt(
            math.pi
        )
        assert law.characteristic_function(g) == pytest.approx(ref, abs=1e-12)


def test_characteristic_derivative_origin_gives_mean():
    rng = np.random.default_rng(8)
    for law in (random_discrete_law(rng), make_normal(-1.5, 0.7)):
        val = -1j * law.characteristic_derivative(0.0)
        assert val.real == pytest.approx(law.mean, abs=1e-12)
        assert abs(val.imag) < 1e-14


def test_characteristic_derivative_matches_central_difference():
    h = 1e-6
    for law in (make_normal(0.4, 1.1), random_discrete_law(np.random.default_rng(12))):
        for g in (-1.0, 0.3, 2.0):
            numeric = (law.characteristic_function(g + h) - law.characteristic_function(g - h)) / (2 * h)
            assert law.characteristic_derivative(g) == pytest.approx(numeric, abs=1e-7)


# ---------------------------------------------------------------------------
# Pair-sum expectation
# ---------------------------------------------------------------------------


def test_pair_sum_matches_literal_subset_expansion():
    rng = np.random.default_rng(9)
    for _ in range(10):
        law = random_discrete_law(rng, max_atoms=10)
        r = int(rng.integers(1, 5))
        sched = random_schedule(rng, r)
        ref = oracles.phase_expansion_reference(
            law.spectrum.values, law.spectrum.masses, sched.betas, sched.gammas
        )
        assert expectation_pair_sum(law, sched) == pytest.approx(ref, abs=1e-10)


def test_pair_sum_matches_simulator():
    rng = np.random.default_rng(10)
    # ten random depths 1..5, then two deep schedules
    for depth in (None,) * 10 + (13, 40):
        law = random_discrete_law(rng, max_atoms=15)
        sched = random_schedule(rng, int(rng.integers(1, 6)) if depth is None else depth)
        e_sim = expectation_from_state(simulate(law, identity_phase, sched))
        assert expectation_pair_sum(law, sched) == pytest.approx(e_sim, abs=1e-9)


def test_pair_sum_residue_check_is_relative_to_the_law_scale():
    # costs of order 1e9 with phases scaled by 1e-9: the same unit-free
    # problem as at scale 1, whose residue grows with the costs
    rng = np.random.default_rng(2)
    values = np.sort(rng.normal(0.0, 3.0, 12)) * 1e9
    law = make_empirical(list(zip(values.tolist(), (int(c) for c in rng.integers(1, 20, 12)))))
    sched = AngleSchedule(
        tuple(rng.uniform(0.0, 2.0 * math.pi, 5)), tuple(rng.uniform(-math.pi, math.pi, 5) * 1e-9)
    )
    e_sim = expectation_from_state(simulate(law, identity_phase, sched))
    assert expectation_pair_sum(law, sched) == pytest.approx(e_sim, rel=1e-12)


def test_pair_sum_normal_single_layer_closed_form():
    # standard normal, one layer: E(beta, gamma) = 2 gamma e^{-gamma^2} sin(beta)
    law = make_normal(0.0, 1.0)
    for beta, gamma in ((0.7, 0.4), (4.0, 1.2), (-math.pi / 2, 1.0 / math.sqrt(2.0))):
        expected = 2.0 * gamma * math.exp(-(gamma**2)) * math.sin(beta)
        val = expectation_pair_sum(law, AngleSchedule((beta,), (gamma,)))
        assert val == pytest.approx(expected, abs=1e-12)


def test_pair_sum_normal_matches_discretized_simulator():
    law = make_normal(0.0, 1.0)
    fine = discretize_equal_mass(law, 40_000)
    sched = AngleSchedule((2.0, 5.5, 1.1), (0.6, 0.2, 0.9))
    exact = expectation_pair_sum(law, sched)
    approx = expectation_from_state(simulate(fine, identity_phase, sched))
    assert exact == pytest.approx(approx, abs=5e-4)


def test_pair_sum_needs_characteristic_functions():
    with pytest.raises(DomainError):
        expectation_pair_sum(make_reflected_gamma(2.0, 1.0), AngleSchedule((0.1,), (0.1,)))


# ---------------------------------------------------------------------------
# Angle optimization
# ---------------------------------------------------------------------------


def test_optimize_never_exceeds_mean_and_reports_consistently():
    rng = np.random.default_rng(11)
    for _ in range(5):
        law = random_discrete_law(rng)
        sched, e_opt = optimize_angles(law, 2, restarts=4, seed=3)
        assert e_opt <= law.mean + 1e-12
        replay = expectation_from_state(simulate(law, identity_phase, sched))
        assert replay == pytest.approx(e_opt, abs=1e-12)


def test_optimize_standard_normal_single_layer_optimum():
    # global optimum of 2 gamma e^{-gamma^2} sin(beta): -sqrt(2) e^{-1/2}
    law = discretize_equal_mass(make_normal(0.0, 1.0), 2000)
    _, e_opt = optimize_angles(law, 1, restarts=8, seed=0)
    assert e_opt == pytest.approx(-math.sqrt(2.0) * math.exp(-0.5), abs=5e-3)


def test_optimize_two_point_attains_kernel_probability():
    for r in (1, 2):
        rho = 0.6 * threshold_ratio(r)
        law = make_two_point(rho)
        _, e_opt = optimize_angles(law, r, restarts=6, seed=0)
        assert e_opt <= -grover_probability(rho, r) + 1e-6


def test_warm_start_sweep_is_monotone():
    law = random_discrete_law(np.random.default_rng(12), max_atoms=15)
    sched, prev = None, math.inf
    for r in range(1, 5):
        sched, e_opt = optimize_angles(law, r, restarts=3, seed=5, warm_start=sched)
        assert e_opt <= prev + 1e-12
        prev = e_opt


class _CountingOptimize:
    """scipy.optimize with a ``minimize`` that counts its calls."""

    def __init__(self, module):
        self._module = module
        self.calls = 0

    def minimize(self, *args, **kwargs):
        self.calls += 1
        return self._module.minimize(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._module, name)


def test_each_restart_is_one_minimize_call_on_the_module_attribute(monkeypatch):
    # profilers count restarts by replacing gmqaoa._sciopt with such a proxy
    proxy = _CountingOptimize(gmqaoa._sciopt)
    monkeypatch.setattr(gmqaoa, "_sciopt", proxy)
    law = make_two_point(0.2)
    sched, _ = optimize_angles(law, 2, restarts=3, seed=0)
    assert proxy.calls == 3
    optimize_angles(law, 3, restarts=3, seed=0, warm_start=sched)
    assert proxy.calls == 3 + 4  # the warm start's INTERP stretch is one more start


def test_warm_start_longer_than_target_rejected():
    law = make_two_point(0.2)
    sched, _ = optimize_angles(law, 3, restarts=2, seed=0)
    with pytest.raises(DomainError):
        optimize_angles(law, 2, restarts=2, seed=0, warm_start=sched)


def test_standard_score_invariant_under_affine_map():
    rng = np.random.default_rng(77)
    vals = np.sort(rng.normal(0, 2, 9))
    counts = [int(c) for c in rng.integers(1, 9, 9)]
    law = make_empirical(list(zip(vals.tolist(), counts)))
    a, b = 3.7, -2.2
    law2 = make_empirical(list(zip((a * vals + b).tolist(), counts)))
    for r in (1, 2):
        _, e1 = optimize_angles(law, r, restarts=8, seed=1)
        _, e2 = optimize_angles(law2, r, restarts=8, seed=1)
        c1 = (law.mean - e1) / law.std
        c2 = (law2.mean - e2) / law2.std
        assert c1 == pytest.approx(c2, abs=1e-8)


def test_optimize_validation():
    law = make_two_point(0.3)
    with pytest.raises(DomainError):
        optimize_angles(law, 0)
    with pytest.raises(DomainError):
        optimize_angles(law, 1, restarts=0)
    with pytest.raises(DomainError):
        optimize_angles(make_normal(0.0, 1.0), 1)


# Optima of the best-of-restarts Nelder-Mead search that optimize_angles ran
# before its L-BFGS search, on equal-mass discretizations of the standard
# normal with warm starts threaded through r: the `gmqaoa --dist normal:0,1
# --bins 3000 --r 1,2,3 --restarts 3 --seed 0` rows, and the criterion-12
# loop (10^4 bins, restarts 6, seed 0).
NELDER_MEAD_OPTIMA = {
    (3000, 3): (-0.8578243502442879, -1.29249612386039, -1.5166992495221903),
    (10_000, 6): (
        -0.8577777832737974, -1.292341061845013, -1.5144498101725745, -1.6102571265924623,
        -1.8053201442148072, -1.9314682117209645, -1.9388229189209563, -2.0447885401969725,
    ),
}


def standardized(law):
    """Root masses and standard scores of a law's classes."""
    return np.sqrt(law.spectrum.masses), (law.spectrum.values - law.mean) / law.std


def test_value_and_grad_matches_simulator_and_central_differences():
    rng = np.random.default_rng(13)
    h = 1e-5
    for r in range(1, 7):
        for _ in range(3):
            law = random_discrete_law(rng, max_atoms=20)
            w, z = standardized(law)
            theta = rng.uniform(-math.pi, math.pi, 2 * r)
            value, grad = gmqaoa._value_and_grad(theta, w, z)
            sched = AngleSchedule(tuple(theta[:r]), tuple(theta[r:] / law.std))
            e = expectation_from_state(simulate(law, identity_phase, sched))
            assert value == pytest.approx((e - law.mean) / law.std, abs=1e-12)
            central = [
                (gmqaoa._value_and_grad(theta + step, w, z)[0]
                 - gmqaoa._value_and_grad(theta - step, w, z)[0]) / (2 * h)
                for step in np.eye(2 * r) * h
            ]
            assert np.max(np.abs(grad - central)) <= 1e-7


def test_padded_warm_start_is_stationary():
    # A new last layer at zero angles: its gamma acts as a final phase, and
    # its beta moves the state exactly as the previous layer's beta does.
    # So padding a stationary point of r - 1 layers gives one of r layers,
    # and L-BFGS would stop there at once; optimize_angles starts from the
    # INTERP stretch instead.
    rng = np.random.default_rng(14)
    for r in (2, 3, 4):
        w, z = standardized(random_discrete_law(rng, max_atoms=20))
        theta = rng.uniform(-math.pi, math.pi, 2 * (r - 1))
        pad = np.concatenate([theta[: r - 1], [0.0], theta[r - 1:], [0.0]])
        _, grad = gmqaoa._value_and_grad(pad, w, z)
        assert abs(grad[r - 1] - grad[r - 2]) <= 1e-12
        assert abs(grad[2 * r - 1]) <= 1e-12
        warm = optimize.minimize(gmqaoa._value_and_grad, theta, args=(w, z), jac=True,
                                 method="BFGS", options={"gtol": 1e-12}).x
        pad = np.concatenate([warm[: r - 1], [0.0], warm[r - 1:], [0.0]])
        _, grad = gmqaoa._value_and_grad(pad, w, z)
        assert np.max(np.abs(grad)) <= 1e-9


@pytest.mark.parametrize("bins, restarts", sorted(NELDER_MEAD_OPTIMA))
def test_optima_no_worse_than_nelder_mead(bins, restarts):
    law = discretize_equal_mass(make_normal(0.0, 1.0), bins)
    sched = None
    with warnings.catch_warnings():
        warnings.simplefilter("error", ConvergenceWarning)
        for r, pinned in enumerate(NELDER_MEAD_OPTIMA[bins, restarts], start=1):
            sched, e_opt = optimize_angles(law, r, restarts=restarts, seed=0, warm_start=sched)
            assert e_opt <= pinned + 1e-9, f"r={r}"


def test_warning_when_the_optimum_stopped_at_the_cap(monkeypatch):
    law = discretize_equal_mass(make_normal(0.0, 1.0), 200)
    monkeypatch.setattr(gmqaoa, "EVALUATIONS_PER_LAYER", 3)
    with pytest.warns(ConvergenceWarning, match=r"r=2: .* restart \d+, .* after \d+ evaluations"):
        _, e_opt = optimize_angles(law, 2, restarts=3, seed=0)
    assert e_opt < law.mean
