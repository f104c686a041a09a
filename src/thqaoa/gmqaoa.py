"""Grover-mixer QAOA evaluation.

Three engines, in increasing order of specialization:

* :func:`simulate` -- the degeneracy-collapsed state simulator.  States
  that share a cost value stay interchangeable under both the phase
  separator and the rank-one Grover mixer, so the full state space
  collapses to one complex amplitude per distinct cost class and a
  schedule of ``r`` layers costs O(n * r) for ``n`` classes.  This is
  exact, not approximate, and is the primary engine.
* :func:`expectation_pair_sum` -- the closed-form expectation of the
  raw-cost (identity phase) schedule, built from the law's characteristic
  function.  Each mixer adds a multiple of |s>, so the final state has
  r + 1 terms, and the expectation is a double sum over their pairs:
  O(r^2) characteristic-function evaluations.  It exists to
  cross-validate the simulator and to evaluate closed-form continuous
  inputs (normal laws) without discretization.
* :func:`optimize_angles` -- best-of-restarts L-BFGS search over the
  2r angles.  Each evaluation runs the collapsed layers forward and then
  backward (:func:`_value_and_grad`): the layers are unitary, so the
  exact gradient costs about one more pass (the adjoint method, Jones &
  Gacon, arXiv:2009.02823).  Restarts start from the all-pi point, the
  INTERP stretch of a warm start and random points; the zero schedule
  and the warm start itself are candidates, not starts.

Phase functions: a ``PhaseFunction`` is any callable mapping a cost
value to the real phase-generator value the separator exponentiates.
:func:`identity_phase` gives plain GM-QAOA; :func:`threshold_phase`
gives the -1/0 threshold compilation; any other callable gives a
general Grover-based schedule.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from ._backend import evolve
from .dist_core import DiscreteLaw, Distribution, _lazy_import
from .errors import ConvergenceWarning, DomainError, NumericalError
from .grover_kernel import AngleSchedule, _check_rounds

_sciopt = _lazy_import("scipy.optimize")

__all__ = [
    "CollapsedState",
    "PhaseFunction",
    "identity_phase",
    "threshold_phase",
    "simulate",
    "expectation_from_state",
    "expectation_pair_sum",
    "optimize_angles",
]

#: Tolerance on the imaginary residue of the pair-sum total, relative to
#: the law's scale sqrt(E[X^2]) when that exceeds 1.
IMAG_RESIDUE_TOLERANCE = 1e-9

#: Evaluation and iteration cap of one angle-search restart, per layer.
EVALUATIONS_PER_LAYER = 400

PhaseFunction = Callable[[float], float]


def identity_phase(x: float) -> float:
    """The identity phase compilation q(x) = x (plain GM-QAOA)."""
    return x


def threshold_phase(t: float) -> PhaseFunction:
    """The threshold compilation q(x) = -1 if x <= t else 0."""

    def q(x: float) -> float:
        return -1.0 if x <= t else 0.0

    return q


# ---------------------------------------------------------------------------
# Collapsed simulator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CollapsedState:
    """Quantum state in the cost-class basis.

    ``classes`` are the distinct cost values, ``weights`` their root
    masses sqrt(f_i) (the components of the uniform state |s>), and
    ``amplitudes`` the complex amplitude per class.  The squared norm
    stays 1 throughout evolution.
    """

    classes: np.ndarray
    weights: np.ndarray
    amplitudes: np.ndarray

    def probabilities(self) -> np.ndarray:
        """Per-class measurement probabilities |v_i|^2."""
        return np.abs(self.amplitudes) ** 2

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    def probability_of(self, class_value: float) -> float:
        """Measurement probability of one cost class (exact value match)."""
        idx = int(np.searchsorted(self.classes, class_value))
        if idx >= self.classes.size or self.classes[idx] != class_value:
            raise DomainError(f"cost class {class_value!r} is not in the spectrum")
        return float(np.abs(self.amplitudes[idx]) ** 2)


def _require_discrete(dist: Distribution) -> DiscreteLaw:
    if not isinstance(dist, DiscreteLaw):
        raise DomainError(
            "the collapsed simulator needs a discrete law; discretize continuous "
            "laws first (see discretize_equal_mass)"
        )
    return dist


def simulate(dist: Distribution, q: PhaseFunction, angles: AngleSchedule) -> CollapsedState:
    """Run the collapsed simulator and return the final state.

    Each layer applies ``v_i <- exp(i gamma q(x_i)) v_i`` followed by
    ``v <- v + (exp(i beta) - 1) <s|v> sqrt(f)``; the initial state is
    |s> itself (``v_i = sqrt(f_i)``).
    """
    law = _require_discrete(dist)
    values = law.spectrum.values
    w = np.sqrt(law.spectrum.masses)
    qa = np.array([float(q(float(x))) for x in values], dtype=np.float64)
    betas = np.asarray(angles.betas, dtype=np.float64)
    gammas = np.asarray(angles.gammas, dtype=np.float64)
    v = w.astype(np.complex128)
    evolve(w, qa, betas, gammas, v)
    state = CollapsedState(values, w, v)
    if abs(state.norm_squared() - 1.0) > 1e-9:
        raise NumericalError(
            f"evolution lost unitarity: squared norm {state.norm_squared()!r}"
        )
    return state


def expectation_from_state(state: CollapsedState) -> float:
    """<psi| H_C |psi> = sum_i x_i |v_i|^2.

    Kept for acceptance criteria 04 and 05: the simulator's expectation.
    """
    return float(np.dot(state.classes, state.probabilities()))


# ---------------------------------------------------------------------------
# Pair-sum expectation (identity compilation)
# ---------------------------------------------------------------------------


def expectation_pair_sum(dist: Distribution, angles: AngleSchedule) -> float:
    """Closed-form raw-cost expectation from the law's characteristic function.

    Every mixer layer ``U_M = I + B(beta) |s><s|`` with
    ``B(beta) = e^{i beta} - 1`` adds a multiple of |s> to the state, so
    after r layers the class amplitudes are
    ``v_i = sqrt(f_i) sum_{j=0..r} a_j exp(i x_i S_j)``, where
    ``S_j = gamma_{j+1} + ... + gamma_r`` is the tail of the phase angles.
    With ``pre`` the prefix sums of the gammas, ``a_0 = 1`` and each
    layer's overlap with |s> gives

        a_k = B(beta_k) sum_{j<k} a_j phi(pre_k - pre_j),

    and the expectation is the double sum over the r + 1 terms

        E = -i * sum_{j,k} conj(a_j) a_k phi'(S_k - S_j).

    That is O(r^2) evaluations of ``phi`` and ``phi'``, one layer (or one
    row) at a time.  For a discrete law with n atoms each evaluation is a
    sum over the atoms, so the cost is O(r^2 n) -- more than the
    simulator's O(r n) -- with O(r n) memory.  The imaginary residue of
    the total must stay below 1e-9 times the law's scale
    ``sqrt(E[X^2]) >= |phi'|``, or below 1e-9 when that scale is under 1.

    Kept for acceptance criterion 05, which checks it against the simulator.
    """
    phi = getattr(dist, "characteristic_function", None)
    phid = getattr(dist, "characteristic_derivative", None)
    if phi is None or phid is None:
        raise DomainError(
            f"pair-sum expectation needs characteristic functions; {type(dist).__name__} has none"
        )
    r = angles.r
    pre = np.concatenate(([0.0], np.cumsum(np.asarray(angles.gammas, dtype=np.float64))))
    b_factors = np.exp(1j * np.asarray(angles.betas, dtype=np.float64)) - 1.0
    a = np.zeros(r + 1, dtype=np.complex128)
    a[0] = 1.0
    for k in range(1, r + 1):
        a[k] = b_factors[k - 1] * np.dot(a[:k], phi(pre[k] - pre[:k]))
    tails = pre[r] - pre
    total = sum(np.conj(a[j]) * np.dot(a, phid(tails - tails[j])) for j in range(r + 1))
    value = -1j * total
    scale = max(1.0, math.hypot(dist.mean, dist.std))
    if abs(value.imag) > IMAG_RESIDUE_TOLERANCE * scale:
        raise NumericalError(f"pair-sum expectation has imaginary residue {value.imag!r}")
    return float(value.real)


# ---------------------------------------------------------------------------
# Angle optimization
# ---------------------------------------------------------------------------


def _value_and_grad(theta: np.ndarray, w: np.ndarray, z: np.ndarray) -> Tuple[float, np.ndarray]:
    """``sum_i z_i |v_i|^2`` after the layers ``theta = (betas, gammas)``,
    and its exact gradient by the adjoint method.

    The forward pass keeps each layer's pre-mixer state ``u_k`` and its
    overlap ``w . u_k``.  The backward pass carries the adjoint ``lam``
    (``z * v`` after the last layer) back through each mixer (giving
    ``mu``) and each phase separator, and reads off

        dE/dbeta_k  = 2 Re(i e^{i beta_k} conj(w . lam_k) (w . u_k))
        dE/dgamma_k = 2 Re(i <mu_k, z * u_k>).

    Buffers, each allocated once per call: the (r, n) phase buffer, whose
    imaginary half takes ``gamma_k * z`` and is then overwritten in place
    by ``cos`` and ``sin`` to give ``exp(i gamma_k z)``; the (r, n)
    pre-mixer states ``u_k``; the r kept overlaps; complex copies of
    ``w`` and ``z``; and two n-vectors, the state (then ``mu``) and
    ``lam``.  Every product and sum runs with the operands in the order
    of the allocating form (``tests/oracles.value_and_grad_reference``),
    so the value and the gradient equal that form's bit for bit wherever
    numpy's ``exp(i x)`` equals ``cos x + i sin x``, as on numpy 2.4.6.
    """
    r = theta.size // 2
    wc, zc = w.astype(np.complex128), z.astype(np.complex128)
    phases = np.empty((r, w.size), dtype=np.complex128)
    np.multiply.outer(theta[r:], z, out=phases.imag)
    np.cos(phases.imag, out=phases.real)
    np.sin(phases.imag, out=phases.imag)
    turns = np.exp(1j * theta[:r])
    pre = np.empty_like(phases)
    overlaps = []
    v, lam = wc.copy(), np.empty_like(wc)
    for k in range(r):
        u = np.multiply(phases[k], v, out=pre[k])
        w_u = np.dot(wc, u)
        overlaps.append(w_u)
        np.add(u, np.multiply((turns[k] - 1.0) * w_u, wc, out=v), out=v)
    np.multiply(zc, v, out=lam)
    value = float(np.vdot(v, lam).real)
    mu = v
    grad = np.empty(2 * r)
    for k in range(r - 1, -1, -1):
        w_lam = np.dot(wc, lam)
        grad[k] = 2.0 * (1j * turns[k] * np.conj(w_lam) * overlaps[k]).real
        np.add(lam, np.multiply(np.conj(turns[k] - 1.0) * w_lam, wc, out=mu), out=mu)
        grad[r + k] = 2.0 * (1j * np.vdot(mu, np.multiply(zc, pre[k], out=pre[k]))).real
        np.multiply(np.conjugate(phases[k], out=lam), mu, out=lam)
    return value, grad


def _interp(angles: np.ndarray, r: int) -> np.ndarray:
    """Stretch one angle sequence linearly onto ``r`` layers (INTERP)."""
    return np.interp(np.linspace(0.0, 1.0, r), np.linspace(0.0, 1.0, angles.size), angles)


def optimize_angles(
    dist: Distribution,
    r: int,
    restarts: int = 20,
    seed: int = 0,
    warm_start: Optional[AngleSchedule] = None,
) -> Tuple[AngleSchedule, float]:
    """Best-of-restarts L-BFGS minimization of the simulated raw-cost
    expectation over the 2r angles.

    Each restart runs L-BFGS-B on the exact adjoint gradient
    (:func:`_value_and_grad`).  The search runs on the standard score
    ``(E - mu) / sigma`` in the coordinates ``(beta, sigma * gamma)``,
    so its path does not depend on the units of the cost.

    Starts, in restart-index order: the all-pi point; with a
    ``warm_start``, its INTERP stretch onto r layers (each angle
    sequence interpolated linearly, Zhou et al., arXiv:1812.01041);
    then ``restarts - 1`` uniform draws with beta and sigma * gamma in
    [0, 2pi).  Restarts are independent; the reduction keeps the
    minimum, with ties broken by restart index.

    Candidates that are not starts: the zero schedule (expectation mu)
    and, with a warm start, the warm start padded with identity layers
    (zero angles).  The padded warm start is a stationary point of the
    expectation, so L-BFGS would stop on it at once; it counts with its
    own expectation instead.  So the result never exceeds mu, nor the
    warm start's own expectation, and a sweep that threads each optimum
    into the next layer count yields a non-increasing sequence.

    Each restart stops at ``EVALUATIONS_PER_LAYER * r`` evaluations or
    iterations.  When the returned optimum comes from a restart that
    stopped there, a :class:`ConvergenceWarning` says so.
    """
    law = _require_discrete(dist)
    r = _check_rounds(r)
    if restarts < 1:
        raise DomainError(f"restarts must be at least 1, got {restarts!r}")
    if warm_start is not None and warm_start.r > r:
        raise DomainError(
            f"warm start has {warm_start.r} layers, more than the requested {r}"
        )

    sigma = law.std
    z = (law.spectrum.values - law.mean) / sigma
    w = np.sqrt(law.spectrum.masses)

    best_theta = np.zeros(2 * r)
    best_score = 0.0  # zero schedule: initial state, expectation mu
    interp = None
    if warm_start is not None:
        betas = np.asarray(warm_start.betas, dtype=np.float64)
        gammas = sigma * np.asarray(warm_start.gammas, dtype=np.float64)
        pad = np.zeros(r - warm_start.r)
        padded = np.concatenate([betas, pad, gammas, pad])
        padded_score = _value_and_grad(padded, w, z)[0]
        if padded_score < best_score:
            best_theta, best_score = padded, padded_score
        interp = np.concatenate([_interp(betas, r), _interp(gammas, r)])

    def starts():
        # each random start is drawn when its restart begins
        yield np.full(2 * r, math.pi)
        if interp is not None:
            yield interp
        rng = np.random.default_rng(seed)
        for _ in range(restarts - 1):
            betas = rng.uniform(0.0, 2.0 * math.pi, size=r)
            gammas = rng.uniform(0.0, 2.0 * math.pi, size=r)
            yield np.concatenate([betas, gammas])

    cap = EVALUATIONS_PER_LAYER * r
    capped = None
    for index, theta0 in enumerate(starts()):
        result = _sciopt.minimize(
            _value_and_grad,
            theta0,
            args=(w, z),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": cap, "maxfun": cap, "ftol": 1e-12, "gtol": 1e-8},
        )
        if result.fun < best_score:
            best_score = float(result.fun)
            best_theta = result.x
            capped = (index, result.nfev) if result.status == 1 else None
    if capped is not None:
        warnings.warn(
            f"r={r}: the optimum came from restart {capped[0]}, which stopped at its "
            f"cap of {cap} after {capped[1]} evaluations",
            ConvergenceWarning,
            stacklevel=2,
        )
    schedule = AngleSchedule(tuple(best_theta[:r]), tuple(best_theta[r:] / sigma))
    return schedule, law.mean + sigma * best_score
