"""Grover-mixer QAOA evaluation.

Three engines, in increasing order of specialization:

* :func:`simulate` -- the degeneracy-collapsed state simulator.  States
  that share a cost value stay interchangeable under both the phase
  separator and the rank-one Grover mixer, so the full state space
  collapses to one complex amplitude per distinct cost class and a
  schedule of ``r`` layers costs O(n * r) for ``n`` classes.  This is
  exact, not approximate, and is the primary engine.
* :func:`expectation_pair_sum` -- the closed-form expectation of the
  raw-cost (identity phase) schedule as a double sum over all pairs of
  mixer-expansion index sets, built from the law's characteristic
  function.  Cost O(4^r); it exists to cross-validate the simulator and
  to evaluate closed-form continuous inputs (normal laws) without
  discretization.
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
from scipy import optimize as _sciopt

from ._backend import evolve
from .dist_core import DiscreteLaw, Distribution
from .dist_models import NormalLaw
from .errors import ConvergenceWarning, DomainError, NumericalError
from .grover_kernel import AngleSchedule, _check_rounds

__all__ = [
    "CollapsedState",
    "PhaseFunction",
    "identity_phase",
    "threshold_phase",
    "simulate",
    "expectation_from_state",
    "characteristic_function",
    "psi_function",
    "expectation_pair_sum",
    "optimize_angles",
]

#: Maximum layer count of the pair-sum expectation formula (O(4^r) terms).
PAIR_SUM_MAX_ROUNDS = 12

#: Tolerance on the imaginary residue of the pair-sum total.
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
    """<psi| H_C |psi> = sum_i x_i |v_i|^2."""
    return float(np.dot(state.classes, state.probabilities()))


# ---------------------------------------------------------------------------
# Characteristic functions
# ---------------------------------------------------------------------------


def characteristic_function(dist: Distribution, gamma: float) -> complex:
    """phi_X(gamma) = E[exp(i gamma X)]; |phi| <= 1.

    Supported for discrete laws (direct sum) and normal laws (closed
    form exp(i u gamma - s^2 gamma^2 / 2)); other continuous laws are
    rejected.
    """
    fn = getattr(dist, "characteristic_function", None)
    if fn is None:
        raise DomainError(f"characteristic function unavailable for {type(dist).__name__}")
    return fn(gamma)


def psi_function(dist: Distribution, q: PhaseFunction, gamma: float) -> complex:
    """Psi_X(gamma) = i * E[X * exp(i gamma q(X))]; -i Psi_X(0) = mu.

    For normal laws only the identity compilation is supported, where
    Psi equals the derivative of the characteristic function.
    """
    if isinstance(dist, DiscreteLaw):
        values = dist.spectrum.values
        masses = dist.spectrum.masses
        qa = np.array([float(q(float(x))) for x in values], dtype=np.float64)
        return 1j * complex(np.sum(values * masses * np.exp(1j * gamma * qa)))
    if isinstance(dist, NormalLaw):
        if q is not identity_phase:
            raise DomainError("normal laws support psi_function only with identity_phase")
        return dist.characteristic_derivative(gamma)
    raise DomainError(f"psi function unavailable for {type(dist).__name__}")


# ---------------------------------------------------------------------------
# Pair-sum expectation (identity compilation)
# ---------------------------------------------------------------------------


def _phi_tables(dist: Distribution, angles: AngleSchedule):
    """Characteristic-function lookups for the pair sum.

    Returns (phi(seg) on all O(r^2) distinct segment arguments as a
    dense [j0, j1] table over gamma prefix indices, phi'(d) on all
    distinct tail differences, and the tail per prefix index).
    """
    phi = getattr(dist, "characteristic_function", None)
    phid = getattr(dist, "characteristic_derivative", None)
    if phi is None or phid is None:
        raise DomainError(
            f"pair-sum expectation needs characteristic functions; {type(dist).__name__} has none"
        )
    r = angles.r
    pre = np.concatenate(([0.0], np.cumsum(np.asarray(angles.gammas, dtype=np.float64))))
    seg_args = pre[None, :] - pre[:, None]  # seg_args[j0, j1] = gamma_{j0+1} + ... + gamma_{j1}
    phi_table = np.asarray(phi(seg_args.ravel()), dtype=np.complex128).reshape(r + 1, r + 1)
    tails = pre[r] - pre  # tails[j] = sum of gammas after layer j
    diff = tails[None, :] - tails[:, None]
    phid_table = np.asarray(phid(diff.ravel()), dtype=np.complex128).reshape(r + 1, r + 1)
    return phi_table, phid_table


def expectation_pair_sum(dist: Distribution, angles: AngleSchedule) -> float:
    """Closed-form raw-cost expectation as a sum over all index-set pairs.

    Expanding every mixer layer ``U_M = I + B(beta) |s><s|`` with
    ``B(beta) = e^{i beta} - 1`` writes the final state as a sum over
    the 2^r subsets of layers whose projector term was taken.  Each
    subset contributes a product of characteristic-function factors
    ``phi`` over the gamma segments between consecutive selected layers
    and one ``B`` factor per selected layer; the expectation is the
    double sum over (bra, ket) subset pairs with the derivative factor
    ``phi'`` evaluated at the difference of the trailing gamma sums:

        E = -i * sum_{bra, ket} conj(W[bra]) W[ket] phi'(tail[ket] - tail[bra])

    All 4^r pairs are accumulated (chunked); the imaginary residue of
    the total must stay below 1e-9.  Layer counts above 12 are
    rejected.
    """
    r = angles.r
    if r > PAIR_SUM_MAX_ROUNDS:
        raise DomainError(f"pair-sum expectation is limited to r <= {PAIR_SUM_MAX_ROUNDS}, got {r}")
    phi_table, phid_table = _phi_tables(dist, angles)
    b_factors = np.exp(1j * np.asarray(angles.betas, dtype=np.float64)) - 1.0

    size = 1 << r
    w = np.empty(size, dtype=np.complex128)
    maxbit = np.empty(size, dtype=np.int64)
    w[0] = 1.0
    maxbit[0] = 0
    for mask in range(1, size):
        high = mask.bit_length() - 1  # highest selected layer, 0-based
        rest = mask ^ (1 << high)
        prev = rest.bit_length()  # highest layer of the remainder, as prefix index
        w[mask] = w[rest] * b_factors[high] * phi_table[prev, high + 1]
        maxbit[mask] = high + 1

    total = 0.0 + 0.0j
    w_conj = np.conj(w)
    chunk = 4096
    for start in range(0, size, chunk):
        stop = min(start + chunk, size)
        block = phid_table[maxbit[start:stop][:, None], maxbit[None, :]]
        total += np.einsum("i,ij,j->", w_conj[start:stop], block, w)
    value = -1j * total
    if abs(value.imag) > IMAG_RESIDUE_TOLERANCE:
        raise NumericalError(f"pair-sum expectation has imaginary residue {value.imag!r}")
    return float(value.real)


# ---------------------------------------------------------------------------
# Angle optimization
# ---------------------------------------------------------------------------


def _value_and_grad(theta: np.ndarray, w: np.ndarray, z: np.ndarray) -> Tuple[float, np.ndarray]:
    """``sum_i z_i |v_i|^2`` after the layers ``theta = (betas, gammas)``,
    and its exact gradient by the adjoint method.

    The forward pass keeps each layer's phase factors ``exp(i gamma_k z)``
    and pre-mixer state ``u_k``.  The backward pass carries the adjoint
    ``lam`` (``z * v`` after the last layer) back through each mixer
    (giving ``mu``) and each phase separator, and reads off

        dE/dbeta_k  = 2 Re(i e^{i beta_k} conj(w . lam_k) (w . u_k))
        dE/dgamma_k = 2 Re(i <mu_k, z * u_k>).
    """
    r = theta.size // 2
    phases = np.exp(1j * np.multiply.outer(theta[r:], z))
    turns = np.exp(1j * theta[:r])
    pre = np.empty_like(phases)
    v = w.astype(np.complex128)
    for k in range(r):
        pre[k] = u = phases[k] * v
        v = u + (turns[k] - 1.0) * np.dot(w, u) * w
    lam = z * v
    value = float(np.vdot(v, lam).real)
    grad = np.empty(2 * r)
    for k in range(r - 1, -1, -1):
        u = pre[k]
        w_lam = np.dot(w, lam)
        grad[k] = 2.0 * (1j * turns[k] * np.conj(w_lam) * np.dot(w, u)).real
        mu = lam + np.conj(turns[k] - 1.0) * w_lam * w
        grad[r + k] = 2.0 * (1j * np.vdot(mu, z * u)).real
        lam = np.conj(phases[k]) * mu
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
    rng = np.random.default_rng(seed)
    starts = [np.full(2 * r, math.pi)]
    if warm_start is not None:
        betas = np.asarray(warm_start.betas, dtype=np.float64)
        gammas = sigma * np.asarray(warm_start.gammas, dtype=np.float64)
        pad = np.zeros(r - warm_start.r)
        padded = np.concatenate([betas, pad, gammas, pad])
        padded_score = _value_and_grad(padded, w, z)[0]
        if padded_score < best_score:
            best_theta, best_score = padded, padded_score
        starts.append(np.concatenate([_interp(betas, r), _interp(gammas, r)]))
    for _ in range(restarts - 1):
        betas = rng.uniform(0.0, 2.0 * math.pi, size=r)
        gammas = rng.uniform(0.0, 2.0 * math.pi, size=r)
        starts.append(np.concatenate([betas, gammas]))

    cap = EVALUATIONS_PER_LAYER * r
    capped = None
    for index, theta0 in enumerate(starts):
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
