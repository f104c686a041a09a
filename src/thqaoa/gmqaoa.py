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
* :func:`optimize_angles` -- best-of-restarts Nelder-Mead search over
  the 2r angles on the simulator objective.

Phase functions: a ``PhaseFunction`` is any callable mapping a cost
value to the real phase-generator value the separator exponentiates.
:func:`identity_phase` gives plain GM-QAOA; :func:`threshold_phase`
gives the -1/0 threshold compilation; any other callable gives a
general Grover-based schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np
from scipy import optimize as _sciopt

from ._backend import BACKEND, evolve
from .dist_core import DiscreteLaw, Distribution
from .dist_models import NormalLaw
from .errors import DomainError, NumericalError
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
    "BACKEND",
]

#: Maximum layer count of the pair-sum expectation formula (O(4^r) terms).
PAIR_SUM_MAX_ROUNDS = 12

#: Tolerance on the imaginary residue of the pair-sum total.
IMAG_RESIDUE_TOLERANCE = 1e-9

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


def optimize_angles(
    dist: Distribution,
    r: int,
    restarts: int = 20,
    seed: int = 0,
    warm_start: Optional[AngleSchedule] = None,
) -> Tuple[AngleSchedule, float]:
    """Best-of-restarts Nelder-Mead minimization of the simulated
    raw-cost expectation over the 2r angles.

    Seeds: the all-pi point (which captures the amplitude-amplification
    regime), the optional ``warm_start`` schedule padded with identity
    layers (zero angles) up to length ``r``, plus ``restarts - 1``
    uniform draws with beta in [0, 2pi) and gamma in [0, 2pi/sigma) --
    gamma couples to raw cost values, so its natural scale is inversely
    proportional to the cost spread.  Restarts are independent (they
    could run in parallel); the reduction keeps the minimum, with ties
    broken by restart index.  The zero schedule (expectation mu) is
    always a candidate, so the result never exceeds mu; with a warm
    start it never exceeds the warm start's own expectation either, so
    a sweep that threads each optimum into the next layer count yields
    a non-increasing sequence.
    """
    law = _require_discrete(dist)
    r = _check_rounds(r)
    if restarts < 1:
        raise DomainError(f"restarts must be at least 1, got {restarts!r}")
    if warm_start is not None and warm_start.r > r:
        raise DomainError(
            f"warm start has {warm_start.r} layers, more than the requested {r}"
        )

    values = law.spectrum.values
    w = np.sqrt(law.spectrum.masses)

    def objective(theta: np.ndarray) -> float:
        theta = np.ascontiguousarray(theta, dtype=np.float64)
        v = w.astype(np.complex128)
        evolve(w, values, theta[:r], theta[r:], v)
        return float(np.dot(values, np.abs(v) ** 2))

    rng = np.random.default_rng(seed)
    seeds = [np.full(2 * r, math.pi)]
    if warm_start is not None:
        pad = r - warm_start.r
        seeds.append(
            np.concatenate(
                [warm_start.betas, np.zeros(pad), warm_start.gammas, np.zeros(pad)]
            )
        )
    gamma_scale = 2.0 * math.pi / law.std
    for _ in range(restarts - 1):
        betas = rng.uniform(0.0, 2.0 * math.pi, size=r)
        gammas = rng.uniform(0.0, gamma_scale, size=r)
        seeds.append(np.concatenate([betas, gammas]))

    best_theta = np.zeros(2 * r)
    best_value = law.mean  # zero schedule: initial state, expectation mu
    for theta0 in seeds:
        result = _sciopt.minimize(
            objective,
            theta0,
            method="Nelder-Mead",
            options={
                "maxiter": 400 * r,
                "maxfev": 400 * r,
                "xatol": 1e-8,
                "fatol": 1e-11,
            },
        )
        if result.fun < best_value:
            best_value = float(result.fun)
            best_theta = result.x
    schedule = AngleSchedule(tuple(best_theta[:r]), tuple(best_theta[r:]))
    return schedule, float(best_value)
