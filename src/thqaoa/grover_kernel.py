"""The Grover probability kernel.

Everything in this package that touches amplitude amplification reduces
to one kernel: given a marked-state mass ``rho`` and ``r`` mixing
rounds, the optimal probability of measuring a marked state is

    P(rho, r) = sin^2((2r + 1) * arcsin(sqrt(rho)))   for rho <= rho_Th(r)
    P(rho, r) = 1                                     for rho >  rho_Th(r)

where ``rho_Th(r) = sin^2(pi / (4r + 2))`` is the threshold ratio at
which exactly ``r`` rounds of pi-angles reach probability 1.  Above the
threshold, probability 1 is still attainable by running ``k < r``
pi-rounds followed by one fine-tuned (beta, gamma) pair; this module
computes that schedule in closed form (:func:`optimal_binary_angles`).

P has one implementation, :func:`grover_probability_vec`, over arrays
of masses and their :func:`_round_terms`; :func:`grover_probability`
is it on one element.  ``asin`` and ``sin`` are :mod:`math`'s, mapped
over the elements (numpy's differ from libm in the last bit on a few
percent of doubles), and the rest is correctly rounded numpy, so each
element depends on its own ``(rho, r)`` alone.  Only ``bounds.c_ths``
keeps numpy's ``arcsin`` and ``sin``, on which fig1's pinned bytes rest.

The polynomial form of P (an alternating binomial sum) is provided for
cross-validation, and the amplification ratio eta = P / rho, bounded by
(2r + 1)^2 (:func:`_amplification_caps`), backs the maximum-amplification bound.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .dist_core import _math_map
from .errors import DomainError

__all__ = [
    "AngleSchedule",
    "threshold_ratio",
    "grover_probability",
    "grover_probability_poly",
    "optimal_binary_angles",
    "amplification_ratio",
    "POLY_MAX_ROUNDS",
]

#: Largest layer count accepted by the polynomial form (conditioning limit).
POLY_MAX_ROUNDS = 30

#: Largest round count accepted: the kernel takes 4r + 2 in doubles, which
#: stays finite up to here.
_MAX_ROUNDS = 2**1020


@dataclass(frozen=True)
class AngleSchedule:
    """Per-layer mixing angles ``betas`` and phase angles ``gammas`` (radians)."""

    betas: Tuple[float, ...]
    gammas: Tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "betas", tuple(float(b) for b in self.betas))
        object.__setattr__(self, "gammas", tuple(float(g) for g in self.gammas))
        if len(self.betas) != len(self.gammas):
            raise DomainError(
                f"betas and gammas must have equal length, got {len(self.betas)} and {len(self.gammas)}"
            )
        if len(self.betas) < 1:
            raise DomainError("an angle schedule needs at least one layer")

    @property
    def r(self) -> int:
        return len(self.betas)


def _check_rounds(r) -> int:
    if int(r) != r or r < 1:
        raise DomainError(f"round count must be a positive integer, got {r!r}")
    if r > _MAX_ROUNDS:
        raise DomainError(f"round count must be at most 2**1020, got {r!r}")
    return int(r)


def _float_or_inf(n: int) -> float:
    """``float(n)`` for an integer ``n >= 0``, and inf where ``float`` raises.

    Caps such as ``(2r + 1)^2`` pass the double range for the largest
    accepted round counts; inf is the value they round to there.
    """
    try:
        return float(n)
    except OverflowError:
        return math.inf


def _threshold_ratio_any(r: int) -> float:
    """sin^2(pi / (4r + 2)) for r >= 0 (r = 0 gives 1, used internally)."""
    s = math.sin(math.pi / (4.0 * r + 2.0))
    return s * s


def threshold_ratio(r: int) -> float:
    """The marked-mass ratio at which r pi-angle rounds reach probability 1.

    Strictly decreasing in r.  threshold_ratio(1) is sin^2(pi/6) = 1/4,
    computed in doubles as 0.24999999999999994.
    """
    return _threshold_ratio_any(_check_rounds(r))


def _round_terms(rounds: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    """``threshold_ratio(r)`` and ``k = 2r + 1`` for each checked round count."""
    rho_th = np.array([_threshold_ratio_any(r) for r in rounds], dtype=np.float64)
    k = np.array([2.0 * r + 1.0 for r in rounds], dtype=np.float64)
    return rho_th, k


def _amplification_caps(rounds: Sequence[int]) -> np.ndarray:
    """The cap ``(2r + 1)^2`` on eta per checked round count: inf past r ~ 6.7e153."""
    return np.array([_float_or_inf((2 * r + 1) ** 2) for r in rounds], dtype=np.float64)


def grover_probability(rho: float, r: int) -> float:
    """Optimal probability of measuring a marked state after r rounds.

    Equals ``sin^2((2r + 1) arcsin(sqrt(rho)))`` for ``rho`` at or below
    the threshold ratio and exactly 1 above it (fine-tuned angles);
    continuous at the junction.  :func:`grover_probability_vec` of one element.
    """
    r = _check_rounds(r)
    if not (0.0 <= rho <= 1.0):
        raise DomainError(f"marked ratio must lie in [0, 1], got {rho!r}")
    rho_th, k = _round_terms([r])
    return grover_probability_vec(np.array([rho], dtype=np.float64), rho_th, k).item()


def grover_probability_vec(rho: np.ndarray, rho_th, k) -> np.ndarray:
    """P(rho, r) elementwise, for marked masses ``rho`` in [0, 1].

    ``rho_th = threshold_ratio(r)`` and ``k = 2r + 1`` (:func:`_round_terms`)
    are each one value or one per element.  A zero mass gives 0 even
    where ``rho_th`` underflows to 0, past r ~ 1e161.
    """
    s = _math_map(math.sin, k * _math_map(math.asin, np.sqrt(rho)))
    return np.where((rho >= rho_th) & (rho > 0.0), 1.0, s * s)


def grover_probability_poly(rho: float, r: int) -> float:
    """Polynomial form of P(rho, r), valid at or below the threshold ratio.

    P = rho * (sum_{k=0}^{r} (-1)^k C(2r+1, 2k+1) rho^k (1-rho)^{r-k})^2

    Evaluated with compensated summation; restricted to r <= 30 because
    the alternating binomial weights lose precision beyond that (the
    sine form is the primary evaluator).
    """
    r = _check_rounds(r)
    if r > POLY_MAX_ROUNDS:
        raise DomainError(f"polynomial form is limited to r <= {POLY_MAX_ROUNDS}, got {r}")
    if not (0.0 <= rho <= 1.0):
        raise DomainError(f"marked ratio must lie in [0, 1], got {rho!r}")
    if rho > _threshold_ratio_any(r):
        raise DomainError(
            f"polynomial form requires rho <= threshold_ratio(r) = {_threshold_ratio_any(r)!r}, got {rho!r}"
        )
    terms = [
        (-1.0) ** k * math.comb(2 * r + 1, 2 * k + 1) * rho**k * (1.0 - rho) ** (r - k)
        for k in range(r + 1)
    ]
    amplitude = math.fsum(terms)
    return rho * amplitude * amplitude


def optimal_binary_angles(rho: float, r: int) -> AngleSchedule:
    """The r-layer schedule maximizing the marked-state probability of a
    binary (marked / unmarked) phase function at marked mass ``rho``.

    * ``rho <= threshold_ratio(r)``: all angles pi (pure amplitude
      amplification; probability ``grover_probability(rho, r)``).
    * ``rho > threshold_ratio(r)``: pi-angles for the first k layers,
      where k < r is the largest round count whose threshold ratio still
      exceeds ``rho``, then one fine-tuned (beta, gamma) pair that lands
      the state exactly on the marked subspace (probability 1), then
      zeros.

    The fine-tuned pair solves, in the two-dimensional span of the
    marked/unmarked components with amplitudes (A, B) after k pi-rounds,

        cos(gamma) = B (2 rho - 1) / (2 A sqrt(rho (1 - rho))),
        e^{i beta} = 1 - B / (sqrt(rho(1-rho)) e^{-i gamma} A + (1-rho) B),

    the unique choice (up to conjugation) making the mixer cancel the
    unmarked amplitude entirely.  For r = 1 this reduces to
    beta = -gamma = atan2(-sqrt(4 rho - 1), 2 rho - 1).

    Kept for acceptance criterion 04, which simulates its schedule.
    """
    r = _check_rounds(r)
    if not (0.0 < rho < 1.0):
        raise DomainError(f"fine-tuned angles require 0 < rho < 1, got {rho!r}")
    if rho <= _threshold_ratio_any(r):
        return AngleSchedule((math.pi,) * r, (math.pi,) * r)

    theta = math.asin(math.sqrt(rho))
    # Largest k >= 0 with rho <= threshold_ratio(k); k < r is guaranteed
    # because rho exceeds threshold_ratio(r) and ratios decrease in r.
    k = int(math.floor((math.pi / theta - 2.0) / 4.0))
    k = max(0, min(k, r - 1))
    while k > 0 and rho > _threshold_ratio_any(k):
        k -= 1
    while k + 1 < r and rho <= _threshold_ratio_any(k + 1):
        k += 1

    a = math.sin((2.0 * k + 1.0) * theta)
    b = math.cos((2.0 * k + 1.0) * theta)
    sq = math.sqrt(rho * (1.0 - rho))
    cos_gamma = b * (2.0 * rho - 1.0) / (2.0 * a * sq)
    gamma = math.acos(max(-1.0, min(1.0, cos_gamma)))
    denom = sq * cmath.exp(-1j * gamma) * a + (1.0 - rho) * b
    phase = 1.0 - b / denom
    beta = math.atan2(phase.imag, phase.real)

    betas = (math.pi,) * k + (beta,) + (0.0,) * (r - k - 1)
    gammas = (math.pi,) * k + (gamma,) + (0.0,) * (r - k - 1)
    return AngleSchedule(betas, gammas)


def amplification_ratio(rho: float, r: int) -> float:
    """eta(rho, r) = P(rho, r) / rho, the marked-mass amplification.

    Bounded above by (2r + 1)^2 up to rounding, with the bound saturated
    as rho -> 0: where r^2 rho is below about 1e-16 the float ratio can
    pass the cap by 1-2 ulps (``amplification_ratio(1e-300, 1)`` is
    9.000000000000002).
    """
    r = _check_rounds(r)
    if not (0.0 < rho <= 1.0):
        raise DomainError(f"amplification requires 0 < rho <= 1, got {rho!r}")
    return grover_probability(rho, r) / rho
