"""Performance bounds for Grover-based schedules.

Contents:

* :func:`kappa` -- the asymptotic slope of the best achievable
  standard score per round, ``kappa = 2 sin^2(x1)/x1`` with ``x1`` the
  smallest positive root of ``2x = tan x``.
* :func:`c_th` -- the exact per-round score ceiling: the maximum of
  ``(P(rho, r) - rho)/sqrt(rho(1-rho))`` over the marked mass, attained
  by a two-point law.
* :func:`max_amplification_floor` -- the expectation floor obtained by
  granting every low-cost state the maximal amplification ``(2r+1)^2``.
  Its per-r core ``_floor_terms`` serves round searches that need the
  floor alone, without the law-constant round counts of the report.
* :func:`score_cap_min_rounds` -- the score cap ``2 sqrt(r(r+1))`` and the
  induced minimum round count to reach a target approximation ratio.
* :func:`grover_based_min_rounds_exact` -- rounds needed before the
  optimum can even be measured with probability 1.
* :func:`quantile_sandwich` -- the asymptotic two-sided envelope of the
  quantile reached by the optimized expectation.
* :func:`simulated_amplification` -- measured per-class amplification
  of a simulated run, for empirical confirmation of the
  ``(2r+1)^2`` cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .dist_core import DiscreteLaw, Distribution
from .dist_models import EmpiricalLaw
from .errors import DomainError
from .gmqaoa import PhaseFunction, simulate
from .gmth import min_rounds_exact_opt
from .grover_kernel import AngleSchedule, grover_probability_vec, threshold_ratio

__all__ = [
    "BoundReport",
    "kappa",
    "c_th",
    "max_amplification_floor",
    "score_cap_min_rounds",
    "grover_based_min_rounds_exact",
    "quantile_sandwich",
    "simulated_amplification",
]

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class BoundReport:
    """Bundle of the bounds that apply to one (law, round-count) pair.

    ``tau1`` is the largest support value whose cdf stays within the
    maximal amplification budget ``1/(2r+1)^2`` (``-inf`` when even the
    support minimum exceeds it), ``tau2`` the first value beyond, and
    ``E_floor`` the amplification-capped expectation floor.  ``C_cap``
    is the universal score cap ``2 sqrt(r(r+1))``; ``quantile_bounds``
    the (low, high) envelope of :func:`quantile_sandwich` for the
    report's tail constant ``L``.  The two minimum-round counts (rounds
    to certainty via the threshold schedule, and the universal
    Grover-based lower bound) are present for discrete laws only.
    """

    r: int
    tau1: float
    tau2: float
    E_floor: float
    C_cap: float
    quantile_bounds: Tuple[float, float]
    min_rounds_exact: Optional[int]
    min_rounds_grover: Optional[int]


def kappa() -> Tuple[float, float]:
    """Root x1 of 2x = tan(x) on (pi/4, pi/2) and kappa = 2 sin^2(x1)/x1.

    Bisection to 1e-14: the function 2x - tan(x) is positive at pi/4
    and falls to -inf at pi/2, so the bracket holds a single sign
    change.
    """
    lo, hi = math.pi / 4.0, math.pi / 2.0 - 1e-12
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        if 2.0 * mid - math.tan(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    x1 = 0.5 * (lo + hi)
    return x1, 2.0 * math.sin(x1) ** 2 / x1


def _score_of_mass(rho: np.ndarray, r: int) -> np.ndarray:
    p = grover_probability_vec(rho, r)
    return (p - rho) / np.sqrt(rho * (1.0 - rho))


def c_th(r: int) -> Tuple[float, float]:
    """Best achievable standard score after r rounds, over all laws.

    Maximizes ``(P(rho,r) - rho)/sqrt(rho(1-rho))``; the maximum is
    attained by the two-point law with the returned marked mass.
    Golden-section search in log-mass over ``(0, threshold_ratio(r)]``
    (the optimum sits at a constant fraction of the certainty ratio).
    Returns ``(rho_star, C_Th)``.
    """
    r = _check_rounds(r)
    rho_th = threshold_ratio(r)
    hi = math.log(rho_th)
    lo = hi + math.log(1e-6)

    def value_at(v: float) -> float:
        return -float(_score_of_mass(np.array([math.exp(v)]), r)[0])

    a, b = lo, hi
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = value_at(c), value_at(d)
    while (b - a) > 1e-13:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = value_at(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = value_at(d)
    v = c if fc <= fd else d
    rho_star = math.exp(v)
    return rho_star, -value_at(v)


def max_amplification_floor(
    dist: Distribution, r: int, L: Optional[float] = None
) -> BoundReport:
    """Expectation floor under the per-class amplification cap (2r+1)^2.

    Grant every cost class, in ascending order, the maximal
    amplification until the budget ``1/(2r+1)^2`` of initial mass is
    exhausted; park the remaining probability on the next value.  With
    ``tau1`` the largest support value with ``F(tau1) <= 1/(2r+1)^2``
    and ``tau2`` the next one,

        E_floor = G(tau1)*(2r+1)^2 + tau2*(1 - F(tau1)*(2r+1)^2).

    When no support value qualifies, ``tau1 = -inf`` with F = G = 0 and
    the floor degrades to ``tau2`` (the support minimum).  For a
    continuous law the budget is hit exactly at the quantile, so
    ``E_floor = E[X | X <= quantile(1/(2r+1)^2)]`` and tau2 = tau1.

    ``L`` is the law's tail constant used for the report's quantile
    envelope; when omitted the envelope carries the unscaled shape
    factors ``(1/(4r^2), pi^2/(16 r^2))``.

    This wrapper adds the two round counts that depend on the law alone
    to the per-r terms of :func:`_floor_terms`.  Callers that scan many
    r and need only ``E_floor`` call that core directly; callers that
    need whole reports for many r use :func:`_floor_reports`, which
    computes the round counts once.
    """
    return _floor_reports(dist, [r], L)[0]


def _floor_terms(dist: Distribution, r: int) -> Tuple[float, float, float]:
    """Per-r core of :func:`max_amplification_floor`: ``(tau1, tau2, E_floor)``."""
    r = _check_rounds(r)
    den = float((2 * r + 1) ** 2)
    cap = 1.0 / den
    if isinstance(dist, DiscreteLaw):
        values = dist.spectrum.values
        prefix = dist.spectrum.mass_prefix
        idx = int(np.searchsorted(prefix, cap, side="right")) - 1
        if idx < 0:
            tau1, f1, g1 = -math.inf, 0.0, 0.0
            tau2 = float(values[0])
        else:
            tau1 = float(values[idx])
            f1 = float(prefix[idx])
            g1 = float(dist.spectrum.gain_prefix[idx])
            tau2 = float(values[min(idx + 1, values.size - 1)])
        return tau1, tau2, g1 * den + tau2 * (1.0 - f1 * den)
    tau1 = dist.quantile(cap)
    return tau1, tau1, dist.partial_expectation(tau1) * den


def _floor_reports(
    dist: Distribution, rounds: Sequence[int], L: Optional[float] = None
) -> List[BoundReport]:
    """One :func:`max_amplification_floor` report per round count.

    ``min_rounds_exact`` and ``min_rounds_grover`` depend on the law
    alone, so they are computed once for all of ``rounds``.
    """
    rounds = [_check_rounds(r) for r in rounds]
    if isinstance(dist, DiscreteLaw):
        min_exact: Optional[int] = min_rounds_exact_opt(dist)
        min_grover: Optional[int] = _grover_min_rounds_of_law(dist)
    else:
        min_exact = min_grover = None
    reports = []
    for r in rounds:
        tau1, tau2, e_floor = _floor_terms(dist, r)
        reports.append(
            BoundReport(
                r=r,
                tau1=tau1,
                tau2=tau2,
                E_floor=e_floor,
                C_cap=2.0 * math.sqrt(r * (r + 1.0)),
                quantile_bounds=(
                    quantile_sandwich(r, L)
                    if L is not None
                    else (0.25 / r**2, math.pi**2 / (16.0 * r**2))
                ),
                min_rounds_exact=min_exact,
                min_rounds_grover=min_grover,
            )
        )
    return reports


def _check_rounds(r: int) -> int:
    if int(r) != r or r < 1:
        raise DomainError(f"round count must be a positive integer, got {r!r}")
    return int(r)


def score_cap_min_rounds(dist: Distribution, r: int, lam: float) -> Tuple[float, int]:
    """Score cap 2*sqrt(r(r+1)) and minimum rounds for ratio ``lam``.

    The round count is the smallest integer satisfying the implicit
    inequality ``r >= (mu - lam*R_min)/(2*sigma*sqrt(1 + 1/r))``, found
    by the fixed-point iteration r <- ceil(rhs(r)) from r = 1.  The
    iterates increase strictly below the least solution and stabilize
    exactly on it, so the loop terminates in a handful of steps.  A
    target with ``mu - lam*R_min <= 0`` makes the bound vacuous and
    returns ``r_min = 1``.
    """
    r = _check_rounds(r)
    r_min_val = dist.r_min
    if not math.isfinite(r_min_val) or r_min_val == 0.0:
        raise DomainError("the minimum-round bound needs a finite nonzero support minimum")
    c_cap = 2.0 * math.sqrt(r * (r + 1.0))
    k = (dist.mean - lam * r_min_val) / (2.0 * dist.std)
    if k <= 0.0:
        return c_cap, 1
    current = 1
    for _ in range(64):
        nxt = max(1, math.ceil(k / math.sqrt(1.0 + 1.0 / current) - 1e-12))
        if nxt == current:
            break
        current = nxt
    return c_cap, current


def grover_based_min_rounds_exact(f_min: float) -> int:
    """Rounds below which no Grover-based schedule can reach the optimum
    with certainty: smallest integer r >= (1/sqrt(f_min) - 1)/2.
    """
    if not 0.0 < f_min <= 1.0:
        raise DomainError(f"optimum mass must lie in (0, 1], got {f_min!r}")
    return max(0, math.ceil(0.5 * (1.0 / math.sqrt(f_min) - 1.0) - 1e-12))


def _grover_min_rounds_of_law(dist: DiscreteLaw) -> int:
    """:func:`grover_based_min_rounds_exact` of the law's optimum mass.

    For an :class:`EmpiricalLaw` the count is exact at any size: the
    smallest r with ``(2r+1)^2 * c0 >= N``, with ``c0`` the multiplicity
    of the minimum and ``N`` the total count, found with ``math.isqrt``.
    The float formula, whose square root goes wrong once the count
    passes about 2^50, serves the other discrete laws.
    """
    if not isinstance(dist, EmpiricalLaw):
        return grover_based_min_rounds_exact(dist.min_mass())
    need = -(-dist.total_count // dist.multiplicities[0])  # (2r+1)^2 >= ceil(N / c0)
    root = math.isqrt(need)
    side = root if root * root == need else root + 1  # smallest s with s^2 >= need
    return side // 2  # smallest r with 2r + 1 >= side


def quantile_sandwich(r: int, L: float) -> Tuple[float, float]:
    """Asymptotic envelope (L/(4r^2), L*pi^2/(16 r^2)) of the optimal
    expectation's quantile; the two ends differ by pi^2/4 for every r.
    """
    r = _check_rounds(r)
    if not 0.0 < L < 1.0:
        raise DomainError(f"tail constant must lie in (0, 1), got {L!r}")
    return L / (4.0 * r * r), L * math.pi**2 / (16.0 * r * r)


def simulated_amplification(
    dist: Distribution,
    q: PhaseFunction,
    angles: AngleSchedule,
    class_value: float,
) -> float:
    """Measured amplification |v_class|^2 / f_class of one cost class
    after simulating the schedule.  The class must carry mass.
    """
    if not isinstance(dist, DiscreteLaw):
        raise DomainError("amplification measurements need a discrete law")
    values = dist.spectrum.values
    idx = int(np.searchsorted(values, class_value))
    if idx >= values.size or values[idx] != class_value:
        raise DomainError(f"cost class {class_value!r} is not in the spectrum")
    mass = float(dist.spectrum.masses[idx])
    if mass <= 0.0:
        raise DomainError(f"cost class {class_value!r} carries no mass")
    state = simulate(dist, q, angles)
    return float(np.abs(state.amplitudes[idx]) ** 2) / mass
