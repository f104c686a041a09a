"""Performance bounds for Grover-based schedules.

Contents:

* :func:`kappa` -- the asymptotic slope of the best achievable
  standard score per round, ``kappa = 2 sin^2(x1)/x1`` with ``x1`` the
  smallest positive root of ``2x = tan x``.
* :func:`c_th` -- the exact per-round score ceiling: the maximum of
  ``(P(rho, r) - rho)/sqrt(rho(1-rho))`` over the marked mass, attained
  by a two-point law; :func:`c_ths` searches many round counts at once.
* :func:`max_amplification_floor` -- the expectation floor obtained by
  granting every low-cost state the maximal amplification ``(2r+1)^2``.
  Its report also carries the universal score cap ``2 sqrt(r(r+1))``.
  Its per-r core ``_floor_terms`` serves round searches that need the
  floor alone, without the law-constant round counts of the report.
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
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .dist_core import DiscreteLaw, Distribution, _math_map
from .dist_models import EmpiricalLaw
from .errors import DomainError
from .gmqaoa import PhaseFunction, simulate
from .gmth import _golden_section_argmin_batch, _round_terms, min_rounds_exact_opt
from .grover_kernel import AngleSchedule, _check_rounds

__all__ = [
    "BoundReport",
    "kappa",
    "c_th",
    "c_ths",
    "max_amplification_floor",
    "grover_based_min_rounds_exact",
    "quantile_sandwich",
    "simulated_amplification",
]

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


def c_th(r: int) -> Tuple[float, float]:
    """Best achievable standard score after r rounds, over all laws.

    Maximizes ``(P(rho,r) - rho)/sqrt(rho(1-rho))``; the maximum is
    attained by the two-point law with the returned marked mass.
    Returns ``(rho_star, C_Th)``: :func:`c_ths` for the one round count.
    """
    return c_ths([r])[0]


def c_ths(rounds: Iterable[int]) -> List[Tuple[float, float]]:
    """:func:`c_th` for each round count in ``rounds``, in order.

    One golden-section search per round in log-mass over
    ``(0, threshold_ratio(r)]`` (the optimum sits at a constant fraction
    of the certainty ratio), all of them stepped in lockstep on numpy
    arrays by the threshold optimizer's helper.  Each search takes the
    steps of a scalar golden-section search of its round alone (kept in
    ``tests/oracles.py`` as the reference), so every result equals that
    search's bit for bit.

    ``P`` keeps numpy's ``arcsin`` and ``sin``, the path fig1's pinned
    values were computed on: ``math`` differs from it in the last bit
    for about 1.4% of the masses searched.  The rest of the score is
    correctly rounded arithmetic, the same on any path.
    """
    rounds = [_check_rounds(r) for r in rounds]
    if not rounds:
        return []
    rho_th, k = _round_terms(rounds)
    hi = _math_map(math.log, rho_th)
    lo = hi + math.log(1e-6)

    def value_at(v: np.ndarray, idx) -> np.ndarray:
        rho = _math_map(math.exp, v)
        s = np.sin(k[idx] * np.arcsin(np.sqrt(rho)))
        p = np.where(rho >= rho_th[idx], 1.0, s * s)
        return -((p - rho) / np.sqrt(rho * (1.0 - rho)))

    v, value = _golden_section_argmin_batch(value_at, lo, hi, 1e-13)
    return list(zip(_math_map(math.exp, v).tolist(), (-value).tolist()))


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
