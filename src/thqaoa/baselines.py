"""Classical random sampling (CRS) baselines.

The classical reference strategy draws ``k`` independent samples from
the solution space and keeps the best (minimum) cost.  At ``r``
amplification rounds the matched computational effort is ``k = 2r``
draws.  Three evaluators are provided:

* :func:`crs_blom` -- the Blom asymptotic approximation for the
  expected minimum of ``k`` i.i.d. normal draws,
* :func:`crs_expected_min` -- the exact first-order-statistic value
  ``E[min] = integral of quantile(u) * k * (1-u)^(k-1) du`` by adaptive
  quadrature (exact summation on discrete laws),
* :func:`crs_monte_carlo` -- a seeded, chunk-deterministic Monte Carlo
  backstop, which draws each trial's minimum directly from one uniform.
"""

from __future__ import annotations

import math
import warnings
from typing import Tuple

import numpy as np

from .dist_core import DiscreteLaw, Distribution, _lazy_import
from .errors import DomainError, NumericalError
from .grover_kernel import _check_rounds, _float_or_inf

integrate = _lazy_import("scipy.integrate")
special = _lazy_import("scipy.special")

__all__ = [
    "BLOM_CONTINUITY_CONSTANT",
    "DEFAULT_EFFORT_FACTOR",
    "crs_blom",
    "crs_expected_min",
    "crs_monte_carlo",
]

#: Continuity correction in the Blom plotting-position formula.
BLOM_CONTINUITY_CONSTANT = 0.375

#: Matched classical effort per amplification round: k = 2r draws.
DEFAULT_EFFORT_FACTOR = 2

#: Trials per deterministic Monte Carlo chunk (the counter-based
#: generator is re-keyed per chunk, so results do not depend on how
#: chunks are scheduled).
_MC_CHUNK_TRIALS = 4096


def _check_samples(k: int) -> int:
    if int(k) != k or k < 1:
        raise DomainError(f"sample count must be a positive integer, got {k!r}")
    if math.isinf(_float_or_inf(int(k))):  # every evaluator turns k into a double
        raise DomainError(f"sample count must be a finite double (below 2**1024), got {int(k)}")
    return int(k)


def crs_blom(u: float, s: float, r: int, effort_factor: int = DEFAULT_EFFORT_FACTOR) -> float:
    """Blom approximation to the expected minimum of ``2r`` normal draws.

    For a normal law with location ``u`` and scale ``s`` the expected
    minimum of ``k = effort_factor * r`` draws is approximately

        u + s * ndtri((1 - c) / (k - 2c + 1)),   c = 0.375.

    The result is affine in ``(u, s)``.
    """
    if not (s > 0.0) or not (math.isfinite(u) and math.isfinite(s)):
        raise DomainError(f"blom approximation requires finite u and s > 0, got u={u!r}, s={s!r}")
    k = _check_samples(int(effort_factor) * _check_rounds(r))
    c = BLOM_CONTINUITY_CONSTANT
    return u + s * float(special.ndtri((1.0 - c) / (k - 2.0 * c + 1.0)))


def _discrete_expected_min(dist: DiscreteLaw, k: int) -> float:
    values = dist.spectrum.values
    survival = np.concatenate((dist.spectrum.mass_suffix, [0.0]))
    # P(min = x_i) = P(all draws >= x_i) - P(all draws >= x_{i+1}).
    powers = survival**k
    return float(np.dot(values, powers[:-1] - powers[1:]))


def _continuous_expected_min(dist: Distribution, k: int) -> float:
    def integrand(u: float) -> float:
        return dist.quantile(u) * k * (1.0 - u) ** (k - 1)

    # The order-statistic weight k*(1-u)^(k-1) concentrates on
    # u = O(1/k); give the adaptive rule explicit break points there.
    breaks = sorted({t / k for t in (0.125, 0.5, 1.0, 2.5, 6.0, 15.0, 40.0)} | {0.5})
    points = [b for b in breaks if 0.0 < b < 1.0]
    with warnings.catch_warnings():  # a failed rule warns; the abserr check below raises
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, abserr = integrate.quad(
            integrand, 0.0, 1.0, points=points, limit=400, epsabs=1e-10, epsrel=1e-10
        )
    if not math.isfinite(value) or abserr > 1e-8 * max(1.0, abs(value)):
        raise NumericalError(
            f"expected-minimum integral did not converge (value={value!r}, abserr={abserr!r})"
        )
    return float(value)


def crs_expected_min(dist: Distribution, k: int) -> float:
    """Exact expected minimum of ``k`` i.i.d. draws from ``dist``.

    Discrete laws are summed exactly over the support; continuous laws
    use adaptive quadrature of the quantile-space integral
    ``E[min] = integral_0^1 quantile(u) * k * (1-u)^(k-1) du``, whose
    error estimate must be at most ``1e-8 * max(1, |E|)``: absolute below
    ``|E| = 1`` and relative above.  ``k`` must be below ``2**1024``, and on a
    continuous law below ``2**52``, past which the weight lives where
    ``1 - u`` rounds to 1 or to one of a few doubles; ``DomainError`` is
    raised beyond.  An integral that does not converge, as at most k
    from about 2e9 on, raises ``NumericalError``.
    """
    k = _check_samples(k)
    if isinstance(dist, DiscreteLaw):
        return _discrete_expected_min(dist, k)
    if k >= 2**52:
        raise DomainError(f"the integral takes k < 2**52 draws on a continuous law, got k = {k}")
    return _continuous_expected_min(dist, k)


def crs_monte_carlo(
    dist: Distribution, k: int, trials: int, seed: int = 0
) -> Tuple[float, float]:
    """Monte Carlo estimate of the expected minimum of ``k`` draws.

    Returns ``(mean, stderr)`` over ``trials`` independent minima.
    Each trial's minimum of ``k < 2**1024`` uniforms is drawn directly
    from one uniform ``V`` as ``u_min = 1 - (1 - V)^(1/k)``, the inverse
    of its law ``P(u_min > x) = (1 - x)^k``, so the cost does not grow
    with ``k``; the minimum is then ``quantile(u_min)``, as the quantile
    map is non-decreasing.  The counter-based generator is keyed
    ``(seed, chunk_index)`` with a fixed chunk size, so results are
    deterministic and chunks may be evaluated in any order or in parallel.
    """
    k = _check_samples(k)
    if int(trials) != trials or trials < 1:
        raise DomainError(f"trial count must be a positive integer, got {trials!r}")
    trials = int(trials)
    if int(seed) != seed or seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}")
    seed = int(seed)

    total = 0.0
    total_sq = 0.0
    done = 0
    chunk_index = 0
    while done < trials:
        m = min(_MC_CHUNK_TRIALS, trials - done)
        rng = np.random.Generator(np.random.Philox(key=[seed, chunk_index]))
        u_min = -np.expm1(np.log1p(-rng.random(m)) / float(k))
        x = np.asarray(dist.quantile_vec(u_min), dtype=np.float64)
        total += float(np.sum(x))
        total_sq += float(np.dot(x, x))
        done += m
        chunk_index += 1

    mean = total / trials
    if trials == 1:
        return mean, math.inf
    var = max(0.0, (total_sq - trials * mean * mean) / (trials - 1))
    return mean, math.sqrt(var / trials)
