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
  backstop.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from .dist_core import DiscreteLaw, Distribution, _lazy_import
from .errors import DomainError, NumericalError
from .grover_kernel import _check_rounds

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

#: Cap on random numbers materialized at once inside a chunk.
_MC_BLOCK_BUDGET = 1 << 24


def _check_samples(k: int) -> int:
    if int(k) != k or k < 1:
        raise DomainError(f"sample count must be a positive integer, got {k!r}")
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
    ``E[min] = integral_0^1 quantile(u) * k * (1-u)^(k-1) du`` to
    absolute tolerance 1e-8.
    """
    k = _check_samples(k)
    if isinstance(dist, DiscreteLaw):
        return _discrete_expected_min(dist, k)
    return _continuous_expected_min(dist, k)


def crs_monte_carlo(
    dist: Distribution, k: int, trials: int, seed: int = 0
) -> Tuple[float, float]:
    """Monte Carlo estimate of the expected minimum of ``k`` draws.

    Returns ``(mean, stderr)`` over ``trials`` independent minima.
    Sampling is inverse-transform through the quantile function; the
    counter-based generator is keyed ``(seed, chunk_index)`` with a
    fixed chunk size, so results are deterministic and chunks may be
    evaluated in any order or in parallel.
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
    cols = max(1, min(k, _MC_BLOCK_BUDGET // _MC_CHUNK_TRIALS))
    while done < trials:
        m = min(_MC_CHUNK_TRIALS, trials - done)
        rng = np.random.Generator(np.random.Philox(key=[seed, chunk_index]))
        # Running minimum over k uniforms per trial; the quantile map is
        # non-decreasing, so min(quantile(u)) = quantile(min(u)).
        u_min = np.ones(m, dtype=np.float64)
        remaining = k
        while remaining > 0:
            block = min(cols, remaining)
            np.minimum(u_min, rng.random((m, block)).min(axis=1), out=u_min)
            remaining -= block
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
