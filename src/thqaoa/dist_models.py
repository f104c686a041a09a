"""Concrete distribution models.

Every model ships closed-form ``cdf`` ``F`` and partial expectation
``G`` (and quantile where invertible) so that sweeps over millions of
layer counts stay O(1) per query; the quadrature fallback in
:mod:`thqaoa.dist_core` is only a verification oracle for these forms.

Models
------
* :class:`NormalLaw` -- location/scale normal.
* :class:`ReflectedGammaLaw` -- the negative of a Gamma(shape a, rate b)
  variate; support (-inf, 0).
* :class:`BinomialLaw` -- Binomial(n, p) counts on {0, ..., n}.
* :class:`ReflectedParetoLaw` -- the negative of a Pareto variate with
  tail index eps + 2; support (-inf, -x_m].  The family's interest is
  that the standard-score growth exponent of threshold schedules on it
  can be dialed via ``eps``.
* :class:`TwoPointLaw` -- mass rho at -1 and 1 - rho at 0; the extremal
  law for standard-score bounds.
* :class:`EmpiricalLaw` -- exact (value, multiplicity) spectra with
  arbitrary-precision counts.  Its spectrum and moments are built in
  integer arithmetic (values scaled to integers over one power of two)
  and rounded once per entry, so they equal the exact rational results
  correctly rounded to float64.
"""

from __future__ import annotations

import csv
import math
from typing import Iterable, Tuple

import numpy as np
from scipy import special

from .dist_core import ContinuousLaw, DiscreteLaw, DiscreteSpectrum, _integer_numerators
from .errors import DomainError

__all__ = [
    "NormalLaw",
    "ReflectedGammaLaw",
    "BinomialLaw",
    "ReflectedParetoLaw",
    "TwoPointLaw",
    "EmpiricalLaw",
    "make_normal",
    "make_reflected_gamma",
    "make_binomial",
    "make_reflected_pareto",
    "make_two_point",
    "make_empirical",
    "empirical_from_file",
    "pareto_epsilon_for_exponent",
    "pareto_limit_L",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# Normal
# ---------------------------------------------------------------------------


class NormalLaw(ContinuousLaw):
    """Normal law with location ``u`` and scale ``s > 0``."""

    def __init__(self, u: float, s: float):
        if not (s > 0.0) or not math.isfinite(s) or not math.isfinite(u):
            raise DomainError(f"normal law requires finite u and s > 0, got u={u!r}, s={s!r}")
        self.u = float(u)
        self.s = float(s)
        self.mean = self.u
        self.std = self.s
        self.r_min = -math.inf
        self.r_max = math.inf

    def _z(self, x):
        return (np.asarray(x, dtype=np.float64) - self.u) / self.s

    def pdf(self, x: float) -> float:
        z = (x - self.u) / self.s
        return math.exp(-0.5 * z * z) / (_SQRT_2PI * self.s)

    def cdf(self, x: float) -> float:
        return float(special.ndtr((x - self.u) / self.s))

    def survival(self, x: float) -> float:
        return float(special.ndtr(-(x - self.u) / self.s))

    def partial_expectation(self, x: float) -> float:
        z = (x - self.u) / self.s
        phi = math.exp(-0.5 * z * z) / _SQRT_2PI
        return self.u * float(special.ndtr(z)) - self.s * phi

    def upper_partial_expectation(self, x: float) -> float:
        z = (x - self.u) / self.s
        phi = math.exp(-0.5 * z * z) / _SQRT_2PI
        return self.u * float(special.ndtr(-z)) + self.s * phi

    def quantile(self, p: float) -> float:
        self._check_quantile_domain(p)
        return self.u + self.s * float(special.ndtri(p))

    # vectorized
    def cdf_vec(self, x):
        return special.ndtr(self._z(x))

    def partial_expectation_vec(self, x):
        z = self._z(x)
        return self.u * special.ndtr(z) - self.s * np.exp(-0.5 * z * z) / _SQRT_2PI

    def quantile_vec(self, p):
        return self.u + self.s * special.ndtri(np.asarray(p, dtype=np.float64))

    # characteristic function (used by the phase-expansion expectation)
    def characteristic_function(self, gamma):
        g = np.asarray(gamma, dtype=np.float64)
        out = np.exp(1j * self.u * g - 0.5 * (self.s * g) ** 2)
        return complex(out) if np.isscalar(gamma) else out

    def characteristic_derivative(self, gamma):
        g = np.asarray(gamma, dtype=np.float64)
        out = (1j * self.u - self.s * self.s * g) * np.exp(1j * self.u * g - 0.5 * (self.s * g) ** 2)
        return complex(out) if np.isscalar(gamma) else out


# ---------------------------------------------------------------------------
# Reflected gamma
# ---------------------------------------------------------------------------


class ReflectedGammaLaw(ContinuousLaw):
    """The negative of a Gamma(shape ``a``, rate ``b``) variate.

    Support (-inf, 0); mean -a/b; variance a/b**2.  ``F`` and ``G`` use
    regularized incomplete gamma functions, with ``G`` obtained through
    the shape-shift identity  E[W * 1{W >= w}] = (a/b) * Q(a+1, b*w)
    for W ~ Gamma(a, b).
    """

    def __init__(self, a: float, b: float):
        if not (a > 0.0 and b > 0.0) or not (math.isfinite(a) and math.isfinite(b)):
            raise DomainError(f"reflected gamma requires a > 0 and b > 0, got a={a!r}, b={b!r}")
        self.a = float(a)
        self.b = float(b)
        self.mean = -self.a / self.b
        self.std = math.sqrt(self.a) / self.b
        self.r_min = -math.inf
        self.r_max = 0.0

    def pdf(self, x: float) -> float:
        if x >= 0.0:
            return 0.0
        w = -x
        return math.exp(
            self.a * math.log(self.b) + (self.a - 1.0) * math.log(w) - self.b * w - math.lgamma(self.a)
        )

    def cdf(self, x: float) -> float:
        if x >= 0.0:
            return 1.0
        return float(special.gammaincc(self.a, -self.b * x))

    def survival(self, x: float) -> float:
        if x >= 0.0:
            return 0.0
        return float(special.gammainc(self.a, -self.b * x))

    def partial_expectation(self, x: float) -> float:
        if x >= 0.0:
            return self.mean
        return -(self.a / self.b) * float(special.gammaincc(self.a + 1.0, -self.b * x))

    def upper_partial_expectation(self, x: float) -> float:
        if x >= 0.0:
            return 0.0
        return -(self.a / self.b) * float(special.gammainc(self.a + 1.0, -self.b * x))

    def quantile(self, p: float) -> float:
        self._check_quantile_domain(p)
        return -float(special.gammainccinv(self.a, p)) / self.b

    # vectorized
    def cdf_vec(self, x):
        x = np.asarray(x, dtype=np.float64)
        return np.where(x >= 0.0, 1.0, special.gammaincc(self.a, -self.b * np.minimum(x, 0.0)))

    def partial_expectation_vec(self, x):
        x = np.asarray(x, dtype=np.float64)
        g = -(self.a / self.b) * special.gammaincc(self.a + 1.0, -self.b * np.minimum(x, 0.0))
        return np.where(x >= 0.0, self.mean, g)

    def quantile_vec(self, p):
        return -special.gammainccinv(self.a, np.asarray(p, dtype=np.float64)) / self.b


# ---------------------------------------------------------------------------
# Binomial
# ---------------------------------------------------------------------------


class BinomialLaw(DiscreteLaw):
    """Binomial(n, p) on support {0, ..., n}.

    Masses are computed in log space (gammaln-based) and exponentiated,
    which keeps full relative precision even in the far tails at
    n = 200 where masses reach ~1e-61.
    """

    def __init__(self, n: int, p: float):
        if int(n) != n or n < 1:
            raise DomainError(f"binomial trials must be a positive integer, got {n!r}")
        if not (0.0 < p < 1.0):
            raise DomainError(f"binomial success probability must lie in (0, 1), got {p!r}")
        self.n = int(n)
        self.p = float(p)
        k = np.arange(self.n + 1, dtype=np.float64)
        log_pmf = (
            special.gammaln(self.n + 1.0)
            - special.gammaln(k + 1.0)
            - special.gammaln(self.n - k + 1.0)
            + k * math.log(self.p)
            + (self.n - k) * math.log1p(-self.p)
        )
        masses = np.exp(log_pmf)
        spectrum = DiscreteSpectrum.from_masses(k, masses)
        super().__init__(
            spectrum,
            mean=self.n * self.p,
            std=math.sqrt(self.n * self.p * (1.0 - self.p)),
        )


# ---------------------------------------------------------------------------
# Reflected Pareto
# ---------------------------------------------------------------------------


class ReflectedParetoLaw(ContinuousLaw):
    """The negative of a Pareto variate with tail exponent ``eps + 2``.

    Support (-inf, -x_m]; on it  F(x) = (x_m / (-x))**(eps + 2).  The
    ``eps + 2`` parameterization guarantees a finite variance for every
    eps > 0 while letting the tail be made arbitrarily heavy.
    """

    def __init__(self, eps: float, x_m: float):
        if not (eps > 0.0 and x_m > 0.0) or not (math.isfinite(eps) and math.isfinite(x_m)):
            raise DomainError(f"reflected pareto requires eps > 0 and x_m > 0, got eps={eps!r}, x_m={x_m!r}")
        self.eps = float(eps)
        self.x_m = float(x_m)
        alpha = self.eps + 2.0
        self.alpha = alpha
        self.mean = -self.x_m * alpha / (alpha - 1.0)
        self.std = self.x_m * math.sqrt(alpha / self.eps) / (alpha - 1.0)
        self.r_min = -math.inf
        self.r_max = -self.x_m

    def pdf(self, x: float) -> float:
        if x > -self.x_m:
            return 0.0
        return self.alpha * self.x_m**self.alpha * (-x) ** (-self.alpha - 1.0)

    def cdf(self, x: float) -> float:
        if x >= -self.x_m:
            return 1.0
        return (self.x_m / -x) ** self.alpha

    def partial_expectation(self, x: float) -> float:
        if x >= -self.x_m:
            return self.mean
        return -(self.alpha / (self.alpha - 1.0)) * self.x_m**self.alpha * (-x) ** (-(self.alpha - 1.0))

    def quantile(self, p: float) -> float:
        self._check_quantile_domain(p)
        return -self.x_m * p ** (-1.0 / self.alpha)

    # vectorized
    def cdf_vec(self, x):
        x = np.asarray(x, dtype=np.float64)
        inside = np.minimum(x, -self.x_m)
        return np.where(x >= -self.x_m, 1.0, (self.x_m / -inside) ** self.alpha)

    def partial_expectation_vec(self, x):
        x = np.asarray(x, dtype=np.float64)
        inside = np.minimum(x, -self.x_m)
        g = -(self.alpha / (self.alpha - 1.0)) * self.x_m**self.alpha * (-inside) ** (-(self.alpha - 1.0))
        return np.where(x >= -self.x_m, self.mean, g)

    def quantile_vec(self, p):
        return -self.x_m * np.asarray(p, dtype=np.float64) ** (-1.0 / self.alpha)


# ---------------------------------------------------------------------------
# Two-point and empirical laws
# ---------------------------------------------------------------------------


class TwoPointLaw(DiscreteLaw):
    """Mass ``rho`` at -1 and ``1 - rho`` at 0, for rho in (0, 1)."""

    def __init__(self, rho: float):
        if not (0.0 < rho < 1.0):
            raise DomainError(f"two-point ratio must lie in (0, 1), got {rho!r}")
        self.rho = float(rho)
        spectrum = DiscreteSpectrum.from_masses([-1.0, 0.0], [self.rho, 1.0 - self.rho])
        super().__init__(spectrum, mean=-self.rho, std=math.sqrt(self.rho * (1.0 - self.rho)))


class EmpiricalLaw(DiscreteLaw):
    """An exact finite spectrum given as (value, multiplicity) pairs.

    Multiplicities are arbitrary-precision integers (solution-space
    counts can exceed 64 bits by hundreds of digits).  The mean and
    standard deviation are computed in integer arithmetic: with the
    values written exactly as ``k_i / D`` over one power of two ``D``,
    ``N`` the total count, ``S1 = sum(k_i c_i)`` and
    ``S2 = sum(k_i^2 c_i)``,

        mean = S1 / (N D),    var = (N S2 - S1^2) / (N^2 D^2),

    each rounded once by an int/int true division (then ``sqrt`` for the
    standard deviation).
    """

    def __init__(self, pairs: Iterable[Tuple[float, int]]):
        pairs = [(float(v), int(c)) for v, c in pairs]
        if not pairs:
            raise DomainError("empirical law needs at least one (value, multiplicity) pair")
        values = [v for v, _ in pairs]
        counts = [c for _, c in pairs]
        spectrum = DiscreteSpectrum.from_multiplicities(values, counts)
        total = sum(counts)
        scaled, den = _integer_numerators(spectrum.values)
        s1 = sum(k * c for k, c in zip(scaled, counts))
        s2 = sum(k * k * c for k, c in zip(scaled, counts))
        var = (total * s2 - s1 * s1) / (total * total * den * den)
        super().__init__(spectrum, mean=s1 / (total * den), std=math.sqrt(var))
        self.multiplicities = tuple(counts)
        self.total_count = total


# ---------------------------------------------------------------------------
# Factories
# ---------------------------------------------------------------------------


def make_normal(u: float, s: float) -> NormalLaw:
    """Normal law with location u and scale s."""
    return NormalLaw(u, s)


def make_reflected_gamma(a: float, b: float) -> ReflectedGammaLaw:
    """Reflected gamma law with shape a and rate b."""
    return ReflectedGammaLaw(a, b)


def make_binomial(n: int, p: float) -> BinomialLaw:
    """Binomial law with n trials and success probability p."""
    return BinomialLaw(n, p)


def make_reflected_pareto(eps: float, x_m: float) -> ReflectedParetoLaw:
    """Reflected Pareto law with tail parameter eps and scale x_m."""
    return ReflectedParetoLaw(eps, x_m)


def make_two_point(rho: float) -> TwoPointLaw:
    """Two-point law with mass rho at -1 and 1 - rho at 0."""
    return TwoPointLaw(rho)


def make_empirical(pairs: Iterable[Tuple[float, int]]) -> EmpiricalLaw:
    """Empirical law from ascending (value, multiplicity) pairs."""
    return EmpiricalLaw(pairs)


def empirical_from_file(path: str) -> EmpiricalLaw:
    """Read an empirical law from a two-column ``value,multiplicity``
    text file (one pair per line, ascending values)."""
    pairs = []
    with open(path, "r", newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise DomainError(f"{path}:{lineno}: expected 'value,multiplicity', got {row!r}")
            pairs.append((float(row[0]), int(row[1])))
    return EmpiricalLaw(pairs)


# ---------------------------------------------------------------------------
# Pareto family helpers
# ---------------------------------------------------------------------------


def pareto_epsilon_for_exponent(j: float) -> float:
    """Tail parameter eps = 2(1 - j)/j for a target growth exponent j in (0, 1).

    With this choice the standard score of an optimized threshold
    schedule on the reflected Pareto law grows as Theta(r**j).
    """
    if not (0.0 < j < 1.0):
        raise DomainError(f"growth exponent j must lie in (0, 1), got {j!r}")
    return 2.0 * (1.0 - j) / j


def pareto_limit_L(eps: float) -> float:
    """The limit constant L = (1 + 1/(1 + eps))**-(2 + eps).

    This is the limit of r**2 times the quantile achieved by the
    optimized expectation on the reflected Pareto family; it increases
    from 0.25 (eps -> 0) to 1/e (eps -> inf).
    """
    if not (eps > 0.0):
        raise DomainError(f"pareto tail parameter must be positive, got {eps!r}")
    return (1.0 + 1.0 / (1.0 + eps)) ** (-(2.0 + eps))
