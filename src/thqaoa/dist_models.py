"""Concrete distribution models.

Every continuous model ships closed-form ``F``, partial expectation
``G`` and quantile, so that sweeps over millions of layer counts stay
O(1) per query.

Models
------
* :class:`NormalLaw` -- location/scale normal.
* :class:`ReflectedGammaLaw` -- the negative of a Gamma(shape a, rate b)
  variate; support (-inf, 0).
* :class:`ReflectedParetoLaw` -- the negative of a Pareto variate with
  tail index eps + 2; support (-inf, -x_m].  The family's interest is
  that the standard-score growth exponent of threshold schedules on it
  can be dialed via ``eps``.
* :class:`EmpiricalLaw` -- exact (value, multiplicity) spectra with
  arbitrary-precision counts: a :class:`~thqaoa.dist_core.DiscreteLaw`,
  whose spectrum and moments are built in integer arithmetic and
  rounded once per entry, so they equal the exact rational results
  correctly rounded to float64.

Every discrete law is built from exact counts.  The binomial and
two-point factories take them from p's dyadic expansion ``p = m / D``:
Binomial(n, p) has the counts ``C(n, k) m^k (D - m)^(n - k)`` out of
``D^n`` on {0, ..., n}, and the two-point law (the extremal one for
standard-score bounds) ``m`` at -1 and ``D - m`` at 0.
"""

from __future__ import annotations

import csv
import math
import sys
from itertools import accumulate, repeat
from typing import Iterable, List, Tuple

import numpy as np

from .dist_core import (
    ContinuousLaw,
    DiscreteLaw,
    _lazy_import,
    _math_map,
)
from .errors import DomainError

special = _lazy_import("scipy.special")

__all__ = [
    "NormalLaw",
    "ReflectedGammaLaw",
    "ReflectedParetoLaw",
    "EmpiricalLaw",
    "make_normal",
    "make_reflected_gamma",
    "make_binomial",
    "make_reflected_pareto",
    "make_two_point",
    "make_empirical",
    "empirical_from_file",
    "pareto_epsilon_for_exponent",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_MIN_NORMAL = sys.float_info.min

#: Largest binomial trial count: 2**-n, the smallest mass at p = 1/2, is
#: a double down to n = 1074, and any other p underflows sooner.
MAX_BINOMIAL_TRIALS = 1074


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
        self._check_representable()

    def _terms(self, t):
        with np.errstate(all="ignore"):  # inf at |t| near 1e308, silently as Python floats give it
            z = (t - self.u) / self.s
            f = special.ndtr(z)
            phi = _math_map(math.exp, -0.5 * z * z) / _SQRT_2PI
        return f, self.u * f - self.s * phi

    def quantile(self, p: float) -> float:
        self._check_quantile_domain(p)
        return self.u + self.s * float(special.ndtri(p))

    # vectorized
    def quantile_vec(self, p):
        return self.u + self.s * special.ndtri(np.asarray(p, dtype=np.float64))

    # characteristic function (used by the closed-form GM-QAOA expectation)
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
        self._check_representable()

    def _terms(self, t):
        inside = ~(t >= 0.0)
        with np.errstate(all="ignore"):  # inf at t near -1e308, silently as Python floats give it
            y = -self.b * t[inside]
        f = np.ones_like(t)
        f[inside] = special.gammaincc(self.a, y)
        underflow = np.flatnonzero(inside)[y < _MIN_NORMAL]
        if underflow.size:
            # y = b*|t| is subnormal or 0 there, with bits lost: Q(a, y) is
            # 1 - y**a / Gamma(a + 1), its leading term (the next is smaller
            # by a factor of order y), with y**a in logs of b and |t|.
            log_y = math.log(self.b) + _math_map(math.log, -t[underflow])
            f[underflow] = 1.0 - _math_map(math.exp, self.a * log_y - float(special.gammaln(self.a + 1.0)))
        g = np.full_like(t, self.mean)
        g[inside] = -(self.a / self.b) * special.gammaincc(self.a + 1.0, y)
        return f, g

    def quantile(self, p: float) -> float:
        self._check_quantile_domain(p)
        return -float(special.gammainccinv(self.a, p)) / self.b

    # vectorized
    def quantile_vec(self, p):
        return -special.gammainccinv(self.a, np.asarray(p, dtype=np.float64)) / self.b


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
        # G's factors are _g_scale and y**-(alpha - 1) <= x_m**-(alpha - 1):
        # a subnormal or zero x_m**alpha loses G's bits, and an overflow
        # raises or gives -inf.
        try:
            self._g_scale = -(alpha / (alpha - 1.0)) * self.x_m**alpha
            in_range = (
                self.x_m**alpha >= _MIN_NORMAL
                and self._g_scale > -math.inf
                and self.x_m ** -(alpha - 1.0) < math.inf
            )
        except OverflowError:
            in_range = False
        if not in_range:
            raise DomainError(
                f"reflected pareto needs x_m**(eps + 2) to be a normal double, and "
                f"(eps + 2)/(eps + 1) times it and x_m**-(eps + 1) finite ones, got eps={eps!r}, x_m={x_m!r}"
            )
        self.mean = -self.x_m * alpha / (alpha - 1.0)
        self.std = self.x_m * math.sqrt(alpha / self.eps) / (alpha - 1.0)
        self.r_min = -math.inf
        self.r_max = -self.x_m
        self._check_representable()

    def _terms(self, t):
        f = np.ones_like(t)
        g = np.full_like(t, self.mean)
        inside = ~(t >= -self.x_m)
        y = -t[inside]
        # math.pow is the libm pow that Python's float ``**`` calls
        f[inside] = _math_map(math.pow, self.x_m / y, repeat(self.alpha))
        g[inside] = self._g_scale * _math_map(math.pow, y, repeat(-(self.alpha - 1.0)))
        return f, g

    def quantile(self, p: float) -> float:
        self._check_quantile_domain(p)
        return -self.x_m * p ** (-1.0 / self.alpha)

    # vectorized
    def quantile_vec(self, p):
        # math.pow is the libm pow that the scalar ``quantile``'s ``**`` calls
        return -self.x_m * _math_map(math.pow, np.asarray(p, dtype=np.float64), repeat(-1.0 / self.alpha))


# ---------------------------------------------------------------------------
# Empirical laws
# ---------------------------------------------------------------------------


class EmpiricalLaw(DiscreteLaw):
    """An exact finite spectrum given as (value, multiplicity) pairs: a
    :class:`DiscreteLaw` over the unzipped values and counts."""

    def __init__(self, pairs: Iterable[Tuple[float, int]]):
        pairs = list(pairs)
        if not pairs:
            raise DomainError("empirical law needs at least one (value, multiplicity) pair")
        super().__init__([float(v) for v, _ in pairs], [c for _, c in pairs])


# ---------------------------------------------------------------------------
# Factories
# ---------------------------------------------------------------------------


def make_normal(u: float, s: float) -> NormalLaw:
    """Normal law with location u and scale s."""
    return NormalLaw(u, s)


def make_reflected_gamma(a: float, b: float) -> ReflectedGammaLaw:
    """Reflected gamma law with shape a and rate b."""
    return ReflectedGammaLaw(a, b)


def make_binomial(n: int, p: float) -> EmpiricalLaw:
    """Binomial law with n trials and success probability p = m / D, from
    the counts ``C(n, k) m^k (D - m)^(n - k)``, each the one before it
    times ``(n - k + 1) m / (k (D - m))``, an exact integer division."""
    # The range test comes first: it also rejects nan and inf, which
    # int() cannot take, and keeps the support bounded.
    if not (1 <= n <= MAX_BINOMIAL_TRIALS) or int(n) != n:
        raise DomainError(f"binomial trials must be an integer in [1, {MAX_BINOMIAL_TRIALS}], got {n!r}")
    if not (0.0 < p < 1.0):
        raise DomainError(f"binomial success probability must lie in (0, 1), got {p!r}")
    n, p = int(n), float(p)
    m, den = p.as_integer_ratio()
    q, total = den - m, den**n
    counts = accumulate(range(1, n + 1), lambda c, k: c * (n - k + 1) * m // (k * q), initial=q**n)
    kept: List[int] = []
    try:
        for k, c in enumerate(counts):
            if c / total == 0.0:  # stop here: for a tiny p each later count has a million bits
                raise DomainError(f"the mass at k={k} underflows to 0 (value {float(k)!r})")
            kept.append(c)
        return EmpiricalLaw(zip(range(n + 1), kept))
    except DomainError as exc:
        raise DomainError(f"binomial law with n={n}, p={p!r}: {exc}") from None


def make_reflected_pareto(eps: float, x_m: float) -> ReflectedParetoLaw:
    """Reflected Pareto law with tail parameter eps and scale x_m."""
    return ReflectedParetoLaw(eps, x_m)


def make_two_point(rho: float) -> EmpiricalLaw:
    """Two-point law with mass rho at -1 and 1 - rho at 0, from the
    counts ``m`` and ``D - m`` with ``rho = m / D``."""
    if not (0.0 < rho < 1.0):
        raise DomainError(f"two-point ratio must lie in (0, 1), got {rho!r}")
    m, den = float(rho).as_integer_ratio()
    return EmpiricalLaw([(-1.0, m), (0.0, den - m)])


def make_empirical(pairs: Iterable[Tuple[float, int]]) -> EmpiricalLaw:
    """Empirical law from ascending (value, multiplicity) pairs."""
    return EmpiricalLaw(pairs)


def empirical_from_file(path: str) -> EmpiricalLaw:
    """Read an empirical law from a two-column ``value,multiplicity``
    text file (one pair per line, strictly ascending finite values,
    positive integer multiplicities).  A bad row is rejected with its
    ``path:line``."""
    pairs: List[Tuple[float, int]] = []
    with open(path, "r", newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise DomainError(f"{path}:{lineno}: expected 'value,multiplicity', got {row!r}")
            try:
                value, count = float(row[0]), int(row[1])
            except ValueError:
                msg = f"{path}:{lineno}: expected a number and an integer count, got {row!r}"
                raise DomainError(msg) from None
            if not math.isfinite(value):
                problem = "support values must be finite"
            elif count <= 0:
                problem = "multiplicities must be positive integers"
            elif pairs and value <= pairs[-1][0]:
                problem = "support values must be strictly ascending"
            else:
                pairs.append((value, count))
                continue
            raise DomainError(f"{path}:{lineno}: {problem}, got {row!r}")
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

