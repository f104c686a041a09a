"""Distribution abstraction and derived statistical quantities.

This module defines the probability-law interface consumed by every
formula in the package: the cumulative distribution function ``F``, the
partial expectation ``G(x) = E[X * 1{X <= x}]``, conditional
expectations on either side of a cut, quantiles, and the standardized
(mean-zero / unit-variance) views

    Y = X - mu,        Z = (X - mu) / sigma.

Two families of laws are supported:

* :class:`DiscreteLaw` -- finite support, built on a
  :class:`DiscreteSpectrum` that precomputes prefix and suffix sums of
  mass and of value*mass so that every query is a binary search.
* :class:`ContinuousLaw` -- density-based laws.  Subclasses provide
  closed-form ``cdf``/``partial_expectation`` where available; an
  adaptive-quadrature fallback (absolute tolerance 1e-12) backs any law
  without closed forms and doubles as the universal test oracle.

Conditional expectations with an empty conditioning event are returned
as ``None`` (an explicit undefined marker) rather than NaN, because the
threshold formulas take limits at ``F in {0, 1}`` instead of propagating
invalid divisions.

Support bounds use signed-infinity sentinels; both ``F`` and ``G``
evaluate to 0 at ``-inf``.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from itertools import accumulate
from operator import mul
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy import integrate, optimize

from .errors import DomainError, NumericalError

__all__ = [
    "Distribution",
    "DiscreteSpectrum",
    "DiscreteLaw",
    "ContinuousLaw",
    "StandardizedView",
    "cdf",
    "partial_expectation",
    "conditional_expectations",
    "quantile",
    "discretize_equal_mass",
]

#: Total-mass consistency tolerance for discrete spectra.
MASS_TOLERANCE = 1e-12

#: Absolute tolerance of the adaptive-quadrature fallback.
QUAD_TOLERANCE = 1e-12


# ---------------------------------------------------------------------------
# Discrete spectra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscreteSpectrum:
    """A finite cost spectrum with precomputed prefix/suffix sums.

    Attributes
    ----------
    values:
        Strictly ascending cost values (float64).
    masses:
        Positive probability masses aligned with ``values``; they sum to
        1 within :data:`MASS_TOLERANCE`.
    mass_prefix / gain_prefix:
        ``mass_prefix[i] = sum(masses[: i + 1])`` and
        ``gain_prefix[i] = sum(values[: i + 1] * masses[: i + 1])``, so
        ``F(x)`` and ``G(x)`` are prefix lookups.
    mass_suffix / gain_suffix:
        The right-to-left analogues, kept separately so upper-tail
        conditional expectations avoid the cancellation in ``1 - F`` and
        ``mu - G`` when ``F`` is close to 1.
    """

    values: np.ndarray
    masses: np.ndarray
    mass_prefix: np.ndarray
    gain_prefix: np.ndarray
    mass_suffix: np.ndarray
    gain_suffix: np.ndarray

    # -- construction -------------------------------------------------

    @staticmethod
    def from_masses(values: Sequence[float], masses: Sequence[float]) -> "DiscreteSpectrum":
        """Build a spectrum from float masses.

        Prefix/suffix accumulation runs in extended precision
        (``np.longdouble``) before rounding to float64.
        """
        v = np.asarray(values, dtype=np.float64)
        m = np.asarray(masses, dtype=np.float64)
        _validate_support(v, m)
        total = float(np.sum(m.astype(np.longdouble)))
        if abs(total - 1.0) > MASS_TOLERANCE:
            raise DomainError(f"masses sum to {total!r}, expected 1 within {MASS_TOLERANCE}")
        ml = m.astype(np.longdouble)
        vl = v.astype(np.longdouble)
        mass_prefix = np.minimum(np.cumsum(ml).astype(np.float64), 1.0)
        gain_prefix = np.cumsum(vl * ml).astype(np.float64)
        mass_suffix = np.cumsum(ml[::-1])[::-1].astype(np.float64)
        gain_suffix = np.cumsum((vl * ml)[::-1])[::-1].astype(np.float64)
        # The total mass is 1 by construction; pin the accumulated
        # endpoints so float dust (masses summing to 1 +- few ulp)
        # cannot leak into cdf/survival queries at the support edges.
        mass_prefix[-1] = 1.0
        mass_suffix[0] = 1.0
        return DiscreteSpectrum(v, m, mass_prefix, gain_prefix, mass_suffix, gain_suffix)

    @staticmethod
    def from_multiplicities(values: Sequence[float], multiplicities: Sequence[int]) -> "DiscreteSpectrum":
        """Build a spectrum from exact integer multiplicities.

        Every finite float is an integer over a power of two, so the
        values are scaled to integers ``k_i`` over one common power of
        two ``D`` (:func:`_integer_numerators`).  The prefix/suffix sums
        of counts and of ``k_i * count_i`` are then exact Python ints,
        and each entry is finished by one int/int true division, which
        CPython rounds correctly.  Every entry is thus the exact rational
        value rounded once to float64, so even masses around 1e-180
        (huge solution-space counts) keep full relative precision.
        """
        v = np.asarray(values, dtype=np.float64)
        mults = [int(c) for c in multiplicities]
        if len(mults) != v.size:
            raise DomainError("values and multiplicities must have equal length")
        if any(c <= 0 for c in mults):
            raise DomainError("multiplicities must be positive integers")
        total = sum(mults)
        _validate_support(v, np.ones_like(v))
        scaled, den = _integer_numerators(v)
        weights = list(map(mul, scaled, mults))
        gain_den = den * total

        def ratios(numerators, denominator) -> np.ndarray:
            return np.array([k / denominator for k in numerators], dtype=np.float64)

        masses = ratios(mults, total)
        mass_prefix = ratios(accumulate(mults), total)
        gain_prefix = ratios(accumulate(weights), gain_den)
        mass_suffix = ratios(list(accumulate(reversed(mults)))[::-1], total)
        gain_suffix = ratios(list(accumulate(reversed(weights)))[::-1], gain_den)
        return DiscreteSpectrum(v, masses, mass_prefix, gain_prefix, mass_suffix, gain_suffix)

    # -- queries -------------------------------------------------------

    @property
    def size(self) -> int:
        return int(self.values.size)

    def cdf(self, x: float) -> float:
        """F(x), right-continuous."""
        idx = int(np.searchsorted(self.values, x, side="right"))
        return float(self.mass_prefix[idx - 1]) if idx > 0 else 0.0

    def partial_expectation(self, x: float) -> float:
        """G(x) = E[X * 1{X <= x}]."""
        idx = int(np.searchsorted(self.values, x, side="right"))
        return float(self.gain_prefix[idx - 1]) if idx > 0 else 0.0

    def survival(self, x: float) -> float:
        """P(X > x), computed from suffix sums (no 1 - F cancellation)."""
        idx = int(np.searchsorted(self.values, x, side="right"))
        return float(self.mass_suffix[idx]) if idx < self.size else 0.0

    def upper_partial_expectation(self, x: float) -> float:
        """E[X * 1{X > x}], computed from suffix sums."""
        idx = int(np.searchsorted(self.values, x, side="right"))
        return float(self.gain_suffix[idx]) if idx < self.size else 0.0

    def quantile(self, p: float) -> float:
        """Smallest support value with F >= p, for p in (0, 1)."""
        idx = int(np.searchsorted(self.mass_prefix, p, side="left"))
        idx = min(idx, self.size - 1)
        return float(self.values[idx])


def _integer_numerators(values: np.ndarray) -> Tuple[List[int], int]:
    """Exact integers ``k_i`` and one power of two ``D`` with
    ``values[i] == k_i / D`` for every (finite) value.

    ``D`` is the largest denominator of ``float.as_integer_ratio``
    over the values, so it reaches ``2**1074`` when a subnormal is
    present; Python ints carry that without loss.
    """
    ratios = [x.as_integer_ratio() for x in np.asarray(values, dtype=np.float64).tolist()]
    den = max(q for _, q in ratios)
    return [p * (den // q) for p, q in ratios], den


def _validate_support(values: np.ndarray, masses: np.ndarray) -> None:
    if values.ndim != 1 or values.size == 0:
        raise DomainError("support must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(values)):
        raise DomainError("support values must be finite")
    if np.any(np.diff(values) <= 0):
        raise DomainError("support values must be strictly ascending")
    if np.any(masses <= 0):
        raise DomainError("masses must be strictly positive")


# ---------------------------------------------------------------------------
# Distribution interface
# ---------------------------------------------------------------------------


class Distribution(ABC):
    """A probability law over costs.

    Concrete laws expose ``mean``, ``std`` (> 0), extended-real support
    bounds ``r_min``/``r_max``, and the query quartet ``cdf``,
    ``partial_expectation``, ``quantile``, ``conditional_expectations``.
    Instances are immutable after construction and safe to share across
    threads.
    """

    #: "discrete" or "continuous"
    kind: str
    mean: float
    std: float
    r_min: float
    r_max: float

    # -- queries -------------------------------------------------------

    @abstractmethod
    def cdf(self, x: float) -> float:
        """F(x) = P(X <= x)."""

    @abstractmethod
    def partial_expectation(self, x: float) -> float:
        """G(x) = E[X * 1{X <= x}]; equals ``mean`` for x >= r_max."""

    @abstractmethod
    def quantile(self, p: float) -> float:
        """Inverse cdf for p in (0, 1)."""

    def survival(self, x: float) -> float:
        """P(X > x).  Overridden where a cancellation-free form exists."""
        return 1.0 - self.cdf(x)

    def upper_partial_expectation(self, x: float) -> float:
        """E[X * 1{X > x}].  Overridden where a closed form exists."""
        return self.mean - self.partial_expectation(x)

    def conditional_expectations(self, x: float) -> Tuple[Optional[float], Optional[float]]:
        """(E[X | X <= x], E[X | X > x]) with ``None`` marking an
        undefined branch (conditioning event of probability zero)."""
        f = self.cdf(x)
        s = self.survival(x)
        lower = self.partial_expectation(x) / f if f > 0.0 else None
        upper = self.upper_partial_expectation(x) / s if s > 0.0 else None
        return (lower, upper)

    def standardized(self) -> "StandardizedView":
        return StandardizedView(self)

    # -- vectorized hooks (defaults loop; models override) -------------

    def cdf_vec(self, x: np.ndarray) -> np.ndarray:
        return np.array([self.cdf(float(t)) for t in np.asarray(x).ravel()]).reshape(np.shape(x))

    def partial_expectation_vec(self, x: np.ndarray) -> np.ndarray:
        return np.array(
            [self.partial_expectation(float(t)) for t in np.asarray(x).ravel()]
        ).reshape(np.shape(x))

    def quantile_vec(self, p: np.ndarray) -> np.ndarray:
        return np.array([self.quantile(float(t)) for t in np.asarray(p).ravel()]).reshape(np.shape(p))

    def _check_quantile_domain(self, p: float) -> None:
        if not (0.0 < p < 1.0):
            raise DomainError(f"quantile probability must lie in (0, 1), got {p!r}")


class DiscreteLaw(Distribution):
    """A distribution with finite support backed by a :class:`DiscreteSpectrum`."""

    kind = "discrete"

    def __init__(
        self,
        spectrum: DiscreteSpectrum,
        mean: Optional[float] = None,
        std: Optional[float] = None,
    ):
        self.spectrum = spectrum
        if mean is None or std is None:
            v = spectrum.values.astype(np.longdouble)
            m = spectrum.masses.astype(np.longdouble)
            computed_mean = float(np.dot(v, m))
            computed_var = float(np.dot((v - computed_mean) ** 2, m))
            mean = computed_mean if mean is None else mean
            std = math.sqrt(computed_var) if std is None else std
        self.mean = float(mean)
        self.std = float(std)
        if not (self.std > 0.0):
            raise DomainError("distribution must have positive standard deviation")
        self.r_min = float(spectrum.values[0])
        self.r_max = float(spectrum.values[-1])

    # -- queries -------------------------------------------------------

    def cdf(self, x: float) -> float:
        return self.spectrum.cdf(x)

    def partial_expectation(self, x: float) -> float:
        return self.spectrum.partial_expectation(x)

    def survival(self, x: float) -> float:
        return self.spectrum.survival(x)

    def upper_partial_expectation(self, x: float) -> float:
        return self.spectrum.upper_partial_expectation(x)

    def quantile(self, p: float) -> float:
        self._check_quantile_domain(p)
        return self.spectrum.quantile(p)

    def min_mass(self) -> float:
        """f(R_min): probability mass at the support minimum."""
        return float(self.spectrum.masses[0])

    def characteristic_function(self, gamma):
        """phi(gamma) = E[exp(i * gamma * X)]; |phi| <= 1."""
        g = np.asarray(gamma, dtype=np.float64)
        out = np.exp(1j * np.multiply.outer(g, self.spectrum.values)) @ self.spectrum.masses
        return complex(out) if np.isscalar(gamma) else out

    def characteristic_derivative(self, gamma):
        """phi'(gamma) = i * E[X * exp(i * gamma * X)]."""
        g = np.asarray(gamma, dtype=np.float64)
        weighted = self.spectrum.values * self.spectrum.masses
        out = 1j * (np.exp(1j * np.multiply.outer(g, self.spectrum.values)) @ weighted)
        return complex(out) if np.isscalar(gamma) else out

    # -- vectorized ----------------------------------------------------

    def cdf_vec(self, x: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.spectrum.values, np.asarray(x, dtype=np.float64), side="right")
        padded = np.concatenate(([0.0], self.spectrum.mass_prefix))
        return padded[idx]

    def partial_expectation_vec(self, x: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.spectrum.values, np.asarray(x, dtype=np.float64), side="right")
        padded = np.concatenate(([0.0], self.spectrum.gain_prefix))
        return padded[idx]

    def quantile_vec(self, p: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.spectrum.mass_prefix, np.asarray(p, dtype=np.float64), side="left")
        idx = np.minimum(idx, self.spectrum.size - 1)
        return self.spectrum.values[idx]


class ContinuousLaw(Distribution):
    """Base class for density-based laws.

    Subclasses must provide :meth:`pdf` and should override ``cdf``,
    ``partial_expectation`` and ``quantile`` with closed forms when they
    exist; the defaults below fall back to adaptive quadrature
    (absolute tolerance :data:`QUAD_TOLERANCE`) and bracketed root
    finding, which are accurate but slow.
    """

    kind = "continuous"

    @abstractmethod
    def pdf(self, x: float) -> float:
        """Probability density at x."""

    # -- quadrature fallbacks -------------------------------------------

    def cdf(self, x: float) -> float:
        if x <= self.r_min:
            return 0.0
        if x >= self.r_max:
            return 1.0
        val, _ = integrate.quad(
            self.pdf, self.r_min, x, epsabs=QUAD_TOLERANCE, epsrel=1e-12, limit=300
        )
        return min(max(val, 0.0), 1.0)

    def partial_expectation(self, x: float) -> float:
        if x <= self.r_min:
            return 0.0
        hi = min(x, self.r_max)
        val, _ = integrate.quad(
            lambda t: t * self.pdf(t), self.r_min, hi, epsabs=QUAD_TOLERANCE, epsrel=1e-12, limit=300
        )
        return val

    def quantile(self, p: float) -> float:
        self._check_quantile_domain(p)
        lo, hi = self._quantile_bracket(p)
        return float(optimize.brentq(lambda t: self.cdf(t) - p, lo, hi, xtol=1e-12, rtol=8.9e-16))

    def _quantile_bracket(self, p: float) -> Tuple[float, float]:
        """Expand around the mean until [lo, hi] brackets the p-quantile."""
        scale = self.std
        lo = self.mean - scale
        hi = self.mean + scale
        for _ in range(200):
            if self.cdf(lo) < p or lo <= self.r_min:
                break
            lo = self.mean - (self.mean - lo) * 2.0
        lo = max(lo, self.r_min)
        for _ in range(200):
            if self.cdf(hi) > p or hi >= self.r_max:
                break
            hi = self.mean + (hi - self.mean) * 2.0
        hi = min(hi, self.r_max)
        if not (self.cdf(lo) <= p <= self.cdf(hi)):
            raise NumericalError(f"failed to bracket quantile p={p!r}")
        return lo, hi


# ---------------------------------------------------------------------------
# Standardized views
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StandardizedView:
    """Mean-zero (Y) and standard-score (Z) views of a distribution.

    With ``mu = dist.mean`` and ``sigma = dist.std``:

        F_Y(T) = F_X(T + mu)
        G_Y(T) = G_X(T + mu) - mu * F_X(T + mu)
        F_Z(z) = F_Y(sigma * z)
        G_Z(z) = G_Y(sigma * z) / sigma
    """

    dist: Distribution

    @property
    def mu(self) -> float:
        return self.dist.mean

    @property
    def sigma(self) -> float:
        return self.dist.std

    def cdf_y(self, t: float) -> float:
        return self.dist.cdf(t + self.mu)

    def partial_expectation_y(self, t: float) -> float:
        x = t + self.mu
        return self.dist.partial_expectation(x) - self.mu * self.dist.cdf(x)

    def quantile_y(self, p: float) -> float:
        return self.dist.quantile(p) - self.mu

    def cdf_z(self, z: float) -> float:
        return self.cdf_y(self.sigma * z)

    def partial_expectation_z(self, z: float) -> float:
        return self.partial_expectation_y(self.sigma * z) / self.sigma

    def quantile_z(self, p: float) -> float:
        return self.quantile_y(p) / self.sigma


# ---------------------------------------------------------------------------
# Free-function forms of the query operations
# ---------------------------------------------------------------------------


def cdf(dist: Distribution, x: float) -> float:
    """F_X(x) = P(X <= x)."""
    return dist.cdf(x)


def partial_expectation(dist: Distribution, x: float) -> float:
    """G_X(x) = E[X * 1{X <= x}]."""
    return dist.partial_expectation(x)


def conditional_expectations(dist: Distribution, x: float) -> Tuple[Optional[float], Optional[float]]:
    """(E[X | X <= x], E[X | X > x]); ``None`` marks an undefined branch."""
    return dist.conditional_expectations(x)


def quantile(dist: Distribution, p: float) -> float:
    """Inverse cdf: continuous laws solve F(x) = p; discrete laws return
    the smallest support value with F >= p."""
    return dist.quantile(p)


# ---------------------------------------------------------------------------
# Discretization
# ---------------------------------------------------------------------------


def discretize_equal_mass(dist: Distribution, bins: int = 10_000) -> DiscreteLaw:
    """Quantile-grid discretization of a continuous law.

    The law is split into ``bins`` equal-mass slices; each slice becomes
    one atom of mass ``1/bins`` placed at the slice's conditional mean

        v_i = bins * (G(e_{i+1}) - G(e_i)),

    which preserves the overall mean exactly (telescoping) and the cdf
    uniformly.  Adjacent atoms that collide in float precision are
    merged.
    """
    if dist.kind != "continuous":
        raise DomainError("discretize_equal_mass expects a continuous law")
    if bins < 2:
        raise DomainError("bins must be at least 2")
    probs = np.arange(1, bins) / bins
    inner_edges = np.asarray(dist.quantile_vec(probs), dtype=np.float64)
    gains = np.empty(bins + 1, dtype=np.float64)
    gains[0] = 0.0
    gains[1:-1] = dist.partial_expectation_vec(inner_edges)
    gains[-1] = dist.mean
    values = np.diff(gains) * bins
    masses = np.full(bins, 1.0 / bins)
    # Merge numerically colliding neighbours (possible in extreme tails).
    keep_values = [values[0]]
    keep_masses = [masses[0]]
    for v, m in zip(values[1:], masses[1:]):
        if v <= keep_values[-1]:
            total = keep_masses[-1] + m
            keep_values[-1] = (keep_values[-1] * keep_masses[-1] + v * m) / total
            keep_masses[-1] = total
        else:
            keep_values.append(v)
            keep_masses.append(m)
    spectrum = DiscreteSpectrum.from_masses(np.array(keep_values), np.array(keep_masses))
    return DiscreteLaw(spectrum)
