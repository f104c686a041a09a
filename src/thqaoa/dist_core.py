"""Distribution abstraction and the queries the threshold formulas use.

This module defines the probability-law interface consumed by every
formula in the package: the cumulative distribution function ``F``, the
partial expectation ``G(x) = E[X * 1{X <= x}]`` and quantiles.  Each
law computes ``F`` and ``G`` in one place, ``_terms``, over an array of
thresholds; the scalar ``cdf`` and ``partial_expectation`` are
``_terms`` of a one-element array, and threshold searches, curves and
equal-mass discretization take ``_terms`` at ``quantile_vec(u)``.
Quantiles keep a scalar and an array form, ``quantile`` and
``quantile_vec``, equal bit for bit.

Two families of laws are supported:

* :class:`DiscreteLaw` -- finite support, built on a
  :class:`DiscreteSpectrum` that precomputes prefix sums of mass and of
  value*mass so that every query is a binary search.
* :class:`ContinuousLaw` -- laws with closed-form ``F``, ``G`` and
  quantile (see :mod:`thqaoa.dist_models`).

Support bounds use signed-infinity sentinels; both ``F`` and ``G``
evaluate to 0 at ``-inf``.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from abc import ABC, abstractmethod
from dataclasses import dataclass
from itertools import accumulate
from operator import mul
from types import ModuleType
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError

__all__ = [
    "Distribution",
    "DiscreteSpectrum",
    "DiscreteLaw",
    "ContinuousLaw",
    "discretize_equal_mass",
]

#: Total-mass consistency tolerance for discrete spectra.
MASS_TOLERANCE = 1e-12


def _lazy_import(name: str) -> ModuleType:
    """Module ``name``, executed on its first attribute access.

    Binds ``scipy.special`` (in ``dist_models`` and ``baselines``),
    ``scipy.integrate`` (``baselines``) and ``scipy.optimize``
    (``gmqaoa._sciopt`` and ``figures``), which would otherwise take
    most of ``import thqaoa``'s time.  A module already in ``sys.modules``
    is returned as it is.  After the first access the object is a plain
    module, so call sites pay nothing per call.  ``gmqaoa`` keeps the
    name ``_sciopt`` because profilers replace that attribute with a
    proxy whose ``minimize`` counts the angle-search restarts.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _math_map(f: Callable[..., float], x: np.ndarray, *args: Iterable[float]) -> np.ndarray:
    """Scalar ``f`` applied to each element of ``x``, as float64.

    numpy's ``exp``, ``arcsin``, ``sin`` and ``power`` are not the C
    library's: they differ from :mod:`math` in the last bit on a few
    percent of doubles.  Array code that must equal a scalar ``math``
    computation bit for bit maps ``math`` over the elements instead;
    ``+ - * /``, ``sqrt`` and comparisons are correctly rounded in both and
    stay numpy.  ``args`` are further iterables, as for :func:`map`.
    """
    return np.fromiter(map(f, x.tolist(), *args), dtype=np.float64, count=x.size)


# ---------------------------------------------------------------------------
# Discrete spectra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscreteSpectrum:
    """A finite cost spectrum with precomputed prefix sums.

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
    mass_suffix:
        ``mass_suffix[i] = sum(masses[i:])``, summed right to left, so
        ``P(X >= values[i])`` avoids the cancellation in ``1 - F`` when
        ``F`` is close to 1.
    """

    values: np.ndarray
    masses: np.ndarray
    mass_prefix: np.ndarray
    gain_prefix: np.ndarray
    mass_suffix: np.ndarray

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
        # The total mass is 1 by construction; pin the accumulated
        # endpoints so float dust (masses summing to 1 +- few ulp)
        # cannot leak into lookups at the support edges.
        mass_prefix[-1] = 1.0
        mass_suffix[0] = 1.0
        return DiscreteSpectrum(v, m, mass_prefix, gain_prefix, mass_suffix)


def _spectrum_from_multiplicities(
    values: Sequence[float], multiplicities: Sequence[int]
) -> Tuple[DiscreteSpectrum, List[int], List[int], int]:
    """A spectrum from exact integer multiplicities, with the counts
    ``c_i``, the numerators ``k_i`` and the power of two ``D`` with
    ``values[i] == k_i / D``, so that exact moments need no second pass.

    With the values scaled to integers over one power of two
    (:func:`_integer_numerators`), the prefix sums of counts and of
    ``k_i * c_i`` and the suffix sums of counts are exact Python ints,
    and each entry is one int/int true division, which CPython rounds
    correctly: even masses around 1e-180 (huge solution-space counts)
    keep full relative precision.  A multiplicity that is not a positive
    integer, such as 1.5 or nan, raises ``DomainError``, and so does a
    mass that underflows to 0: the atom would sit in the support with
    no mass, and the minimum's mass would read 0.
    """
    v = np.asarray(values, dtype=np.float64)
    try:
        mults = [int(c) for c in multiplicities]
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"multiplicities must be positive integers: {exc}") from None
    bad = next((m for c, m in zip(mults, multiplicities) if c <= 0 or c != m), None)
    if bad is not None:
        raise DomainError(f"multiplicities must be positive integers, got {bad!r}")
    total = sum(mults)
    _validate_support(v, np.ones_like(v))
    scaled, den = _integer_numerators(v)

    def ratios(numerators, denominator) -> np.ndarray:
        return np.array([k / denominator for k in numerators], dtype=np.float64)

    masses = ratios(mults, total)
    empty = np.flatnonzero(masses == 0.0)
    if empty.size:
        k = int(empty[0])
        raise DomainError(f"the mass at k={k} underflows to 0 (value {float(v[k])!r})")
    mass_prefix = ratios(accumulate(mults), total)
    gain_prefix = ratios(accumulate(map(mul, scaled, mults)), den * total)
    mass_suffix = ratios(list(accumulate(reversed(mults)))[::-1], total)
    spectrum = DiscreteSpectrum(v, masses, mass_prefix, gain_prefix, mass_suffix)
    return spectrum, mults, scaled, den


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
    if np.any(values[1:] <= values[:-1]):
        raise DomainError("support values must be strictly ascending")
    if np.any(masses <= 0):
        raise DomainError("masses must be strictly positive")


# ---------------------------------------------------------------------------
# Distribution interface
# ---------------------------------------------------------------------------


class Distribution(ABC):
    """A probability law over costs.

    Concrete laws expose ``mean``, ``std`` (> 0), extended-real support
    bounds ``r_min``/``r_max``, ``F`` and ``G`` over an array of
    thresholds (:meth:`_terms`, the one place each law computes them),
    and the quantile as ``quantile`` and ``quantile_vec``, which equal
    each other element for element, bit for bit.  The scalar ``cdf``
    and ``partial_expectation`` are :meth:`_terms` of a one-element
    array.  The quantile keeps its scalar form on purpose: the
    ``crs --method integral`` quadrature asks about 2,400 scalar normal
    quantiles per call, and a one-element array costs about ten times
    the scalar per quantile (2.4 against 0.25 microseconds, numpy 2.4.6
    on a 2-core Xeon host).  The family is the class:
    :class:`DiscreteLaw` or :class:`ContinuousLaw`.  Instances are
    immutable after construction and safe to share across threads.
    """

    mean: float
    std: float
    r_min: float
    r_max: float

    # -- queries -------------------------------------------------------

    @abstractmethod
    def _terms(self, t: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(F(t), G(t))`` elementwise over a 1-d float64 array ``t``.

        Each element depends on its own threshold alone, so one
        threshold gives the same bits in any array: ``_terms`` at
        ``quantile_vec(u)`` equals :meth:`quantile`, :meth:`cdf` and
        :meth:`partial_expectation` bit for bit, an array search picks
        the thresholds a scalar search picks (``tests/oracles.py`` runs
        one), and an equal-mass discretization places the atoms the
        scalar queries place.
        """

    def cdf(self, x: float) -> float:
        """F(x) = P(X <= x)."""
        return float(self._terms(np.array([x], dtype=np.float64))[0][0])

    def partial_expectation(self, x: float) -> float:
        """G(x) = E[X * 1{X <= x}]; equals ``mean`` for x >= r_max."""
        return float(self._terms(np.array([x], dtype=np.float64))[1][0])

    @abstractmethod
    def quantile(self, p: float) -> float:
        """Inverse cdf for p in (0, 1)."""

    @abstractmethod
    def quantile_vec(self, p: np.ndarray) -> np.ndarray:
        """:meth:`quantile` over a 1-d array, equal to it bit for bit."""

    def _check_quantile_domain(self, p: float) -> None:
        if not (0.0 < p < 1.0):
            raise DomainError(f"quantile probability must lie in (0, 1), got {p!r}")


class DiscreteLaw(Distribution):
    """A distribution with finite support backed by a :class:`DiscreteSpectrum`."""

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

    def _terms(self, t):
        """F and G, right-continuous: prefix lookups."""
        idx = np.searchsorted(self.spectrum.values, t, side="right")
        below = idx == 0
        f = np.where(below, 0.0, self.spectrum.mass_prefix[idx - 1])
        return f, np.where(below, 0.0, self.spectrum.gain_prefix[idx - 1])

    def quantile(self, p: float) -> float:
        """Smallest support value with F >= p, for p in (0, 1)."""
        self._check_quantile_domain(p)
        idx = int(np.searchsorted(self.spectrum.mass_prefix, p, side="left"))
        return float(self.spectrum.values[min(idx, self.spectrum.values.size - 1)])

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

    def quantile_vec(self, p: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.spectrum.mass_prefix, np.asarray(p, dtype=np.float64), side="left")
        idx = np.minimum(idx, self.spectrum.values.size - 1)
        return self.spectrum.values[idx]


class ContinuousLaw(Distribution):
    """Base class for laws with a density.

    Subclasses supply closed-form ``F`` and ``G`` in :meth:`_terms`, and
    the quantile as ``quantile`` and ``quantile_vec``.
    """

    def _check_representable(self) -> None:
        """Reject parameters whose moments or quantiles overflow a double.

        Subclass constructors call this once their moments are set.  The
        quantile is checked at the smallest positive double and at the
        largest double below 1, the two ends of its domain.
        """
        if not (math.isfinite(self.mean) and 0.0 < self.std < math.inf):
            raise DomainError(
                f"law needs a finite mean and a finite positive standard deviation, "
                f"got mean={self.mean!r}, std={self.std!r}"
            )
        for p in (math.ulp(0.0), 1.0 - 2.0**-53):
            q = self.quantile(p)
            if not math.isfinite(q):
                raise DomainError(f"law's quantile at p={p!r} is {q!r}, not a finite double")


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
    if not isinstance(dist, ContinuousLaw):
        raise DomainError("discretize_equal_mass expects a continuous law")
    if bins < 2:
        raise DomainError("bins must be at least 2")
    _, inner_gains = dist._terms(dist.quantile_vec(np.arange(1, bins) / bins))
    gains = np.concatenate(([0.0], inner_gains, [dist.mean]))
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
