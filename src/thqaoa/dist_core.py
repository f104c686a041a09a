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

* :class:`DiscreteLaw` -- finite support, built from exact integer
  counts (every discrete law: empirical, binomial, two-point, K_{n,n} and
  equal-mass discretizations, whose merged runs are pooled counts) on a
  :class:`DiscreteSpectrum` that precomputes prefix sums of mass and of
  value*mass so that every query is a binary search.  The masses
  ``c/N``, their prefix and suffix sums and the mean are the exact
  rationals, correctly rounded.
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
from typing import Callable, Iterable, List, Sequence, Tuple

import numpy as np

from .errors import DomainError

__all__ = [
    "Distribution",
    "DiscreteSpectrum",
    "DiscreteLaw",
    "ContinuousLaw",
    "discretize_equal_mass",
]

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

    Every entry is an exact rational rounded once to float64: a
    :class:`DiscreteLaw` builds it from integer counts ``c_i`` out of
    ``N = sum(c_i)``.

    Attributes
    ----------
    values:
        Strictly ascending cost values (float64).
    masses:
        Positive probability masses ``c_i / N`` aligned with ``values``.
    mass_prefix / gain_prefix:
        ``mass_prefix[i] = sum(masses[: i + 1])`` and
        ``gain_prefix[i] = sum(values[: i + 1] * masses[: i + 1])``, so
        ``F(x)`` and ``G(x)`` are prefix lookups; ``mass_prefix[-1]`` is
        exactly 1.
    mass_suffix:
        ``mass_suffix[i] = sum(masses[i:])``, so ``P(X >= values[i])``
        avoids the cancellation in ``1 - F`` when ``F`` is close to 1;
        ``mass_suffix[0]`` is exactly 1.
    """

    values: np.ndarray
    masses: np.ndarray
    mass_prefix: np.ndarray
    gain_prefix: np.ndarray
    mass_suffix: np.ndarray


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


def _validate_support(values: np.ndarray) -> None:
    if values.ndim != 1 or values.size == 0:
        raise DomainError("support must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(values)):
        raise DomainError("support values must be finite")
    if np.any(values[1:] <= values[:-1]):
        raise DomainError("support values must be strictly ascending")


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
    """A finite-support law built from exact integer counts.

    ``values`` are strictly ascending finite floats and ``counts`` positive
    integers of any size (solution-space counts can exceed 64 bits by
    hundreds of digits); the atom ``values[i]`` has the mass
    ``counts[i] / N`` with ``N = sum(counts)``.  This is the one
    construction path of every discrete law: empirical, binomial,
    two-point and K_{n,n} laws, and equal-mass discretizations.

    With the values written exactly as ``k_i / D`` over one power of two
    ``D`` (:func:`_integer_numerators`), the prefix sums of counts and of
    ``k_i c_i`` and the suffix sums of counts are exact Python ints, and
    each :class:`DiscreteSpectrum` entry is one int/int true division,
    which CPython rounds correctly: even masses around 1e-180 keep full
    relative precision.  With ``S1 = sum(k_i c_i)`` and
    ``S2 = sum(k_i^2 c_i)``,

        mean = S1 / (N D),    var = (N S2 - S1^2) / (N^2 D^2),

    each rounded once (then ``sqrt`` for the standard deviation).  A
    variance past the largest double is divided by a power of four before
    the division and its root multiplied by the matching power of two;
    both scalings are exact, so the standard deviation, at most half the
    value range, is the same as if the variance had fit.

    A count that is not a positive integer, such as 1.5 or nan, raises
    ``DomainError``, and so does a mass that underflows to 0: the atom
    would sit in the support with no mass, and the minimum's mass would
    read 0.  ``multiplicities`` and ``total_count`` keep the counts and
    ``N``.
    """

    def __init__(self, values: Sequence[float], counts: Sequence[int]):
        v = np.asarray(values, dtype=np.float64)
        try:
            mults = [int(c) for c in counts]
        except (TypeError, ValueError, OverflowError) as exc:
            raise DomainError(f"multiplicities must be positive integers: {exc}") from None
        bad = next((m for c, m in zip(mults, counts) if c <= 0 or c != m), None)
        if bad is not None:
            raise DomainError(f"multiplicities must be positive integers, got {bad!r}")
        _validate_support(v)
        total = sum(mults)
        scaled, den = _integer_numerators(v)

        def ratios(numerators, denominator) -> np.ndarray:
            return np.array([k / denominator for k in numerators], dtype=np.float64)

        masses = ratios(mults, total)
        empty = np.flatnonzero(masses == 0.0)
        if empty.size:
            k = int(empty[0])
            raise DomainError(f"the mass at k={k} underflows to 0 (value {float(v[k])!r})")
        weighted = list(map(mul, scaled, mults))
        self.spectrum = DiscreteSpectrum(
            v,
            masses,
            ratios(accumulate(mults), total),
            ratios(accumulate(weighted), den * total),
            ratios(list(accumulate(reversed(mults)))[::-1], total),
        )
        self.multiplicities = tuple(mults)
        self.total_count = total
        s1 = sum(weighted)
        var_num = total * sum(map(mul, scaled, weighted)) - s1 * s1
        var_den = total * total * den * den
        # var = var_num / var_den fits a double below 2**1024; beyond that,
        # var / 4**e keeps about 2**1000 and std = sqrt(var / 4**e) * 2**e.
        e = max(0, (var_num.bit_length() - var_den.bit_length()) // 2 - 500)
        self.mean = s1 / (total * den)
        self.std = math.ldexp(math.sqrt(var_num / (var_den << 2 * e)), e)
        if not (self.std > 0.0):
            raise DomainError("distribution must have positive standard deviation")
        self.r_min = float(v[0])
        self.r_max = float(v[-1])

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

    The law is split into ``bins`` equal-mass slices; each slice is one
    of ``bins`` equal counts, an atom of mass ``1/bins`` placed at the
    slice's conditional mean

        v_i = bins * (G(e_{i+1}) - G(e_i)),

    which preserves the overall mean (telescoping) and the cdf uniformly.
    Where these means fail to ascend in float precision (extreme tails),
    the run of slices is pooled into one atom at the run's conditional
    mean, carrying the run's count: a stack of runs, each new one merged
    backwards while its mean is at most the one below it.  The result is
    an exact :class:`DiscreteLaw` with masses ``c/bins``.
    """
    if not isinstance(dist, ContinuousLaw):
        raise DomainError("discretize_equal_mass expects a continuous law")
    if bins < 2:
        raise DomainError("bins must be at least 2")
    _, inner_gains = dist._terms(dist.quantile_vec(np.arange(1, bins) / bins))
    gains = [0.0, *inner_gains.tolist(), dist.mean]
    # run k pools the slices edges[k] .. edges[k + 1] - 1
    edges, values = [0], []
    for i in range(1, bins + 1):
        value = (gains[i] - gains[edges[-1]]) * bins
        while values and value <= values[-1]:
            values.pop()
            edges.pop()
            value = (gains[i] - gains[edges[-1]]) * bins / (i - edges[-1])
        edges.append(i)
        values.append(value)
    return DiscreteLaw(values, np.diff(edges).tolist())
