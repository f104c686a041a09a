"""Threshold-compiled Grover-mixer schedules: closed-form expectation,
threshold curves, and threshold optimization.

For a threshold ``t`` the phase separator marks the states with cost at
most ``t``; ``r`` amplification rounds then boost the marked mass from
``rho = F_X(t)`` to ``P(rho, r)``.  The resulting cost expectation has
the closed form (with ``Y = X - mu`` and ``T = t - mu``)

    E_r(t) = mu - G_Y(T) * (1 - P(rho, r)/rho) / (1 - rho),

which this module evaluates in a cancellation-aware three-branch form:
``mu`` when no or all mass is marked, ``mu + G_Y(T)/rho`` when the
marked mass is boosted to certainty (``rho >= threshold_ratio(r)``),
and the general form otherwise.  Everything else here -- curves, their
unimodality diagnostics, the threshold optimizer and the exact-optimum
round count -- is built on that evaluation.

The closed form has two implementations.  :func:`_threshold_objective`
is the scalar one, built once per (law, r) with ``P(rho, r)`` inlined
from the kernel's libm calls; it is the reference and the single-r path
(:func:`expectation_at_threshold`, :func:`optimize_threshold`'s golden
section).  :func:`_expectations` evaluates the same branches on arrays
of law terms ``(F(t), G(t))``, each with its own round count, for every
array caller: :func:`threshold_curve`, the discrete candidate scan, and
:func:`optimize_thresholds`, which steps the golden-section searches of
all rounds of a continuous law in lockstep.  Each element equals the
scalar value for the same terms bit for bit: only correctly rounded
operations run as numpy array code (``+ - * /``, ``sqrt``, comparisons,
``where``), while ``asin`` and ``sin`` are :mod:`math`'s, mapped over
the elements -- numpy's own differ from libm in the last bit on a few
percent of doubles.  The law terms equal the scalar queries too: a
discrete law's prefix tables, a continuous law's ``_search_terms``, or
the scalar ``cdf`` and ``partial_expectation`` themselves.  So every
curve point equals :func:`expectation_at_threshold`.

The lockstep (:func:`_golden_section_argmin_batch`) steps whole arrays
while every search is live and carries by index only the last searches,
whose brackets differ by a few ulps; ``bounds.c_ths`` runs its score
searches on the same helper.  Every report is assembled by one function,
:func:`_reports`, from a threshold, its marked mass and its expectation:
:func:`threshold_report` queries them for its one threshold, and
:func:`optimize_thresholds` takes them from what its searches already
hold, querying the law only for each report's ``quantile``.  So
:func:`optimize_thresholds` returns :func:`optimize_threshold`'s
reports, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .dist_core import ContinuousLaw, DiscreteLaw, Distribution, _math_map
from .errors import DomainError
from .grover_kernel import _check_rounds, _threshold_ratio_any, threshold_ratio

__all__ = [
    "ThresholdReport",
    "ThresholdCurve",
    "expectation_at_threshold",
    "threshold_report",
    "threshold_curve",
    "optimize_threshold",
    "optimize_thresholds",
    "min_rounds_exact_opt",
]

#: Relative convergence tolerance of the continuous threshold search,
#: measured on the marked mass u = F(t).
CONTINUOUS_SEARCH_TOLERANCE = 1e-12

#: The continuous search spans u in [threshold_ratio(r) * SPAN, threshold_ratio(r)].
CONTINUOUS_SEARCH_SPAN = 1e-13

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class ThresholdReport:
    """Full scorecard of one thresholded run.

    ``t_opt`` is the threshold the report describes (the optimizer's
    choice, or the caller's when built directly); ``T = t - mu``;
    ``rho = F_X(t)`` is the marked mass, ``P`` its boosted value,
    ``eta = P/rho`` the amplification.  ``E_r`` is the cost
    expectation, ``C_r = (mu - E_r)/sigma`` the negated standard score
    (so ``E_r = mu - C_r*sigma``), ``quantile = F_X(E_r)``.  ``lam`` is
    the approximation ratio ``E_r/R_min``, present only when the
    support minimum is finite and nonzero.
    """

    r: int
    t_opt: float
    T: float
    rho: float
    P: float
    E_r: float
    C_r: float
    quantile: float
    eta: float
    lam: Optional[float]


@dataclass(frozen=True)
class ThresholdCurve:
    """Expectation and score along an ascending grid of thresholds."""

    r: int
    thresholds: np.ndarray
    f_values: np.ndarray
    expectations: np.ndarray
    scores: np.ndarray

    def __len__(self) -> int:
        return len(self.thresholds)

    def unimodality_violations(self, tol: float = 1e-12) -> int:
        """Count of descents that occur after any ascent.

        A curve that is non-increasing and then non-decreasing (one
        valley) returns 0.  Differences within ``tol`` of zero are
        treated as flat.
        """
        diffs = np.diff(self.expectations)
        signs = np.where(diffs > tol, 1, np.where(diffs < -tol, -1, 0))
        signs = signs[signs != 0]
        seen_rise = False
        violations = 0
        for s in signs:
            if s > 0:
                seen_rise = True
            elif seen_rise:
                violations += 1
        return violations


def _threshold_objective(dist: Distribution, r: int) -> Callable[[float], float]:
    """E_r(t) as a function of the threshold alone, built once per (law, r).

    ``r`` is checked and ``threshold_ratio(r)`` computed here, once; the
    returned function then evaluates the three branches of
    :func:`expectation_at_threshold` with ``P(rho, r)`` inlined.  It
    makes the same ``math.sqrt``/``asin``/``sin`` calls in the same
    order as :func:`grover_probability`, so its values match the
    kernel's bit for bit.
    """
    r = _check_rounds(r)
    mu = dist.mean
    cdf = dist.cdf
    partial_expectation = dist.partial_expectation
    rho_th = threshold_ratio(r)
    k = 2.0 * r + 1.0

    def expectation(t: float) -> float:
        rho = cdf(t)
        if rho <= 0.0 or rho >= 1.0:
            return mu
        g_y = partial_expectation(t) - mu * rho
        if rho >= rho_th:
            return mu + g_y / rho
        if rho != rho:  # nan passes both tests above; the kernel rejects it
            raise DomainError(f"amplification requires 0 < rho <= 1, got {rho!r}")
        s = math.sin(k * math.asin(math.sqrt(rho)))
        return mu + g_y * (s * s / rho - 1.0) / (1.0 - rho)

    return expectation


def expectation_at_threshold(dist: Distribution, r: int, t: float) -> float:
    """Closed-form cost expectation of the thresholded schedule.

    Returns ``mu`` exactly when the threshold marks no mass or all of
    it; ``mu + G_Y(T)/rho`` (the conditional mean of the marked part)
    when ``rho >= threshold_ratio(r)``; and the general form
    ``mu + G_Y(T) * (eta - 1) / (1 - rho)`` with ``eta = P/rho``
    otherwise.
    """
    return _threshold_objective(dist, r)(t)


def threshold_report(dist: Distribution, r: int, t: float) -> ThresholdReport:
    """Evaluate one threshold and assemble the full scorecard."""
    r = _check_rounds(r)
    e_r = expectation_at_threshold(dist, r, t)
    rho_th, k = _round_terms([r])
    return _reports(dist, [r], rho_th, k, np.array([float(t)]), np.array([dist.cdf(t)]), np.array([e_r]))[0]


def _round_terms(rounds: List[int]) -> Tuple[np.ndarray, np.ndarray]:
    """``threshold_ratio(r)`` and ``k = 2r + 1`` for each checked round count."""
    rho_th = np.array([_threshold_ratio_any(r) for r in rounds], dtype=np.float64)
    k = np.array([2.0 * r + 1.0 for r in rounds], dtype=np.float64)
    return rho_th, k


def _reports(
    dist: Distribution,
    rounds: List[int],
    rho_th: np.ndarray,
    k: np.ndarray,
    t: np.ndarray,
    rho: np.ndarray,
    e_r: np.ndarray,
) -> List[ThresholdReport]:
    """The scorecards of thresholds ``t`` from terms a caller already holds.

    One element per round: checked ``rounds`` with their
    :func:`_round_terms`, the threshold ``t``, its marked mass
    ``rho = F(t)`` and its expectation ``e_r = E_r(t)``.  ``P`` is
    :func:`grover_probability`'s formula with :mod:`math`'s ``asin`` and
    ``sin`` mapped over the elements, and the rest is correctly rounded
    arithmetic, so every field equals the scalar computation's; the law
    is queried once per report, for ``quantile = F(E_r)``.  Every report
    of this module is assembled here.
    """
    s = _math_map(math.sin, k * _math_map(math.asin, np.sqrt(rho)))
    p = np.where(rho >= rho_th, 1.0, s * s)
    cap = np.array([float((2 * r + 1) ** 2) for r in rounds])
    # p / rho can pass the cap by an ulp or two as rho -> 0
    eta = np.minimum(np.divide(p, rho, out=cap.copy(), where=rho > 0.0), cap)
    mu, r_min = dist.mean, dist.r_min
    lam = (e_r / r_min).tolist() if math.isfinite(r_min) and r_min != 0.0 else [None] * len(rounds)
    columns = (t, t - mu, rho, p, e_r, (mu - e_r) / dist.std, _math_map(dist.cdf, e_r), eta)
    return [
        ThresholdReport(*fields)
        for fields in zip(rounds, *(column.tolist() for column in columns), lam)
    ]


def _expectations(mu: float, rho: np.ndarray, g: np.ndarray, rho_th, k) -> np.ndarray:
    """E_r elementwise from the law terms ``rho = F(t)`` and ``g = G(t)``.

    ``rho_th = threshold_ratio(r)`` and ``k = 2r + 1`` are one value or
    one per element.  The branches and operations of
    :func:`_threshold_objective`, on arrays, with ``asin`` and ``sin``
    from :mod:`math`: every element equals the scalar objective for the
    same ``(rho, g)`` bit for bit, and a nan marked mass raises as the
    kernel does.  When every element takes the general branch, as in a
    threshold search, no element is gathered or scattered.
    """
    boosted = rho >= rho_th  # rho_th < 1, so this holds wherever rho >= 1
    general = ~((rho <= 0.0) | boosted)  # nan fails both tests, as in the scalar objective
    every = general.all()
    rg, kg = (rho, k) if every else (rho[general], k[general] if np.ndim(k) else k)
    if np.isnan(rg).any():  # the kernel rejects a nan marked mass
        raise DomainError(f"amplification requires 0 < rho <= 1, got {float(rg[np.isnan(rg)][0])!r}")
    s = _math_map(math.sin, kg * _math_map(math.asin, np.sqrt(rg)))
    # Silent, as Python floats overflow to inf and give nan silently; the
    # division's value is discarded where rho = 0 or the element is general.
    with np.errstate(all="ignore"):
        g_y = g - mu * rho
        if every:
            return mu + g_y * (s * s / rho - 1.0) / (1.0 - rho)
        e = np.where(boosted & (rho < 1.0), mu + g_y / rho, mu)
        e[general] = mu + g_y[general] * (s * s / rg - 1.0) / (1.0 - rg)
    return e


GridSpec = Union[str, int, Sequence[float]]


def threshold_curve(dist: Distribution, r: int, grid_spec: GridSpec) -> ThresholdCurve:
    """Evaluate E_r(t) along a grid of thresholds.

    ``grid_spec`` is one of:

    * ``"support"`` -- every support value of a discrete law;
    * an integer ``n`` -- for continuous laws, ``n`` thresholds placed
      log-uniformly in marked mass ``F(t)`` from 1e-14 up to 1 (the last
      point is the all-marked limit, where the expectation is ``mu``);
    * an explicit sequence of thresholds (any law; sorted ascending).

    Every expectation equals :func:`expectation_at_threshold` at its
    threshold bit for bit, and every ``F`` the law's ``cdf``: the law
    terms come from the prefix tables, one ``_search_terms`` call, or
    (for an explicit list) the scalar ``cdf`` and
    ``partial_expectation`` at each threshold, and :func:`_expectations`
    evaluates them.
    """
    r = _check_rounds(r)
    if isinstance(grid_spec, str):
        if grid_spec != "support":
            raise DomainError(f"unknown grid spec {grid_spec!r}; expected 'support'")
        if not isinstance(dist, DiscreteLaw):
            raise DomainError("'support' grids need a discrete law")
        ts = dist.spectrum.values.copy()
        rho = dist.spectrum.mass_prefix.copy()
        g = dist.spectrum.gain_prefix
    elif isinstance(grid_spec, (int, np.integer)) and not isinstance(grid_spec, bool):
        n = int(grid_spec)
        if n < 2:
            raise DomainError(f"grid size must be at least 2, got {n}")
        if isinstance(dist, DiscreteLaw):
            raise DomainError("integer F-grids are for continuous laws; use 'support'")
        # The last point, u = 1, is the all-marked limit t = inf.
        ts, rho, g = dist._search_terms(np.geomspace(1e-14, 1.0, n)[:-1])
        ts = np.append(ts, math.inf)
        rho = np.append(rho, dist.cdf(math.inf))
        g = np.append(g, dist.partial_expectation(math.inf))
    else:
        ts = np.sort(np.asarray(list(grid_spec), dtype=np.float64))
        if ts.size == 0:
            raise DomainError("threshold grid must not be empty")
        rho, g = _math_map(dist.cdf, ts), _math_map(dist.partial_expectation, ts)
    e = _expectations(dist.mean, rho, g, threshold_ratio(r), 2.0 * r + 1.0)
    scores = (dist.mean - e) / dist.std
    return ThresholdCurve(r=r, thresholds=ts, f_values=rho, expectations=e, scores=scores)


def _golden_section_argmin(
    value_at: Callable[[float], float], a: float, b: float, tol: float
) -> Tuple[float, float]:
    """Golden-section search for the minimizer of a unimodal function.

    Shrinks ``[a, b]`` until it is at most ``tol`` wide and returns the
    interior point with the smaller value (the left one on ties) together
    with that value.
    """
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = value_at(c), value_at(d)
    while (b - a) > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = value_at(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = value_at(d)
    return (c, fc) if fc <= fd else (d, fd)


def _optimize_discrete(law: DiscreteLaw, r: int) -> Tuple[float, float, float]:
    """Optimal threshold over a discrete support: ``(t, F(t), E_r(t))``.

    The expectation beyond the certainty region is the plain conditional
    mean E[X|X<=t], which is non-decreasing in t, so the candidate set
    is every support value with F <= threshold_ratio(r) plus the first
    one beyond.  Ties go to the smallest threshold.  ``F(t)`` is the
    prefix table's entry, which is what ``law.cdf(t)`` returns, and the
    expectation is the scalar objective's at ``t``, bit for bit.
    """
    spectrum = law.spectrum
    rho_th = threshold_ratio(r)
    k = int(np.searchsorted(spectrum.mass_prefix, rho_th, side="right"))
    n_candidates = min(k + 1, spectrum.values.size)
    e = _expectations(
        law.mean,
        spectrum.mass_prefix[:n_candidates],
        spectrum.gain_prefix[:n_candidates],
        rho_th,
        2.0 * r + 1.0,
    )
    best = int(np.argmin(e))
    return float(spectrum.values[best]), float(spectrum.mass_prefix[best]), float(e[best])


def _optimize_continuous(dist: Distribution, r: int) -> float:
    """Golden-section search on u = F(t), log-scaled.

    The expectation is unimodal in t, hence in u; the search runs over
    ``u in [threshold_ratio(r) * 1e-13, threshold_ratio(r)]`` in
    log-space (the optimum shrinks like 1/r^2, so a relative tolerance
    is the meaningful one) and the right endpoint -- the smallest
    certainty threshold -- is compared explicitly.  The objective is
    built once for the whole search.
    """
    expectation = _threshold_objective(dist, r)
    quantile = dist.quantile
    rho_th = threshold_ratio(r)
    hi = math.log(rho_th)
    lo = hi + math.log(CONTINUOUS_SEARCH_SPAN)

    def value_at(v: float) -> float:
        return expectation(quantile(math.exp(v)))

    v_best, best_e = _golden_section_argmin(value_at, lo, hi, CONTINUOUS_SEARCH_TOLERANCE)
    # The search's own winner first, so that ties keep it.
    best_u = math.exp(v_best)
    for u in (rho_th, math.exp(lo)):
        e = expectation(quantile(u))
        if e < best_e:
            best_u, best_e = u, e
    return quantile(best_u)


def _golden_section_argmin_batch(
    value_at: Callable[[np.ndarray, Union[slice, np.ndarray]], np.ndarray],
    a: np.ndarray,
    b: np.ndarray,
    tol: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`_golden_section_argmin` on arrays of brackets, in lockstep.

    ``value_at(x, idx)`` evaluates the objectives of searches ``idx`` at
    ``x``.  Every search takes the scalar search's steps -- the same
    comparisons, ties and points -- and drops out once its bracket is at
    most ``tol`` wide.  While every search is live the whole arrays are
    stepped and ``idx`` is ``slice(None)``; brackets that differ by a few
    ulps can finish a step apart, and that tail steps the live searches
    by index, gathering and scattering their entries.
    """
    every = slice(None)
    a, b = a.copy(), b.copy()
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = value_at(c, every), value_at(d, every)
    width = b - a
    while width.size and width.min() > tol:
        left = fc <= fd  # the scalar search's `if fc <= fd` branch
        a, b = np.where(left, a, c), np.where(left, d, b)
        width = b - a
        step = _INV_GOLDEN * width
        x = np.where(left, b - step, a + step)
        fx = value_at(x, every)
        c, d = np.where(left, x, d), np.where(left, c, x)
        fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)
    live = np.flatnonzero(width > tol)
    while live.size:
        la, lb, lc, ld, lfc, lfd = a[live], b[live], c[live], d[live], fc[live], fd[live]
        left = lfc <= lfd
        na = np.where(left, la, lc)
        nb = np.where(left, ld, lb)
        x = np.where(left, nb - _INV_GOLDEN * (nb - na), na + _INV_GOLDEN * (nb - na))
        fx = value_at(x, live)
        a[live], b[live] = na, nb
        c[live] = np.where(left, x, ld)
        d[live] = np.where(left, lc, x)
        fc[live] = np.where(left, fx, lfd)
        fd[live] = np.where(left, lfc, fx)
        live = live[(nb - na) > tol]
    take_c = fc <= fd
    return np.where(take_c, c, d), np.where(take_c, fc, fd)


def _optimize_continuous_batch(
    law: ContinuousLaw, rho_th: np.ndarray, k: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`_optimize_continuous` for every round at once.

    ``rho_th`` and ``k`` hold each round's :func:`_round_terms`.  Returns
    the winning marked masses ``u`` and their expectations
    ``E_r(quantile(u))``.
    """
    hi = _math_map(math.log, rho_th)
    lo = hi + math.log(CONTINUOUS_SEARCH_SPAN)
    u_lo = _math_map(math.exp, lo)
    # Every mass tried lies in [u_lo, rho_th], as exp is monotone, and
    # rho_th <= 1/4: only an underflow at the lower end leaves the domain.
    outside = u_lo[~(u_lo > 0.0)]
    if outside.size:
        law._check_quantile_domain(float(outside[0]))
    mu = law.mean

    def e_at(u: np.ndarray, idx: Union[slice, np.ndarray]) -> np.ndarray:
        _, rho, g = law._search_terms(u)
        return _expectations(mu, rho, g, rho_th[idx], k[idx])

    def value_at(v: np.ndarray, idx: Union[slice, np.ndarray]) -> np.ndarray:
        return e_at(_math_map(math.exp, v), idx)

    with np.errstate(all="ignore"):  # Python floats give inf and nan without a warning
        v_best, best_e = _golden_section_argmin_batch(value_at, lo, hi, CONTINUOUS_SEARCH_TOLERANCE)
        best_u = _math_map(math.exp, v_best)
        # The search's own winner first, so that ties keep it.
        for u in (rho_th, u_lo):
            e = e_at(u, slice(None))
            better = e < best_e
            best_u, best_e = np.where(better, u, best_u), np.where(better, e, best_e)
    return best_u, best_e


def optimize_threshold(dist: Distribution, r: int) -> ThresholdReport:
    """Globally minimize E_r(t) over thresholds and report the optimum.

    Discrete laws are scanned exhaustively over the candidate support
    values (everything up to the certainty region plus one value
    beyond); continuous laws run a golden-section search on the marked
    mass, over an objective built once for this r (see the module
    docstring).  The optimal threshold never exceeds the smallest
    certainty threshold ``quantile(threshold_ratio(r))``, and its
    expectation never exceeds the conditional mean below it.

    This is the reference path: :func:`optimize_thresholds` runs the
    same searches for many r at once on numpy arrays, with libm's
    transcendentals, and returns these reports bit for bit.  For one r
    this scalar search is the cheaper of the two.
    """
    r = _check_rounds(r)
    if isinstance(dist, DiscreteLaw):
        t_opt, _, _ = _optimize_discrete(dist, r)
    else:
        t_opt = _optimize_continuous(dist, r)
    return threshold_report(dist, r, t_opt)


def optimize_thresholds(dist: Distribution, rounds: Iterable[int]) -> List[ThresholdReport]:
    """:func:`optimize_threshold` for each round count in ``rounds``, in order.

    On a continuous law the golden-section searches of all rounds run at
    once, as numpy arrays stepped in lockstep (see the module docstring);
    a discrete law's scan is already vectorized over its candidates, so
    it runs once per round.  The reports are then assembled from what
    the searches hold -- the winning threshold, its marked mass (one
    ``_search_terms`` query of the winning masses, or the prefix table)
    and its expectation -- with no round rechecked, no objective rebuilt
    and no ``cdf(t)`` or ``partial_expectation(t)`` queried again.
    Every report equals ``optimize_threshold(dist, r)`` bit for bit.
    """
    rounds = [_check_rounds(r) for r in rounds]
    if not rounds:
        return []
    rho_th, k = _round_terms(rounds)
    if isinstance(dist, DiscreteLaw):
        t, rho, e_r = np.array([_optimize_discrete(dist, r) for r in rounds]).T
    else:
        u, e_r = _optimize_continuous_batch(dist, rho_th, k)
        t, rho, _ = dist._search_terms(u)
    return _reports(dist, rounds, rho_th, k, t, rho, e_r)


def min_rounds_exact_opt(dist: Distribution) -> int:
    """Fewest rounds that boost the support-minimum mass to certainty.

    Smallest integer ``r`` with ``f_X(R_min) >= threshold_ratio(r)``,
    i.e. ``r >= (pi / arcsin(sqrt(f)) - 2) / 4``.  A law whose whole
    mass sits on the minimum needs 0 rounds.  Continuous laws carry no
    mass at a point and are rejected.
    """
    if not isinstance(dist, DiscreteLaw):
        raise DomainError("exact-optimum round counts need a discrete law (point mass at the minimum)")
    f = dist.min_mass()
    if f >= 1.0:
        return 0
    # threshold_ratio(r) underflows to 0 by r ~ 2**540, so every f > 0 is reached.
    return _first_round(lambda r: f >= threshold_ratio(r), math.inf)


def _first_round(reached: Callable[[int], bool], limit: float) -> Optional[int]:
    """Smallest ``r >= 1`` with ``reached(r)``, or None if ``reached(limit)`` is false.

    ``reached`` must be false below some round count and true from it
    on.  It is tried at r = 1, 2, 4, ... (capped at ``limit``) until it
    holds, then bisected between the last two round counts tried.  Each
    doubling step calls it with a round count larger than any before.
    """
    r = 1
    while not reached(r):
        if r >= limit:
            return None
        r = min(2 * r, limit)
    lo, hi = r // 2, r  # not reached(lo) unless lo = 0; reached(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if reached(mid):
            hi = mid
        else:
            lo = mid
    return hi
