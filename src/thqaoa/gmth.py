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

The closed form has one implementation, :func:`_expectations`, which
evaluates the branches on arrays of law terms ``(F(t), G(t))``, each
element with its own round count.  Every caller goes through it:
:func:`expectation_at_threshold` and :func:`threshold_report` with
one-element arrays, :func:`threshold_curve`, the discrete candidate
scan, and the threshold search.  P is the kernel's
:func:`grover_probability_vec` and the rest correctly rounded array
arithmetic, so each element depends on its own terms alone.  The law
terms come from the law's one evaluator of ``F`` and ``G``,
``_terms`` (at ``quantile_vec`` of the masses in the searches), or
from a discrete law's prefix tables, which hold the same values.  So every
curve point equals :func:`expectation_at_threshold`.

There is one threshold search, :func:`optimize_thresholds`;
:func:`optimize_threshold` is a batch of one.  On a continuous law it
steps the golden-section searches of all rounds in lockstep
(:func:`_golden_section_argmin_batch`, the package's one golden-section
loop), whole arrays until the last search is done.  ``bounds.c_ths``
runs its score searches on the same helper.  On a discrete law one
scan, :func:`_optimize_discrete`, takes the candidates of every round
at once, as it takes those of every law a K_{n,n} round-search step
asks about.  Those searches, and the exact-optimum round count, run on
the package's one round search, :func:`_first_rounds`: doubling then
bisection, many searches in lockstep.  Every report is assembled by one
function, :func:`_reports`, from a threshold, its marked mass
and its expectation: :func:`threshold_report` queries them for its one
threshold, and :func:`optimize_thresholds` takes them from what its
searches already hold, querying the law only for each report's
``quantile``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .dist_core import ContinuousLaw, DiscreteLaw, DiscreteSpectrum, Distribution, _math_map
from .errors import DomainError
from .grover_kernel import (
    _amplification_caps, _check_rounds, _round_terms, grover_probability_vec, threshold_ratio,
)

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


def expectation_at_threshold(dist: Distribution, r: int, t: float) -> float:
    """Closed-form cost expectation of the thresholded schedule.

    Returns ``mu`` exactly when the threshold marks no mass or all of
    it; ``mu + G_Y(T)/rho`` (the conditional mean of the marked part)
    when ``rho >= threshold_ratio(r)``; and the general form
    ``mu + G_Y(T) * (eta - 1) / (1 - rho)`` with ``eta = P/rho``
    otherwise.
    """
    r = _check_rounds(r)
    rho, g = dist._terms(np.array([t], dtype=np.float64))
    return float(_expectations(dist.mean, rho, g, threshold_ratio(r), 2.0 * r + 1.0)[0])


def threshold_report(dist: Distribution, r: int, t: float) -> ThresholdReport:
    """Evaluate one threshold and assemble the full scorecard."""
    r = _check_rounds(r)
    ts = np.array([t], dtype=np.float64)
    rho, g = dist._terms(ts)
    rho_th, k = _round_terms([r])
    return _reports(dist, [r], rho_th, k, ts, rho, _expectations(dist.mean, rho, g, rho_th, k))[0]


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
    ``rho = F(t)`` and its expectation ``e_r = E_r(t)``.  ``P`` is the
    kernel's :func:`grover_probability_vec`, ``eta = P/rho`` is held to
    its :func:`_amplification_caps`, and the rest is correctly rounded
    arithmetic; the law is queried once, for every report's
    ``quantile = F(E_r)``.  Every report of this module is assembled here.
    """
    p = grover_probability_vec(rho, rho_th, k)
    cap = _amplification_caps(rounds)  # p / rho can pass it by an ulp or two as rho -> 0
    eta = np.minimum(np.divide(p, rho, out=cap.copy(), where=rho > 0.0), cap)
    mu, r_min = dist.mean, dist.r_min
    lam = (e_r / r_min).tolist() if math.isfinite(r_min) and r_min != 0.0 else [None] * len(rounds)
    columns = (t, t - mu, rho, p, e_r, (mu - e_r) / dist.std, dist._terms(e_r)[0], eta)
    return [
        ThresholdReport(*fields)
        for fields in zip(rounds, *(column.tolist() for column in columns), lam)
    ]


def _expectations(mu, rho: np.ndarray, g: np.ndarray, rho_th, k) -> np.ndarray:
    """E_r elementwise from the law terms ``rho = F(t)`` and ``g = G(t)``.

    The law mean ``mu``, ``rho_th = threshold_ratio(r)`` and
    ``k = 2r + 1`` are each one value or one per element.  Every value
    of the closed form in this module is computed here: the branches of
    :func:`expectation_at_threshold`, with P from the kernel's
    :func:`grover_probability_vec` and correctly rounded array
    arithmetic, so each element depends on its own ``(mu, rho, g, r)``
    alone.  Every element
    is evaluated in every branch and ``where`` picks its own; a nan
    marked mass raises as the kernel does.
    """
    if np.isnan(rho).any():  # the kernel rejects a nan marked mass
        raise DomainError("amplification requires 0 < rho <= 1, got nan")
    p = grover_probability_vec(rho, rho_th, k)
    # Silent, as Python floats overflow to inf and give nan silently; the
    # general form's value is discarded where rho = 0 or the mass is boosted.
    with np.errstate(all="ignore"):
        g_y = g - mu * rho
        general = mu + g_y * (p / rho - 1.0) / (1.0 - rho)
        # The boosted and the mu branch; rho > 0: past r ~ 1e161
        # threshold_ratio(r) underflows to 0, which a zero mass reaches.
        rest = np.where((rho >= rho_th) & (rho > 0.0) & (rho < 1.0), mu + g_y / rho, mu)
    return np.where((rho > 0.0) & (rho < rho_th), general, rest)


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
    terms of the whole grid come from one ``_terms`` call, and one
    :func:`_expectations` call evaluates them.
    """
    r = _check_rounds(r)
    if isinstance(grid_spec, str):
        if grid_spec != "support":
            raise DomainError(f"unknown grid spec {grid_spec!r}; expected 'support'")
        if not isinstance(dist, DiscreteLaw):
            raise DomainError("'support' grids need a discrete law")
        ts = dist.spectrum.values.copy()
    elif isinstance(grid_spec, (int, np.integer)) and not isinstance(grid_spec, bool):
        n = int(grid_spec)
        if n < 2:
            raise DomainError(f"grid size must be at least 2, got {n}")
        if isinstance(dist, DiscreteLaw):
            raise DomainError("integer F-grids are for continuous laws; use 'support'")
        # The last point, u = 1, is the all-marked limit t = inf.
        ts = np.append(dist.quantile_vec(np.geomspace(1e-14, 1.0, n)[:-1]), math.inf)
    else:
        ts = np.sort(np.asarray(list(grid_spec), dtype=np.float64))
        if ts.size == 0:
            raise DomainError("threshold grid must not be empty")
    rho, g = dist._terms(ts)
    e = _expectations(dist.mean, rho, g, threshold_ratio(r), 2.0 * r + 1.0)
    scores = (dist.mean - e) / dist.std
    return ThresholdCurve(r=r, thresholds=ts, f_values=rho, expectations=e, scores=scores)


#: Most candidate thresholds one pass of the discrete scan evaluates; a
#: batch with more runs in consecutive parts of whole items.
_DISCRETE_CHUNK = 1 << 16


def _optimize_discrete(
    spectra: Union[DiscreteSpectrum, Sequence[DiscreteSpectrum]],
    means: Union[float, Sequence[float]],
    rounds: Sequence[int],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Optimal thresholds over discrete supports: ``(t, F(t), E_r(t))`` per item.

    Item ``i`` is the law with spectrum ``spectra[i]`` and mean
    ``means[i]`` at the checked round count ``rounds[i]``; one spectrum
    and one mean serve every item.  The expectation beyond the
    certainty region is the plain conditional mean E[X|X<=t], which is
    non-decreasing in t, so an item's candidates are its support values
    with F <= threshold_ratio(r) plus the first one beyond.  All items'
    candidates go through one :func:`_expectations` call (per part of
    at most :data:`_DISCRETE_CHUNK` of them), and each item keeps its
    first minimum, the smallest threshold on ties, as ``np.argmin``
    would.  ``F(t)`` is the prefix table's entry, which is what
    ``law.cdf(t)`` returns, and the expectation is
    :func:`expectation_at_threshold`'s at ``t``, bit for bit.
    """
    count = len(rounds)
    if isinstance(spectra, DiscreteSpectrum):
        spectra = [spectra] * count
    means = np.broadcast_to(np.asarray(means, dtype=np.float64), (count,))
    rho_th, k = _round_terms(list(rounds))
    sizes = np.array([
        min(int(spectrum.mass_prefix.searchsorted(th, side="right")) + 1, spectrum.values.size)
        for spectrum, th in zip(spectra, rho_th.tolist())
    ], dtype=np.intp)
    ends = np.cumsum(sizes)
    t, rho, e = np.empty(count), np.empty(count), np.empty(count)
    start = 0
    while start < count:
        base = int(ends[start - 1]) if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, base + _DISCRETE_CHUNK, side="right")))
        part, items, n = slice(start, stop), range(start, stop), sizes[start:stop]
        first = ends[part] - n - base  # each item's first candidate within the part
        rho_c = np.concatenate([spectra[i].mass_prefix[: sizes[i]] for i in items])
        g_c = np.concatenate([spectra[i].gain_prefix[: sizes[i]] for i in items])
        mu_c, rho_th_c, k_c = (np.repeat(x[part], n) for x in (means, rho_th, k))
        e_c = _expectations(mu_c, rho_c, g_c, rho_th_c, k_c)
        low = np.minimum.reduceat(e_c, first)  # nan where an item has a nan, as argmin
        hits = np.flatnonzero((e_c == np.repeat(low, n)) | np.isnan(e_c))
        best = hits[np.searchsorted(hits, first)]  # each item's first minimum
        t[part] = [spectra[i].values[j] for i, j in zip(items, (best - first).tolist())]
        rho[part], e[part] = rho_c[best], e_c[best]
        start = stop
    return t, rho, e


def _golden_section_argmin_batch(
    value_at: Callable[[np.ndarray], np.ndarray], a: np.ndarray, b: np.ndarray, tol: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Golden-section searches for the minimizers of unimodal functions, in lockstep.

    ``value_at(x)`` evaluates every search's objective at its entry of
    ``x``.  Each search shrinks its bracket ``[a, b]`` until it is at
    most ``tol`` wide and returns the interior point with the smaller
    value (the left one on ties) together with that value.  It takes
    the steps of a scalar golden-section search of its bracket alone
    (``tests/oracles.py`` keeps one as the reference): the same
    comparisons, ties and points.  Whole arrays are stepped until every
    search is done; each search's result is recorded on the step where
    its bracket first gets within ``tol``, and the later steps of a
    finished search are thrown away.
    """
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = value_at(c), value_at(d)
    x_best, f_best = c, fc
    live = np.ones(a.shape, dtype=bool)
    while True:
        left = fc <= fd  # the scalar search's `if fc <= fd` branch, and its final pick
        ends = live & ~(b - a > tol)  # a nan width ends at once, as the scalar loop does
        x_best = np.where(ends, np.where(left, c, d), x_best)
        f_best = np.where(ends, np.where(left, fc, fd), f_best)
        live &= ~ends
        if not live.any():
            return x_best, f_best
        a, b = np.where(left, a, c), np.where(left, d, b)
        step = _INV_GOLDEN * (b - a)
        x = np.where(left, b - step, a + step)
        fx = value_at(x)
        c, d = np.where(left, x, d), np.where(left, c, x)
        fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)


def _optimize_continuous_batch(
    law: ContinuousLaw, rounds: List[int], rho_th: np.ndarray, k: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The continuous threshold search, for every round at once.

    The expectation is unimodal in t, hence in the marked mass u = F(t).
    Each round's search runs over ``u in [threshold_ratio(r) * 1e-13,
    threshold_ratio(r)]`` in log-space (the optimum shrinks like 1/r^2,
    so a relative tolerance is the meaningful one), and the right
    endpoint -- the smallest certainty threshold -- and the left one are
    compared explicitly.  ``rho_th`` and ``k`` hold the :func:`_round_terms`
    of the checked ``rounds``.  Returns the winning marked masses ``u``
    and their expectations ``E_r(quantile(u))``.
    """
    # Every mass tried lies in [u_lo, rho_th], as exp is monotone, and
    # rho_th <= 1/4: only an underflow leaves the domain, at the lower end
    # (past r ~ 1.6e155) or, past r ~ 1e161, of rho_th itself.
    def check_range(masses: np.ndarray) -> None:
        empty = np.flatnonzero(~(masses > 0.0))
        if empty.size:
            raise DomainError(f"the continuous threshold search takes round counts up to about "
                              f"1.6e155; got r = {rounds[empty[0]]}")

    check_range(rho_th)
    hi = _math_map(math.log, rho_th)
    lo = hi + math.log(CONTINUOUS_SEARCH_SPAN)
    u_lo = _math_map(math.exp, lo)
    check_range(u_lo)
    mu = law.mean

    def e_at(u: np.ndarray) -> np.ndarray:
        rho, g = law._terms(law.quantile_vec(u))
        return _expectations(mu, rho, g, rho_th, k)

    def value_at(v: np.ndarray) -> np.ndarray:
        return e_at(_math_map(math.exp, v))

    with np.errstate(all="ignore"):  # Python floats give inf and nan without a warning
        v_best, best_e = _golden_section_argmin_batch(value_at, lo, hi, CONTINUOUS_SEARCH_TOLERANCE)
        best_u = _math_map(math.exp, v_best)
        # The search's own winner first, so that ties keep it.
        for u in (rho_th, u_lo):
            e = e_at(u)
            better = e < best_e
            best_u, best_e = np.where(better, u, best_u), np.where(better, e, best_e)
    return best_u, best_e


def optimize_threshold(dist: Distribution, r: int) -> ThresholdReport:
    """Globally minimize E_r(t) over thresholds and report the optimum.

    Discrete laws are scanned exhaustively over the candidate support
    values (everything up to the certainty region plus one value
    beyond); continuous laws run a golden-section search on the marked
    mass.  The optimal threshold never exceeds the smallest certainty
    threshold ``quantile(threshold_ratio(r))``, and its expectation
    never exceeds the conditional mean below it.

    This is :func:`optimize_thresholds` for the one round count: there
    is one search, whatever the number of rounds.
    """
    return optimize_thresholds(dist, [r])[0]


def optimize_thresholds(dist: Distribution, rounds: Iterable[int]) -> List[ThresholdReport]:
    """:func:`optimize_threshold` for each round count in ``rounds``, in order.

    On a continuous law the golden-section searches of all rounds run at
    once, as numpy arrays stepped in lockstep (see the module docstring);
    on a discrete law one scan takes the candidates of every round
    (:func:`_optimize_discrete`).  The reports are then assembled from
    what the searches hold -- the winning threshold, its marked mass (one
    ``_terms`` query at the winning masses' quantiles, or the prefix table)
    and its expectation -- with no round rechecked and no ``cdf(t)`` or
    ``partial_expectation(t)`` queried again.
    Each report depends on its own round count alone: it is the same
    in any batch, and equals ``threshold_report(dist, r, t_opt)`` bit
    for bit.
    """
    rounds = [_check_rounds(r) for r in rounds]
    if not rounds:
        return []
    rho_th, k = _round_terms(rounds)
    if isinstance(dist, DiscreteLaw):
        t, rho, e_r = _optimize_discrete(dist.spectrum, dist.mean, rounds)
    else:
        u, e_r = _optimize_continuous_batch(dist, rounds, rho_th, k)
        t = dist.quantile_vec(u)
        rho, _ = dist._terms(t)
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
    return _min_rounds_exact([dist.min_mass()])[0]


def _min_rounds_exact(masses: Sequence[float]) -> List[int]:
    """:func:`min_rounds_exact_opt` of laws whose minima carry ``masses``, searched in lockstep."""
    searched = [i for i, f in enumerate(masses) if f < 1.0]
    found = [0] * len(masses)

    def reached(live: List[int], rounds: List[int]) -> List[bool]:
        return [masses[searched[j]] >= threshold_ratio(r) for j, r in zip(live, rounds)]

    # threshold_ratio(r) underflows to 0 by r ~ 2**540, so every f > 0 is reached.
    for i, r in zip(searched, _first_rounds(reached, len(searched), math.inf)):
        found[i] = r
    return found


def _first_rounds(
    reached: Callable[[List[int], List[int]], Sequence[bool]], count: int, limit: float
) -> List[Optional[int]]:
    """Round searches in lockstep: the smallest ``r >= 1`` at which each is reached.

    Search ``i`` is reached at ``r`` when ``reached(indices, rounds)``
    returns true at ``i``'s position, for ``indices`` the live searches
    (ascending) and ``rounds`` their round counts, one each.  It must be
    false below some round count and true from it on.  Each search is
    tried at r = 1, 2, 4, ... (capped at ``limit``) until it holds, then
    bisected between the last two round counts tried, and drops out
    when it is done; a search not reached at ``limit`` gives None.  So
    each takes exactly the steps of the scalar search alone
    (``tests/oracles.py`` keeps it as the reference), and each of its
    doubling steps asks for a round count larger than any before.
    """
    found: List[Optional[int]] = [None] * count
    lo, hi = [0] * count, [1] * count  # while doubling, hi is the next round count to try
    doubling = [True] * count
    live = list(range(count))
    while live:
        tries = [hi[i] if doubling[i] else (lo[i] + hi[i]) // 2 for i in live]
        still = []
        for i, r, hit in zip(live, tries, reached(live, tries)):
            if doubling[i] and not hit:
                if r < limit:
                    hi[i] = min(2 * r, limit)
                    still.append(i)
                continue
            if doubling[i]:  # reached for the first time: bisect (r // 2, r]
                doubling[i], lo[i] = False, r // 2
            elif hit:
                hi[i] = r
            else:
                lo[i] = r
            if hi[i] - lo[i] > 1:
                still.append(i)
            else:
                found[i] = hi[i]
        live = still
    return found
