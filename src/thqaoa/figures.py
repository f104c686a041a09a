"""Row generators for the shipped figure reproductions (fig1..fig9).

Each ``figN_rows`` function returns ``(header, rows)`` where ``header``
is a tuple of column names and ``rows`` is a list of tuples ready for
CSV serialization (``None`` marks an empty cell).  The generators are
deterministic: identical inputs produce identical rows.

Series overview
---------------
* fig1 -- maximal standard score per layer: ``C^Th(r)`` and
  ``C^Th(r)/r`` for r = 1..50.
* fig2 -- standard normal, threshold algorithm vs classical random
  sampling up to 1e6 rounds (log-spaced): standard score and achieved
  quantile per method.
* fig3 -- identity-compiled vs threshold-compiled expectation on the
  1e4-bin equal-mass discretization of the standard normal, r = 1..8.
* fig4 -- (a) achieved quantile for reflected Gamma(k/2, 1/2) with
  k in {100, 10, 1, 0.1, 0.01}; (b) normalized standard score and
  linear-scale power-law exponents for reflected Pareto laws with
  tail exponents j in {0.99, 0.9, 0.8, 0.6, 0.4, 0.1}; both up to
  1e5 rounds.
* fig5 -- Binomial(200, 0.5) vs the moment-matched normal for
  r = 1..100: standard score, achieved quantile, optimal threshold,
  and success probability per law.
* fig6 -- threshold curves (standard score vs threshold quantile) for
  the standard normal (2000-point grid) and Binomial(200, 0.5)
  (support grid) at r in powers of 10 up to 1e6.
* fig7 -- approximation ratio of the amplification floor on Max-Cut
  K_{50,50} over the round grid ceil(2^(x/100)), x = 0..5000.
* fig8 -- exact mean-centered Max-Cut cost law of K_{50,50}: counts,
  masses, cdf.
* fig9 -- minimum rounds to reach target approximation ratios on
  K_{n,n}: panel (b) lam in {1, 16/17, 0.8786} for n = 4..100, panel
  (c) lam = 0.52 for n = 4..300; rounds beyond 2^63 are reported as
  unattainable (empty cell).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import baselines, bounds, gmqaoa, gmth, maxcut
from .dist_core import _lazy_import, discretize_equal_mass
from .dist_models import (
    make_binomial,
    make_normal,
    make_reflected_gamma,
    make_reflected_pareto,
    pareto_epsilon_for_exponent,
)
from .errors import DomainError

optimize = _lazy_import("scipy.optimize")

__all__ = [
    "fit_power_law",
    "round_grid_pow2",
    "FIGURE_GENERATORS",
    "fig1_rows",
    "fig2_rows",
    "fig3_rows",
    "fig4_rows",
    "fig5_rows",
    "fig6_rows",
    "fig7_rows",
    "fig8_rows",
    "fig9_rows",
]

Header = Tuple[str, ...]
Row = Tuple[object, ...]


def round_grid_pow2(denominator: int, x_max: int, cap: Optional[int] = None) -> List[int]:
    """Deduplicated log-spaced round grid ``ceil(2^(x/denominator))``.

    ``x`` runs over ``0..x_max``; values above ``cap`` (when given) are
    dropped.  The result is ascending and unique.
    """
    if int(denominator) != denominator or denominator < 1:
        raise DomainError(f"grid denominator must be a positive integer, got {denominator!r}")
    if int(x_max) != x_max or x_max < 0:
        raise DomainError(f"grid exponent bound must be a non-negative integer, got {x_max!r}")
    if x_max >= 1024 * denominator:
        raise DomainError(
            f"2^(x_max/denominator) must stay below 2^1024 (a double), got {x_max}/{denominator}"
        )
    grid = []
    seen = set()
    for x in range(int(x_max) + 1):
        r = math.ceil(2.0 ** (x / denominator))
        if cap is not None and r > cap:
            break
        if r not in seen:
            seen.add(r)
            grid.append(r)
    return grid


def fit_power_law(r_values: Sequence[float], values: Sequence[float]) -> Tuple[float, float]:
    """Least-squares fit of ``a * r^b`` on the linear scale.

    Residuals are taken on the raw (not log) values, so the fit is
    dominated by the largest-``r`` points; this is the convention the
    shipped exponent tables use.  Returns ``(a, b)``.
    """
    r = np.asarray(r_values, dtype=np.float64)
    y = np.asarray(values, dtype=np.float64)
    if r.size != y.size or r.size < 2:
        raise DomainError("power-law fit needs at least two (r, value) pairs of equal length")
    if np.any(r <= 0.0) or np.any(y <= 0.0):
        raise DomainError("power-law fit requires positive rounds and values")
    (a, b), _ = optimize.curve_fit(
        lambda x, a, b: a * np.power(x, b), r, y, p0=(1.0, 0.5), maxfev=20000
    )
    return float(a), float(b)


def _log_round_grid(limit: int) -> List[int]:
    """Quarter-octave grid up to ``limit`` with the endpoint included."""
    grid = round_grid_pow2(4, 4 * math.ceil(math.log2(limit)) + 4, cap=limit)
    if grid[-1] != limit:
        grid.append(limit)
    return grid


def fig1_rows() -> Tuple[Header, List[Row]]:
    rounds = range(1, 51)
    rows: List[Row] = [(r, cth, cth / r) for r, (_, cth) in zip(rounds, bounds.c_ths(rounds))]
    return ("r", "cth", "cth_over_r"), rows


def fig2_rows() -> Tuple[Header, List[Row]]:
    dist = make_normal(0.0, 1.0)
    rows: List[Row] = []
    grid = _log_round_grid(10**6)
    for r, report in zip(grid, gmth.optimize_thresholds(dist, grid)):
        e_crs = baselines.crs_blom(0.0, 1.0, r)
        rows.append(
            (
                r,
                report.C_r,
                report.quantile,
                -e_crs,
                dist.cdf(e_crs),
            )
        )
    return ("r", "gmth_c", "gmth_quantile", "crs_c", "crs_quantile"), rows


def fig3_rows(bins: int = 10**4, restarts: int = 20, seed: int = 0) -> Tuple[Header, List[Row]]:
    law = discretize_equal_mass(make_normal(0.0, 1.0), bins)
    rows: List[Row] = []
    schedule = None
    for r in range(1, 9):
        schedule, e_gm = gmqaoa.optimize_angles(
            law, r, restarts=restarts, seed=seed, warm_start=schedule
        )
        report = gmth.optimize_threshold(law, r)
        rows.append(
            (
                r,
                e_gm,
                (law.mean - e_gm) / law.std,
                law.cdf(e_gm),
                report.E_r,
                report.C_r,
                report.quantile,
            )
        )
    return (
        "r",
        "gmqaoa_e",
        "gmqaoa_c",
        "gmqaoa_quantile",
        "gmth_e",
        "gmth_c",
        "gmth_quantile",
    ), rows


_FIG4_GAMMA_K = (100.0, 10.0, 1.0, 0.1, 0.01)
_FIG4_PARETO_J = (0.99, 0.9, 0.8, 0.6, 0.4, 0.1)


def fig4_rows(fit_limit: int = 10**5) -> Tuple[Header, List[Row]]:
    grid = _log_round_grid(10**5)
    rows: List[Row] = []
    for k in _FIG4_GAMMA_K:
        dist = make_reflected_gamma(k / 2.0, 0.5)
        label = f"gamma_k{k:g}"
        for r, report in zip(grid, gmth.optimize_thresholds(dist, grid)):
            rows.append((label, r, report.quantile, None, None))
    if int(fit_limit) != fit_limit or fit_limit < 2:
        raise DomainError(f"fit limit must be an integer of at least 2, got {fit_limit!r}")
    fit_limit = int(fit_limit)
    for j in _FIG4_PARETO_J:
        dist = make_reflected_pareto(pareto_epsilon_for_exponent(j), 1.0)
        label = f"pareto_j{j:g}"
        # Exponents fit every integer round up to the limit on the
        # linear scale; the displayed series stays log-spaced (grid
        # points beyond the fit range are optimized after it).
        all_r = list(range(1, fit_limit + 1)) + [r for r in grid if r > fit_limit]
        scores = [report.C_r for report in gmth.optimize_thresholds(dist, all_r)]
        _, exponent = fit_power_law(all_r[:fit_limit], scores[:fit_limit])
        score_at = dict(zip(all_r, scores))
        c_max = score_at[grid[-1]]
        for r in grid:
            rows.append((label, r, None, score_at[r] / c_max, exponent))
    return ("series", "r", "quantile", "c_over_cmax", "exponent"), rows


def fig5_rows() -> Tuple[Header, List[Row]]:
    binom = make_binomial(200, 0.5)
    normal = make_normal(binom.mean, binom.std)
    rows: List[Row] = []
    rounds = range(1, 101)
    for r, rb, rn in zip(
        rounds, gmth.optimize_thresholds(binom, rounds), gmth.optimize_thresholds(normal, rounds)
    ):
        rows.append(
            (
                r,
                rb.C_r,
                rb.quantile,
                rb.t_opt,
                rb.P,
                rn.C_r,
                rn.quantile,
                rn.t_opt,
                rn.P,
            )
        )
    return (
        "r",
        "binomial_c",
        "binomial_quantile",
        "binomial_t_opt",
        "binomial_p",
        "normal_c",
        "normal_quantile",
        "normal_t_opt",
        "normal_p",
    ), rows


def fig6_rows(resolution: int = 2000) -> Tuple[Header, List[Row]]:
    rows: List[Row] = []
    series = (
        ("normal", make_normal(0.0, 1.0), resolution),
        ("binomial", make_binomial(200, 0.5), "support"),
    )
    for label, dist, grid_spec in series:
        for exp10 in range(0, 7):
            r = 10**exp10
            curve = gmth.threshold_curve(dist, r, grid_spec)
            mu, sigma = dist.mean, dist.std
            for t, f_t, e_r in zip(curve.thresholds, curve.f_values, curve.expectations):
                rows.append((label, r, t, f_t, (mu - e_r) / sigma))
    return ("series", "r", "t", "f_t", "c_r"), rows


def fig7_rows() -> Tuple[Header, List[Row]]:
    law = maxcut.knn_spectrum(50, frame="y")
    n_sq = 50.0 * 50.0
    rows: List[Row] = []
    for r in round_grid_pow2(100, 5000):
        _, _, e_floor = bounds._floor_terms(law, r)
        rows.append((r, e_floor, 0.5 - e_floor / n_sq))
    return ("r", "e_floor", "lam"), rows


def fig8_rows() -> Tuple[Header, List[Row]]:
    spectrum = maxcut.bipartite_spectrum(50)
    law = spectrum.law("y")
    rows: List[Row] = []
    cdf = 0.0
    for (value, count), mass in zip(spectrum.atoms, law.spectrum.masses):
        cdf += float(mass)
        rows.append((value, count, float(mass), min(cdf, 1.0)))
    return ("y", "count", "mass", "cdf"), rows


_FIG9_PANELS = (
    ("b", 1.0, 4, 100),
    ("b", 16.0 / 17.0, 4, 100),
    ("b", 0.8786, 4, 100),
    ("c", 0.52, 4, 300),
)


def fig9_rows(bound_kind: str = "max_amplification") -> Tuple[Header, List[Row]]:
    # One exact law per part size serves every panel and ratio at that size.
    panel_rows: List[List[Row]] = [[] for _ in _FIG9_PANELS]
    n_lo = min(panel[2] for panel in _FIG9_PANELS)
    n_hi = max(panel[3] for panel in _FIG9_PANELS)
    for n in range(n_lo, n_hi + 1):
        law = maxcut.knn_spectrum(n, frame="y")
        for rows, (panel, lam, lo, hi) in zip(panel_rows, _FIG9_PANELS):
            if lo <= n <= hi:
                rows.append((panel, lam, n, maxcut._min_rounds_on_law(law, n, lam, bound_kind)))
    return ("panel", "lam", "n", "r"), [row for rows in panel_rows for row in rows]


FIGURE_GENERATORS = {
    "fig1": fig1_rows,
    "fig2": fig2_rows,
    "fig3": fig3_rows,
    "fig4": fig4_rows,
    "fig5": fig5_rows,
    "fig6": fig6_rows,
    "fig7": fig7_rows,
    "fig8": fig8_rows,
    "fig9": fig9_rows,
}
