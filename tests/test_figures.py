"""Row generators for the shipped figure series."""

import math

import numpy as np
import pytest

from thqaoa import figures
from thqaoa.bounds import kappa
from thqaoa.errors import DomainError
from thqaoa.figures import FIGURE_GENERATORS, fit_power_law, round_grid_pow2
from thqaoa.maxcut import bipartite_spectrum


# ---------------------------------------------------------------------------
# Grid and fit helpers
# ---------------------------------------------------------------------------


def test_round_grid_pow2_values():
    grid = round_grid_pow2(4, 16)
    expected = []
    for x in range(17):
        r = math.ceil(2.0 ** (x / 4))
        if r not in expected:
            expected.append(r)
    assert grid == expected
    assert grid == sorted(set(grid))
    capped = round_grid_pow2(4, 16, cap=7)
    assert capped == [r for r in expected if r <= 7]
    with pytest.raises(DomainError):
        round_grid_pow2(0, 5)
    with pytest.raises(DomainError):
        round_grid_pow2(2, -1)


def test_fit_power_law_recovers_exact_series():
    r = np.arange(1, 501, dtype=np.float64)
    y = 2.5 * r**0.37
    a, b = fit_power_law(r, y)
    assert a == pytest.approx(2.5, abs=1e-8)
    assert b == pytest.approx(0.37, abs=1e-9)


def test_fit_power_law_validation():
    with pytest.raises(DomainError):
        fit_power_law([1.0], [2.0])
    with pytest.raises(DomainError):
        fit_power_law([1.0, 2.0], [2.0])
    with pytest.raises(DomainError):
        fit_power_law([1.0, 2.0], [2.0, -1.0])
    with pytest.raises(DomainError):
        fit_power_law([0.0, 2.0], [2.0, 3.0])


# ---------------------------------------------------------------------------
# Figure series
# ---------------------------------------------------------------------------


def test_fig1_score_ceiling_series():
    header, rows = figures.fig1_rows()
    assert header == ("r", "cth", "cth_over_r")
    assert [row[0] for row in rows] == list(range(1, 51))
    assert rows[0][1] == pytest.approx(2.0, abs=1e-9)
    cth = [row[1] for row in rows]
    assert all(b > a for a, b in zip(cth, cth[1:]))
    for r, c, c_over_r in rows:
        assert c_over_r == pytest.approx(c / r, abs=1e-15)
    _, k = kappa()
    assert abs(rows[-1][2] - k) < 0.05 * k


def test_fig2_threshold_vs_sampling():
    header, rows = figures.fig2_rows()
    assert header == ("r", "gmth_c", "gmth_quantile", "crs_c", "crs_quantile")
    r_values = [row[0] for row in rows]
    assert r_values == sorted(set(r_values))
    assert r_values[0] == 1 and r_values[-1] == 10**6
    gmth_c = [row[1] for row in rows]
    assert all(b > a for a, b in zip(gmth_c, gmth_c[1:]))
    for row in rows:
        assert row[1] >= row[3]  # threshold schedule beats random sampling
        assert 0.0 < row[2] < 0.5
        assert 0.0 < row[4] < 0.5


def test_fig3_identity_vs_threshold_compilation():
    header, rows = figures.fig3_rows(bins=200, restarts=2, seed=0)
    assert header == (
        "r",
        "gmqaoa_e",
        "gmqaoa_c",
        "gmqaoa_quantile",
        "gmth_e",
        "gmth_c",
        "gmth_quantile",
    )
    assert [row[0] for row in rows] == list(range(1, 9))
    e_gm = [row[1] for row in rows]
    assert all(b <= a + 1e-12 for a, b in zip(e_gm, e_gm[1:]))  # warm-started sweep
    for row in rows:
        assert row[5] >= row[2] - 1e-9  # threshold compilation wins every r


def test_fig4_tail_families():
    header, rows = figures.fig4_rows(fit_limit=50)
    assert header == ("series", "r", "quantile", "c_over_cmax", "exponent")
    gamma_rows = [row for row in rows if str(row[0]).startswith("gamma")]
    pareto_rows = [row for row in rows if str(row[0]).startswith("pareto")]
    assert {row[0] for row in gamma_rows} == {
        "gamma_k100", "gamma_k10", "gamma_k1", "gamma_k0.1", "gamma_k0.01"
    }
    for row in gamma_rows:
        assert 0.0 < row[2] < 1.0 and row[3] is None and row[4] is None
    exponents = {}
    for row in pareto_rows:
        assert row[2] is None and 0.0 < row[3] <= 1.0
        exponents.setdefault(row[0], row[4])
        if row[1] == 10**5:
            assert row[3] == pytest.approx(1.0)
    ordered = [exponents[f"pareto_j{j:g}"] for j in (0.99, 0.9, 0.8, 0.6, 0.4, 0.1)]
    assert all(b < a for a, b in zip(ordered, ordered[1:]))
    with pytest.raises(DomainError):
        figures.fig4_rows(fit_limit=1)


def test_fig5_binomial_vs_matched_normal():
    header, rows = figures.fig5_rows()
    assert header[0] == "r" and len(header) == 9
    assert [row[0] for row in rows] == list(range(1, 101))
    for row in rows:
        r, b_c, b_q, b_t, b_p, n_c, n_q, n_t, n_p = row
        assert b_c > 0 and n_c > 0
        assert 0.0 <= b_q <= 1.0 and 0.0 <= n_q <= 1.0
        assert 0.0 < b_p <= 1.0 and 0.0 < n_p <= 1.0
        assert b_t == int(b_t)  # binomial thresholds sit on the support
    # the two laws track each other at moderate depth
    mid = rows[9]
    assert mid[1] == pytest.approx(mid[5], rel=0.05)


def test_fig6_threshold_curves():
    header, rows = figures.fig6_rows(resolution=100)
    assert header == ("series", "r", "t", "f_t", "c_r")
    labels = {row[0] for row in rows}
    assert labels == {"normal", "binomial"}
    r_values = {row[1] for row in rows}
    assert r_values == {10**e for e in range(0, 7)}
    n_normal = sum(1 for row in rows if row[0] == "normal")
    n_binom = sum(1 for row in rows if row[0] == "binomial")
    assert n_normal == 100 * 7
    assert n_binom == 201 * 7
    for row in rows:
        assert 0.0 <= row[3] <= 1.0
        assert math.isfinite(row[4])


def test_fig7_amplification_floor_ratio():
    header, rows = figures.fig7_rows()
    assert header == ("r", "e_floor", "lam")
    lam = [row[2] for row in rows]
    assert all(b >= a - 1e-12 for a, b in zip(lam, lam[1:]))
    assert lam[0] >= 0.5
    assert lam[-1] == pytest.approx(1.0, abs=1e-12)
    for row in rows:
        assert row[2] == pytest.approx(0.5 - row[1] / 2500.0, abs=1e-12)


def test_fig8_exact_bipartite_spectrum():
    header, rows = figures.fig8_rows()
    assert header == ("y", "count", "mass", "cdf")
    spectrum = bipartite_spectrum(50)
    assert len(rows) == len(spectrum.atoms)
    assert sum(row[1] for row in rows) == 4**50
    assert rows[0][0] == -1250.0 and rows[0][1] == 2
    assert rows[-1][3] == pytest.approx(1.0, abs=1e-12)
    for (value, count), row in zip(spectrum.atoms, rows):
        assert row[0] == value and row[1] == count
        assert row[2] == pytest.approx(count / 4**50, rel=1e-12)


def test_fig9_rejects_unknown_bound_kind():
    # the first round search rejects it; an unattainable ratio is an empty cell, not an error
    with pytest.raises(DomainError, match="bound_kind"):
        figures.fig9_rows("magic")


def test_generator_registry_complete():
    assert set(FIGURE_GENERATORS) == {f"fig{i}" for i in range(1, 10)}
    for fn in FIGURE_GENERATORS.values():
        assert callable(fn)
