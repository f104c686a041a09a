"""Output checks for the benchmark workloads, computed apart from thqaoa.

Nothing here imports the package.  Each check recomputes what an output
claims from scipy.stats, mpmath, exact integer arithmetic or a full-space
simulation, or tests a property the method must have, and raises
:class:`CheckError` on the first disagreement.  No check compares with a
stored copy of an earlier output.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction

import mpmath
import numpy as np
from scipy import integrate, optimize, special, stats

#: Relative tolerance for values the program and the check both compute
#: in double precision from closed forms.
RTOL = 1e-9

#: Approximation-ratio ties: within this distance of the target the
#: program's float comparison may fall either way.
RATIO_TIE = 1e-12

#: Fit exponents of the reflected Pareto law with j = 0.1 (eps = 18) over
#: rounds 1..10, 1..100 and 1..1000 (acceptance criterion 08).
PARETO_J01_EXPONENTS = (0.5087, 0.3222, 0.2301)


class CheckError(Exception):
    """An output disagrees with the independent computation."""


def require(ok, message):
    """Raise CheckError with ``message`` (a string, or a callable making one)."""
    if not ok:
        raise CheckError(message() if callable(message) else message)


def close(got, want, rtol=RTOL, atol=0.0):
    return abs(got - want) <= max(rtol * max(abs(got), abs(want)), atol)


# ---------------------------------------------------------------------------
# Grover kernel, written from the closed form
# ---------------------------------------------------------------------------


def certainty_ratio(r):
    """sin^2(pi/(4r+2)): the marked mass that r rounds lift to probability 1."""
    return np.sin(np.pi / (4.0 * np.asarray(r, dtype=np.float64) + 2.0)) ** 2


def boosted(rho, r):
    """P(rho, r) = sin^2((2r+1) asin sqrt(rho)), and 1 at or above certainty."""
    rho = np.asarray(rho, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    inside = np.minimum(rho, certainty_ratio(r))
    p = np.sin((2.0 * r + 1.0) * np.arcsin(np.sqrt(inside))) ** 2
    return np.where(rho >= certainty_ratio(r), 1.0, p)


def mixed_expectation(mean, rho, g, r):
    """Cost expectation when the mass rho below a threshold (carrying
    partial expectation g) is boosted to P and the rest keeps its shape:
    P E[X | marked] + (1 - P) E[X | unmarked]."""
    rho = np.asarray(rho, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    interior = (rho > 0.0) & (rho < 1.0)
    safe = np.where(interior, rho, 0.5)
    p = boosted(safe, r)
    e = p * g / safe + (1.0 - p) * (mean - g) / (1.0 - safe)
    return np.where(interior, e, mean)


# ---------------------------------------------------------------------------
# Reference laws on scipy.stats
# ---------------------------------------------------------------------------


class RefNormal:
    continuous = True

    def __init__(self, u, s):
        self.u, self.s = float(u), float(s)
        self.mean, self.std = self.u, self.s

    def cdf(self, x):
        return stats.norm.cdf(x, self.u, self.s)

    def pe(self, x):
        z = (np.asarray(x, dtype=np.float64) - self.u) / self.s
        return self.u * stats.norm.cdf(z) - self.s * stats.norm.pdf(z)

    def pdf(self, x):
        """Scalar density, written out: quadrature calls it thousands of times."""
        z = (x - self.u) / self.s
        return math.exp(-0.5 * z * z) / (self.s * math.sqrt(2.0 * math.pi))

    def sf(self, x):
        return float(special.ndtr((self.u - x) / self.s))

    def ppf(self, p):
        return stats.norm.ppf(p, self.u, self.s)

    def isf(self, p):
        return stats.norm.isf(p, self.u, self.s)


class RefReflectedGamma:
    """X = -W with W ~ Gamma(shape a, rate b)."""

    continuous = True

    def __init__(self, a, b):
        self.w = stats.gamma(a, scale=1.0 / b)
        self.w1 = stats.gamma(a + 1.0, scale=1.0 / b)
        self.mean, self.std = -self.w.mean(), self.w.std()

    def cdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        return np.where(x >= 0.0, 1.0, self.w.sf(-np.minimum(x, 0.0)))

    def pe(self, x):
        # E[W 1{W >= w}] = E[W] * P(W' >= w) with W' ~ Gamma(a + 1, b).
        x = np.asarray(x, dtype=np.float64)
        return np.where(x >= 0.0, self.mean, self.mean * self.w1.sf(-np.minimum(x, 0.0)))

    def ppf(self, p):
        return -self.w.isf(p)


class RefReflectedPareto:
    """X = -W with W ~ Pareto(alpha = eps + 2, scale x_m)."""

    continuous = True

    def __init__(self, eps, x_m):
        alpha = eps + 2.0
        self.x_m = float(x_m)
        self.w = stats.pareto(alpha, scale=x_m)
        self.w1 = stats.pareto(alpha - 1.0, scale=x_m)
        self.mean, self.std = -self.w.mean(), self.w.std()

    def cdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        return np.where(x >= -self.x_m, 1.0, self.w.sf(-np.minimum(x, -self.x_m)))

    def pe(self, x):
        # E[W 1{W >= w}] = E[W] * P(W' >= w) with W' ~ Pareto(alpha - 1).
        x = np.asarray(x, dtype=np.float64)
        inside = -np.minimum(x, -self.x_m)
        return np.where(x >= -self.x_m, self.mean, self.mean * self.w1.sf(inside))

    def ppf(self, p):
        return -self.w.isf(p)


class RefDiscrete:
    """A finite law from support values and masses (float prefix sums)."""

    continuous = False

    def __init__(self, values, masses):
        self.values = np.asarray(values, dtype=np.float64)
        self.masses = np.asarray(masses, dtype=np.float64)
        self.mass_prefix = np.cumsum(self.masses)
        self.gain_prefix = np.cumsum(self.values * self.masses)
        self.mean = float(np.dot(self.values, self.masses))
        self.std = math.sqrt(float(np.dot((self.values - self.mean) ** 2, self.masses)))

    def _idx(self, x):
        return np.searchsorted(self.values, np.asarray(x, dtype=np.float64), side="right")

    def cdf(self, x):
        return np.concatenate(([0.0], self.mass_prefix))[self._idx(x)]

    def pe(self, x):
        return np.concatenate(([0.0], self.gain_prefix))[self._idx(x)]


def ref_binomial(n, p):
    k = np.arange(n + 1, dtype=np.float64)
    return RefDiscrete(k, stats.binom.pmf(k, n, p))


def ref_law(spec):
    """A reference law from a ``--dist`` spec of a continuous or binomial law."""
    name, _, rest = spec.partition(":")
    params = [float(v) for v in rest.split(",")]
    if name == "normal":
        return RefNormal(*params)
    if name == "gamma":
        return RefReflectedGamma(*params)
    if name == "pareto":
        return RefReflectedPareto(*params)
    if name == "binomial":
        return ref_binomial(int(params[0]), params[1])
    raise ValueError(f"no reference law for {spec!r}")


# ---------------------------------------------------------------------------
# Threshold reports (sweep, fig5)
# ---------------------------------------------------------------------------


def _nearby_thresholds(law, r, t, rho):
    """Per report: the certainty threshold and thresholds at nearby marked
    masses (continuous laws) or nearby support values (discrete laws)."""
    rho_th = certainty_ratio(r)
    if law.continuous:
        masses = np.column_stack([rho_th] + [rho * (1.0 + d) for d in (-0.1, -0.01, -1e-3, 1e-3, 0.01, 0.1)])
        valid = (masses > 0.0) & (masses < 1.0)
        return law.ppf(np.where(valid, masses, 0.5)), valid
    last = law.values.size - 1
    i = np.searchsorted(law.values, t)
    cert = np.minimum(np.searchsorted(law.mass_prefix, rho_th, side="left"), last)
    idx = np.column_stack([cert] + [i + d for d in (-2, -1, 1, 2)])
    valid = (idx >= 0) & (idx <= last)
    return law.values[np.clip(idx, 0, last)], valid


def check_threshold_reports(law, r, t, rho, p, e_r, c_r, quantile, eta=None):
    """Optimized threshold reports (arrays over rows) against the reference law."""
    r, t, rho, p, e_r, c_r, quantile = (np.asarray(a, dtype=np.float64)
                                        for a in (r, t, rho, p, e_r, c_r, quantile))

    def first(bad, message):
        bad = np.flatnonzero(bad)
        require(bad.size == 0, lambda: f"r={int(r[bad[0]])}: {message(bad[0])}")

    scale = np.maximum(np.abs(e_r), law.std)
    rho_ref = law.cdf(t)
    e_ref = mixed_expectation(law.mean, rho_ref, law.pe(t), r)
    first(np.abs(e_r - e_ref) > RTOL * scale,
          lambda i: f"E_r {e_r[i]!r} differs from the recomputed {e_ref[i]!r} at t_opt={t[i]!r}")
    first(np.abs(rho - rho_ref) > RTOL * rho_ref, lambda i: f"rho {rho[i]!r} is not F(t_opt) = {rho_ref[i]!r}")
    p_ref = boosted(rho_ref, r)
    first(np.abs(p - p_ref) > np.maximum(RTOL * p_ref, 1e-15), lambda i: f"p {p[i]!r} is not P(rho, r) = {p_ref[i]!r}")
    q_ref = law.cdf(e_r)
    first(np.abs(quantile - q_ref) > RTOL * q_ref, lambda i: f"quantile {quantile[i]!r} is not F(E_r) = {q_ref[i]!r}")
    c_ref = (law.mean - e_r) / law.std
    first(np.abs(c_r - c_ref) > np.maximum(RTOL * np.abs(c_ref), 1e-12), lambda i: f"score {c_r[i]!r} is not (mu - E_r)/sigma")
    cap = 2.0 * np.sqrt(r * (r + 1.0))
    first(c_r > cap + 1e-9, lambda i: f"score {c_r[i]!r} exceeds the cap 2 sqrt(r(r+1)) = {cap[i]!r}")
    if eta is not None:
        eta = np.asarray(eta, dtype=np.float64)
        first(eta > (2.0 * r + 1.0) ** 2 * (1.0 + 1e-12), lambda i: f"amplification {eta[i]!r} exceeds (2r+1)^2")
        first(np.abs(eta - p / rho) > RTOL * eta, lambda i: f"eta {eta[i]!r} is not p/rho")
    others, valid = _nearby_thresholds(law, r, t, rho_ref)
    e_others = mixed_expectation(law.mean, law.cdf(others), law.pe(others), r[:, None])
    worse = valid & (e_r[:, None] > e_others + 1e-12 * scale[:, None])
    first(np.any(worse, axis=1), lambda i: (
        f"E_r {e_r[i]!r} is above the expectation {e_others[i][worse[i]][0]!r} "
        f"at threshold {others[i][worse[i]][0]!r}"))


def _column(rows, name):
    return np.array([float(row[name]) for row in rows])


def check_sweep(spec, rounds, rows):
    law = ref_law(spec)
    require([int(row["r"]) for row in rows] == list(rounds),
            "sweep rows do not cover the requested round grid")
    t = _column(rows, "t_opt")
    bad = np.abs(_column(rows, "t_centered") - (t - law.mean)) > 1e-12 * np.maximum(1.0, np.abs(t))
    require(not np.any(bad), "t_centered is not t_opt - mu")
    check_threshold_reports(law, _column(rows, "r"), t, _column(rows, "rho"), _column(rows, "p"),
                            _column(rows, "e_r"), _column(rows, "c_r"), _column(rows, "quantile"),
                            _column(rows, "eta"))


def fit_exponent(r, values):
    (_, b), _ = optimize.curve_fit(lambda x, a, b: a * np.power(x, b), r, values,
                                   p0=(1.0, 0.5), maxfev=20000)
    return float(b)


def check_pareto_exponents(rows):
    """Linear-scale power-law fits of the score over rounds 1..10^x."""
    scores = np.array([float(row["c_r"]) for row in rows])
    for x, want in enumerate(PARETO_J01_EXPONENTS, start=1):
        n = 10**x
        require(scores.size >= n, f"the Pareto sweep stops before r = {n}")
        got = fit_exponent(np.arange(1.0, n + 1.0), scores[:n])
        require(abs(got - want) <= 0.01,
                f"fit exponent over rounds 1..{n} is {got:.4f}, expected {want} +/- 0.01")


def check_pareto_sweep(spec, rounds, rows):
    check_sweep(spec, rounds, rows)
    check_pareto_exponents(rows)


def check_fig5(rows):
    binom = ref_binomial(200, 0.5)
    normal = RefNormal(binom.mean, binom.std)
    require([int(row["r"]) for row in rows] == list(range(1, 101)), "fig5 must cover r = 1..100")
    r = _column(rows, "r")
    for label, law in (("binomial", binom), ("normal", normal)):
        c = _column(rows, f"{label}_c")
        t = _column(rows, f"{label}_t_opt")
        check_threshold_reports(law, r, t, law.cdf(t), _column(rows, f"{label}_p"),
                                law.mean - c * law.std, c, _column(rows, f"{label}_quantile"))


def check_curve(spec, r, rows):
    law = ref_law(spec)
    t = np.array([float(row["t"]) for row in rows])
    f_t = np.array([float(row["f_t"]) for row in rows])
    e_r = np.array([float(row["e_r"]) for row in rows])
    c_r = np.array([float(row["c_r"]) for row in rows])
    require(all(int(row["r"]) == r for row in rows), f"curve rows are not all at r={r}")
    require(np.all(np.diff(t) > 0.0), "curve thresholds are not strictly ascending")
    finite = np.isfinite(t)
    f_ref = np.where(finite, law.cdf(np.where(finite, t, 0.0)), 1.0)
    g_ref = np.where(finite, law.pe(np.where(finite, t, 0.0)), law.mean)
    e_ref = mixed_expectation(law.mean, f_ref, g_ref, r)
    scale = np.maximum(np.abs(e_ref), law.std)
    bad = np.flatnonzero(np.abs(f_t - f_ref) > RTOL * np.maximum(f_ref, 1e-300))
    require(bad.size == 0, f"curve f_t disagrees with F(t) at {bad.size} thresholds")
    bad = np.flatnonzero(np.abs(e_r - e_ref) > RTOL * scale)
    require(bad.size == 0, f"curve e_r disagrees with the recomputed expectation at {bad.size} thresholds")
    bad = np.flatnonzero(np.abs(c_r - (law.mean - e_r) / law.std) > 1e-9 * np.maximum(1.0, np.abs(c_r)))
    require(bad.size == 0, f"curve c_r is not (mu - e_r)/sigma at {bad.size} thresholds")


def expected_minimum(law, k):
    """E[min of k draws] = integral of x k f(x) S(x)^(k-1) dx, in cost space."""
    lo = float(law.ppf(1e-17 / k))
    hi = float(law.isf(1e-17))
    points = sorted({float(law.ppf(c / k)) for c in (0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0)
                     if c / k < 1.0})
    points = [x for x in points if lo < x < hi]

    def integrand(x):
        return x * k * law.pdf(x) * law.sf(x) ** (k - 1)

    value, _ = integrate.quad(integrand, lo, hi, points=points, limit=400,
                              epsabs=1e-12, epsrel=1e-11)
    return value


def check_crs(spec, rows):
    """Expected minima of k = 2r draws (the CLI's default effort factor)."""
    law = ref_law(spec)
    for row in rows:
        r, k = int(row["r"]), int(row["k"])
        require(k == 2 * r, f"r={r}: draw count {k} is not 2r")
        want = expected_minimum(law, k)
        got = float(row["e_min"])
        require(abs(got - want) <= 1e-7 * max(1.0, abs(want)),
                f"r={r}: expected minimum {got!r} differs from quadrature {want!r}")


def kappa_reference():
    """kappa = 2 sin^2(x1)/x1 with x1 the root of tan x = 2x in (pi/4, pi/2)."""
    mpmath.mp.dps = 30
    x1 = mpmath.findroot(lambda x: mpmath.tan(x) - 2 * x, 1.1656)
    return float(2 * mpmath.sin(x1) ** 2 / x1)


def check_fig1(rows):
    require([int(row["r"]) for row in rows] == list(range(1, 51)), "fig1 must cover r = 1..50")
    cth = {int(row["r"]): float(row["cth"]) for row in rows}
    require(abs(cth[1] - 2.0) <= 1e-9, f"c_th(1) = {cth[1]!r}, expected 2")
    kappa = kappa_reference()
    require(abs(cth[50] / 50.0 - kappa) < 0.05 * kappa,
            f"c_th(50)/50 = {cth[50] / 50.0:.5f} is not within 5% of kappa = {kappa:.6f}")
    for row in rows:
        r, c = int(row["r"]), float(row["cth"])
        require(close(float(row["cth_over_r"]), c / r), f"r={r}: cth_over_r is not cth/r")
        require(c <= 2.0 * math.sqrt(r * (r + 1.0)) + 1e-9, f"r={r}: c_th exceeds 2 sqrt(r(r+1))")
        rho = np.geomspace(1e-9, 1.0, 4001)[:-1] * certainty_ratio(r) * 1.5
        rho = rho[rho < 1.0]
        scan = float(np.max((boosted(rho, r) - rho) / np.sqrt(rho * (1.0 - rho))))
        require(c >= scan - 1e-9 and c <= scan * (1.0 + 1e-4),
                f"r={r}: c_th {c!r} is not the maximum score over marked masses ({scan!r} on a scan)")


# ---------------------------------------------------------------------------
# Angle search
# ---------------------------------------------------------------------------


def discretize_normal(u, s, bins):
    """Equal-mass atoms: the conditional mean of each of ``bins`` slices."""
    law = RefNormal(u, s)
    edges = law.ppf(np.arange(1, bins) / bins)
    gains = np.concatenate(([0.0], law.pe(edges), [law.mean]))
    return RefDiscrete(np.diff(gains) * bins, np.full(bins, 1.0 / bins))


def threshold_optimum(law, r):
    """Best threshold-compiled expectation: every support value scanned."""
    return float(np.min(mixed_expectation(law.mean, law.mass_prefix, law.gain_prefix, r)))


def one_layer_grid_minimum(law, n_beta=240, n_gamma=240):
    """Minimum of the closed-form one-layer raw-cost expectation on a grid.

    After one layer each class amplitude is sqrt(f_i)(e^{i g x_i} + B phi)
    with B = e^{i b} - 1 and phi = E[e^{i g X}], so
    E = mu (1 + |B phi|^2) + 2 Re(B phi conj(psi)), psi = E[X e^{i g X}].
    (b, g) -> (-b, -g) conjugates the state, so g in (0, pi/sigma] suffices.
    """
    x, f = law.values - law.mean, law.masses
    b = np.exp(1j * np.linspace(-math.pi, math.pi, n_beta, endpoint=False))[:, None] - 1.0
    gammas = np.linspace(0.0, math.pi / law.std, n_gamma + 1)[1:]
    best = math.inf
    for start in range(0, n_gamma, 16):
        phase = np.exp(1j * np.outer(gammas[start:start + 16], x))
        phi, psi = phase @ f, phase @ (f * x)
        e = 2.0 * np.real(b * phi * np.conj(psi))  # the mean of x is 0
        best = min(best, float(np.min(e)))
    return best + law.mean


def check_angle_search(u, s, bins, rounds, rows):
    law = discretize_normal(u, s, bins)
    require([int(row["r"]) for row in rows] == list(rounds), "gmqaoa rows do not cover the rounds")
    e_opt = [float(row["e_opt"]) for row in rows]
    for r, row, e in zip(rounds, rows, e_opt):
        require(e <= law.mean + 1e-12 * law.std, f"r={r}: e_opt {e!r} is above the mean {law.mean!r}")
        target = threshold_optimum(law, r)
        require(e >= target - 1e-6,
                f"r={r}: e_opt {e!r} beats the threshold-compile optimum {target!r} by more than 1e-6")
        require(close(float(row["c"]), (law.mean - e) / law.std, rtol=1e-8, atol=1e-10),
                f"r={r}: c is not (mu - e_opt)/sigma")
        q = float(np.searchsorted(law.values, e, side="right")) / bins
        require(abs(float(row["quantile"]) - q) <= 1.5 / bins,
                f"r={r}: quantile {row['quantile']} is not the mass at or below e_opt ({q!r})")
    for (r0, e0), (r1, e1) in zip(zip(rounds, e_opt), zip(rounds[1:], e_opt[1:])):
        require(e1 <= e0 + 1e-12 * law.std, f"e_opt rises from {e0!r} at r={r0} to {e1!r} at r={r1}")
    if rounds[0] == 1:
        grid = one_layer_grid_minimum(law)
        require(e_opt[0] <= grid + 1e-12 * law.std,
                f"r=1: e_opt {e_opt[0]!r} is above the (beta, gamma) grid minimum {grid!r}")


# ---------------------------------------------------------------------------
# Max-Cut on K_{n,n}: exact integer tallies
# ---------------------------------------------------------------------------


#: Tallies by part size, shared by the checks of one process.
_TALLIES = {}


def knn_tally(n, tallies=None):
    tallies = _TALLIES if tallies is None else tallies
    if n not in tallies:
        tallies[n] = KnnTally(n)
    return tallies[n]


class KnnTally:
    """Exact mean-centred cut-cost classes of K_{n,n}.

    A part keeping j of n vertices on one side contributes a = n - 2j with
    C(n, j) ways; the centred cost is y = a b / 2 for the two parts' a, b.
    Keys are the integers 2y.
    """

    def __init__(self, n):
        self.n = n
        self.M = 4**n
        ways = {n - 2 * j: math.comb(n, j) for j in range(n + 1)}
        counts = {}
        for a, wa in ways.items():
            for b, wb in ways.items():
                counts[a * b] = counts.get(a * b, 0) + wa * wb
        self.keys = sorted(counts)
        self.counts = [counts[k] for k in self.keys]
        self.cum_counts, self.cum_gains = [], []
        c = g = 0
        for k, m in zip(self.keys, self.counts):
            c += m
            g += k * m
            self.cum_counts.append(c)
            self.cum_gains.append(g)
        self._floats = None

    def floor(self, r):
        """(tau1, tau2, E_floor) of the (2r+1)^2 amplification floor, with
        E_floor an exact Fraction: every class up to tau1 amplified by
        (2r+1)^2, the rest of the probability on the next class tau2."""
        d = (2 * r + 1) ** 2
        idx = bisect.bisect_right(self.cum_counts, self.M // d) - 1
        if idx < 0:
            return -math.inf, self.keys[0] / 2.0, Fraction(self.keys[0], 2)
        nxt = self.keys[min(idx + 1, len(self.keys) - 1)]
        e = Fraction(d * self.cum_gains[idx] + nxt * (self.M - d * self.cum_counts[idx]), 2 * self.M)
        return self.keys[idx] / 2.0, nxt / 2.0, e

    def floor_ratio(self, r):
        """Exact approximation ratio 1/2 - E_floor/n^2 of the floor."""
        return Fraction(1, 2) - self.floor(r)[2] / (self.n * self.n)

    def threshold_ratio(self, r):
        """Approximation ratio of the best threshold schedule (all thresholds)."""
        if self._floats is None:
            rho = np.array([c / self.M for c in self.cum_counts])
            gain = np.array([g / (2 * self.M) for g in self.cum_gains])
            self._floats = (rho, gain)
        rho, gain = self._floats
        best = float(np.min(mixed_expectation(0.0, rho, gain, r)))
        return 0.5 - best / (self.n * self.n)

    def rounds_to_certainty(self):
        """Fewest r with 2/4^n >= sin^2(pi/(4r+2)), in 50-digit arithmetic."""
        mpmath.mp.dps = 50 + self.n
        f = mpmath.mpf(2) / mpmath.mpf(self.M)

        def ok(r):
            return f >= mpmath.sin(mpmath.pi / (4 * r + 2)) ** 2

        hi = 1
        while not ok(hi):
            hi *= 2
        lo = hi // 2
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if ok(mid) else (mid, hi)
        return hi

    def grover_lower_bound(self):
        """Smallest integer r >= (1/sqrt(f) - 1)/2 with f = 2/4^n."""
        mpmath.mp.dps = 50 + self.n
        return int(mpmath.ceil((mpmath.sqrt(mpmath.mpf(self.M) / 2) - 1) / 2))


def check_spectrum_rows(n, values, counts, masses, cdfs):
    """A K_{n,n} spectrum (mean-centred frame) against the exact tally."""
    tally = KnnTally(n)
    require(sum(counts) == tally.M, f"n={n}: multiplicities sum to {sum(counts)}, not 4^n")
    require(values[0] == -(n * n) / 2.0 and counts[0] == 2,
            f"n={n}: minimum class is ({values[0]}, {counts[0]}), expected ({-(n * n) / 2.0}, 2)")
    require([2.0 * v for v in values] == [float(k) for k in tally.keys],
            f"n={n}: cost classes differ from the exact tally")
    for v, c, want in zip(values, counts, tally.counts):
        require(c == want, f"n={n}: class {v} has multiplicity {c}, the tally gives {want}")
    cum = 0
    for v, c, m, q in zip(values, counts, masses, cdfs):
        cum += c
        require(m == c / tally.M, f"n={n}: class {v} mass {m!r} is not {c}/4^n")
        require(abs(q - cum / tally.M) <= 1e-12, f"n={n}: cdf at {v} is {q!r}, not {cum / tally.M!r}")


def check_maxcut_spectrum(n, rows):
    check_spectrum_rows(n, [float(row["value"]) for row in rows], [int(row["count"]) for row in rows],
                        [float(row["mass"]) for row in rows], [float(row["cdf"]) for row in rows])


def check_fig8(rows):
    check_spectrum_rows(50, [float(row["y"]) for row in rows], [int(row["count"]) for row in rows],
                        [float(row["mass"]) for row in rows], [float(row["cdf"]) for row in rows])


def _ratio_reaches(ratio, lam):
    """True, False, or None for a floating-point tie."""
    if abs(float(ratio) - lam) <= RATIO_TIE:
        return None
    return ratio >= (Fraction(lam) if isinstance(ratio, Fraction) else lam)


def check_round_search(n_values, lam, bound_kind, rows, tallies=None):
    require([int(row["n"]) for row in rows] == list(n_values), "round-search rows do not cover the n range")
    for row in rows:
        n = int(row["n"])
        require(row["r"] not in ("", None), f"n={n}: no round count reported for lam={lam}")
        r = int(row["r"])
        require(r >= 1, f"n={n}: round count {r} < 1")
        tally = knn_tally(n, tallies)
        if lam == 1.0:
            if bound_kind == "max_amplification":
                want = math.isqrt(2 ** (2 * n - 3) - 1) + 1 if n >= 2 else 1
            else:
                want = max(1, tally.rounds_to_certainty())
            require(r == want, f"n={n}: {bound_kind} rounds for lam=1 are {r}, expected {want}")
            continue
        ratio = tally.floor_ratio if bound_kind == "max_amplification" else tally.threshold_ratio
        require(_ratio_reaches(ratio(r), lam) is not False,
                f"n={n}: ratio {float(ratio(r))!r} at r={r} is below lam={lam}")
        if r > 1:
            require(_ratio_reaches(ratio(r - 1), lam) is not True,
                    f"n={n}: r={r} is not minimal, ratio at r-1 is {float(ratio(r - 1))!r} >= {lam}")


def check_bound_knn(m, rounds, rows, tallies=None):
    tally = knn_tally(m, tallies)
    require([int(row["r"]) for row in rows] == list(rounds), "bound rows do not cover the round grid")
    exact_rounds, grover_rounds = tally.rounds_to_certainty(), tally.grover_lower_bound()
    for row in rows:
        r = int(row["r"])
        tau1, tau2, e_floor = tally.floor(r)
        require(float(row["tau1"]) == tau1 and float(row["tau2"]) == tau2,
                f"r={r}: (tau1, tau2) = ({row['tau1']}, {row['tau2']}), expected ({tau1}, {tau2})")
        require(close(float(row["e_floor"]), float(e_floor), rtol=1e-12, atol=1e-12),
                f"r={r}: e_floor {row['e_floor']} is not the exact {float(e_floor)!r}")
        require(close(float(row["c_cap"]), 2.0 * math.sqrt(r * (r + 1.0))), f"r={r}: c_cap is not 2 sqrt(r(r+1))")
        require(close(float(row["q_low"]), 0.25 / r**2) and close(float(row["q_high"]), math.pi**2 / (16.0 * r**2)),
                f"r={r}: quantile envelope is not (1/4r^2, pi^2/16r^2)")
        require(int(row["min_rounds_exact"]) == exact_rounds,
                f"r={r}: min_rounds_exact {row['min_rounds_exact']}, expected {exact_rounds}")
        require(int(row["min_rounds_grover"]) == grover_rounds,
                f"r={r}: min_rounds_grover {row['min_rounds_grover']}, expected {grover_rounds}")


# ---------------------------------------------------------------------------
# Amplification audit
# ---------------------------------------------------------------------------


def check_law_masses(masses, observed):
    require(np.allclose(observed, masses, rtol=1e-15, atol=0.0), "empirical masses are not count/total")


def check_state(masses, probabilities, r):
    norm = float(np.sum(probabilities))
    require(abs(norm - 1.0) <= 1e-10, f"squared norm {norm!r} is not 1")
    amp = float(np.max(np.asarray(probabilities) / np.asarray(masses)))
    require(amp <= (2 * r + 1) ** 2 + 1e-9, f"per-class amplification {amp!r} exceeds (2r+1)^2 = {(2 * r + 1) ** 2}")


def full_space_probabilities(values, counts, phase, betas, gammas):
    """Per-class probabilities from a simulation over every basis state.

    Each class is expanded into ``count`` states; a layer multiplies each
    state by e^{i gamma q} and applies the Grover mixer
    I + (e^{i beta} - 1)|s><s| with |s> the uniform superposition.
    """
    labels = np.repeat(np.arange(len(values)), counts)
    q = np.array([phase(v) for v in values], dtype=np.float64)[labels]
    size = labels.size
    s = np.full(size, 1.0 / math.sqrt(size))
    psi = s.astype(np.complex128)
    for beta, gamma in zip(betas, gammas):
        psi = psi * np.exp(1j * gamma * q)
        psi = psi + (np.exp(1j * beta) - 1.0) * np.vdot(s, psi) * s
    return np.bincount(labels, weights=np.abs(psi) ** 2, minlength=len(values))


def check_full_space(values, counts, phase, betas, gammas, probabilities):
    want = full_space_probabilities(values, counts, phase, betas, gammas)
    worst = float(np.max(np.abs(np.asarray(probabilities) - want)))
    require(worst <= 1e-10, f"class probabilities differ from the full-space simulation by {worst:.3e}")


def check_audit_state(masses, r, values, counts, betas, gammas, threshold, full_space, probabilities):
    """One simulated state of the audit; ``threshold`` None is the identity phase."""
    check_state(masses, probabilities, r)
    if full_space:
        phase = (lambda v: v) if threshold is None else (lambda v: -1.0 if v <= threshold else 0.0)
        check_full_space(values, counts, phase, betas, gammas, probabilities)
