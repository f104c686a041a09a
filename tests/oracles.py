"""Independent reference implementations used to pin expected values.

Everything here is deliberately written from first principles -- direct
quadrature of densities, dense full-space linear algebra, exhaustive
enumeration, literal subset sums -- so the library's closed forms,
collapsed representations, and vectorized recurrences are checked
against slower but structurally simpler computations.  Nothing in this
module imports the library's numerical routines; the law classes are
inspected for their raw parameters.  The scalar threshold search
takes ``F`` and ``G`` from :func:`scalar_cdf` and
:func:`scalar_partial_expectation`, the closed forms written one
threshold at a time, and quantiles from the law's own scalar
``quantile``, which the law tests check against the quadratures here.
"""

from __future__ import annotations

import csv
import itertools
import math
import sys
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np
from scipy import integrate, optimize, special

from thqaoa.dist_models import NormalLaw, ReflectedGammaLaw, ReflectedParetoLaw

_SQRT_2PI = math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# Continuous laws: density, cdf, partial expectation, quantile by quadrature
# ---------------------------------------------------------------------------


def reference_pdf(law) -> Callable[[float], float]:
    """Density written directly from the law's raw parameters."""
    if isinstance(law, NormalLaw):
        u, s = law.u, law.s

        def pdf(x: float) -> float:
            z = (x - u) / s
            return math.exp(-0.5 * z * z) / (s * _SQRT_2PI)

        return pdf
    if isinstance(law, ReflectedGammaLaw):
        a, b = law.a, law.b

        def pdf(x: float) -> float:
            if x >= 0.0:
                return 0.0
            return math.exp(
                a * math.log(b) + (a - 1.0) * math.log(-x) + b * x - math.lgamma(a)
            )

        return pdf
    if isinstance(law, ReflectedParetoLaw):
        alpha = law.eps + 2.0
        x_m = law.x_m

        def pdf(x: float) -> float:
            if x > -x_m:
                return 0.0
            return alpha * x_m**alpha * (-x) ** (-alpha - 1.0)

        return pdf
    raise TypeError(f"no reference density for {type(law).__name__}")


def _support_window(law) -> Tuple[float, float]:
    """A finite window [lo, hi] carrying all but ~1e-16 of the mass."""
    if isinstance(law, NormalLaw):
        return law.u - 12.0 * law.s, law.u + 12.0 * law.s
    if isinstance(law, ReflectedGammaLaw):
        lo = law.mean - 30.0 * law.std - 50.0 / law.b
        return lo, 0.0
    if isinstance(law, ReflectedParetoLaw):
        # Power-law tail: choose lo so the remaining mass is < 1e-13.
        alpha = law.eps + 2.0
        lo = -law.x_m * 10.0 ** (13.0 / alpha)
        return lo, -law.x_m
    raise TypeError(f"no support window for {type(law).__name__}")


def cdf_quad(law, x: float) -> float:
    """F(x) by adaptive quadrature of the reference density."""
    pdf = reference_pdf(law)
    lo, hi = _support_window(law)
    if x <= lo:
        return 0.0
    val, _ = integrate.quad(pdf, lo, min(x, hi), limit=300)
    return val


def partial_expectation_quad(law, x: float) -> float:
    """G(x) = E[X 1{X<=x}] by quadrature of t * pdf(t)."""
    pdf = reference_pdf(law)
    lo, hi = _support_window(law)
    if x <= lo:
        return 0.0
    val, _ = integrate.quad(lambda t: t * pdf(t), lo, min(x, hi), limit=300)
    return val


def quantile_root(law, p: float) -> float:
    """Quantile by root-finding on the quadrature cdf."""
    lo, hi = _support_window(law)
    return float(optimize.brentq(lambda x: cdf_quad(law, x) - p, lo, hi, xtol=1e-12))


# ---------------------------------------------------------------------------
# Closed-form F and G, one threshold at a time
# ---------------------------------------------------------------------------


def scalar_cdf(law, x: float) -> float:
    """F(x) in Python floats, one threshold at a time.

    The bodies of the laws' scalar ``cdf`` from before each law computed
    ``F`` and ``G`` in one array method (``_terms``): the array path must
    equal these in ``float.hex``.  A law with a ``spectrum`` is discrete.
    """
    if isinstance(law, NormalLaw):
        return float(special.ndtr((x - law.u) / law.s))
    if isinstance(law, ReflectedGammaLaw):
        if x >= 0.0:
            return 1.0
        y = -law.b * x
        if y < sys.float_info.min:
            # Q(a, y) = 1 - y**a / Gamma(a + 1), its leading term, in logs
            log_y = math.log(law.b) + math.log(-x)
            return 1.0 - math.exp(law.a * log_y - float(special.gammaln(law.a + 1.0)))
        return float(special.gammaincc(law.a, y))
    if isinstance(law, ReflectedParetoLaw):
        if x >= -law.x_m:
            return 1.0
        return (law.x_m / -x) ** law.alpha
    idx = int(np.searchsorted(law.spectrum.values, x, side="right"))
    return float(law.spectrum.mass_prefix[idx - 1]) if idx > 0 else 0.0


def scalar_partial_expectation(law, x: float) -> float:
    """G(x) = E[X 1{X <= x}] in Python floats, as :func:`scalar_cdf` gives F."""
    if isinstance(law, NormalLaw):
        z = (x - law.u) / law.s
        phi = math.exp(-0.5 * z * z) / _SQRT_2PI
        return law.u * float(special.ndtr(z)) - law.s * phi
    if isinstance(law, ReflectedGammaLaw):
        if x >= 0.0:
            return law.mean
        return -(law.a / law.b) * float(special.gammaincc(law.a + 1.0, -law.b * x))
    if isinstance(law, ReflectedParetoLaw):
        if x >= -law.x_m:
            return law.mean
        return -(law.alpha / (law.alpha - 1.0)) * law.x_m**law.alpha * (-x) ** (-(law.alpha - 1.0))
    idx = int(np.searchsorted(law.spectrum.values, x, side="right"))
    return float(law.spectrum.gain_prefix[idx - 1]) if idx > 0 else 0.0


def normal_conditional_mean(u: float, s: float, p: float) -> float:
    """E[X | X <= F^{-1}(p)] for Normal(u, s^2): u - s * pdf(z_p) / p."""
    from scipy.special import ndtri

    z = float(ndtri(p))
    phi = math.exp(-0.5 * z * z) / _SQRT_2PI
    return u - s * phi / p


def normal_quantile_upper_bound(r: int) -> float:
    """Finite-r upper bound on the standard normal's optimal quantile.

    The certainty threshold tau_r marks mass ``sin^2(pi / (2(2r+1)))``,
    which r rounds boost to 1, so the optimal expectation is at most
    E[X | X <= tau_r] and its quantile at most Phi(E[X | X <= tau_r]).
    """
    from scipy.special import ndtr

    rho = math.sin(math.pi / (2.0 * (2 * r + 1))) ** 2
    return float(ndtr(normal_conditional_mean(0.0, 1.0, rho)))


# ---------------------------------------------------------------------------
# Constants by high-precision root finding
# ---------------------------------------------------------------------------


def kappa_reference() -> Tuple[float, float]:
    """Root x1 of tan(x) = 2x on (pi/4, pi/2) and 2 sin^2(x1)/x1, by
    mpmath ``findroot`` at 40 digits, rounded to floats."""
    import mpmath

    with mpmath.workdps(40):
        x1 = mpmath.findroot(lambda x: mpmath.tan(x) - 2 * x, 1.17)
        return float(x1), float(2 * mpmath.sin(x1) ** 2 / x1)


def grover_probability_reference(rho: float, r: int) -> Tuple[float, float]:
    """P(rho, r) = sin^2((2r+1) arcsin(sqrt(rho))) and eta = P / rho, by
    mpmath at 50 digits from the exact binary value of ``rho``, each
    rounded once to a float.  The sine form holds at or below the
    threshold ratio sin^2(pi / (4r + 2)); above it P is 1."""
    import mpmath

    with mpmath.workdps(50):
        x = mpmath.mpf(rho)
        p = mpmath.sin((2 * r + 1) * mpmath.asin(mpmath.sqrt(x))) ** 2
        return float(p), float(p / x)


def scalar_grover_probability(rho: float, r: int) -> float:
    """P(rho, r) in Python floats, one mass at a time.

    The body of the kernel's scalar ``grover_probability`` from before it
    became the array form on one element: the array path must equal it
    in ``float.hex``.  ``rho`` lies in [0, 1].
    """
    # rho > 0: the threshold ratio underflows to 0 past r ~ 1e161
    if rho >= _threshold_ratio(r) and rho > 0.0:
        return 1.0
    s = math.sin((2.0 * r + 1.0) * math.asin(math.sqrt(rho)))
    return s * s


# ---------------------------------------------------------------------------
# Scalar golden-section searches: c_th and the threshold optimum
# ---------------------------------------------------------------------------

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_argmin(
    value_at: Callable[[float], float], a: float, b: float, tol: float
) -> Tuple[float, float]:
    """Golden-section search for the minimizer of a unimodal function.

    Shrinks ``[a, b]`` until it is at most ``tol`` wide and returns the
    interior point with the smaller value (the left one on ties) together
    with that value.  The library steps many such searches in lockstep;
    each must take this loop's steps.
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


def _threshold_ratio(r: int) -> float:
    """sin^2(pi / (4r + 2)), the mass r pi-angle rounds boost to 1."""
    half_angle = math.sin(math.pi / (4.0 * r + 2.0))
    return half_angle * half_angle


def c_th_reference(r: int) -> Tuple[float, float]:
    """``(rho_star, C_Th)`` for one round count, by a scalar golden-section search.

    The search ``bounds.c_th`` ran before it searched many round counts
    in lockstep, written out in Python floats: the score
    ``(P - rho)/sqrt(rho(1 - rho))`` is maximized in log-mass over
    ``[threshold_ratio(r) * 1e-6, threshold_ratio(r)]`` to a width of
    1e-13.  ``P`` takes numpy's ``arcsin`` and ``sin`` on a one-element
    array, as fig1's pinned values did.
    """
    rho_th = _threshold_ratio(r)
    k = 2.0 * r + 1.0
    mass = np.empty(1)

    def value_at(v: float) -> float:
        rho = math.exp(v)
        if rho >= rho_th:
            p = 1.0
        else:
            mass[0] = rho
            s = float(np.sin(k * np.arcsin(np.sqrt(mass)))[0])
            p = s * s
        return -((p - rho) / math.sqrt(rho * (1.0 - rho)))

    b = math.log(rho_th)
    v, value = golden_section_argmin(value_at, b + math.log(1e-6), b, 1e-13)
    return math.exp(v), -value


def threshold_expectation_reference(law, r: int) -> Callable[[float], float]:
    """E_r(t) of the threshold schedule as a function of t, in Python floats.

    The three branches of the closed form, one threshold at a time:
    ``mu`` where ``F(t)`` is 0 or 1, the conditional mean
    ``mu + G_Y/rho`` where ``rho >= threshold_ratio(r)``, and otherwise
    ``mu + G_Y * (P/rho - 1)/(1 - rho)`` with ``P`` from :mod:`math`'s
    ``sqrt``, ``asin`` and ``sin``, as the Grover kernel computes it.
    """
    mu = law.mean
    rho_th = _threshold_ratio(r)
    k = 2.0 * r + 1.0

    def expectation(t: float) -> float:
        rho = scalar_cdf(law, t)
        if rho <= 0.0 or rho >= 1.0:
            return mu
        g_y = scalar_partial_expectation(law, t) - mu * rho
        if rho >= rho_th:
            return mu + g_y / rho
        s = math.sin(k * math.asin(math.sqrt(rho)))
        return mu + g_y * (s * s / rho - 1.0) / (1.0 - rho)

    return expectation


def threshold_optimum_reference(law, r: int) -> tuple:
    """The optimal threshold's scorecard, by a scalar search of one round count.

    The search ``gmth.optimize_threshold`` ran before every threshold
    search became a batch, in Python floats.  A discrete law scans the
    support values with ``F <= threshold_ratio(r)`` and the first one
    beyond, keeping the first minimum.  A continuous law runs
    :func:`golden_section_argmin` on ``E_r(quantile(exp(v)))`` over the
    log-mass ``v`` in ``[log(threshold_ratio(r) * 1e-13),
    log(threshold_ratio(r))]`` to a width of 1e-12, then tries the two
    ends, which replace the winner only when strictly lower.

    Returns the fields of ``gmth.ThresholdReport`` in order: ``(r, t,
    t - mu, rho, P, E_r, C_r, quantile, eta, lam)``, each computed at
    the winning threshold from :func:`scalar_cdf` and the law's scalar
    ``quantile``.
    """
    expectation = threshold_expectation_reference(law, r)
    rho_th = _threshold_ratio(r)
    if hasattr(law, "spectrum"):
        values = law.spectrum.values.tolist()
        beyond = int(np.searchsorted(law.spectrum.mass_prefix, rho_th, side="right"))
        candidates = values[: beyond + 1]
        scores = [expectation(t) for t in candidates]
        t = candidates[scores.index(min(scores))]
    else:
        hi = math.log(rho_th)
        lo = hi + math.log(1e-13)
        v, best_e = golden_section_argmin(
            lambda v: expectation(law.quantile(math.exp(v))), lo, hi, 1e-12
        )
        best_u = math.exp(v)
        for u in (rho_th, math.exp(lo)):
            e = expectation(law.quantile(u))
            if e < best_e:
                best_u, best_e = u, e
        t = law.quantile(best_u)
    mu = law.mean
    rho = scalar_cdf(law, t)
    e_r = expectation(t)
    s = math.sin((2.0 * r + 1.0) * math.asin(math.sqrt(rho)))
    p = 1.0 if rho >= rho_th else s * s
    cap = float((2 * r + 1) ** 2)
    eta = min(p / rho, cap) if rho > 0.0 else cap
    lam = e_r / law.r_min if math.isfinite(law.r_min) and law.r_min != 0.0 else None
    return (r, t, t - mu, rho, p, e_r, (mu - e_r) / law.std, scalar_cdf(law, e_r), eta, lam)


# ---------------------------------------------------------------------------
# Scalar round searches and per-r amplification floors
# ---------------------------------------------------------------------------


def first_round_reference(reached: Callable[[int], bool], limit: float):
    """Smallest ``r >= 1`` with ``reached(r)``, or None if ``reached(limit)`` is false.

    The search ``gmth`` ran before its round searches ran in lockstep:
    ``reached`` is tried at r = 1, 2, 4, ... (capped at ``limit``) until
    it holds, then bisected between the last two round counts tried.
    The library steps many such searches at once; each must take this
    loop's steps.
    """
    r = 1
    while not reached(r):
        if r >= limit:
            return None
        r = min(2 * r, limit)
    lo, hi = r // 2, r
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if reached(mid):
            hi = mid
        else:
            lo = mid
    return hi


def floor_terms_reference(law, r: int) -> Tuple[float, float, float]:
    """``(tau1, tau2, E_floor)`` of the amplification floor at one round count.

    In Python floats, as ``bounds`` computed it one r at a time: a
    discrete law's ``tau1`` is its largest support value with
    ``F <= 1/(2r+1)^2`` (``-inf`` with the floor ``0.0 + tau2`` when
    there is none), read from its prefix tables; a continuous law's is
    ``quantile(1/(2r+1)^2)``, with ``E_floor = G(tau1) (2r+1)^2``.
    ``(2r+1)^2`` is inf past the double range.
    """
    try:
        den = float((2 * r + 1) ** 2)
    except OverflowError:
        den = math.inf
    cap = 1.0 / den
    if hasattr(law, "spectrum"):
        values = law.spectrum.values.tolist()
        prefix = law.spectrum.mass_prefix.tolist()
        idx = sum(1 for f in prefix if f <= cap) - 1
        if idx < 0:
            return -math.inf, values[0], 0.0 + values[0]
        tau2 = values[min(idx + 1, len(values) - 1)]
        g1 = law.spectrum.gain_prefix.tolist()[idx]
        return values[idx], tau2, g1 * den + tau2 * (1.0 - prefix[idx] * den)
    tau1 = law.quantile(cap)
    return tau1, tau1, scalar_partial_expectation(law, tau1) * den


def knn_min_rounds_reference(
    law, n: int, lam: float, bound_kind: str, expectation: Callable[[int], float]
):
    """Fewest rounds reaching ratio ``lam`` on K_{n,n}, one search alone.

    ``law`` is the ``"y"``-frame law and ``expectation(r)`` the
    expectation of ``bound_kind``'s model at r rounds; the ratio is
    ``0.5 - E / n^2``.  At ``lam = 1`` the floor model has the closed
    form ``ceil(2^{(2n-3)/2})`` (1 at n = 1), and the threshold model
    needs the optimal class boosted to certainty; below 1 the search is
    :func:`first_round_reference` up to 2^63 rounds.
    """
    if lam == 1.0 and bound_kind == "max_amplification":
        if n == 1:
            return 1
        power = 1 << (2 * n - 3)
        root = math.isqrt(power)
        return root if root * root == power else root + 1
    if lam == 1.0:
        f = law.min_mass()
        return max(1, first_round_reference(lambda r: f >= _threshold_ratio(r), math.inf))
    return first_round_reference(lambda r: 0.5 - expectation(r) / float(n * n) >= lam, 2**63)


# ---------------------------------------------------------------------------
# Dense full-space circuit simulation (no degeneracy collapse)
# ---------------------------------------------------------------------------


def full_space_simulate(
    values: Sequence[float],
    counts: Sequence[int],
    phase: Callable[[float], float],
    betas: Sequence[float],
    gammas: Sequence[float],
) -> Tuple[float, np.ndarray]:
    """Simulate the circuit on the full solution space, one amplitude per
    solution, applying the mixer as an explicit dense matrix.

    Returns ``(expectation, class_probabilities)`` where the class
    probabilities aggregate the solutions of each distinct cost value in
    input order.  Deliberately ignorant of the degeneracy-collapse trick.
    """
    xs = np.repeat(np.asarray(values, dtype=np.float64), np.asarray(counts, dtype=np.int64))
    m = xs.size
    if m > 4096:
        raise ValueError(f"full-space oracle capped at 4096 states, got {m}")
    v = np.full(m, 1.0 / math.sqrt(m), dtype=np.complex128)
    s = np.full(m, 1.0 / math.sqrt(m), dtype=np.complex128)
    q = np.array([phase(x) for x in xs], dtype=np.float64)
    for beta, gamma in zip(betas, gammas):
        v = v * np.exp(1j * gamma * q)
        mixer = np.eye(m, dtype=np.complex128) + (np.exp(1j * beta) - 1.0) * np.outer(
            s, np.conj(s)
        )
        v = mixer @ v
    probs = np.abs(v) ** 2
    expectation = float(np.dot(xs, probs))
    class_probs = []
    start = 0
    for c in counts:
        class_probs.append(float(np.sum(probs[start : start + c])))
        start += c
    return expectation, np.asarray(class_probs)


# ---------------------------------------------------------------------------
# Literal subset-pair expansion of the raw-cost expectation
# ---------------------------------------------------------------------------


def phase_expansion_reference(
    values: Sequence[float],
    masses: Sequence[float],
    betas: Sequence[float],
    gammas: Sequence[float],
) -> float:
    """Raw-cost expectation as an explicit sum over subset pairs.

    Expands every mixer layer ``I + B|s><s|`` by brute force with
    itertools: each subset S of layers taking the projector term carries
    weight ``W(S)`` (a product of B factors and characteristic-function
    factors over the gamma segments between selected layers) and leaves
    the trailing phase ``tail(S)``.  The expectation is the double sum
    of ``conj(W) W' * (-i) phi'(tail' - tail)``.  O(4^r) pairs with
    O(r) work each -- use for r <= 6.
    """
    values = np.asarray(values, dtype=np.float64)
    masses = np.asarray(masses, dtype=np.float64)
    r = len(betas)

    def phi(theta: float) -> complex:
        return complex(np.sum(masses * np.exp(1j * theta * values)))

    def phi_prime(theta: float) -> complex:
        return complex(np.sum(masses * 1j * values * np.exp(1j * theta * values)))

    b = [np.exp(1j * bb) - 1.0 for bb in betas]
    terms: List[Tuple[complex, float]] = []
    for m in range(r + 1):
        for sel in itertools.combinations(range(r), m):
            w = 1.0 + 0.0j
            prev = -1
            for j in sel:
                w *= phi(float(sum(gammas[prev + 1 : j + 1]))) * b[j]
                prev = j
            tail = float(sum(gammas[prev + 1 : r]))
            terms.append((w, tail))
    total = 0.0 + 0.0j
    for w_bra, tail_bra in terms:
        for w_ket, tail_ket in terms:
            total += np.conj(w_bra) * w_ket * phi_prime(tail_ket - tail_bra)
    value = -1j * total
    assert abs(value.imag) < 1e-8, value
    return float(value.real)


# ---------------------------------------------------------------------------
# Adjoint gradient with one new array per operation
# ---------------------------------------------------------------------------


def value_and_grad_reference(
    theta: np.ndarray, w: np.ndarray, z: np.ndarray
) -> Tuple[float, np.ndarray]:
    """``sum_i z_i |v_i|^2`` after the layers ``theta = (betas, gammas)``,
    and its gradient by the adjoint method, as plain array expressions.

    The allocating form of ``gmqaoa._value_and_grad``: phase factors from
    the complex ``exp``, and each state, adjoint and product a new array.
    The in-place kernel keeps this form's operand order, so the two agree
    to the last bit wherever ``exp(i x)`` and ``cos x + i sin x`` do.
    """
    r = theta.size // 2
    phases = np.exp(1j * np.multiply.outer(theta[r:], z))
    turns = np.exp(1j * theta[:r])
    pre = np.empty_like(phases)
    v = w.astype(np.complex128)
    for k in range(r):
        pre[k] = u = phases[k] * v
        v = u + (turns[k] - 1.0) * np.dot(w, u) * w
    lam = z * v
    value = float(np.vdot(v, lam).real)
    grad = np.empty(2 * r)
    for k in range(r - 1, -1, -1):
        u = pre[k]
        w_lam = np.dot(w, lam)
        grad[k] = 2.0 * (1j * turns[k] * np.conj(w_lam) * np.dot(w, u)).real
        mu = lam + np.conj(turns[k] - 1.0) * w_lam * w
        grad[r + k] = 2.0 * (1j * np.vdot(mu, z * u)).real
        lam = np.conj(phases[k]) * mu
    return value, grad


# ---------------------------------------------------------------------------
# Exact (value, count) laws in rational arithmetic
# ---------------------------------------------------------------------------


def fraction_spectrum(values: Sequence[float], counts: Sequence[int]) -> Dict[str, object]:
    """Masses, prefix/suffix sums and moments of an exact law, in
    ``Fraction`` arithmetic.

    Each array entry is the exact rational value rounded once to float
    (``float(Fraction)``); ``mean`` and ``var`` are returned as exact
    ``Fraction`` values so the caller decides how to round them.
    """
    exact = [Fraction(float(v)) for v in values]
    counts = [int(c) for c in counts]
    total = sum(counts)
    mass_prefix, gain_prefix = [], []
    cum_count, cum_gain = 0, Fraction(0)
    for x, c in zip(exact, counts):
        cum_count += c
        cum_gain += x * c
        mass_prefix.append(float(Fraction(cum_count, total)))
        gain_prefix.append(float(cum_gain / total))
    mass_suffix = []
    cum_count = 0
    for c in reversed(counts):
        cum_count += c
        mass_suffix.append(float(Fraction(cum_count, total)))
    mean = sum(x * c for x, c in zip(exact, counts)) / total
    second = sum(x * x * c for x, c in zip(exact, counts)) / total
    return {
        "masses": [float(Fraction(c, total)) for c in counts],
        "mass_prefix": mass_prefix,
        "gain_prefix": gain_prefix,
        "mass_suffix": mass_suffix[::-1],
        "mean": mean,
        "var": second - mean * mean,
    }


def binomial_spectrum(n: int, p: float) -> Dict[str, object]:
    """Masses, prefix/suffix sums, mean and std of Binomial(n, p), exactly.

    With ``p = m / d`` written exactly (``float.as_integer_ratio``), k
    successes have the count ``comb(n, k) * m**k * (d - m)**(n - k)`` out
    of ``d**n``.  Every entry is one int/int true division, so it is the
    exact rational value rounded once; the mean ``n m / d`` and the
    variance ``n m (d - m) / d**2`` are rounded once, the std is the
    variance's square root.
    """
    m, d = float(p).as_integer_ratio()
    total = d**n
    counts = [math.comb(n, k) * m**k * (d - m) ** (n - k) for k in range(n + 1)]
    return {
        "masses": [c / total for c in counts],
        "mass_prefix": [c / total for c in itertools.accumulate(counts)],
        "gain_prefix": [g / total for g in itertools.accumulate(k * c for k, c in enumerate(counts))],
        "mass_suffix": [c / total for c in itertools.accumulate(reversed(counts))][::-1],
        "mean": n * m / d,
        "std": math.sqrt(n * m * (d - m) / d**2),
    }


def grover_min_rounds_reference(c0: int, total: int) -> int:
    """Smallest r >= 0 with (2r+1)^2 * c0 >= total, by integer bisection."""
    lo, hi = -1, 1  # the predicate fails at lo (r = -1 is a sentinel)
    while (2 * hi + 1) ** 2 * c0 < total:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if (2 * mid + 1) ** 2 * c0 >= total:
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# Max-Cut by exhaustive bipartition enumeration
# ---------------------------------------------------------------------------


def maxcut_cut_counts(
    num_vertices: int, edges: Iterable[Tuple[int, int]]
) -> Dict[int, int]:
    """Cut-size multiplicities over all 2^n assignments, pure python."""
    edges = list(edges)
    counts: Dict[int, int] = {}
    for bits in itertools.product((0, 1), repeat=num_vertices):
        cut = sum(1 for a, b in edges if bits[a] != bits[b])
        counts[cut] = counts.get(cut, 0) + 1
    return counts


def complete_bipartite_edges(n: int) -> List[Tuple[int, int]]:
    """Edge list of K_{n,n} with parts {0..n-1} and {n..2n-1}."""
    return [(i, n + j) for i in range(n) for j in range(n)]


def bipartite_tally_reference(n: int) -> Tuple[Tuple[float, int], ...]:
    """Mean-centered K_{n,n} spectrum as ascending ``(cost, count)`` atoms,
    by the literal double loop: cost ``(n - 2j)(n - 2k)/2`` with count
    ``C(n,j) * C(n,k)`` for every ``0 <= j, k <= n``."""
    comb = [math.comb(n, j) for j in range(n + 1)]
    tally: Dict[int, int] = {}  # keyed by 2*cost, so merging is exact
    for j in range(n + 1):
        for k in range(n + 1):
            key = (n - 2 * j) * (n - 2 * k)
            tally[key] = tally.get(key, 0) + comb[j] * comb[k]
    return tuple((doubled / 2.0, tally[doubled]) for doubled in sorted(tally))


# ---------------------------------------------------------------------------
# CSV output through the standard library writer
# ---------------------------------------------------------------------------


def csv_writer_reference(handle, header: Sequence[object], rows: Iterable[Sequence[object]]) -> None:
    """The header and rows through ``csv.writer(lineterminator="\\n")``,
    each cell formatted first: ``None`` empty, Python and numpy floats by
    ``repr(float(x))``, anything else by ``str``."""

    def text(cell: object) -> str:
        if cell is None:
            return ""
        if isinstance(cell, (float, np.floating)):
            return repr(float(cell))
        return str(cell)

    writer = csv.writer(handle, lineterminator="\n")
    for row in itertools.chain((header,), rows):
        writer.writerow([text(cell) for cell in row])


# ---------------------------------------------------------------------------
# Expected minimum of k i.i.d. draws
# ---------------------------------------------------------------------------


def crs_min_discrete_reference(
    values: Sequence[float], masses: Sequence[float], k: int
) -> float:
    """E[min of k draws] via the cdf of the minimum, 1 - (1 - F)^k."""
    f = np.cumsum(np.asarray(masses, dtype=np.float64))
    f_min = 1.0 - (1.0 - np.minimum(f, 1.0)) ** k
    point_masses = np.diff(np.concatenate([[0.0], f_min]))
    return float(np.dot(np.asarray(values, dtype=np.float64), point_masses))


def crs_min_continuous_reference(law, k: int) -> float:
    """E[min of k draws] via quadrature of x * k (1-F(x))^{k-1} f(x)."""
    pdf = reference_pdf(law)
    lo, hi = _support_window(law)

    def integrand(x: float) -> float:
        return x * k * (1.0 - cdf_quad(law, x)) ** (k - 1) * pdf(x)

    val, _ = integrate.quad(integrand, lo, hi, limit=300)
    return val


def crs_min_large_k_reference(law, k: int) -> float:
    """E[min of k draws] for any k, by the substitution u = 1 - exp(-s/k).

    The quantile-space integral of quantile(u) k (1-u)^{k-1} becomes the
    integral of quantile(-expm1(-s/k)) e^{-s} over s >= 0, whose weight
    never sits where 1 - u rounds to 1.
    """
    val, _ = integrate.quad(
        lambda s: law.quantile(-math.expm1(-s / k)) * math.exp(-s),
        0.0, math.inf, limit=400, epsabs=1e-12, epsrel=1e-12,
    )
    return val
