"""Independent reference implementations used to pin expected values.

Everything here is deliberately written from first principles -- direct
quadrature of densities, dense full-space linear algebra, exhaustive
enumeration, literal subset sums -- so the library's closed forms,
collapsed representations, and vectorized recurrences are checked
against slower but structurally simpler computations.  Nothing in this
module imports the library's numerical routines; only the law classes
are inspected for their raw parameters.
"""

from __future__ import annotations

import csv
import itertools
import math
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np
from scipy import integrate, optimize

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


def c_th_reference(r: int) -> Tuple[float, float]:
    """``(rho_star, C_Th)`` for one round count, by a scalar golden-section search.

    The search ``bounds.c_th`` ran before it searched many round counts
    in lockstep, written out in Python floats: the score
    ``(P - rho)/sqrt(rho(1 - rho))`` is maximized in log-mass over
    ``[threshold_ratio(r) * 1e-6, threshold_ratio(r)]`` to a width of
    1e-13.  ``P`` takes numpy's ``arcsin`` and ``sin`` on a one-element
    array, as fig1's pinned values did.
    """
    half_angle = math.sin(math.pi / (4.0 * r + 2.0))
    rho_th = half_angle * half_angle
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

    inv_golden = (math.sqrt(5.0) - 1.0) / 2.0
    b = math.log(rho_th)
    a = b + math.log(1e-6)
    c = b - inv_golden * (b - a)
    d = a + inv_golden * (b - a)
    fc, fd = value_at(c), value_at(d)
    while (b - a) > 1e-13:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - inv_golden * (b - a)
            fc = value_at(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_golden * (b - a)
            fd = value_at(d)
    v, value = (c, fc) if fc <= fd else (d, fd)
    return math.exp(v), -value


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
