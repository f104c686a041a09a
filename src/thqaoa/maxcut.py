"""Max-Cut solution-space spectra and layer-growth analysis.

Exact cost spectra for the complete bipartite graphs K_{n,n}, a
brute-force oracle for small arbitrary graphs, and the minimum number
of amplification rounds needed to reach a target approximation ratio
on K_{n,n}.

Cost conventions
----------------
Max-Cut is phrased as minimization of the negated cut size.  For
K_{n,n} a bipartition that keeps ``j`` left and ``k`` right vertices on
one side has negated cut size ``x = (n - 2j)(n - 2k)/2 - n^2/2`` and
there are ``C(n,j) * C(n,k)`` such assignments.  The module exposes two
frames:

* ``"x"``  -- raw negated cut sizes; mean -n^2/2, minimum -n^2.
* ``"y"``  -- mean-centered costs ``y = x + n^2/2``; mean 0, minimum
  -n^2/2.

Approximation ratios are always computed in the ``"x"`` frame,
``lam = E / R_min``, so that ``lam = 1`` is the optimum and random
assignment scores ``lam = 1/2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .bounds import _floor_terms
from .dist_models import EmpiricalLaw
from .errors import DomainError, NumericalError
from .gmth import _first_round, _optimize_discrete, min_rounds_exact_opt

__all__ = [
    "BipartiteSpectrum",
    "GraphInstance",
    "bipartite_spectrum",
    "knn_spectrum",
    "brute_force_spectrum",
    "complete_bipartite_instance",
    "read_edge_list",
    "min_rounds_for_ratio",
    "MAX_BRUTE_FORCE_VERTICES",
    "MAX_PART_SIZE",
    "ROUND_SEARCH_LIMIT",
]

#: Brute-force enumeration walks all 2^|V| bipartitions.
MAX_BRUTE_FORCE_VERTICES = 24

#: Largest supported part size for the exact K_{n,n} spectrum.
MAX_PART_SIZE = 300

#: Round searches give up beyond this many rounds and report the target
#: ratio as unattainable (an empty ``r`` cell in the CSVs).
ROUND_SEARCH_LIMIT = 2**63

_FRAMES = ("y", "x")

_BRUTE_FORCE_CHUNK = 1 << 20


def _check_frame(frame: str) -> str:
    if frame not in _FRAMES:
        raise DomainError(f"frame must be one of {_FRAMES}, got {frame!r}")
    return frame


@dataclass(frozen=True)
class BipartiteSpectrum:
    """Exact cost spectrum of Max-Cut on K_{n,n}.

    ``atoms`` lists ``(cost, multiplicity)`` pairs in the mean-centered
    frame, ascending in cost and merged over equal costs; counts are
    exact (arbitrary-precision) integers summing to ``M = 4^n``.
    """

    n: int
    atoms: Tuple[Tuple[float, int], ...]
    M: int

    def law(self, frame: str = "y") -> EmpiricalLaw:
        """Materialize the spectrum as an exact empirical law."""
        _check_frame(frame)
        if frame == "y":
            return EmpiricalLaw(self.atoms)
        shift = self.n * self.n / 2.0
        return EmpiricalLaw((value - shift, count) for value, count in self.atoms)


@dataclass(frozen=True)
class GraphInstance:
    """A simple undirected graph given by an explicit edge list.

    Vertices are 0-indexed; edges are stored with ascending endpoints
    and must be unique, loop-free, and within range.
    """

    num_vertices: int
    edges: Tuple[Tuple[int, int], ...]

    def __post_init__(self) -> None:
        if int(self.num_vertices) != self.num_vertices or self.num_vertices < 1:
            raise DomainError(
                f"vertex count must be a positive integer, got {self.num_vertices!r}"
            )
        object.__setattr__(self, "num_vertices", int(self.num_vertices))
        normalized: List[Tuple[int, int]] = []
        seen = set()
        for edge in self.edges:
            try:
                u, v = (int(edge[0]), int(edge[1]))
            except (TypeError, ValueError, IndexError):
                raise DomainError(f"edge must be a pair of vertices, got {edge!r}") from None
            if u == v:
                raise DomainError(f"self-loop at vertex {u} is not allowed")
            if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
                raise DomainError(
                    f"edge ({u}, {v}) out of range for {self.num_vertices} vertices"
                )
            key = (min(u, v), max(u, v))
            if key in seen:
                raise DomainError(f"duplicate edge ({key[0]}, {key[1]})")
            seen.add(key)
            normalized.append(key)
        object.__setattr__(self, "edges", tuple(normalized))

    @property
    def num_edges(self) -> int:
        return len(self.edges)


def _check_part_size(n: int) -> int:
    if int(n) != n or not (1 <= n <= MAX_PART_SIZE):
        raise DomainError(
            f"part size must be an integer in [1, {MAX_PART_SIZE}], got {n!r}"
        )
    return int(n)


def bipartite_spectrum(n: int) -> BipartiteSpectrum:
    """Exact mean-centered Max-Cut spectrum of K_{n,n}.

    The cost ``(n - 2j)(n - 2k)/2`` has multiplicity ``C(n,j) * C(n,k)``
    over ``0 <= j, k <= n``; equal costs are merged.  Writing
    ``a = n - 2j`` and ``b = n - 2k``, the weight ``w(a) = C(n,j)``
    depends on ``|a|`` alone (``C(n,j) = C(n,n-j)``) and ``a*b = b*a``,
    so the tally runs over ``0 < |a| <= |b|`` only.  Each product
    ``w(|a|) w(|b|)`` counts the sign choices and the swap of ``a`` and
    ``b`` at once, and splits evenly between the costs ``+|a||b|/2`` and
    ``-|a||b|/2``; the cost 0 (even ``n`` only) takes the rest of the
    ``4^n`` assignments.  Costs are half-integers, exactly representable
    in floating point; counts stay exact integers.
    """
    n = _check_part_size(n)
    # (|a|, w(|a|)) for |a| = n, n-2, ..., down to 1 or 2.
    sides = [(n - 2 * j, math.comb(n, j)) for j in range((n + 1) // 2)]
    # Keyed by the integer 2*|cost|, so merging is exact.  An entry holds
    # half the count of each of its two signs.
    half: Dict[int, int] = {}
    for i, (a, wa) in enumerate(sides):
        key = a * a
        half[key] = half.get(key, 0) + wa * wa
        wa2 = 2 * wa
        for b, wb in sides[i + 1:]:
            key = a * b
            half[key] = half.get(key, 0) + wa2 * wb
    keys = sorted(half)
    negative = [(-doubled / 2.0, 2 * half[doubled]) for doubled in reversed(keys)]
    positive = [(doubled / 2.0, 2 * half[doubled]) for doubled in keys]
    M = 4**n
    zero = [(0.0, M - 4 * sum(half.values()))] if n % 2 == 0 else []
    return BipartiteSpectrum(n=n, atoms=tuple(negative + zero + positive), M=M)


def knn_spectrum(n: int, frame: str = "y") -> EmpiricalLaw:
    """Exact Max-Cut cost law of K_{n,n} with integer multiplicities.

    ``frame="y"`` gives the mean-centered spectrum (mean 0, minimum
    ``-n^2/2`` with multiplicity 2); ``frame="x"`` gives raw negated
    cut sizes (mean ``-n^2/2``, minimum ``-n^2``).
    """
    return bipartite_spectrum(n).law(frame)


def complete_bipartite_instance(n: int) -> GraphInstance:
    """K_{n,n} as an explicit edge list (left part 0..n-1, right n..2n-1)."""
    n = _check_part_size(n)
    edges = tuple((u, n + v) for u in range(n) for v in range(n))
    return GraphInstance(num_vertices=2 * n, edges=edges)


def brute_force_spectrum(graph: GraphInstance, frame: str = "x") -> EmpiricalLaw:
    """Exact cost law of Max-Cut on an arbitrary small graph.

    Enumerates all ``2^|V|`` bipartitions and tallies negated cut
    sizes.  ``frame="x"`` returns them raw (values in ``[-|E|, 0]``);
    ``frame="y"`` centers them at the exact mean ``-|E|/2``.
    """
    _check_frame(frame)
    if graph.num_vertices > MAX_BRUTE_FORCE_VERTICES:
        raise DomainError(
            f"brute force supports at most {MAX_BRUTE_FORCE_VERTICES} vertices, "
            f"got {graph.num_vertices}"
        )
    total = 1 << graph.num_vertices
    counts = np.zeros(graph.num_edges + 1, dtype=np.int64)
    for start in range(0, total, _BRUTE_FORCE_CHUNK):
        stop = min(start + _BRUTE_FORCE_CHUNK, total)
        assignment = np.arange(start, stop, dtype=np.uint32)
        cut = np.zeros(assignment.size, dtype=np.uint32)
        for u, v in graph.edges:
            cut += ((assignment >> np.uint32(u)) ^ (assignment >> np.uint32(v))) & np.uint32(1)
        counts += np.bincount(cut, minlength=graph.num_edges + 1).astype(np.int64)
    if frame == "x":
        pairs = [
            (-float(size), int(count))
            for size, count in enumerate(counts)
            if count > 0
        ]
    else:
        shift = graph.num_edges / 2.0
        pairs = [
            (shift - float(size), int(count))
            for size, count in enumerate(counts)
            if count > 0
        ]
    pairs.sort(key=lambda item: item[0])
    return EmpiricalLaw(pairs)


def read_edge_list(path: str) -> GraphInstance:
    """Read a graph from a text file with one ``u v`` edge per line.

    Vertices are 0-indexed; the vertex count is one past the largest
    endpoint.  Blank lines are skipped.
    """
    edges: List[Tuple[int, int]] = []
    top = -1
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 2:
                raise DomainError(f"{path}:{lineno}: expected 'u v', got {line.rstrip()!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise DomainError(
                    f"{path}:{lineno}: vertices must be integers, got {line.rstrip()!r}"
                ) from None
            if u < 0 or v < 0:
                raise DomainError(f"{path}:{lineno}: vertices must be non-negative")
            edges.append((u, v))
            top = max(top, u, v)
    if not edges:
        raise DomainError(f"{path}: no edges found")
    return GraphInstance(num_vertices=top + 1, edges=tuple(edges))


_BOUND_KINDS = ("max_amplification", "gmth")


def _achieved_ratio(law_y: EmpiricalLaw, n: int, r: int, bound_kind: str) -> float:
    """Approximation ratio reached at r rounds on K_{n,n}.

    ``lam = E_x / R_min_x`` with ``E_x = E_y - n^2/2`` and
    ``R_min_x = -n^2``, i.e. ``lam = 1/2 - E_y / n^2``.  The ``"gmth"``
    expectation is the optimized threshold's ``E_r`` as the discrete scan
    found it, equal to :func:`~thqaoa.gmth.optimize_threshold`'s bit for
    bit, without the rest of the report.
    """
    if bound_kind == "max_amplification":
        _, _, expectation = _floor_terms(law_y, r)
    else:
        _, _, expectation = _optimize_discrete(law_y, r)
    return 0.5 - expectation / float(n * n)


def _check_target(lam: float, bound_kind: str) -> None:
    if not (0.0 < lam <= 1.0):
        raise DomainError(f"approximation ratio must lie in (0, 1], got {lam!r}")
    if bound_kind not in _BOUND_KINDS:
        raise DomainError(f"bound_kind must be one of {_BOUND_KINDS}, got {bound_kind!r}")


def _max_amplification_rounds_to_optimum(n: int) -> int:
    """``ceil(2^{(2n-3)/2})``, at least 1."""
    exponent = 2 * n - 3
    if exponent < 0:
        return 1
    power = 1 << exponent
    root = math.isqrt(power)
    return root if root * root == power else root + 1


def min_rounds_for_ratio(n: int, lam: float, bound_kind: str = "max_amplification") -> Optional[int]:
    """Smallest round count reaching approximation ratio ``lam`` on K_{n,n}.

    The expectation model is selected by ``bound_kind``:

    * ``"max_amplification"`` -- the per-class amplification floor
      (the most optimistic expectation any amplitude-amplification
      schedule can reach).  Each r evaluates only the per-r core of
      :func:`~thqaoa.bounds.max_amplification_floor` (``tau1``,
      ``tau2``, ``E_floor``), not the report's round counts, which
      depend on the law alone.  At ``lam = 1`` this branch returns the
      closed form ``ceil(2^{(2n-3)/2})``, the smallest r with
      ``(2r)^2`` amplified draws covering the ``M / 2`` solutions per
      optimal assignment, without building the spectrum.
    * ``"gmth"`` -- the optimized threshold expectation; at ``lam = 1``
      this is the smallest r whose amplification window reaches
      probability one on the optimal class alone.

    For ``lam < 1`` the achieved ratio is monotone non-decreasing in r
    (verified during bracketing) and the answer is found by doubling
    then binary search.  Ratios not reached within ``2^63`` rounds
    give None.
    """
    n = _check_part_size(n)
    _check_target(lam, bound_kind)
    if lam == 1.0 and bound_kind == "max_amplification":
        return _max_amplification_rounds_to_optimum(n)
    return _min_rounds_on_law(knn_spectrum(n, frame="y"), n, lam, bound_kind)


def _min_rounds_on_law(law_y: EmpiricalLaw, n: int, lam: float, bound_kind: str) -> Optional[int]:
    """:func:`min_rounds_for_ratio` on ``law_y = knn_spectrum(n, "y")``
    built by the caller, so that one law serves several targets."""
    _check_target(lam, bound_kind)
    if lam == 1.0:
        if bound_kind == "gmth":
            return max(1, min_rounds_exact_opt(law_y))
        return _max_amplification_rounds_to_optimum(n)

    largest, previous = 0, -math.inf  # the largest r tried so far, and its ratio

    def reached(r: int) -> bool:
        nonlocal largest, previous
        achieved = _achieved_ratio(law_y, n, r, bound_kind)
        if r > largest:  # a doubling step
            if achieved < previous - 1e-12:
                raise NumericalError(
                    f"achieved ratio decreased from {previous!r} to {achieved!r} at r={r}"
                )
            largest, previous = r, achieved
        return achieved >= lam

    return _first_round(reached, ROUND_SEARCH_LIMIT)
