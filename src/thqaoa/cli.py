"""Command-line front end: every analysis as a deterministic CSV.

Subcommands
-----------
* ``pr``         -- success-probability kernel tables P(rho, r).
* ``threshold``  -- a single threshold report (optimized or at --t).
* ``curve``      -- expectation/score along a threshold grid.
* ``sweep``      -- optimized threshold reports across rounds.
* ``cthr``       -- maximal standard score per round count.
* ``kappa``      -- the asymptotic score-per-round constant.
* ``gmqaoa``     -- identity-compiled angle optimization results.
* ``bound``      -- amplification-floor bound reports.
* ``maxcut``     -- K_{n,n}/graph spectra and minimum-round searches.
* ``crs``        -- classical random-sampling baselines.
* ``reproduce``  -- the pinned figure datasets fig1..fig9.

Conventions
-----------
Output is RFC-4180-style CSV with ``\\n`` line endings and a header
row; floats use shortest round-trip formatting; empty cells encode
"not applicable".  Identical configurations produce byte-identical
output.  Exit codes: 0 success, 2 configuration error, 3 numerical
failure; every error prints a single line ``error: <category>:
<message>`` to stderr.

Distribution specs (``--dist``): ``normal:u,s``; ``gamma:a,b``;
``binomial:n,p``; ``pareto:eps,x_m``; ``twopoint:rho``;
``empirical:<csv path>``; ``knn:n`` or ``knn:n,x`` (Max-Cut K_{n,n}
cost law, mean-centered by default, ``x`` for raw negated cut sizes).

Round specs (``--r``): an explicit comma list ``1,5,100``;
``linspace:start,stop,count`` (rounded to integers, deduplicated); or
``pow2:den,xmax`` for the log grid ``ceil(2^(x/den))``, x = 0..xmax,
deduplicated.  Generated grids (``linspace``/``pow2`` rounds, ``geom``
marked fractions, integer ``--grid`` resolutions) hold at most 10^6
points; larger ones are rejected before anything is allocated.

A threshold of minus infinity is written ``--t=-inf``: argparse reads a
separate ``-inf`` as an option name.

A key=value config file (``--config``) may supply any long option of
the chosen subcommand except ``--out`` and ``--config`` (dashes as
underscores, ``#`` comments).  Its values pass the same type and choice
checks as flags; flags given on the command line win; unknown keys are
rejected.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import baselines, bounds, figures, gmqaoa, gmth, maxcut
from .dist_core import DiscreteLaw, Distribution, discretize_equal_mass
from .dist_models import (
    EmpiricalLaw,
    NormalLaw,
    empirical_from_file,
    make_binomial,
    make_normal,
    make_reflected_gamma,
    make_reflected_pareto,
    make_two_point,
)
from .errors import ConfigError, DomainError, ThqaoaError
from .grover_kernel import (
    POLY_MAX_ROUNDS, _amplification_caps, _check_rounds, _float_or_inf, _round_terms,
    grover_probability_poly, grover_probability_vec,
)

__all__ = ["run", "main"]

#: Most points a generated grid (--r linspace/pow2, --rho geom, --grid N,
#: --bins) may hold.  Checked before the grid is built.
MAX_GRID_POINTS = 10**6

#: Most bytes the gmqaoa angle search's states may take.  Its gradient
#: keeps two complex128 arrays of r amplitudes per cost class, 32 bytes
#: an amplitude (its measured peak).  Checked before they are built.
_ANGLE_SEARCH_BYTES = 2**31


def _check_grid_size(points: float, what: str) -> None:
    if points > MAX_GRID_POINTS:
        raise ConfigError(f"{what} asks for {points:.15g} points; the limit is {MAX_GRID_POINTS}")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D102 - argparse hook
        raise ConfigError(message)


# --------------------------------------------------------------------------
# value parsing


def _parse_float_list(text: str, flag: str) -> List[float]:
    try:
        values = [float(part) for part in text.split(",") if part != ""]
        if not all(math.isfinite(v) for v in values):
            raise ValueError
    except ValueError:
        raise ConfigError(f"{flag} expects comma-separated finite numbers, got {text!r}") from None
    return values


def _parse_dist(spec: str) -> Distribution:
    name, _, rest = spec.partition(":")
    name = name.strip().lower()
    if name == "empirical":
        if not rest:
            raise ConfigError("empirical law needs a file path: empirical:<path>")
        return empirical_from_file(rest)
    if name == "knn":
        parts = [p.strip() for p in rest.split(",")] if rest else []
        if not parts or not parts[0]:
            raise ConfigError("knn law needs a part size: knn:n or knn:n,x")
        try:
            n = int(parts[0])
        except ValueError:
            raise ConfigError(f"knn part size must be an integer, got {parts[0]!r}") from None
        frame = parts[1] if len(parts) > 1 else "y"
        if len(parts) > 2:
            raise ConfigError(f"knn takes at most two parameters, got {rest!r}")
        return maxcut.knn_spectrum(n, frame=frame)
    params = _parse_float_list(rest, "--dist") if rest else []

    def need(count: int) -> List[float]:
        if len(params) != count:
            raise ConfigError(
                f"distribution {name!r} takes {count} parameter(s), got {len(params)}"
            )
        return params

    if name == "normal":
        u, s = need(2)
        return make_normal(u, s)
    if name == "gamma":
        a, b = need(2)
        return make_reflected_gamma(a, b)
    if name == "binomial":
        n, p = need(2)
        if int(n) != n:
            raise ConfigError(f"binomial trial count must be an integer, got {n!r}")
        return make_binomial(int(n), p)
    if name == "pareto":
        eps, x_m = need(2)
        return make_reflected_pareto(eps, x_m)
    if name == "twopoint":
        (rho,) = need(1)
        return make_two_point(rho)
    raise ConfigError(
        f"unknown distribution {name!r}; expected one of "
        "normal, gamma, binomial, pareto, twopoint, empirical, knn"
    )


def _parse_rounds(spec: str) -> List[int]:
    kind, _, rest = spec.partition(":")
    if kind == "linspace":
        parts = _parse_float_list(rest, "--r linspace")
        if len(parts) != 3:
            raise ConfigError(f"--r linspace expects start,stop,count, got {rest!r}")
        start, stop, count = parts
        if int(count) != count or count < 1:
            raise ConfigError(f"--r linspace count must be a positive integer, got {count!r}")
        _check_grid_size(count, "--r linspace")
        # np.linspace forms start + i * ((stop - start) / (count - 1)); its
        # last point can round past the largest double when the span fits.
        span = stop - start
        last = start + (count - 1) * (span / (count - 1)) if count > 1 else start
        if not (math.isfinite(span) and math.isfinite(last)):
            raise ConfigError(f"--r linspace span overflows a double, got {rest!r}")
        values = np.unique(np.rint(np.linspace(start, stop, int(count))))
        rounds = [int(v) for v in values]
    elif kind == "pow2":
        parts = _parse_float_list(rest, "--r pow2")
        if len(parts) != 2 or any(int(p) != p for p in parts):
            raise ConfigError(f"--r pow2 expects den,xmax integers, got {rest!r}")
        _check_grid_size(parts[1] + 1, "--r pow2")
        rounds = figures.round_grid_pow2(int(parts[0]), int(parts[1]))
    else:
        try:
            rounds = [int(part) for part in spec.split(",") if part != ""]
        except ValueError:
            raise ConfigError(
                f"--r expects a comma list of integers, linspace:start,stop,count, "
                f"or pow2:den,xmax; got {spec!r}"
            ) from None
    if not rounds:
        raise ConfigError(f"--r produced no round counts from {spec!r}")
    for r in rounds:
        if r < 1:
            raise ConfigError(f"round counts must be >= 1, got {r}")
    return rounds


def _parse_single_round(spec: str) -> int:
    rounds = _parse_rounds(spec)
    if len(rounds) != 1:
        raise ConfigError(f"this subcommand takes a single round count, got {len(rounds)}")
    return rounds[0]


def _parse_rho(spec: str) -> List[float]:
    kind, _, rest = spec.partition(":")
    if kind == "geom":
        parts = _parse_float_list(rest, "--rho geom")
        if len(parts) != 3:
            raise ConfigError(f"--rho geom expects lo,hi,count, got {rest!r}")
        lo, hi, count = parts
        if int(count) != count or count < 2:
            raise ConfigError(f"--rho geom count must be an integer >= 2, got {count!r}")
        _check_grid_size(count, "--rho geom")
        if not (0.0 < lo <= 1.0 and 0.0 < hi <= 1.0):
            raise ConfigError(f"--rho geom lo and hi must lie in (0, 1], got {rest!r}")
        values = list(np.geomspace(lo, hi, int(count)))
    else:
        values = _parse_float_list(spec, "--rho")
    if not values:
        raise ConfigError(f"--rho produced no values from {spec!r}")
    for rho in values:
        if not (0.0 < rho <= 1.0):
            raise ConfigError(f"marked fractions must lie in (0, 1], got {rho!r}")
    return [float(v) for v in values]


def _parse_grid(spec: str):
    if spec == "support":
        return "support"
    if spec.startswith("list:"):
        values = _parse_float_list(spec[len("list:"):], "--grid list")
        if len(values) < 2:
            raise ConfigError("--grid list needs at least two thresholds")
        return values
    try:
        resolution = int(spec)
    except ValueError:
        raise ConfigError(
            f"--grid expects 'support', an integer resolution, or list:t1,t2,...; got {spec!r}"
        ) from None
    _check_grid_size(resolution, "--grid")
    return resolution


# --------------------------------------------------------------------------
# CSV output


def _quote(text: str) -> str:
    """A text cell under minimal quoting: wrapped in double quotes, with
    inner quotes doubled, when it holds a comma, a quote or a newline."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _format_cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return _quote(str(value))


# Exact-type fast paths of _format_cell for the cell types the handlers
# emit.  np.float64 subclasses float, and float.__repr__ gives its
# shortest round trip (its own repr reads "np.float64(...)").
_CELL_FORMATS: Dict[type, Callable[[Any], str]] = {
    float: float.__repr__,
    np.float64: float.__repr__,
    int: int.__repr__,
    str: _quote,
    type(None): lambda _: "",
}


def _write_csv(out: Optional[str], header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    """Write the header and rows as CSV lines ending in ``\n``, one row at a time.

    Cells: ``None`` is empty; Python and numpy floats use the shortest
    round-trip ``repr``; anything else is ``str``, quoted as
    :func:`_quote` says (the handlers' text cells are identifiers, which
    never need it).  A row whose only cell is empty is written ``""``
    so that it does not read as a blank line.  These are the bytes that
    ``csv.writer(handle, lineterminator="\n")`` writes for the same cells
    as strings; the tests compare the two on arbitrary rows.
    """
    get_format = _CELL_FORMATS.get

    def lines():
        for row in itertools.chain((header,), rows):
            cells = [get_format(type(cell), _format_cell)(cell) for cell in row]
            if len(cells) == 1 and not cells[0]:
                yield '""\n'
            else:
                yield ",".join(cells) + "\n"

    if out is None or out == "-":
        sys.stdout.writelines(lines())
    else:
        with open(out, "w", newline="") as handle:
            handle.writelines(lines())


# --------------------------------------------------------------------------
# subcommand handlers

_REPORT_HEADER = (
    "r",
    "t_opt",
    "t_centered",
    "rho",
    "p",
    "e_r",
    "c_r",
    "quantile",
    "eta",
    "lam",
)


def _report_row(report: gmth.ThresholdReport) -> Tuple[object, ...]:
    return (
        report.r,
        report.t_opt,
        report.T,
        report.rho,
        report.P,
        report.E_r,
        report.C_r,
        report.quantile,
        report.eta,
        report.lam,
    )


def _cmd_kappa(cfg: Dict[str, Any]):
    x1, kappa = bounds.kappa()
    return ("x1", "kappa"), [(x1, kappa)]


def _cmd_cthr(cfg: Dict[str, Any]):
    rounds = _parse_rounds(cfg["r"])
    rows = [(r, rho_star, cth, cth / r) for r, (rho_star, cth) in zip(rounds, bounds.c_ths(rounds))]
    return ("r", "rho_star", "cth", "cth_over_r"), rows


def _cmd_pr(cfg: Dict[str, Any]):
    rounds = [_check_rounds(r) for r in _parse_rounds(cfg["r"])]
    rhos = _parse_rho(cfg["rho"])
    masses = np.array(rhos, dtype=np.float64)
    rows = []
    for r, rho_th, k, cap in zip(rounds, *_round_terms(rounds), _amplification_caps(rounds)):
        p = grover_probability_vec(masses, rho_th, k)
        eta = np.minimum(p / masses, cap)  # p / rho can pass the cap by an ulp
        for rho, p_r, eta_r in zip(rhos, p.tolist(), eta.tolist()):
            in_poly_domain = r <= POLY_MAX_ROUNDS and rho <= rho_th
            p_poly = grover_probability_poly(rho, r) if in_poly_domain else None
            rows.append((r, rho, rho_th, p_r, p_poly, eta_r))
    return ("r", "rho", "rho_th", "p", "p_poly", "eta"), rows


def _cmd_threshold(cfg: Dict[str, Any]):
    dist = _parse_dist(cfg["dist"])
    r = _parse_single_round(cfg["r"])
    if cfg["t"] is None:
        report = gmth.optimize_threshold(dist, r)
    else:
        report = gmth.threshold_report(dist, r, cfg["t"])
    return _REPORT_HEADER, [_report_row(report)]


def _cmd_curve(cfg: Dict[str, Any]):
    dist = _parse_dist(cfg["dist"])
    r = _parse_single_round(cfg["r"])
    grid_spec = cfg["grid"]
    if grid_spec is None:
        grid_spec = "support" if isinstance(dist, DiscreteLaw) else "2000"
    curve = gmth.threshold_curve(dist, r, _parse_grid(grid_spec))
    rows = [
        (r, t, f_t, e_r, c_r)
        for t, f_t, e_r, c_r in zip(
            curve.thresholds, curve.f_values, curve.expectations, curve.scores
        )
    ]
    return ("r", "t", "f_t", "e_r", "c_r"), rows


def _cmd_sweep(cfg: Dict[str, Any]):
    dist = _parse_dist(cfg["dist"])
    rounds = _parse_rounds(cfg["r"])
    rows = [_report_row(report) for report in gmth.optimize_thresholds(dist, rounds)]
    return _REPORT_HEADER, rows


def _cmd_gmqaoa(cfg: Dict[str, Any]):
    dist = _parse_dist(cfg["dist"])
    if not isinstance(dist, DiscreteLaw):
        dist = discretize_equal_mass(dist, cfg["bins"])
    rounds = _parse_rounds(cfg["r"])
    r_max, classes = max(rounds), dist.spectrum.values.size
    if 32 * r_max * classes > _ANGLE_SEARCH_BYTES:
        raise ConfigError(
            f"--r {r_max} on {classes} cost classes needs {_float_or_inf(32 * r_max * classes) / 2**30:.3g} GiB "
            f"of angle-search states; the limit is {_ANGLE_SEARCH_BYTES // 2**30} GiB"
        )
    rows = []
    schedule = None
    for r in rounds:
        warm = schedule if schedule is not None and schedule.r <= r else None
        schedule, e_opt = gmqaoa.optimize_angles(
            dist, r, restarts=cfg["restarts"], seed=cfg["seed"], warm_start=warm
        )
        rows.append((r, e_opt, (dist.mean - e_opt) / dist.std, dist.cdf(e_opt)))
    return ("r", "e_opt", "c", "quantile"), rows


def _cmd_bound(cfg: Dict[str, Any]):
    dist = _parse_dist(cfg["dist"])
    rounds = _parse_rounds(cfg["r"])
    # One call for all r: the two round counts depend on the law alone.
    reports = bounds._floor_reports(dist, rounds, L=cfg["tail_l"])
    rows = [
        (
            report.r,
            report.tau1,
            report.tau2,
            report.E_floor,
            report.C_cap,
            *report.quantile_bounds,
            report.min_rounds_exact,
            report.min_rounds_grover,
        )
        for report in reports
    ]
    return (
        "r",
        "tau1",
        "tau2",
        "e_floor",
        "c_cap",
        "q_low",
        "q_high",
        "min_rounds_exact",
        "min_rounds_grover",
    ), rows


def _spectrum_rows(law: EmpiricalLaw) -> List[Tuple[object, ...]]:
    spectrum = law.spectrum
    return [
        (float(value), count, float(mass), float(cdf))
        for value, count, mass, cdf in zip(
            spectrum.values, law.multiplicities, spectrum.masses, spectrum.mass_prefix
        )
    ]


def _cmd_maxcut(cfg: Dict[str, Any]):
    lam = cfg["lam"]
    frame = cfg["frame"]
    if lam is not None:
        if cfg["graph"] is not None:
            raise ConfigError(
                "--graph selects spectrum mode and --lam the K_{n,n} round search; give one, not both"
            )
        bound_kind = cfg["bound_kind"]
        n_range = cfg["n_range"]
        if n_range is not None:
            if cfg["n"] is not None:
                raise ConfigError(
                    "--n asks for one part size and --n-range for a sweep; give one, not both"
                )
            parts = n_range.split(",")
            if len(parts) != 2:
                raise ConfigError(f"--n-range expects lo,hi, got {n_range!r}")
            try:
                n_lo, n_hi = int(parts[0]), int(parts[1])
            except ValueError:
                raise ConfigError(f"--n-range expects integers, got {n_range!r}") from None
            if n_lo > n_hi:
                raise ConfigError(f"--n-range must be ascending, got {n_range!r}")
            if n_lo < 1 or n_hi > maxcut.MAX_PART_SIZE:
                raise ConfigError(f"--n-range must lie within 1,{maxcut.MAX_PART_SIZE}, got {n_range!r}")
            n_values = range(n_lo, n_hi + 1)
        elif cfg["n"] is not None:
            n_values = [cfg["n"]]
        else:
            raise ConfigError("minimum-round search needs --n or --n-range")
        rounds = maxcut.min_rounds_for_ratios([(n, lam) for n in n_values], bound_kind)
        return ("n", "lam", "bound_kind", "r"), [(n, lam, bound_kind, r) for n, r in zip(n_values, rounds)]
    if cfg["n_range"] is not None:
        raise ConfigError("--n-range sweeps the --lam round search; spectrum mode takes --n or --graph")
    if cfg["graph"] is not None:
        if cfg["n"] is not None:
            raise ConfigError(
                "--n asks for the K_{n,n} spectrum and --graph for an edge list's; give one, not both"
            )
        law = maxcut.brute_force_spectrum(maxcut.read_edge_list(cfg["graph"]), frame=frame)
    elif cfg["n"] is not None:
        law = maxcut.knn_spectrum(cfg["n"], frame=frame)
    else:
        raise ConfigError("spectrum mode needs --n (K_{n,n}) or --graph (edge list)")
    return ("value", "count", "mass", "cdf"), _spectrum_rows(law)


def _cmd_crs(cfg: Dict[str, Any]):
    dist = _parse_dist(cfg["dist"])
    rounds = _parse_rounds(cfg["r"])
    method = cfg["method"]
    effort = cfg["effort_factor"]
    rows = []
    for r in rounds:
        k = effort * r
        if method == "blom":
            if not isinstance(dist, NormalLaw):
                raise ConfigError("the blom method applies to normal laws only")
            e_min = baselines.crs_blom(dist.u, dist.s, r, effort_factor=effort)
            stderr = None
        elif method == "integral":
            e_min = baselines.crs_expected_min(dist, k)
            stderr = None
        else:  # monte_carlo
            e_min, stderr = baselines.crs_monte_carlo(dist, k, cfg["trials"], cfg["seed"])
        rows.append((r, k, e_min, stderr, method))
    return ("r", "k", "e_min", "stderr", "method"), rows


def _cmd_reproduce(cfg: Dict[str, Any]):
    target = cfg["target"]
    generator = figures.FIGURE_GENERATORS.get(target)
    if generator is None:
        raise ConfigError(
            f"unknown reproduce target {target!r}; expected fig1..fig9"
        )
    return generator()


_HANDLERS = {
    "kappa": _cmd_kappa,
    "cthr": _cmd_cthr,
    "pr": _cmd_pr,
    "threshold": _cmd_threshold,
    "curve": _cmd_curve,
    "sweep": _cmd_sweep,
    "gmqaoa": _cmd_gmqaoa,
    "bound": _cmd_bound,
    "maxcut": _cmd_maxcut,
    "crs": _cmd_crs,
    "reproduce": _cmd_reproduce,
}


# --------------------------------------------------------------------------
# options: one table drives the parser, config files, defaults and
# required checks


def _checked(convert: Callable[[str], Any], ok: Callable[[Any], bool], expected: str):
    """An argparse type: ``convert`` the text, then reject values failing ``ok``."""

    def parse(text: str) -> Any:
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return parse


_NUMBER = _checked(float, lambda v: not math.isnan(v), "a number")  # +-inf allowed
_SEED = _checked(int, lambda v: v >= 0, "a non-negative integer")
_POSITIVE_INT = _checked(int, lambda v: v >= 1, "a positive integer")
# the bins - 1 quantile points are a generated grid
_BINS = _checked(int, lambda v: 2 <= v <= MAX_GRID_POINTS,
                 f"an integer from 2 to {MAX_GRID_POINTS}")


@dataclass(frozen=True)
class _Option:
    """One long option: ``--name`` on the command line, ``name`` in a config file.

    ``type`` and ``choices`` check flags and config values alike; a
    required option has no default and must come from one of the two.
    """

    name: str
    help: str
    type: Callable[[str], Any] = str
    default: Any = None
    required: bool = False
    choices: Optional[Tuple[str, ...]] = None

    def config_value(self, raw: str) -> Any:
        try:
            value = self.type(raw)
        except argparse.ArgumentTypeError as exc:
            raise ConfigError(f"config key {self.name!r}: {exc}") from None
        except ValueError:
            raise ConfigError(f"config key {self.name!r} has invalid value {raw!r}") from None
        if self.choices is not None and value not in self.choices:
            raise ConfigError(
                f"config key {self.name!r} has invalid value {raw!r} "
                f"(choose from {', '.join(self.choices)})"
            )
        return value


_DIST = _Option("dist", "distribution spec", required=True)
_ROUNDS = _Option("r", "round spec", required=True)
_ONE_ROUND = _Option("r", "single round count", required=True)

# Subcommand -> (help, options), in the order the parser lists them.
_COMMANDS: Dict[str, Tuple[str, Tuple[_Option, ...]]] = {
    "pr": ("success-probability kernel tables", (
        _ROUNDS,
        _Option("rho", "marked fractions: comma list or geom:lo,hi,count", required=True),
    )),
    "threshold": ("single threshold report", (
        _DIST,
        _ONE_ROUND,
        _Option("t", "threshold (default: optimized; minus infinity as --t=-inf)", _NUMBER),
    )),
    "curve": ("expectation along a threshold grid", (
        _DIST,
        _ONE_ROUND,
        _Option("grid", "'support', integer resolution, or list:t1,t2,... "
                "(default: support for discrete laws, 2000 otherwise)"),
    )),
    "sweep": ("optimized threshold reports across rounds", (_DIST, _ROUNDS)),
    "cthr": ("maximal standard score per round count", (
        _Option("r", "round spec (default 1..50)", default="linspace:1,50,50"),
    )),
    "kappa": ("asymptotic score-per-round constant", ()),
    "gmqaoa": ("identity-compiled angle optimization", (
        _DIST,
        _ROUNDS,
        _Option("bins", "equal-mass bins for continuous laws", _BINS, 10_000),
        _Option("restarts", "optimizer restarts", int, 20),
        _Option("seed", "optimizer seed", _SEED, 0),
    )),
    "bound": ("amplification-floor bound reports", (
        _DIST,
        _ROUNDS,
        _Option("tail_l", "tail constant for the quantile envelope (default: unscaled shape)", float),
    )),
    "maxcut": ("Max-Cut spectra and minimum-round searches", (
        _Option("n", "part size for K_{n,n}", int),
        _Option("n_range", "part-size sweep lo,hi"),
        _Option("graph", "edge-list file for brute force"),
        _Option("frame", "cost frame", default="y", choices=("y", "x")),
        _Option("lam", "target approximation ratio", float),
        _Option("bound_kind", "expectation model for round searches",
                default="max_amplification", choices=("max_amplification", "gmth")),
    )),
    "crs": ("classical random-sampling baselines", (
        _DIST,
        _ROUNDS,
        _Option("method", "estimator", default="integral",
                choices=("blom", "integral", "monte_carlo")),
        _Option("trials", "Monte Carlo trials", int, 100_000),
        _Option("seed", "Monte Carlo seed", _SEED, 0),
        _Option("effort_factor", "classical draws per round (default 2)", _POSITIVE_INT,
                baselines.DEFAULT_EFFORT_FACTOR),
    )),
    "reproduce": ("pinned figure datasets", ()),
}


def _build_parser(only: Optional[str] = None) -> _Parser:
    """The CLI's parser: every subcommand, or only the subcommand ``only``.

    A parser with one subcommand parses that subcommand's arguments,
    help and errors as the full parser does; :func:`run` builds it when
    the first argument names a subcommand, and the full one otherwise.
    """
    parser = _Parser(prog="thqaoa", description=__doc__, add_help=True,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="<subcommand>")
    for name, (help_text, options) in _COMMANDS.items():
        if only is not None and name != only:
            continue
        p = sub.add_parser(name, help=help_text, add_help=True)
        p.add_argument("--out", default=None, help="output CSV path (default: stdout)")
        p.add_argument("--config", default=None, help="key=value config file")
        # No argparse defaults: an absent flag stays None so that
        # _merge_config can fall back to the config file, then the table.
        for opt in options:
            p.add_argument("--" + opt.name.replace("_", "-"), dest=opt.name, type=opt.type,
                           choices=opt.choices, help=opt.help)
        if name == "reproduce":
            p.add_argument("target", help="fig1..fig9")
    return parser


def _load_config_file(path: str) -> Dict[str, str]:
    pairs: Dict[str, str] = {}
    try:
        with open(path, "r") as handle:
            for lineno, line in enumerate(handle, start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                if "=" not in stripped:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
                key, _, value = stripped.partition("=")
                pairs[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from None
    return pairs


def _merge_config(ns: argparse.Namespace) -> Dict[str, Any]:
    """The subcommand's options, merged from (highest precedence first)
    command-line flags, the ``--config`` file and built-in defaults;
    unknown config keys are rejected before any computation starts."""
    subcommand = ns.subcommand
    table = _COMMANDS[subcommand][1]
    file_pairs: Dict[str, str] = {}
    if ns.config:
        file_pairs = _load_config_file(ns.config)
        unknown = sorted(set(file_pairs) - {opt.name for opt in table})
        if unknown:
            raise ConfigError(f"unknown config key(s) for {subcommand!r}: {', '.join(unknown)}")
    options: Dict[str, Any] = {}
    for opt in table:
        value = getattr(ns, opt.name)
        if value is None and opt.name in file_pairs:
            value = opt.config_value(file_pairs[opt.name])
        options[opt.name] = opt.default if value is None else value
    for opt in table:
        if opt.required and options[opt.name] is None:
            raise ConfigError(f"{subcommand} requires --{opt.name.replace('_', '-')}")
    if subcommand == "reproduce":
        options["target"] = ns.target
    return options


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        ns = parser.parse_args(argv)
        header, rows = _HANDLERS[ns.subcommand](_merge_config(ns))
        _write_csv(getattr(ns, "out", None), header, rows)
    except (ConfigError, DomainError) as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except ThqaoaError as exc:  # NumericalError and any other package failure
        print(f"error: numerical: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # The reader went away (e.g. `thqaoa ... | head`); stop quietly.
        # Redirect stdout to devnull so the interpreter's exit flush of
        # the half-written stream does not raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse --help
        code = exc.code if isinstance(exc.code, int) else 0
        return code
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
