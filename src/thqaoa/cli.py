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
deduplicated.

A key=value config file (``--config``) may supply any long option of
the chosen subcommand (dashes as underscores, ``#`` comments); flags
given on the command line win; unknown keys are rejected.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import baselines, bounds, figures, gmqaoa, gmth, maxcut
from .dist_core import DiscreteLaw, Distribution, discretize_equal_mass
from .dist_models import (
    NormalLaw,
    empirical_from_file,
    make_binomial,
    make_normal,
    make_reflected_gamma,
    make_reflected_pareto,
    make_two_point,
)
from .errors import ConfigError, DomainError, NumericalError, ThqaoaError
from .grover_kernel import (
    POLY_MAX_ROUNDS,
    grover_probability,
    grover_probability_poly,
    threshold_ratio,
)

__all__ = ["run", "main", "ExperimentConfig"]


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D102 - argparse hook
        raise ConfigError(message)


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated, fully merged invocation: subcommand plus options.

    Options are merged from (highest precedence first) command-line
    flags, the ``--config`` file, and built-in defaults; unknown config
    keys are rejected before any computation starts.
    """

    subcommand: str
    options: Dict[str, object]

    def __getitem__(self, key: str) -> object:
        return self.options[key]


# --------------------------------------------------------------------------
# value parsing


def _parse_float_list(text: str, flag: str) -> List[float]:
    try:
        return [float(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise ConfigError(f"{flag} expects comma-separated numbers, got {text!r}") from None


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
        values = np.unique(np.rint(np.linspace(start, stop, int(count))).astype(np.int64))
        rounds = [int(v) for v in values]
    elif kind == "pow2":
        parts = _parse_float_list(rest, "--r pow2")
        if len(parts) != 2 or any(int(p) != p for p in parts):
            raise ConfigError(f"--r pow2 expects den,xmax integers, got {rest!r}")
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
        return int(spec)
    except ValueError:
        raise ConfigError(
            f"--grid expects 'support', an integer resolution, or list:t1,t2,...; got {spec!r}"
        ) from None


# --------------------------------------------------------------------------
# CSV output


def _format_cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, np.floating):
        value = float(value)
    if isinstance(value, np.integer):
        value = int(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, int):
        return str(value)
    return str(value)


def _write_csv(out: Optional[str], header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    def emit(handle) -> None:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(cell) for cell in row])

    if out is None or out == "-":
        emit(sys.stdout)
    else:
        with open(out, "w", newline="") as handle:
            emit(handle)


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


def _cmd_kappa(cfg: ExperimentConfig):
    x1, kappa = bounds.kappa()
    return ("x1", "kappa"), [(x1, kappa)]


def _cmd_cthr(cfg: ExperimentConfig):
    rounds = _parse_rounds(str(cfg["r"]))
    rows = []
    for r in rounds:
        rho_star, cth = bounds.c_th(r)
        rows.append((r, rho_star, cth, cth / r))
    return ("r", "rho_star", "cth", "cth_over_r"), rows


def _cmd_pr(cfg: ExperimentConfig):
    rounds = _parse_rounds(str(cfg["r"]))
    rhos = _parse_rho(str(cfg["rho"]))
    rows = []
    for r in rounds:
        rho_th = threshold_ratio(r)
        for rho in rhos:
            p = grover_probability(rho, r)
            in_poly_domain = r <= POLY_MAX_ROUNDS and rho <= rho_th
            p_poly = grover_probability_poly(rho, r) if in_poly_domain else None
            rows.append((r, rho, rho_th, p, p_poly, p / rho))
    return ("r", "rho", "rho_th", "p", "p_poly", "eta"), rows


def _cmd_threshold(cfg: ExperimentConfig):
    dist = _parse_dist(str(cfg["dist"]))
    r = _parse_single_round(str(cfg["r"]))
    t = cfg["t"]
    if t is None:
        report = gmth.optimize_threshold(dist, r)
    else:
        report = gmth.threshold_report(dist, r, float(t))  # type: ignore[arg-type]
    return _REPORT_HEADER, [_report_row(report)]


def _cmd_curve(cfg: ExperimentConfig):
    dist = _parse_dist(str(cfg["dist"]))
    r = _parse_single_round(str(cfg["r"]))
    grid_spec = cfg["grid"]
    if grid_spec is None:
        grid_spec = "support" if isinstance(dist, DiscreteLaw) else "2000"
    curve = gmth.threshold_curve(dist, r, _parse_grid(str(grid_spec)))
    rows = [
        (r, t, f_t, e_r, c_r)
        for t, f_t, e_r, c_r in zip(
            curve.thresholds, curve.f_values, curve.expectations, curve.scores
        )
    ]
    return ("r", "t", "f_t", "e_r", "c_r"), rows


def _cmd_sweep(cfg: ExperimentConfig):
    dist = _parse_dist(str(cfg["dist"]))
    rounds = _parse_rounds(str(cfg["r"]))
    rows = [_report_row(gmth.optimize_threshold(dist, r)) for r in rounds]
    return _REPORT_HEADER, rows


def _cmd_gmqaoa(cfg: ExperimentConfig):
    dist = _parse_dist(str(cfg["dist"]))
    if not isinstance(dist, DiscreteLaw):
        dist = discretize_equal_mass(dist, int(cfg["bins"]))  # type: ignore[arg-type]
    rounds = _parse_rounds(str(cfg["r"]))
    restarts = int(cfg["restarts"])  # type: ignore[arg-type]
    seed = int(cfg["seed"])  # type: ignore[arg-type]
    rows = []
    schedule = None
    for r in rounds:
        warm = schedule if schedule is not None and schedule.r <= r else None
        schedule, e_opt = gmqaoa.optimize_angles(
            dist, r, restarts=restarts, seed=seed, warm_start=warm
        )
        rows.append((r, e_opt, (dist.mean - e_opt) / dist.std, dist.cdf(e_opt)))
    return ("r", "e_opt", "c", "quantile"), rows


def _cmd_bound(cfg: ExperimentConfig):
    dist = _parse_dist(str(cfg["dist"]))
    rounds = _parse_rounds(str(cfg["r"]))
    tail_l = cfg["tail_l"]
    # One call for all r: the two round counts depend on the law alone.
    reports = bounds._floor_reports(
        dist, rounds, L=None if tail_l is None else float(tail_l)  # type: ignore[arg-type]
    )
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


def _spectrum_rows(law) -> List[Tuple[object, ...]]:
    rows = []
    cdf = 0.0
    counts = getattr(law, "multiplicities", None)
    for idx, value in enumerate(law.spectrum.values):
        mass = float(law.spectrum.masses[idx])
        cdf = float(law.spectrum.mass_prefix[idx])
        count = counts[idx] if counts is not None else None
        rows.append((float(value), count, mass, cdf))
    return rows


def _cmd_maxcut(cfg: ExperimentConfig):
    lam = cfg["lam"]
    frame = str(cfg["frame"])
    if lam is not None:
        if cfg["graph"] is not None:
            raise ConfigError(
                "--graph selects spectrum mode and --lam the K_{n,n} round search; give one, not both"
            )
        bound_kind = str(cfg["bound_kind"])
        if cfg["n_range"] is not None:
            parts = str(cfg["n_range"]).split(",")
            if len(parts) != 2:
                raise ConfigError(f"--n-range expects lo,hi, got {cfg['n_range']!r}")
            try:
                n_lo, n_hi = int(parts[0]), int(parts[1])
            except ValueError:
                raise ConfigError(f"--n-range expects integers, got {cfg['n_range']!r}") from None
            if n_lo > n_hi:
                raise ConfigError(f"--n-range must be ascending, got {cfg['n_range']!r}")
            n_values = range(n_lo, n_hi + 1)
        elif cfg["n"] is not None:
            n_values = [int(cfg["n"])]  # type: ignore[list-item]
        else:
            raise ConfigError("minimum-round search needs --n or --n-range")
        rows = []
        for n in n_values:
            try:
                r: Optional[int] = maxcut.min_rounds_for_ratio(n, float(lam), bound_kind)  # type: ignore[arg-type]
            except DomainError as exc:
                if "not reached within" not in str(exc):
                    raise
                r = None
            rows.append((n, float(lam), bound_kind, r))  # type: ignore[arg-type]
        return ("n", "lam", "bound_kind", "r"), rows
    if cfg["graph"] is not None:
        law = maxcut.brute_force_spectrum(maxcut.read_edge_list(str(cfg["graph"])), frame=frame)
    elif cfg["n"] is not None:
        law = maxcut.knn_spectrum(int(cfg["n"]), frame=frame)  # type: ignore[arg-type]
    else:
        raise ConfigError("spectrum mode needs --n (K_{n,n}) or --graph (edge list)")
    return ("value", "count", "mass", "cdf"), _spectrum_rows(law)


def _cmd_crs(cfg: ExperimentConfig):
    dist = _parse_dist(str(cfg["dist"]))
    rounds = _parse_rounds(str(cfg["r"]))
    method = str(cfg["method"])
    effort = int(cfg["effort_factor"])  # type: ignore[arg-type]
    if effort < 1:
        raise ConfigError(f"--effort-factor must be >= 1, got {effort}")
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
        elif method == "monte_carlo":
            e_min, stderr = baselines.crs_monte_carlo(
                dist, k, int(cfg["trials"]), int(cfg["seed"])  # type: ignore[arg-type]
            )
        else:
            raise ConfigError(
                f"--method must be blom, integral, or monte_carlo, got {method!r}"
            )
        rows.append((r, k, e_min, stderr, method))
    return ("r", "k", "e_min", "stderr", "method"), rows


def _cmd_reproduce(cfg: ExperimentConfig):
    target = str(cfg["target"])
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

# Built-in defaults per subcommand; None means "no value" (required
# options validate inside the handler or parser).
_DEFAULTS: Dict[str, Dict[str, object]] = {
    "kappa": {},
    "cthr": {"r": "linspace:1,50,50"},
    "pr": {"r": None, "rho": None},
    "threshold": {"dist": None, "r": None, "t": None},
    "curve": {"dist": None, "r": None, "grid": None},
    "sweep": {"dist": None, "r": None},
    "gmqaoa": {"dist": None, "r": None, "bins": 10_000, "restarts": 20, "seed": 0},
    "bound": {"dist": None, "r": None, "tail_l": None},
    "maxcut": {
        "n": None,
        "n_range": None,
        "graph": None,
        "frame": "y",
        "lam": None,
        "bound_kind": "max_amplification",
    },
    "crs": {
        "dist": None,
        "r": None,
        "method": "integral",
        "trials": 100_000,
        "seed": 0,
        "effort_factor": baselines.DEFAULT_EFFORT_FACTOR,
    },
    "reproduce": {"target": None},
}

_REQUIRED: Dict[str, Tuple[str, ...]] = {
    "pr": ("r", "rho"),
    "threshold": ("dist", "r"),
    "curve": ("dist", "r"),
    "sweep": ("dist", "r"),
    "gmqaoa": ("dist", "r"),
    "bound": ("dist", "r"),
    "crs": ("dist", "r"),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="thqaoa", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="<subcommand>")

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text, add_help=True)
        p.add_argument("--out", default=None, help="output CSV path (default: stdout)")
        p.add_argument("--config", default=None, help="key=value config file")
        return p

    p = add("pr", "success-probability kernel tables")
    p.add_argument("--r", default=None, help="round spec")
    p.add_argument("--rho", default=None, help="marked fractions: comma list or geom:lo,hi,count")

    p = add("threshold", "single threshold report")
    p.add_argument("--dist", default=None, help="distribution spec")
    p.add_argument("--r", default=None, help="single round count")
    p.add_argument("--t", default=None, type=float, help="threshold (default: optimized)")

    p = add("curve", "expectation along a threshold grid")
    p.add_argument("--dist", default=None, help="distribution spec")
    p.add_argument("--r", default=None, help="single round count")
    p.add_argument(
        "--grid",
        default=None,
        help="'support', integer resolution, or list:t1,t2,... "
        "(default: support for discrete laws, 2000 otherwise)",
    )

    p = add("sweep", "optimized threshold reports across rounds")
    p.add_argument("--dist", default=None, help="distribution spec")
    p.add_argument("--r", default=None, help="round spec")

    p = add("cthr", "maximal standard score per round count")
    p.add_argument("--r", default=None, help="round spec (default 1..50)")

    add("kappa", "asymptotic score-per-round constant")

    p = add("gmqaoa", "identity-compiled angle optimization")
    p.add_argument("--dist", default=None, help="distribution spec")
    p.add_argument("--r", default=None, help="round spec")
    p.add_argument("--bins", default=None, type=int, help="equal-mass bins for continuous laws")
    p.add_argument("--restarts", default=None, type=int, help="optimizer restarts")
    p.add_argument("--seed", default=None, type=int, help="optimizer seed")

    p = add("bound", "amplification-floor bound reports")
    p.add_argument("--dist", default=None, help="distribution spec")
    p.add_argument("--r", default=None, help="round spec")
    p.add_argument(
        "--tail-l",
        dest="tail_l",
        default=None,
        type=float,
        help="tail constant for the quantile envelope (default: unscaled shape)",
    )

    p = add("maxcut", "Max-Cut spectra and minimum-round searches")
    p.add_argument("--n", default=None, type=int, help="part size for K_{n,n}")
    p.add_argument("--n-range", dest="n_range", default=None, help="part-size sweep lo,hi")
    p.add_argument("--graph", default=None, help="edge-list file for brute force")
    p.add_argument("--frame", default=None, choices=("y", "x"), help="cost frame")
    p.add_argument("--lam", default=None, type=float, help="target approximation ratio")
    p.add_argument(
        "--bound-kind",
        dest="bound_kind",
        default=None,
        choices=("max_amplification", "gmth"),
        help="expectation model for round searches",
    )

    p = add("crs", "classical random-sampling baselines")
    p.add_argument("--dist", default=None, help="distribution spec")
    p.add_argument("--r", default=None, help="round spec")
    p.add_argument(
        "--method", default=None, choices=("blom", "integral", "monte_carlo"), help="estimator"
    )
    p.add_argument("--trials", default=None, type=int, help="Monte Carlo trials")
    p.add_argument("--seed", default=None, type=int, help="Monte Carlo seed")
    p.add_argument(
        "--effort-factor",
        dest="effort_factor",
        default=None,
        type=int,
        help="classical draws per round (default 2)",
    )

    p = add("reproduce", "pinned figure datasets")
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


_CONFIG_COERCERS = {
    "t": float,
    "lam": float,
    "tail_l": float,
    "bins": int,
    "restarts": int,
    "seed": int,
    "trials": int,
    "n": int,
    "effort_factor": int,
}


def _merge_config(ns: argparse.Namespace) -> ExperimentConfig:
    subcommand = ns.subcommand
    defaults = dict(_DEFAULTS[subcommand])
    if subcommand == "reproduce":
        defaults["target"] = ns.target
    file_pairs: Dict[str, str] = {}
    if getattr(ns, "config", None):
        file_pairs = _load_config_file(ns.config)
        unknown = sorted(set(file_pairs) - set(defaults))
        if unknown:
            raise ConfigError(
                f"unknown config key(s) for {subcommand!r}: {', '.join(unknown)}"
            )
    options: Dict[str, object] = {}
    for key, built_in in defaults.items():
        flag_value = getattr(ns, key, None)
        if flag_value is not None:
            options[key] = flag_value
        elif key in file_pairs:
            raw = file_pairs[key]
            coerce = _CONFIG_COERCERS.get(key)
            try:
                options[key] = coerce(raw) if coerce else raw
            except ValueError:
                raise ConfigError(f"config key {key!r} has invalid value {raw!r}") from None
        else:
            options[key] = built_in
    required = _REQUIRED.get(subcommand, ())
    missing = [key for key in required if options.get(key) is None]
    if missing:
        raise ConfigError(
            f"{subcommand} requires --{missing[0].replace('_', '-')}"
        )
    return ExperimentConfig(subcommand=subcommand, options=options)


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        cfg = _merge_config(ns)
        header, rows = _HANDLERS[cfg.subcommand](cfg)
        _write_csv(getattr(ns, "out", None), header, rows)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except ThqaoaError as exc:
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
