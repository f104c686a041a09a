"""Command-line front end: schemas, parsing, precedence, exit codes."""

import csv
import io
import math
import os
import shutil
import subprocess
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from thqaoa import cli
from thqaoa.dist_core import Distribution
from thqaoa.errors import ConfigError, DomainError, NumericalError
from thqaoa.figures import round_grid_pow2
from thqaoa.maxcut import knn_spectrum


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# Frozen output schemas
# ---------------------------------------------------------------------------

REPORT_HEADER = ["r", "t_opt", "t_centered", "rho", "p", "e_r", "c_r", "quantile", "eta", "lam"]

SCHEMA_CASES = [
    (["kappa"], ["x1", "kappa"]),
    (["cthr", "--r", "1,2"], ["r", "rho_star", "cth", "cth_over_r"]),
    (["pr", "--r", "1", "--rho", "0.25"], ["r", "rho", "rho_th", "p", "p_poly", "eta"]),
    (["threshold", "--dist", "twopoint:0.2", "--r", "1"], REPORT_HEADER),
    (["curve", "--dist", "twopoint:0.2", "--r", "1"], ["r", "t", "f_t", "e_r", "c_r"]),
    (["sweep", "--dist", "twopoint:0.2", "--r", "1,2"], REPORT_HEADER),
    (
        ["gmqaoa", "--dist", "twopoint:0.2", "--r", "1", "--restarts", "2"],
        ["r", "e_opt", "c", "quantile"],
    ),
    (
        ["bound", "--dist", "twopoint:0.2", "--r", "1"],
        ["r", "tau1", "tau2", "e_floor", "c_cap", "q_low", "q_high",
         "min_rounds_exact", "min_rounds_grover"],
    ),
    (["maxcut", "--n", "3"], ["value", "count", "mass", "cdf"]),
    (["maxcut", "--n", "4", "--lam", "0.6"], ["n", "lam", "bound_kind", "r"]),
    (["crs", "--dist", "twopoint:0.2", "--r", "1"], ["r", "k", "e_min", "stderr", "method"]),
    (["reproduce", "fig1"], ["r", "cth", "cth_over_r"]),
]


@pytest.mark.parametrize("argv, header", SCHEMA_CASES, ids=lambda c: c[0] if isinstance(c, list) else "")
def test_output_schemas(capsys, argv, header):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    got_header, rows = parse_csv(out)
    assert got_header == header
    assert rows  # at least one data row


# ---------------------------------------------------------------------------
# Value spot checks through the full pipeline
# ---------------------------------------------------------------------------


def test_pr_certainty_and_poly_domain(capsys):
    code, out, _ = run_cli(capsys, "pr", "--r", "1", "--rho", "0.2,0.25,0.5")
    assert code == 0
    _, rows = parse_csv(out)
    low = rows[0]
    assert 0.0 < float(low[3]) < 1.0
    assert float(low[4]) == pytest.approx(float(low[3]), abs=1e-12)
    for certain in rows[1:]:
        assert float(certain[3]) == 1.0
        assert certain[4] == ""  # at or above the threshold ratio: no polynomial value


@pytest.mark.parametrize("r", [1, 10, 10**3, 10**6])
def test_reported_eta_within_amplification_cap(capsys, r):
    # P / rho passes (2r+1)^2 by an ulp or two as rho -> 0; the reports clamp it
    rhos = ("1e-300", "1e-200", "1e-40")
    code, out, err = run_cli(capsys, "pr", "--r", str(r), "--rho", ",".join(rhos))
    assert code == 0, err
    header, rows = parse_csv(out)
    etas = [float(row[header.index("eta")]) for row in rows]
    for rho in rhos:
        code, out, err = run_cli(
            capsys, "threshold", "--dist", f"twopoint:{rho}", "--r", str(r), "--t", "-1"
        )
        assert code == 0, err
        _, rows = parse_csv(out)
        etas.append(float(dict(zip(REPORT_HEADER, rows[0]))["eta"]))
    assert len(etas) == 6
    assert all(eta <= (2 * r + 1) ** 2 for eta in etas), etas


def test_threshold_two_point_is_exact(capsys):
    code, out, _ = run_cli(
        capsys, "threshold", "--dist", "twopoint:0.25", "--r", "1", "--t", "-0.5"
    )
    assert code == 0
    _, rows = parse_csv(out)
    row = dict(zip(REPORT_HEADER, rows[0]))
    assert float(row["rho"]) == 0.25
    assert float(row["p"]) == 1.0
    assert float(row["e_r"]) == -1.0
    assert float(row["lam"]) == 1.0  # minimum is -1


def test_curve_uses_support_grid_for_discrete(capsys):
    code, out, _ = run_cli(capsys, "curve", "--dist", "knn:3", "--r", "1")
    assert code == 0
    _, rows = parse_csv(out)
    law = knn_spectrum(3)
    assert len(rows) == law.spectrum.values.size
    assert [float(r[1]) for r in rows] == law.spectrum.values.tolist()


def test_round_spec_forms(capsys):
    code, out, _ = run_cli(capsys, "cthr", "--r", "linspace:1,10,100")
    _, rows = parse_csv(out)
    assert [int(r[0]) for r in rows] == list(range(1, 11))  # deduplicated

    code, out, _ = run_cli(capsys, "cthr", "--r", "pow2:2,8")
    _, rows = parse_csv(out)
    assert [int(r[0]) for r in rows] == round_grid_pow2(2, 8)


def test_rho_geom_spec(capsys):
    code, out, _ = run_cli(capsys, "pr", "--r", "1", "--rho", "geom:0.001,0.1,5")
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 5
    assert float(rows[0][1]) == pytest.approx(0.001)
    assert float(rows[-1][1]) == pytest.approx(0.1)


def test_empirical_spec_roundtrip(capsys, tmp_path):
    path = tmp_path / "law.csv"
    path.write_text("-3.0,1\n-1.0,1\n0.0,2\n")
    code, out, _ = run_cli(
        capsys, "threshold", "--dist", f"empirical:{path}", "--r", "1", "--t", "-1.0"
    )
    assert code == 0
    _, rows = parse_csv(out)
    row = dict(zip(REPORT_HEADER, rows[0]))
    assert float(row["rho"]) == 0.5
    assert float(row["e_r"]) == -2.0  # boosted branch: conditional mean


def test_maxcut_graph_file(capsys, tmp_path):
    path = tmp_path / "triangle.txt"
    path.write_text("0 1\n1 2\n0 2\n")
    code, out, _ = run_cli(capsys, "maxcut", "--graph", str(path), "--frame", "x")
    assert code == 0
    _, rows = parse_csv(out)
    # triangle: 2 uncut assignments of cut 0, 6 of cut 2
    assert [(float(r[0]), int(r[1])) for r in rows] == [(-2.0, 6), (0.0, 2)]


# ---------------------------------------------------------------------------
# Determinism and file output
# ---------------------------------------------------------------------------


def test_byte_identical_reruns(capsys):
    argv = ["sweep", "--dist", "normal:0,1", "--r", "1,4,16"]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2

    argv = [
        "crs", "--dist", "normal:0,1", "--r", "2", "--method", "monte_carlo",
        "--trials", "2000", "--seed", "9",
    ]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


def test_out_flag_writes_identical_file(capsys, tmp_path):
    argv = ["cthr", "--r", "1,2,3"]
    _, stdout_text, _ = run_cli(capsys, *argv)
    path = tmp_path / "table.csv"
    code, out, _ = run_cli(capsys, *argv, "--out", str(path))
    assert code == 0
    assert out == ""
    assert path.read_text() == stdout_text


def _written(tmp_path, write, header, rows):
    """The bytes a CSV writer leaves in a fresh file, or the type of the
    exception it raised."""
    path = tmp_path / f"out{len(list(tmp_path.iterdir()))}.csv"
    try:
        write(str(path), header, rows)
    except Exception as exc:  # both writers must fail alike
        return type(exc)
    return path.read_bytes()


def _reference_write(path, header, rows):
    with open(path, "w", newline="") as handle:
        oracles.csv_writer_reference(handle, header, rows)


def test_csv_writer_matches_stdlib_writer_on_every_cell_type(tmp_path):
    header = ("panel", "lam", "n", "r", "count", "mass", "flag", "label")
    rows = [
        ("b", 16.0 / 17.0, 4, None, 4**300 - 1, 1.5777218104420236e-30, True, "max_amplification"),
        ("c", np.float64(0.52), np.int64(-7), 2**63, 10**180, np.float64(-0.0), False, "gmth"),
        (None, math.inf, -math.inf, math.nan, np.float32(0.1), 5e-324, np.bool_(True), np.int32(3)),
        (1e16, 1e-5, 123456789.0, -0.0, 0, -1, "", "fig9"),
        (None,),
        ("",),
        (),
        ("a,b", 'say "hi"', "two\nlines", "cr\rin", " padded ", "\x00", "é", "x"),
    ]
    got = _written(tmp_path, cli._write_csv, header, rows)
    assert isinstance(got, bytes)
    assert got == _written(tmp_path, _reference_write, header, rows)


_CELLS = st.one_of(
    st.none(),
    st.floats(),
    st.floats().map(np.float64),
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans(),
    st.text(),
    st.sampled_from(["", ",", '"', "\n", "\r", "\r\n", " "]),
)


@given(
    header=st.lists(st.text(), max_size=4),
    rows=st.lists(st.lists(_CELLS, max_size=4), max_size=5),
)
@settings(max_examples=300, deadline=None)
def test_csv_writer_matches_stdlib_writer_on_any_row(tmp_path_factory, header, rows):
    tmp_path = tmp_path_factory.mktemp("csv")
    got = _written(tmp_path, cli._write_csv, header, rows)
    assert got == _written(tmp_path, _reference_write, header, rows)


def test_unwritable_out_path_is_io_error(capsys):
    code, out, err = run_cli(
        capsys, "kappa", "--out", "/nonexistent-dir/deep/table.csv"
    )
    assert code == 2
    assert err.startswith("error: io:")


# ---------------------------------------------------------------------------
# Config files and precedence
# ---------------------------------------------------------------------------


def test_config_file_supplies_options(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# threshold analysis\ndist = twopoint:0.25\nr = 1\nt = -0.5\n")
    code, out, _ = run_cli(capsys, "threshold", "--config", str(cfg))
    assert code == 0
    _, rows = parse_csv(out)
    assert float(rows[0][3]) == 0.25


def test_flags_override_config(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("r = 1\nrho = 0.5\n")
    code, out, _ = run_cli(capsys, "pr", "--config", str(cfg), "--rho", "0.25")
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 1
    assert float(rows[0][1]) == 0.25


def test_unknown_config_key_rejected(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("r = 1\nrho = 0.25\nfrobnicate = 7\n")
    code, _, err = run_cli(capsys, "pr", "--config", str(cfg))
    assert code == 2
    assert "frobnicate" in err


def test_config_coercion_failure(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dist = twopoint:0.2\nr = 1\nrestarts = soon\n")
    code, _, err = run_cli(capsys, "gmqaoa", "--config", str(cfg))
    assert code == 2
    assert "restarts" in err


@pytest.mark.parametrize(
    "key, subcommand, text",
    [
        ("frame", "maxcut", "n = 3\nframe = z\n"),
        ("bound_kind", "maxcut", "n = 4\nlam = 0.9\nbound_kind = bogus\n"),
        ("method", "crs", "dist = twopoint:0.2\nr = 1\nmethod = bogus\n"),
        ("seed", "gmqaoa", "dist = binomial:10,0.5\nr = 1\nrestarts = 2\nseed = -1\n"),
        ("bins", "gmqaoa", "dist = normal:0,1\nr = 1\nbins = 1000000000000000000\n"),
        ("effort_factor", "crs", "dist = twopoint:0.2\nr = 1\neffort_factor = 0\n"),
        ("t", "threshold", "dist = normal:0,1\nr = 1\nt = nan\n"),
    ],
    ids=lambda v: "" if "=" in v else v,
)
def test_invalid_config_values_fail_like_flags(capsys, tmp_path, key, subcommand, text):
    # config values pass the option's own type and choices before any work starts
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    code, out, err = run_cli(capsys, subcommand, "--config", str(cfg))
    assert code == 2
    assert err.startswith(f"error: config: config key {key!r}")
    assert out == ""


# One invocation per subcommand (three for maxcut's exclusive modes); together
# they set every option of the option table.
ROUNDTRIP_CASES = [
    ("pr", {"r": "1,3", "rho": "geom:0.001,0.2,4"}),
    ("threshold", {"dist": "normal:0,1", "r": "2", "t": "-0.5"}),
    ("curve", {"dist": "gamma:2,1", "r": "2", "grid": "30"}),
    ("sweep", {"dist": "pareto:3,1", "r": "1,4"}),
    ("cthr", {"r": "1,2,7"}),
    ("gmqaoa", {"dist": "normal:0,1", "r": "1,2", "bins": "40", "restarts": "2", "seed": "3"}),
    ("bound", {"dist": "normal:0,1", "r": "1,10", "tail_l": "0.5"}),
    ("maxcut", {"graph": "GRAPH", "frame": "x"}),
    ("maxcut", {"n_range": "3,5", "lam": "0.8", "bound_kind": "gmth"}),
    ("maxcut", {"n": "4", "lam": "0.8"}),
    (
        "crs",
        {"dist": "binomial:10,0.5", "r": "2", "method": "monte_carlo", "trials": "3000",
         "seed": "4", "effort_factor": "3"},
    ),
]


def test_roundtrip_cases_cover_every_option():
    covered = {(sub, key) for sub, options in ROUNDTRIP_CASES for key in options}
    table = {(sub, opt.name) for sub, (_, opts) in cli._COMMANDS.items() for opt in opts}
    assert covered == table


@pytest.mark.parametrize("subcommand, options", ROUNDTRIP_CASES, ids=lambda c: c if isinstance(c, str) else "")
def test_config_file_matches_flags(capsys, tmp_path, subcommand, options):
    graph = tmp_path / "tri.txt"
    graph.write_text("0 1\n1 2\n0 2\n")
    options = {k: str(graph) if v == "GRAPH" else v for k, v in options.items()}
    flags = [f"--{key.replace('_', '-')}={value}" for key, value in options.items()]
    code, from_flags, err = run_cli(capsys, subcommand, *flags)
    assert code == 0, err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in options.items()))
    code, from_config, err = run_cli(capsys, subcommand, "--config", str(cfg))
    assert code == 0, err
    assert from_config == from_flags


def test_missing_config_file(capsys):
    code, _, err = run_cli(capsys, "pr", "--config", "/does/not/exist.cfg")
    assert code == 2
    assert err.startswith("error: config:")


# ---------------------------------------------------------------------------
# Exit codes and error mapping
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["threshold", "--r", "1"],  # missing required --dist
        ["threshold", "--dist", "twopoint:0.2"],  # missing required --r
        ["pr", "--r", "0", "--rho", "0.1"],  # invalid round count
        ["pr", "--r", "1", "--rho", "1.5"],  # invalid marked fraction
        ["sweep", "--dist", "cauchy:0,1", "--r", "1"],  # unknown law
        ["maxcut", "--n", "3", "--frame", "z"],  # invalid choice
        ["maxcut", "--lam", "0.6"],  # round search without size
        ["reproduce", "fig10"],  # unknown target
        ["curve", "--dist", "normal:0,1", "--r", "1", "--grid", "support"],
        ["crs", "--dist", "twopoint:0.2", "--r", "1", "--method", "blom"],
        ["frobnicate"],  # unknown subcommand
        ["threshold", "--dist", "knn:4", "--r", "1", "--t", "nan"],  # NaN threshold
        ["threshold", "--dist", "normal:0,1", "--r", "1", "--t", "nan"],
        ["curve", "--dist", "normal:0,1", "--r", "1", "--grid", "list:nan,1"],
        ["crs", "--dist", "binomial:nan,0.5", "--r", "1"],  # NaN law parameter
        ["pr", "--r", "linspace:1,2,nan", "--rho", "0.1"],  # NaN round spec
        ["gmqaoa", "--dist", "binomial:10,0.5", "--r", "1", "--restarts", "2", "--seed", "-1"],
        ["crs", "--dist", "twopoint:0.2", "--r", "1", "--seed", "-1"],  # negative seed
        ["crs", "--dist", "twopoint:0.2", "--r", "1", "--effort-factor", "0"],
        ["maxcut", "--n", "4", "--n-range", "3,5", "--lam", "0.8"],  # one size and a sweep
        ["maxcut", "--graph", "TRIANGLE", "--n", "4"],  # a graph's spectrum and K_{n,n}'s
        ["maxcut", "--n", "2", "--n-range", "3,5"],  # a sweep without the round search
        ["sweep", "--dist", "binomial:1e400,0.5", "--r", "1"],  # overflows to inf
        ["sweep", "--dist", "normal:0,1", "--r", "pow2:1e400,5"],
        ["sweep", "--dist", "normal:0,1", "--r", "pow2:1,1024"],  # 2^1024 overflows
        ["pr", "--rho", "geom:0,1,3", "--r", "1"],  # geom bounds outside (0, 1]
        ["pr", "--rho", "geom:-1,1,3", "--r", "1"],
        ["pr", "--rho", "0.5", "--r", "linspace:1,inf,3"],  # infinite round bound
        ["cthr", "--r", "linspace:-1e308,1e308,3"],  # span overflows
        # grids past MAX_GRID_POINTS, rejected before anything is built
        ["cthr", "--r", "pow2:10000000,10000000000"],  # 10^10 loop steps
        ["cthr", "--r", "pow2:10000,1000000"],  # one point past the limit
        ["cthr", "--r", "linspace:1,10,1e12"],  # 8 TB of doubles
        ["cthr", "--r", "linspace:1,10,1000001"],
        ["pr", "--rho", "geom:1e-9,0.5,1e12", "--r", "1"],
        ["pr", "--rho", "geom:1e-9,0.5,1000001", "--r", "1"],
        ["curve", "--dist", "normal:0,1", "--r", "1", "--grid", "1000000000000"],
        ["curve", "--dist", "normal:0,1", "--r", "1", "--grid", "1000001"],
        # --bins is a grid of bins - 1 quantile points, checked before discretizing
        ["gmqaoa", "--dist", "normal:0,1", "--bins", "1000000000000000000", "--r", "1"],
        ["gmqaoa", "--dist", "normal:0,1", "--bins", "1000001", "--r", "1"],
        ["gmqaoa", "--dist", "normal:0,1", "--bins", "1", "--r", "1"],
    ],
)
def test_config_errors_exit_two(capsys, tmp_path, argv):
    triangle = tmp_path / "tri.txt"
    triangle.write_text("0 1\n1 2\n0 2\n")
    argv = [str(triangle) if arg == "TRIANGLE" else arg for arg in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ")
    assert out == ""


@pytest.mark.parametrize("magnitude", ["1e200", "1e308"])
def test_empirical_law_whose_variance_overflows_runs(capsys, tmp_path, magnitude):
    # the variance passes the largest double, the standard deviation does not
    wide = tmp_path / "wide.csv"
    wide.write_text(f"-{magnitude},1\n{magnitude},1\n")
    code, out, err = run_cli(capsys, "threshold", "--dist", f"empirical:{wide}", "--r", "1")
    assert (code, err) == (0, "")
    header, rows = parse_csv(out)
    report = dict(zip(header, rows[0]))
    assert float(report["t_opt"]) == -float(magnitude)
    assert float(report["c_r"]) == 1.0  # one round marks the lower atom with certainty


def test_empirical_law_with_an_underflowing_mass_exits_two(capsys, tmp_path):
    # the mass at 0.0 is 1 / (1 + 2**1101), below the smallest subnormal:
    # kept, it would read as an optimum of mass 0
    path = tmp_path / "underflow.csv"
    path.write_text(f"0.0,1\n1.0,{2**1100}\n2.0,{2**1100}\n")
    code, out, err = run_cli(capsys, "bound", "--dist", f"empirical:{path}", "--r", "3")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "the mass at k=0 underflows to 0" in err


@pytest.mark.parametrize("n", [755, 898, 904, 1043])
def test_binomial_laws_at_one_half_build_up_to_the_trial_cap(capsys, n):
    # every mass C(n, k) / 2**n is at least 2**-1074: none underflows
    code, out, err = run_cli(capsys, "sweep", "--dist", f"binomial:{n},0.5", "--r", "1,10,100")
    assert (code, err) == (0, "")
    assert len(parse_csv(out)[1]) == 3


# At r = 10^200 the amplification cap (2r+1)^2 passes the double range and
# threshold_ratio(r) underflows to 0.  Each command prints its rows, or one
# error line where a continuous law's quantile would be taken at mass 0.
@pytest.mark.parametrize(
    "argv, code",
    [
        (["pr", "--rho", "0.01,1e-300"], 0),
        (["bound", "--dist", "knn:4"], 0),
        (["bound", "--dist", "binomial:20,0.5"], 0),
        (["bound", "--dist", "normal:0,1"], 2),
        (["threshold", "--dist", "binomial:20,0.5"], 0),
        (["threshold", "--dist", "binomial:20,0.5", "--t", "-1"], 0),
        (["threshold", "--dist", "normal:0,1", "--t", "-1"], 0),
        (["threshold", "--dist", "normal:0,1"], 2),
        (["sweep", "--dist", "binomial:20,0.5"], 0),
        (["sweep", "--dist", "normal:0,1"], 2),
        (["sweep", "--dist", "gamma:1,1"], 2),
        (["bound", "--dist", "pareto:1,1"], 2),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else str(v),
)
def test_round_counts_past_the_double_range(capsys, argv, code):
    got, out, err = run_cli(capsys, *argv, "--r", str(10**200))
    assert got == code, err
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"r = {10**200}" in err  # the message names the round count
        assert out == ""
    else:
        assert err == ""
        header, rows = parse_csv(out)
        assert rows and not any("nan" in row for row in rows)


@pytest.mark.parametrize(
    "argv",
    [
        ["pr", "--rho", "0.5"],
        ["bound", "--dist", "knn:4"],
        ["threshold", "--dist", "binomial:20,0.5", "--t", "3"],
        ["curve", "--dist", "normal:0,1", "--grid", "5"],
    ],
    ids=lambda v: v[0],
)
def test_round_count_limit(capsys, argv):
    # 4r + 2 is taken in doubles: it stays finite up to r = 2**1020
    code, out, err = run_cli(capsys, *argv, "--r", str(2**1020))
    assert (code, err) == (0, "") and "nan" not in out
    code, out, err = run_cli(capsys, *argv, "--r", str(2**1020 + 1))
    assert code == 2 and err.startswith("error: config: round count must be at most 2**1020")


def test_floor_and_report_past_the_double_range(capsys):
    # No class fits the budget 1/(2r+1)^2 = 0: the floor is the support
    # minimum.  A threshold below the support marks nothing: P = 0, E = mu.
    r = str(10**200)
    _, out, _ = run_cli(capsys, "bound", "--dist", "knn:4", "--r", r)
    header, rows = parse_csv(out)
    bound = dict(zip(header, rows[0]))
    assert (bound["tau1"], bound["tau2"], bound["e_floor"]) == ("-inf", "-8.0", "-8.0")
    _, out, _ = run_cli(capsys, "threshold", "--dist", "binomial:20,0.5", "--t", "-1", "--r", r)
    header, rows = parse_csv(out)
    report = dict(zip(header, rows[0]))
    assert (report["rho"], report["p"], report["e_r"], report["eta"]) == ("0.0", "0.0", "10.0", "inf")


@pytest.mark.parametrize("kind", ["max_amplification", "gmth"])
def test_maxcut_unattainable_ratio_is_an_empty_cell(capsys, kind):
    code, out, err = run_cli(
        capsys, "maxcut", "--n", "100", "--lam", "0.9411764705882353", "--bound-kind", kind
    )
    assert code == 0, err
    assert parse_csv(out)[1] == [["100", "0.9411764705882353", kind, ""]]


def test_maxcut_graph_with_lam_rejected(capsys, tmp_path):
    # the round search covers K_{n,n} only; a graph must not be ignored
    graph = tmp_path / "tri.txt"
    graph.write_text("0 1\n1 2\n0 2\n")
    code, out, err = run_cli(
        capsys, "maxcut", "--graph", str(graph), "--lam", "0.9", "--n", "4"
    )
    assert code == 2
    assert err.startswith("error: ")
    assert "--graph" in err and "--lam" in err
    assert out == ""


def test_maxcut_n_with_n_range_rejected(capsys):
    # the sweep would silently drop the single part size
    code, out, err = run_cli(capsys, "maxcut", "--n", "4", "--n-range", "3,5", "--lam", "0.8")
    assert code == 2
    assert "--n " in err and "--n-range" in err
    assert out == ""


def test_maxcut_n_range_checked_before_any_law(capsys, monkeypatch):
    # a range past the largest part size fails at once, not after
    # searching the valid part of it
    from thqaoa import maxcut

    def no_build(*args, **kwargs):
        raise AssertionError("a law was built before the range was checked")

    monkeypatch.setattr(maxcut, "knn_spectrum", no_build)
    for n_range in ("4,1000", "0,5"):
        code, out, err = run_cli(capsys, "maxcut", "--n-range", n_range, "--lam", "0.52")
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "--n-range" in lines[0] and "1,300" in lines[0]


def test_minus_infinity_threshold_with_equals_form(capsys):
    # argparse reads a separate "-inf" as an option, so the help names --t=-inf
    code, out, _ = run_cli(capsys, "threshold", "--dist", "normal:0,1", "--r", "1", "--t=-inf")
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0][REPORT_HEADER.index("t_opt")] == "-inf"
    _, out, _ = run_cli(capsys, "threshold", "--help")
    assert "--t=-inf" in out


_REPORT_LINE = ",".join(REPORT_HEADER) + "\n"


# Thresholds at the double range, where the laws' F and G overflow their
# intermediates (the normal's z*z, the gamma's b*|t|) to inf silently, as
# Python floats do; the bytes are those of the scalar queries.
@pytest.mark.parametrize(
    "argv, expected",
    [
        (["threshold", "--dist", "normal:0,1", "--r", "1", "--t", "1e308"],
         _REPORT_LINE + "1,1e+308,1e+308,1.0,1.0,0.0,0.0,0.5,1.0,\n"),
        (["threshold", "--dist", "normal:0,1", "--r", "1", "--t=-1e308"],
         _REPORT_LINE + "1,-1e+308,-1e+308,0.0,0.0,0.0,0.0,0.5,9.0,\n"),
        (["threshold", "--dist", "gamma:0.5,2", "--r", "1", "--t", "1e308"],
         _REPORT_LINE + "1,1e+308,1e+308,1.0,1.0,-0.25,0.0,0.31731050786291115,1.0,\n"),
        (["threshold", "--dist", "gamma:0.5,2", "--r", "1", "--t=-1e308"],
         _REPORT_LINE + "1,-1e+308,-1e+308,0.0,0.0,-0.25,0.0,0.31731050786291115,9.0,\n"),
        (["curve", "--dist", "gamma:0.5,2", "--r", "1", "--grid", "list:-1e308,-1"],
         "r,t,f_t,e_r,c_r\n1,-1e+308,0.0,-0.25,0.0\n"
         "1,-1.0,0.04550026389635857,-0.6426220805155929,1.1105029423045853\n"),
    ],
    ids=["normal-top", "normal-bottom", "gamma-top", "gamma-bottom", "gamma-curve"],
)
def test_thresholds_at_the_double_range_run_silently(capsys, argv, expected):
    assert run_cli(capsys, *argv) == (0, expected, "")


@pytest.mark.parametrize(
    "argv",
    [
        # reflected Pareto scales whose G leaves the double range
        ["threshold", "--dist", "pareto:18,1e-20", "--r", "1"],
        ["threshold", "--dist", "pareto:18,1e200", "--r", "1"],
        ["threshold", "--dist", "pareto:0.5,1e-150", "--r", "1"],
        ["threshold", "--dist", "pareto:18,1e-16", "--r", "1"],
        ["threshold", "--dist", "pareto:0.05,2e150", "--r", "1"],
        # angle searches whose states (32 bytes times r times the cost classes) pass 2 GiB
        ["gmqaoa", "--dist", "normal:0,1", "--bins", "10", "--r", "1" + "0" * 30, "--restarts", "1"],
        ["gmqaoa", "--dist", "normal:0,1", "--bins", "10", "--r", "100000000000", "--restarts", "1"],
        ["gmqaoa", "--dist", "normal:0,1", "--bins", "16", "--r", f"1,{2**22 + 1}", "--restarts", "1"],
    ],
)
def test_out_of_range_inputs_are_one_config_error_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: config: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "bins, r, code",
    [("16", 2**22, 0), ("16", 2**22 + 1, 2), ("10000", 101, 0), ("1000000", 67, 0), ("1000000", 68, 2)],
)
def test_gmqaoa_state_limit_is_two_gib(capsys, monkeypatch, bins, r, code):
    # 32 bytes an amplitude, r amplitudes per cost class: 2**26 amplitudes in all
    def search(dist, r, **kwargs):
        assert dist.spectrum.values.size == int(bins)
        return SimpleNamespace(r=r), dist.mean

    monkeypatch.setattr(cli.gmqaoa, "optimize_angles", search)
    got, _, err = run_cli(capsys, "gmqaoa", "--dist", "normal:0,1", "--bins", bins, "--r", str(r))
    assert got == code, err


def test_numerical_error_exits_three(capsys, monkeypatch):
    def explode(cfg):
        raise NumericalError("synthetic instability")

    monkeypatch.setitem(cli._HANDLERS, "kappa", explode)
    code, _, err = run_cli(capsys, "kappa")
    assert code == 3
    assert err == "error: numerical: synthetic instability\n"


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "subcommand" in out
    # the module docstring keeps its line breaks: headings stay on their own lines
    assert "\nSubcommands\n-----------\n" in out
    code, out, _ = run_cli(capsys, "threshold", "--help")
    assert code == 0
    assert "--dist" in out


def _parse_outcome(capsys, parser, argv):
    """The namespace, help text or error message a parser makes of argv."""
    try:
        outcome = ("parsed", vars(parser.parse_args(argv)))
    except ConfigError as exc:
        outcome = ("error", str(exc))
    except SystemExit as exc:
        outcome = ("exit", exc.code)
    return outcome, capsys.readouterr()


@pytest.mark.parametrize("subcommand", list(cli._COMMANDS))
def test_one_subcommand_parser_matches_full_parser(capsys, subcommand):
    # run() builds only the named subcommand's parser; whatever follows the
    # name must parse, print and fail exactly as with every subcommand built.
    options = [opt.name.replace("_", "-") for opt in cli._COMMANDS[subcommand][1]]
    argvs = [[], ["--help"], ["--bogus", "1"], ["fig1"], ["fig1", "extra"], ["--out"]]
    argvs += [[f"--{name}"] for name in options] + [[f"--{name}=x!"] for name in options]
    argvs += [[f"--{name}=-1" for name in options]]
    full = cli._build_parser()
    one = cli._build_parser(subcommand)
    other = next(name for name in cli._COMMANDS if name != subcommand)
    with pytest.raises(ConfigError, match="invalid choice"):
        one.parse_args([other])
    for argv in argvs:
        argv = [subcommand] + argv
        assert _parse_outcome(capsys, one, argv) == _parse_outcome(capsys, full, argv), argv


def test_unknown_subcommand_falls_back_to_full_parser(capsys):
    code, _, err = run_cli(capsys, "nosuch", "--r", "1")
    assert code == 2
    assert all(name in err for name in cli._COMMANDS), err
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert all(name in out for name in cli._COMMANDS)


# ---------------------------------------------------------------------------
# Spec parsers: any text is a valid value or a clean rejection
# ---------------------------------------------------------------------------

# Counts feed linspace/geomspace/pow2 sizes.  Accepted ones stay at or below
# 10^4 to keep examples fast; the huge ones lie past cli.MAX_GRID_POINTS and
# must be rejected before anything is allocated.
_COUNT = st.one_of(
    st.integers(-3, 10_000).map(str),
    st.sampled_from(["", "nan", "inf", "-inf", "1e400", "2.5", "1e4", "x", "1000001", "1e12", "1e300"]),
)
_NUMBER = st.one_of(
    st.floats().map(repr),  # nan, +-inf, subnormals and the largest doubles
    st.integers(-3, 10_000).map(str),
    st.sampled_from(["", " ", "1e400", "-1e400", "1e-400", "x", "0x10", "1_0"]),
)
# Free text carries no digits, so it cannot spell a large count.
_TEXT = st.text(st.characters(exclude_categories=("Nd", "Cs")), max_size=30)


def _numbers(max_size):
    return st.lists(_NUMBER, max_size=max_size).map(",".join)


_DIST_SPECS = st.one_of(
    st.builds("{}:{}".format, st.sampled_from(["normal", "gamma", "pareto", "twopoint", "cauchy"]),
              _numbers(3)),
    st.builds("binomial:{},{}".format, _COUNT, _NUMBER),
    st.builds("knn:{}{}".format, st.integers(-2, 16), st.sampled_from(["", ",x", ",y", ",z", ",x,y"])),
    _TEXT.filter(lambda text: not text.strip().lower().startswith("empirical")),
)
_ROUND_SPECS = st.one_of(
    st.builds("linspace:{},{},{}".format, _NUMBER, _NUMBER, _COUNT),
    st.builds("pow2:{},{}".format, _COUNT, _COUNT),
    _numbers(4),
    _TEXT,
)
_RHO_SPECS = st.one_of(
    st.builds("geom:{},{},{}".format, _NUMBER, _NUMBER, _COUNT),
    _numbers(4),
    _TEXT,
)
_GRID_SPECS = st.one_of(
    st.just("support"), st.builds("list:{}".format, _numbers(4)), _NUMBER, _TEXT
)


def _is_valid_rounds(value):
    return bool(value) and all(isinstance(r, int) and r >= 1 for r in value)


def _is_valid_rho(value):
    return bool(value) and all(0.0 < rho <= 1.0 for rho in value)


def _is_valid_grid(value):
    if isinstance(value, list):
        return len(value) >= 2 and all(math.isfinite(t) for t in value)
    return value == "support" or isinstance(value, int)


class _Drawn:
    """Stands in for ``st.data()`` in an explicit example: every draw is ``spec``."""

    def __init__(self, spec):
        self.spec = spec

    def draw(self, strategy, label=None):
        return self.spec


@pytest.mark.parametrize(
    "parse, specs, is_valid",
    [
        (cli._parse_dist, _DIST_SPECS, lambda law: isinstance(law, Distribution)),
        (cli._parse_rounds, _ROUND_SPECS, _is_valid_rounds),
        (cli._parse_rho, _RHO_SPECS, _is_valid_rho),
        (cli._parse_grid, _GRID_SPECS, _is_valid_grid),
    ],
    ids=["dist", "rounds", "rho", "grid"],
)
@given(data=st.data())
# np.linspace's last point, 672 * (span / 672), rounds past the largest double
@example(data=_Drawn("linspace:0.0,1.7976931348623157e+308,673"))
@settings(max_examples=300, deadline=None)
def test_spec_parsers_accept_or_reject_cleanly(parse, specs, is_valid, data):
    spec = data.draw(specs, label="spec")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning means an unchecked input
        try:
            value = parse(spec)
        except (ConfigError, DomainError):
            return
    assert is_valid(value), (spec, value)


_R_1020 = str(2**1020)


@pytest.mark.parametrize(
    "argv",
    [
        ["crs", "--dist", "normal:0,1", "--r", "100000000000000000000"],  # k past the integral's 2**52
        ["crs", "--dist", "gamma:0.5,0.5", "--r", str(2**51)],
        ["crs", "--dist", "knn:4", "--r", _R_1020, "--effort-factor", "16"],  # k = 2**1024
        ["crs", "--dist", "normal:0,1", "--r", _R_1020, "--effort-factor", "16", "--method", "blom"],
        ["crs", "--dist", "normal:0,1", "--r", _R_1020, "--effort-factor", "16", "--method", "monte_carlo"],
    ],
)
def test_crs_draw_counts_out_of_range_exit_two_with_one_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: config: ")


@pytest.mark.parametrize("dist", ["normal:0,1", "pareto:1,1"])
def test_crs_integral_failure_prints_one_line(capsys, dist):
    # scipy's IntegrationWarning lines once came before the error line
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "crs", "--dist", dist, "--r", "1000000000000")
    assert (code, out, caught) == (3, "", [])
    assert len(err.splitlines()) == 1 and err.startswith("error: numerical: ")


def test_crs_runs_at_the_largest_draw_counts(capsys):
    code, out, _ = run_cli(capsys, "crs", "--dist", "knn:4", "--r", _R_1020, "--effort-factor", "15")
    assert code == 0 and parse_csv(out)[1][0][1] == str(15 * 2**1020)
    # one uniform per Monte Carlo trial, whatever k
    code, out, _ = run_cli(
        capsys, "crs", "--dist", "normal:0,1", "--r", "100000000000000000000",
        "--method", "monte_carlo", "--trials", "1000",
    )
    assert code == 0 and -9.5 < float(parse_csv(out)[1][0][2]) < -9.3


# ---------------------------------------------------------------------------
# Process-level behavior
# ---------------------------------------------------------------------------


def test_closed_pipe_exits_cleanly():
    # a reader that stops early (| head) must not produce a stack trace
    script = (
        f"{sys.executable} -m thqaoa.cli pr --r 1 --rho geom:1e-9,0.2,30000"
        " | head -n 2; exit ${PIPESTATUS[0]}"
    )
    proc = subprocess.run(
        ["/bin/bash", "-c", script], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


def test_startup_leaves_scipy_submodules_unloaded():
    # A lazily bound module loads on hasattr/getattr, so only its type is
    # inspected: a plain module means it was loaded.
    script = (
        "import sys, types\n"
        "from thqaoa import cli\n"
        "for argv in (['pr', '--rho', '0.01', '--r', '3'], ['maxcut', '--n', '20']):\n"
        "    assert cli.run(argv) == 0\n"
        "names = ('scipy.special', 'scipy.integrate', 'scipy.optimize')\n"
        "loaded = [n for n in names if type(sys.modules.get(n)) is types.ModuleType]\n"
        "sys.exit('loaded: ' + ', '.join(loaded) if loaded else 0)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.skipif(
    shutil.which("thqaoa") is None, reason="the thqaoa console script is not installed"
)
def test_console_entry_point():
    proc = subprocess.run(
        ["thqaoa", "kappa"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "x1,kappa"
