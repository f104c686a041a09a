"""Evolution-kernel backends: compiled and pure-python must be twins.

The tests that need the compiled extension skip when ``thqaoa._evolve``
cannot be imported, as in a plain source-tree run.  To run them, either
install the package (``pip install .`` builds the extension when Cython
is available), or compile the shipped C source in place::

    gcc -O2 -shared -fPIC $(python3-config --includes) \
        -I$(python -c "import numpy; print(numpy.get_include())") \
        src/thqaoa/_evolve.c \
        -o src/thqaoa/_evolve$(python3-config --extension-suffix)
"""

import importlib.util
import os
import subprocess
import sys

import numpy as np
import pytest

from thqaoa import _evolve_py
from thqaoa._backend import BACKEND


def _random_inputs(rng, n, r):
    masses = rng.dirichlet(np.ones(n))
    w = np.sqrt(masses)
    q = rng.normal(0.0, 3.0, n)
    betas = rng.uniform(0.0, 2.0 * np.pi, r)
    gammas = rng.uniform(-3.0, 3.0, r)
    return w, q, betas, gammas


def test_compiled_backend_is_active():
    # whenever the extension is importable, the default import chain
    # must have picked it
    pytest.importorskip("thqaoa._evolve")
    assert BACKEND == "compiled"


def test_backends_agree_on_random_inputs():
    compiled = pytest.importorskip("thqaoa._evolve")
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(1, 60))
        r = int(rng.integers(1, 15))
        w, q, betas, gammas = _random_inputs(rng, n, r)
        v_c = w.astype(np.complex128)
        v_p = w.astype(np.complex128)
        compiled.evolve(w, q, betas, gammas, v_c)
        _evolve_py.evolve(w, q, betas, gammas, v_p)
        assert np.allclose(v_c, v_p, atol=1e-13, rtol=0.0)
        assert abs(np.sum(np.abs(v_c) ** 2) - 1.0) < 1e-10


def test_python_backend_env_override():
    code = (
        "import thqaoa; import sys; "
        "sys.exit(0 if thqaoa.BACKEND == 'python' else 1)"
    )
    env = dict(os.environ, THQAOA_BACKEND="python")
    proc = subprocess.run([sys.executable, "-c", code], env=env)
    assert proc.returncode == 0


def test_unknown_backend_env_rejected():
    code = "import thqaoa"
    # each backend has one spelling: "c" is not an alias of "compiled"
    for name in ("fortran", "c"):
        env = dict(os.environ, THQAOA_BACKEND=name)
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert proc.returncode != 0
        assert f"THQAOA_BACKEND={name!r} not recognized" in proc.stderr


@pytest.mark.skipif(
    importlib.util.find_spec("thqaoa._evolve") is not None,
    reason="the compiled extension is built",
)
def test_compiled_backend_env_without_extension_rejected():
    code = "import thqaoa"
    env = dict(os.environ, THQAOA_BACKEND="compiled")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode != 0
    assert (
        "THQAOA_BACKEND='compiled' requires the compiled extension thqaoa._evolve"
        in proc.stderr
    )


_SIMULATE_SNIPPET = """
import thqaoa
from thqaoa.dist_models import make_binomial
from thqaoa.gmqaoa import AngleSchedule, expectation_from_state, simulate, threshold_phase

assert thqaoa.BACKEND == {backend!r}
law = make_binomial(30, 0.4)
state = simulate(
    law,
    threshold_phase(10.0),
    AngleSchedule(betas=[0.7, 2.1, 0.3], gammas=[1.1, 0.5, 2.9]),
)
print(repr(expectation_from_state(state)))
for a in state.amplitudes:
    print(repr(complex(a)))
"""


def _simulate_under(backend: str) -> list[complex]:
    env = dict(os.environ, THQAOA_BACKEND=backend)
    proc = subprocess.run(
        [sys.executable, "-c", _SIMULATE_SNIPPET.format(backend=backend)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return [complex(line) for line in proc.stdout.splitlines()]


def test_python_backend_simulation_matches_compiled():
    # the same public simulate() call must give the same numbers under
    # either backend (up to summation-order rounding)
    pytest.importorskip("thqaoa._evolve")
    compiled = _simulate_under("compiled")
    fallback = _simulate_under("python")
    assert len(compiled) == len(fallback) == 32  # expectation + 31 amplitudes
    for a, b in zip(compiled, fallback):
        assert a == pytest.approx(b, abs=1e-12)


def test_python_backend_cli_optimum_matches():
    # a seeded single-layer optimization lands on the same optimum under
    # both backends (deeper schedules may hop basins on last-ulp noise,
    # so cross-backend equality is only promised where the landscape is
    # simple; per-backend byte determinism is covered in the CLI tests)
    pytest.importorskip("thqaoa._evolve")
    args = [
        sys.executable, "-m", "thqaoa.cli",
        "gmqaoa", "--dist", "binomial:40,0.5", "--r", "1",
        "--restarts", "3", "--seed", "0",
    ]
    results = []
    for backend in ("compiled", "python"):
        env = dict(os.environ, THQAOA_BACKEND=backend)
        proc = subprocess.run(args, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        header, row = proc.stdout.splitlines()
        assert header == "r,e_opt,c,quantile"
        results.append([float(v) for v in row.split(",")])
    assert results[0] == pytest.approx(results[1], rel=1e-9)
