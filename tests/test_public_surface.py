"""The names the package exports, and those the benchmark looks up, resolve.

``perfbench/`` reaches into the package by name: its worker reads
``thqaoa.BACKEND`` and builds laws and schedules through
``thqaoa.make_empirical`` and ``thqaoa.AngleSchedule``, and its tracer
replaces functions and methods by name.  A rename or removal in the
package would break a traced benchmark run without failing anything
else, so these lookups are checked here.
"""

import ast
import importlib
import importlib.util
import inspect
import os
import pkgutil

import thqaoa
from thqaoa import cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", os.path.join(PERFBENCH, "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _package_modules():
    return [thqaoa] + [
        importlib.import_module(f"thqaoa.{info.name}") for info in pkgutil.iter_modules(thqaoa.__path__)
    ]


def _snapshot():
    """Every module attribute, dict entry and class attribute of the package."""
    held = {}
    for module in _package_modules():
        for attr, value in vars(module).items():
            if attr.startswith("__"):
                continue
            held[(module.__name__, attr)] = value
            if isinstance(value, dict):
                for key, item in value.items():
                    held[(module.__name__, attr, key)] = item
            if inspect.isclass(value) and value.__module__ == module.__name__:
                for name, item in vars(value).items():
                    held[(module.__name__, attr, "." + name)] = item
    return held


def test_exported_names_resolve():
    for module in _package_modules():
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name!r}"
    assert thqaoa.BACKEND == "python"
    law = thqaoa.make_empirical([(-1.0, 1), (0.0, 3)])
    schedule = thqaoa.AngleSchedule((1.0,), (0.5,))
    assert thqaoa.gmqaoa.simulate(law, thqaoa.gmqaoa.identity_phase, schedule).norm_squared() > 0.0


def test_benchmark_tracer_installs_counts_and_restores(tmp_path):
    before = _snapshot()
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        assert tracer._restore, "the tracer replaced nothing"
        out = tmp_path / "rounds.csv"
        assert cli.run(["maxcut", "--n", "6", "--lam", "0.9", "--out", str(out)]) == 0
        assert tracer.counts["maxcut.search_calls"] == 1
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    moved = [key for key in before if after[key] is not before[key]]
    assert not moved, f"not restored: {moved}"


def test_package_exports_are_their_modules_exports():
    # Each name the package exports is imported from one module; that
    # module's own __all__ must list it, so the two surfaces agree.
    source = inspect.getsource(thqaoa)
    home = {
        alias.asname or alias.name: node.module
        for node in ast.parse(source).body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    for name in thqaoa.__all__:
        if name == "__version__":
            continue
        assert name in home, f"thqaoa.__all__ lists {name!r}, which no module import provides"
        module = importlib.import_module(f"thqaoa.{home[name]}")
        assert name in module.__all__, f"{name!r} is exported by thqaoa but not by {module.__name__}"
