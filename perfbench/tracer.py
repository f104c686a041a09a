"""Per-layer tracing of thqaoa, from outside the package.

:meth:`Tracer.install` replaces public functions and methods of each
module with timing wrappers.  A function that another module imported
with ``from . import`` is replaced wherever the package holds it: in
every ``thqaoa`` module namespace and in module-level dicts such as
``figures.FIGURE_GENERATORS``.  Scipy's ``minimize`` is wrapped only as
``gmqaoa`` sees it, through a proxy for its ``_sciopt`` module.

Times are self times: a call's duration minus the time of wrapped calls
beneath it.  :meth:`Tracer.uninstall` puts every original back.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

#: Bytes each atom-layer of the evolution kernel must touch at least once:
#: weight and phase value read (8 B each), amplitude read and written
#: (16 B each).  ``kernel.bytes_computed`` is this times the atom-layers,
#: computed from the array sizes, not measured.
KERNEL_BYTES_PER_ATOM_LAYER = 48

DIST_QUERIES = ("cdf", "partial_expectation", "quantile")
DIST_VECTORIZED = ("cdf_vec", "partial_expectation_vec", "quantile_vec")
FIGURES = tuple(f"fig{i}_rows" for i in range(1, 10))
GROVER = ("grover_probability", "grover_probability_vec", "amplification_ratio", "threshold_ratio")
CRS = ("crs_expected_min", "crs_blom", "crs_monte_carlo")


class _OptimizeProxy:
    """scipy.optimize as gmqaoa sees it, with ``minimize`` replaced."""

    def __init__(self, module, minimize):
        self._module = module
        self.minimize = minimize

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.inclusive_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._stack = []
        self._scopes = defaultdict(int)
        self._built = set()
        self._restore = []

    # -- wrapping -----------------------------------------------------

    def _wrap(self, fn, layer, count=None, inclusive=None, scope=None, after=None):
        stack, self_s, counts, scopes = self._stack, self.self_s, self.counts, self._scopes
        inclusive_s = self.inclusive_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if scope:
                scopes[scope] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                self_s[layer] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                if count:
                    counts[count] += 1
                if inclusive:
                    inclusive_s[inclusive] += elapsed
                if scope:
                    scopes[scope] -= 1
            if after:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _replace(self, owner, name, value):
        if isinstance(owner, dict):
            self._restore.append((owner, name, owner[name]))
            owner[name] = value
        else:
            self._restore.append((owner, name, owner.__dict__[name]))
            setattr(owner, name, value)

    def function(self, module, name, layer, **kw):
        """Wrap ``module.name`` wherever the package holds that object."""
        original = getattr(module, name)
        wrapper = self._wrap(original, layer, **kw)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "thqaoa" and not mod_name.startswith("thqaoa."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, attr, wrapper)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            self._replace(value, key, wrapper)

    def method(self, cls, name, layer, **kw):
        fn = cls.__dict__.get(name)
        if fn is None or getattr(fn, "__isabstractmethod__", False):
            return
        self._replace(cls, name, self._wrap(fn, layer, **kw))

    # -- hooks --------------------------------------------------------

    def _count_ratio_eval(self, args, result):
        if self._scopes["search"]:
            self.counts["maxcut.ratio_evals"] += 1

    def _count_spectrum(self, args, result):
        n = result.n
        if n in self._built:
            self.counts["maxcut.spectrum_rebuilds"] += 1
        self._built.add(n)

    def _count_atoms(self, args, result):
        self.counts["dist.empirical_atoms"] += len(args[0].multiplicities)

    def _count_atom_layers(self, args, result):
        self.counts["kernel.atom_layers"] += args[0].size * len(args[2])

    def _count_restart(self, args, result):
        self.counts["gmqaoa.objective_evals"] += result.nfev
        if result.status in (1, 2):  # evaluation or iteration cap reached
            self.counts["gmqaoa.restarts_at_cap"] += 1
        if result.success:
            self.counts["gmqaoa.converged"] += 1

    # -- installation -------------------------------------------------

    def install(self):
        from thqaoa import (_backend, baselines, bounds, cli, dist_core, dist_models, figures,
                            gmqaoa, gmth, grover_kernel, maxcut)

        self.function(cli, "run", "cli", count="cli.calls")
        for name in FIGURES:
            self.function(figures, name, "figures")
        law_classes = [c for c in vars(dist_core).values() if isinstance(c, type)
                       and issubclass(c, dist_core.Distribution)]
        law_classes += [c for c in vars(dist_models).values() if isinstance(c, type)
                        and issubclass(c, dist_core.Distribution) and c not in law_classes]
        for cls in law_classes:
            for name in DIST_QUERIES:
                self.method(cls, name, f"dist.{name}", count=f"dist.{name}_calls")
            for name in DIST_VECTORIZED:
                self.method(cls, name, "dist.vec", count="dist.vec_calls")
        self.method(dist_models.EmpiricalLaw, "__init__", "dist.empirical",
                    count="dist.empirical_calls", after=self._count_atoms)
        self.function(dist_core, "discretize_equal_mass", "dist.discretize")
        for name in GROVER:
            self.function(grover_kernel, name, "grover_kernel", count="grover_kernel.calls")
        self.function(gmth, "optimize_threshold", "gmth.optimize", count="gmth.optimize_calls",
                      inclusive="gmth.optimize_threshold", after=self._count_ratio_eval)
        self.function(gmth, "expectation_at_threshold", "gmth.optimize", count="gmth.evals")
        self.function(gmth, "threshold_report", "gmth.optimize")
        self.function(gmth, "threshold_curve", "gmth.curve")
        self.function(gmqaoa, "optimize_angles", "gmqaoa.optimize", count="gmqaoa.optimize_calls")
        minimize = self._wrap(gmqaoa._sciopt.minimize, "gmqaoa.optimize", count="gmqaoa.restarts",
                              after=self._count_restart)
        self._replace(gmqaoa, "_sciopt", _OptimizeProxy(gmqaoa._sciopt, minimize))
        self.function(gmqaoa, "simulate", "gmqaoa.simulate", count="gmqaoa.simulate_calls")
        self.function(_backend, "evolve", "kernel", count="kernel.calls", after=self._count_atom_layers)
        self.function(maxcut, "bipartite_spectrum", "maxcut.spectrum", count="maxcut.spectrum_calls",
                      after=self._count_spectrum)
        self.function(maxcut, "knn_spectrum", "maxcut.spectrum")
        self.method(maxcut.BipartiteSpectrum, "law", "maxcut.spectrum")
        self.function(maxcut, "min_rounds_for_ratio", "maxcut.search", count="maxcut.search_calls",
                      scope="search")
        self.function(bounds, "max_amplification_floor", "bounds.floor", count="bounds.floor_calls",
                      after=self._count_ratio_eval)
        self.function(bounds, "c_th", "bounds.c_th")
        for name in CRS:
            self.function(baselines, name, "baselines.crs", count="baselines.crs_calls")

    def uninstall(self):
        while self._restore:
            owner, name, value = self._restore.pop()
            if isinstance(owner, dict):
                owner[name] = value
            else:
                setattr(owner, name, value)

    def new_round(self):
        """Spectrum rebuilds count within one round of the workload."""
        self._built.clear()

    # -- report -------------------------------------------------------

    def metrics(self, rounds, cli_rows, score_sum, overhead_s):
        """Per-layer metrics as means per traced round."""
        c, s = self.counts, self.self_s

        def per(value):
            return value / rounds

        def ratio(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        values = {
            "cli.calls": (per(c["cli.calls"]), "count"),
            "cli.rows": (per(cli_rows), "count"),
            "cli.self_s": (per(s["cli"]), "s"),
            "figures.s": (per(s["figures"]), "s"),
        }
        for name in DIST_QUERIES:
            values[f"dist.{name}_calls"] = (per(c[f"dist.{name}_calls"]), "count")
            values[f"dist.{name}_s"] = (per(s[f"dist.{name}"]), "s")
        values.update({
            "dist.vec_calls": (per(c["dist.vec_calls"]), "count"),
            "dist.vec_s": (per(s["dist.vec"]), "s"),
            "dist.empirical_calls": (per(c["dist.empirical_calls"]), "count"),
            "dist.empirical_atoms": (per(c["dist.empirical_atoms"]), "count"),
            "dist.empirical_s": (per(s["dist.empirical"]), "s"),
            "dist.discretize_s": (per(s["dist.discretize"]), "s"),
            "grover_kernel.calls": (per(c["grover_kernel.calls"]), "count"),
            "grover_kernel.s": (per(s["grover_kernel"]), "s"),
            "gmth.optimize_calls": (per(c["gmth.optimize_calls"]), "count"),
            "gmth.optimize_s": (per(s["gmth.optimize"]), "s"),
            "gmth.optimize_us_per_call": (
                ratio(self.inclusive_s["gmth.optimize_threshold"], c["gmth.optimize_calls"], 1e6), "us"),
            "gmth.evals_per_optimize": (ratio(c["gmth.evals"], c["gmth.optimize_calls"]), "count"),
            "gmth.curve_s": (per(s["gmth.curve"]), "s"),
            "gmqaoa.optimize_calls": (per(c["gmqaoa.optimize_calls"]), "count"),
            "gmqaoa.optimize_s": (per(s["gmqaoa.optimize"]), "s"),
            "gmqaoa.objective_evals": (per(c["gmqaoa.objective_evals"]), "count"),
            "gmqaoa.restarts": (per(c["gmqaoa.restarts"]), "count"),
            "gmqaoa.restarts_at_cap": (per(c["gmqaoa.restarts_at_cap"]), "count"),
            "gmqaoa.converged_share": (ratio(c["gmqaoa.converged"], c["gmqaoa.restarts"]), "ratio"),
            "gmqaoa.score_sum": (per(score_sum), "sigma"),
            "gmqaoa.simulate_calls": (per(c["gmqaoa.simulate_calls"]), "count"),
            "gmqaoa.simulate_s": (per(s["gmqaoa.simulate"]), "s"),
            "kernel.calls": (per(c["kernel.calls"]), "count"),
            "kernel.s": (per(s["kernel"]), "s"),
            "kernel.atom_layers": (per(c["kernel.atom_layers"]), "count"),
            "kernel.ns_per_atom_layer": (ratio(s["kernel"], c["kernel.atom_layers"], 1e9), "ns"),
            "kernel.bytes_computed": (per(c["kernel.atom_layers"] * KERNEL_BYTES_PER_ATOM_LAYER), "B"),
            "maxcut.spectrum_calls": (per(c["maxcut.spectrum_calls"]), "count"),
            "maxcut.spectrum_rebuilds": (per(c["maxcut.spectrum_rebuilds"]), "count"),
            "maxcut.spectrum_s": (per(s["maxcut.spectrum"]), "s"),
            "maxcut.search_calls": (per(c["maxcut.search_calls"]), "count"),
            "maxcut.search_s": (per(s["maxcut.search"]), "s"),
            "maxcut.ratio_evals": (per(c["maxcut.ratio_evals"]), "count"),
            "bounds.floor_calls": (per(c["bounds.floor_calls"]), "count"),
            "bounds.floor_s": (per(s["bounds.floor"]), "s"),
            "bounds.c_th_s": (per(s["bounds.c_th"]), "s"),
            "baselines.crs_calls": (per(c["baselines.crs_calls"]), "count"),
            "baselines.crs_s": (per(s["baselines.crs"]), "s"),
            "trace.overhead_s": (overhead_s, "s"),
        })
        return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
