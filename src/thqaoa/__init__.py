"""thqaoa: closed-form performance analysis of Grover-mixer QAOA schedules.

The package models a cost landscape as a probability distribution (the
law of the cost of a uniformly random solution) and computes, in closed
form, what a Grover-mixer schedule can achieve on it:

* :mod:`thqaoa.dist_core` / :mod:`thqaoa.dist_models` -- the
  distribution layer: cdf and partial expectation ``E[X 1{X<=x}]``
  (one array evaluator per law, which the scalar queries call),
  quantiles (scalar and array forms, equal bit for bit), equal-mass
  discretization, and the concrete families (normal, reflected gamma,
  reflected Pareto, and exact integer-count laws: empirical, binomial
  and two-point, the last two over their parameter's dyadic expansion).
  Every discrete law, equal-mass discretizations included, is built
  from exact integer counts, with masses ``c/N`` correctly rounded.
* :mod:`thqaoa.grover_kernel` -- the amplitude-amplification kernel:
  boosted probability ``P(rho, r)``, the certainty ratio
  ``threshold_ratio(r)``, fine-tuned binary schedules, amplification
  ratios.
* :mod:`thqaoa.gmth` -- threshold schedules: closed-form expectation at
  any threshold, exact optimization (``optimize_thresholds`` for many
  rounds), threshold curves, the exact-optimum round count.
* :mod:`thqaoa.gmqaoa` -- raw-cost schedules: collapsed simulator,
  O(r^2) characteristic-function expectation, angle optimization.
* :mod:`thqaoa.bounds` -- performance bounds: the per-layer score slope
  ``kappa``, the best-score curve ``c_th`` (``c_ths`` for many rounds),
  expectation floors from the amplification cap (with the score cap),
  round-count lower bounds, quantile envelopes.
* :mod:`thqaoa.maxcut` -- the complete-bipartite Max-Cut application:
  exact spectra with big-integer multiplicities and minimum round
  counts for approximation-ratio targets.
* :mod:`thqaoa.baselines` -- the classical random-sampling baseline
  (expected minimum of ``k`` draws): Blom approximation, exact
  integral/sum, Monte Carlo.
* :mod:`thqaoa.figures` -- deterministic row generators behind the
  ``thqaoa reproduce`` CLI targets.
* :mod:`thqaoa.cli` -- the ``thqaoa`` command-line interface.

The collapsed-state simulator has one kernel, a numpy layer loop
(:mod:`thqaoa._backend`); ``thqaoa.BACKEND`` names it (``"python"``).
"""

from ._backend import BACKEND
from .baselines import (
    BLOM_CONTINUITY_CONSTANT,
    DEFAULT_EFFORT_FACTOR,
    crs_blom,
    crs_expected_min,
    crs_monte_carlo,
)
from .bounds import (
    BoundReport,
    c_th,
    c_ths,
    kappa,
    max_amplification_floor,
    quantile_sandwich,
    simulated_amplification,
)
from .dist_core import (
    ContinuousLaw,
    DiscreteLaw,
    DiscreteSpectrum,
    Distribution,
    discretize_equal_mass,
)
from .dist_models import (
    EmpiricalLaw,
    NormalLaw,
    ReflectedGammaLaw,
    ReflectedParetoLaw,
    empirical_from_file,
    make_binomial,
    make_empirical,
    make_normal,
    make_reflected_gamma,
    make_reflected_pareto,
    make_two_point,
    pareto_epsilon_for_exponent,
)
from .errors import ConfigError, ConvergenceWarning, DomainError, NumericalError, ThqaoaError
from .gmqaoa import (
    CollapsedState,
    expectation_from_state,
    expectation_pair_sum,
    identity_phase,
    optimize_angles,
    simulate,
    threshold_phase,
)
from .gmth import (
    ThresholdCurve,
    ThresholdReport,
    expectation_at_threshold,
    min_rounds_exact_opt,
    optimize_threshold,
    optimize_thresholds,
    threshold_curve,
    threshold_report,
)
from .grover_kernel import (
    POLY_MAX_ROUNDS,
    AngleSchedule,
    amplification_ratio,
    grover_probability,
    grover_probability_poly,
    optimal_binary_angles,
    threshold_ratio,
)
from .maxcut import (
    BipartiteSpectrum,
    GraphInstance,
    bipartite_spectrum,
    brute_force_spectrum,
    complete_bipartite_instance,
    knn_spectrum,
    min_rounds_for_ratio,
    min_rounds_for_ratios,
    read_edge_list,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BACKEND",
    # errors
    "ThqaoaError",
    "DomainError",
    "NumericalError",
    "ConfigError",
    "ConvergenceWarning",
    # distribution layer
    "Distribution",
    "DiscreteSpectrum",
    "DiscreteLaw",
    "ContinuousLaw",
    "discretize_equal_mass",
    "NormalLaw",
    "ReflectedGammaLaw",
    "ReflectedParetoLaw",
    "EmpiricalLaw",
    "make_normal",
    "make_reflected_gamma",
    "make_binomial",
    "make_reflected_pareto",
    "make_two_point",
    "make_empirical",
    "empirical_from_file",
    "pareto_epsilon_for_exponent",
    # amplification kernel
    "AngleSchedule",
    "threshold_ratio",
    "grover_probability",
    "grover_probability_poly",
    "optimal_binary_angles",
    "amplification_ratio",
    "POLY_MAX_ROUNDS",
    # threshold schedules
    "ThresholdReport",
    "ThresholdCurve",
    "expectation_at_threshold",
    "threshold_report",
    "threshold_curve",
    "optimize_threshold",
    "optimize_thresholds",
    "min_rounds_exact_opt",
    # raw-cost schedules
    "CollapsedState",
    "identity_phase",
    "threshold_phase",
    "simulate",
    "expectation_from_state",
    "expectation_pair_sum",
    "optimize_angles",
    # bounds
    "BoundReport",
    "kappa",
    "c_th",
    "c_ths",
    "max_amplification_floor",
    "quantile_sandwich",
    "simulated_amplification",
    # Max-Cut application
    "BipartiteSpectrum",
    "GraphInstance",
    "bipartite_spectrum",
    "knn_spectrum",
    "brute_force_spectrum",
    "complete_bipartite_instance",
    "read_edge_list",
    "min_rounds_for_ratio",
    "min_rounds_for_ratios",
    # classical baseline
    "crs_blom",
    "crs_expected_min",
    "crs_monte_carlo",
    "BLOM_CONTINUITY_CONSTANT",
    "DEFAULT_EFFORT_FACTOR",
]
