"""Strong-approximation SDE integrators built around drift taming.

The package integrates Ito SDEs whose drift splits into a regular part and
a one-sided Lipschitz part, using explicit schemes that tame either the
whole drift or only the one-sided part, and provides a reproducible Monte
Carlo harness for strong-convergence and mean-square stability studies.
"""

from .model import (
    CommutativityReport,
    EvaluationError,
    SdeProblem,
    builtin_problem,
    builtin_problem_names,
    check_commutativity,
    drift_full,
    levy_product_coefficient,
)
from .paths import PathBundle, coarsen, dump_bundle, generate_paths, load_bundle
from .schemes import (
    SchemeKind,
    Trajectory,
    integrate,
    milstein_correction,
    require_supported,
    step_function,
    tame,
)
from .analysis import (
    ConvergenceReport,
    DissipativityReport,
    MomentBound,
    MomentCurve,
    PowerLawFit,
    StabilityCurveEntry,
    StabilityParams,
    StabilityReport,
    StabilityThreshold,
    check_dissipativity,
    decay_rate,
    empirical_moment_bound,
    fit_power_law,
    mean_square_curve,
    stability_study,
    stability_threshold,
    strong_error_study,
    strong_error_table,
)

__version__ = "0.1.0"

__all__ = [
    "SdeProblem",
    "CommutativityReport",
    "EvaluationError",
    "builtin_problem",
    "builtin_problem_names",
    "check_commutativity",
    "drift_full",
    "levy_product_coefficient",
    "PathBundle",
    "generate_paths",
    "coarsen",
    "dump_bundle",
    "load_bundle",
    "SchemeKind",
    "Trajectory",
    "integrate",
    "tame",
    "require_supported",
    "step_function",
    "milstein_correction",
    "ConvergenceReport",
    "PowerLawFit",
    "MomentCurve",
    "MomentBound",
    "StabilityParams",
    "StabilityThreshold",
    "StabilityReport",
    "StabilityCurveEntry",
    "DissipativityReport",
    "fit_power_law",
    "strong_error_study",
    "strong_error_table",
    "mean_square_curve",
    "empirical_moment_bound",
    "stability_threshold",
    "decay_rate",
    "check_dissipativity",
    "stability_study",
    "__version__",
]
