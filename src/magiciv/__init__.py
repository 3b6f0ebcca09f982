"""Causal effect estimation from interactions of independent candidate instruments.

Identification does not require any instrument to be valid: demeaned
pairwise and higher-order products of mutually independent instruments are
orthogonal to linear direct effects and confounding, so the moments they
generate pin down the causal effect whenever at least one interaction moves
the exposure. Estimation is a continuously updated GMM on orthogonalized
moments, with sandwich standard errors, an overidentification test, an
interaction-strength diagnostic, reference estimators, a seeded Monte Carlo
harness, and an exact small-p population oracle for verification.
"""

from .baselines import BaselineResult, efficient_fixed_r, tsls
from .cue import (
    CueResult,
    MinimizeResult,
    chisq_cdf,
    chisq_quantile,
    estimate_cue,
    minimize,
    objective_derivatives,
    overid_test,
    variance,
)
from .data import Dataset, load_csv, validate, write_csv
from .diagnostics import FStatReport, f_stat
from .errors import (
    ConfigError,
    DataError,
    ExclusionError,
    IdentificationError,
    MagicivError,
    NumericalError,
)
from .interactions import (
    InteractionPlan,
    build_plan,
    demeaned_matrix,
)
from .moments import (
    MomentComponents,
    build_components,
    components_from_arrays,
    gbar,
    omega,
)
from .nuisance import NuisanceEstimate, estimate_means, fit_nuisance
from .oracle import (
    OrthogonalityReport,
    PopulationDgp,
    orthogonality_check,
    population_beta,
    population_moment,
    population_relevance,
)
from .simulate import (
    McSummary,
    MethodSummary,
    ScenarioConfig,
    TruthRecord,
    gen_dataset,
    run_monte_carlo,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BaselineResult",
    "ConfigError",
    "CueResult",
    "DataError",
    "Dataset",
    "ExclusionError",
    "FStatReport",
    "IdentificationError",
    "InteractionPlan",
    "MagicivError",
    "McSummary",
    "MethodSummary",
    "MinimizeResult",
    "MomentComponents",
    "NuisanceEstimate",
    "NumericalError",
    "OrthogonalityReport",
    "PopulationDgp",
    "ScenarioConfig",
    "TruthRecord",
    "build_components",
    "build_plan",
    "chisq_cdf",
    "components_from_arrays",
    "chisq_quantile",
    "demeaned_matrix",
    "efficient_fixed_r",
    "estimate_cue",
    "estimate_means",
    "f_stat",
    "fit_nuisance",
    "gbar",
    "gen_dataset",
    "load_csv",
    "minimize",
    "objective_derivatives",
    "omega",
    "orthogonality_check",
    "overid_test",
    "population_beta",
    "population_moment",
    "population_relevance",
    "run_monte_carlo",
    "tsls",
    "validate",
    "variance",
    "write_csv",
]
