"""Data-efficient optimization of scale/precision hyperparameters.

A stochastic simulator whose summary statistic scales roughly as a power
law in a scale (or precision) parameter beta can be tuned with very few
evaluations: fit a conjugate Bayesian linear model to (ln beta, ln s)
pairs, evaluate the induced mean-squared-error objective analytically,
and Thompson-sample new evaluation points through the objective's
closed-form minimizer.  The package also ships the conventional
Monte-Carlo 1-D optimization baselines it is benchmarked against,
residual diagnostics, synthetic and structural test problems, and a
command-line front end.
"""

from .acquisition import (
    SurrogateObjective,
    ThompsonBatch,
    argmin_closed_form,
    evaluate,
    optimal_region,
    thompson_batch,
)
from .baselines import (
    McObjective,
    golden_section,
    parabolic_interpolation,
)
from .driver import BoConfig, BoTrace, initial_design, run
from .glm import GlmFit, LogDataset, fit, ingest, sample_posterior
from .problems import (
    ObjectiveProblem,
    build_static_fixture,
    srom_standin,
    synthetic_powerlaw,
    target_for_optimum,
)

__version__ = "0.1.0"

__all__ = [
    "BoConfig",
    "BoTrace",
    "GlmFit",
    "LogDataset",
    "McObjective",
    "ObjectiveProblem",
    "SurrogateObjective",
    "ThompsonBatch",
    "argmin_closed_form",
    "build_static_fixture",
    "evaluate",
    "fit",
    "golden_section",
    "ingest",
    "initial_design",
    "optimal_region",
    "parabolic_interpolation",
    "run",
    "sample_posterior",
    "srom_standin",
    "synthetic_powerlaw",
    "target_for_optimum",
    "thompson_batch",
]
