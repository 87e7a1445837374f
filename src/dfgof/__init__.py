"""Distribution-free goodness-of-fit testing for parametric regression.

Fitted residuals are rotated by a chain of elementary reflections onto a
fixed reference basis, making the partial-sum residual process
asymptotically free of the covariate design, the regression family and the
true parameter.  In several covariate dimensions the scan geometry is
standardized by an optimal-transport matching onto a uniform anchor net.
"""

from .basis import ReferenceBasis, legendre_shifted, make_basis, sample_on_points
from .errors import ConfigError, NumericalError, RankDeficiencyError, SingularMatrixError
from .harness import (
    AlternativeSpec,
    ExperimentConfig,
    ExperimentResult,
    PowerResult,
    covariate_design,
    pipeline_processes,
    pipeline_records,
    run_experiment,
    simulate_null,
    simulate_power,
)
from .model import (
    FitResult,
    RegressionModel,
    Sample,
    build_model,
    fit,
    fit_gauss_newton,
    fit_linear,
    score_basis,
)
from .process import (
    Ecdf,
    StepProcess,
    build_process,
    ecdf_sup_distance,
    kolmogorov_cdf,
    ks_statistics,
    limit_covariance,
)
from .rotations import OrthonormalSet, RotationPlan, apply_plan, build_plan, gram_schmidt, reflect
from .transform import TransformedResiduals, transform_matrix, transform_residuals
from .transport import (
    AnchorSet,
    Assignment,
    brute_force_assignment,
    generate_anchors,
    rescale_unit_cube,
    solve_assignment,
    transported_points,
)

__version__ = "0.1.0"

__all__ = [
    "AlternativeSpec",
    "AnchorSet",
    "Assignment",
    "ConfigError",
    "Ecdf",
    "ExperimentConfig",
    "ExperimentResult",
    "FitResult",
    "NumericalError",
    "OrthonormalSet",
    "PowerResult",
    "RankDeficiencyError",
    "ReferenceBasis",
    "RegressionModel",
    "RotationPlan",
    "Sample",
    "SingularMatrixError",
    "StepProcess",
    "TransformedResiduals",
    "apply_plan",
    "brute_force_assignment",
    "build_model",
    "build_plan",
    "build_process",
    "covariate_design",
    "ecdf_sup_distance",
    "fit",
    "fit_gauss_newton",
    "fit_linear",
    "generate_anchors",
    "gram_schmidt",
    "kolmogorov_cdf",
    "ks_statistics",
    "legendre_shifted",
    "limit_covariance",
    "make_basis",
    "pipeline_processes",
    "pipeline_records",
    "reflect",
    "rescale_unit_cube",
    "run_experiment",
    "sample_on_points",
    "score_basis",
    "simulate_null",
    "simulate_power",
    "solve_assignment",
    "transform_matrix",
    "transform_residuals",
    "transported_points",
]
