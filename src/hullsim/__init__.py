"""Simulation of reflected diffusions in moving convex bodies and convex-hull
estimation of the bodies from independent copies."""

from .geometry import (
    Ball,
    Box,
    ConvexBody,
    GeometryError,
    HPolytope,
    Hull,
    Interval,
    ProjectionSolverError,
    chebyshev_center,
    contains,
    convex_hull,
    distance_to_body,
    min_norm_point_distance,
    norm_bound,
    project,
    support,
)
from .dynamics import (
    Multifunction,
    ModelError,
    PathEnsemble,
    SamplePath,
    SdeModel,
    TimeGrid,
    constant_body,
    derive_seed,
    euler_step,
    gaussian_increments,
    make_model,
    shrinking_ball,
    shrinking_box,
    simulate_ensemble,
    simulate_path,
)
from .estimation import (
    EstimationError,
    hausdorff_error_1d,
    hull_estimate,
    pointwise_error,
)
from .oracle import (
    BoundCheckReport,
    HittingReport,
    OracleError,
    StepConstants,
    constants_c1_c2,
    hitting_frequency,
    step1_bound_check,
)
from .harness import (
    ConfigError,
    ConvergenceReport,
    ExperimentConfig,
    emit_report,
    load_config,
    rate_fit,
    run_experiment,
)

__version__ = "0.1.0"
