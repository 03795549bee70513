"""Prediction of stationary heavy-tailed time series by excursion-metric minimization.

The package covers the full pipeline: marginal laws with stable and Student-t
tails (:mod:`tailcast.distributions`), excursion / Gini / Wasserstein
distances between dependent samples (:mod:`tailcast.metrics`), stationary
process simulators (:mod:`tailcast.processes`), the empirical prediction
functionals and their exact subgradients (:mod:`tailcast.objective`),
projected subgradient descent (:mod:`tailcast.optimize`), Gaussian
closed-form baselines (:mod:`tailcast.baselines`), and a reproducible
Monte Carlo experiment harness (:mod:`tailcast.harness`) with a CLI
(``tailcast``).
"""

__version__ = "0.1.0"

from .distributions import (
    Cauchy,
    Gaussian,
    Levy,
    Marginal,
    StudentT,
    estimate,
)
from .errors import (
    ConfigError,
    DegenerateData,
    DivergedToNonFinite,
    DomainError,
    GridMisaligned,
    IndexOutOfRange,
    InsufficientData,
    InvalidGrid,
    LengthMismatch,
    MissingBootstrap,
    NonFiniteInput,
    NonStationaryCoefficients,
    NoValidShifts,
    SingularCovariance,
    Unsupported,
)
from .metrics import (
    PairedSample,
    delta_curve,
    excursion_metric_empirical,
    gaussian_copula_diag,
    gini_empirical,
    max_excursion_distance_empirical,
    wasserstein2_samples,
    wasserstein2_to_uniform,
)
from .objective import (
    ForecastDesign,
    LearningSamples,
    ObjectiveSpec,
    Predictor,
    centered_objective,
    extract_learning_samples,
    mean_subgradient,
    objective_value,
    subgradient,
)
from .optimize import (
    DescentConfig,
    DescentProblem,
    SolveResult,
    descend,
    init_candidates,
    project,
    solve,
)
from .baselines import (
    GaussianSecondOrder,
    covariances_exp,
    exact_excursion_weights,
    predictor_correlation,
    simple_kriging_weights,
)
from .processes import (
    ArStudentT,
    GaussExpCov,
    StableMovingAverage,
    Trajectory,
    default_kernel,
    simulate,
)
from .harness import (
    EvalReport,
    ExperimentSpec,
    FitResults,
    run_eval,
    run_fit,
    run_table1_benchmark,
    spec_from_dict,
    spec_to_dict,
)
from .rng import RngStream, as_generator
