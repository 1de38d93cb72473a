"""Transfer learning for regression via transformation functions.

Learn a source regression from plentiful source data, relabel the scarce
target sample into an easier auxiliary regression through a user-chosen
transformation G(a, b), fit that, and compose. Includes Nadaraya-Watson
kernel smoothing and kernel ridge regression subroutines, validation-risk
selection over quantized transformation families, and a reproducible
benchmark CLI.
"""

__version__ = "0.1.0"

from .data import (
    CsvError,
    Dataset,
    DomainTag,
    SyntheticSpec,
    doppler,
    doppler_fn,
    generate_synthetic,
    kin_analog_spec,
    linear_w,
    load_csv,
    save_csv,
    subsample,
    uniform_sampler,
)
from .evaluation import (
    DegenerateLabelsError,
    MetricReport,
    RateFit,
    StabilityBoundViolation,
    default_query_grid,
    excess_risk_mc,
    mc_sample,
    metric_report,
    rate_slope,
    stability_probe,
)
from .experiment import (
    ConfigError,
    ExperimentConfig,
    grid_search_cv,
    load_config,
    parse_config,
    run_experiment,
)
from .pipeline import (
    BandwidthRule,
    HTLPredictor,
    KRRSpec,
    KSSpec,
    LambdaRule,
    SelectionResult,
    construct_auxiliary,
    htl_fit,
    select_transformation,
)
from .ridge import (
    ConditioningError,
    KRRPredictor,
    RKHSKernel,
    StabilityUndefinedError,
    gram,
    krr_fit,
    krr_stability_coeffs,
    linear_kernel,
    median_heuristic,
    polynomial_kernel,
    rbf_kernel,
)
from .smoothing import KSPredictor, SmoothingKernel
from .transform import (
    AuxiliaryEstimator,
    Family,
    InsufficientReplicatesError,
    QuantizedFamily,
    SingularityError,
    TransformationFunction,
    apply_H,
    estimate_sigma2,
    eval_G,
    inverse_G,
    loglinear,
    non_transfer,
    offset,
    scale,
)
