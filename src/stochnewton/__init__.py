"""Batch Newton optimization with a Gaussian-filtered momentum variant.

The package provides a small SPD linear-algebra kernel, sub-sampled
objectives (least squares, exponential families, canonical GLMs), a
backtracking line search, a Gaussian filter over the latent gradient
with a momentum-matrix monitor, the two optimization loops, and a
paired-trial benchmark with CSV output.
"""

from .filtering import (
    DkfUpdate,
    DkfUpdates,
    FilterConfig,
    FilterDivergenceError,
    GaussianBelief,
    MomentumMatrix,
    ContractionCheck,
    check_contraction_bound,
    dkf_update,
    dkf_update_info,
    init_belief,
    momentum_matrix,
    unrolled_direction,
)
from .experiment import (
    AggregateCurves,
    AngularErrorStats,
    ExperimentConfig,
    ExperimentResult,
    MethodCurves,
    RhoMonitorSummary,
    TooManyFailuresError,
    UndefinedAngleError,
    angular_errors,
    emit_csv,
    exact_mle,
    generate_data,
    rho_monitor_summary,
    run_paired_trials,
    signed_angular_error,
)
from .line_search import armijo_backtrack, armijo_search
from .linalg import (
    PositiveDefiniteError,
    cholesky_solve,
    largest_eigenvalues,
    pd_mask,
    require_pd,
    solve_spd,
    spd_solve,
    spectral_norm,
    sym,
    try_cholesky,
)
from .objectives import (
    BatchObservation,
    ExpFamily,
    ExpFamilyObjective,
    FisherCheckReport,
    GlmData,
    GlmObjective,
    LeastSquaresData,
    LeastSquaresObjective,
    NumericalError,
    ScalarFamily,
    SubsampledObjective,
    bernoulli_family,
    bernoulli_scalar_family,
    evaluate_batch,
    evaluate_batches,
    fisher_identity_check,
    gaussian_family,
    gaussian_scalar_family,
    load_least_squares_csv,
    sample_batch,
)
from .optim import (
    OptimizerConfig,
    StackedTrace,
    StepError,
    StepRecord,
    TrialTrace,
    filtered_step,
    run,
    run_trials,
    unfiltered_step,
)
from .streams import BATCH_STREAM, DATA_STREAM, derive_stream

__version__ = "0.1.0"
