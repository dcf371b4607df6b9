"""Deterministic simulator and analysis toolkit for communication-compressed
distributed stochastic optimization with error compensation.

The package is organized around small, separately testable layers:

- ``compression``: lossy vector compressors and their residuals.
- ``problems``: synthetic objectives with instrumented stochastic gradients.
- ``estimators``: moving-average gradient estimators and step-size schedules.
- ``compensation``: error-feedback filters applied before compression.
- ``simulator``: the worker/server protocol producing metric traces.
- ``oracle``: independent reference computations that cross-check runs.
- ``harness``: YAML-configured CLI with run/compare/verify/sweep commands.
"""

from .compensation import (
    CompensationState,
    SchemeSpec,
    compensate,
    transmits_weighted_increment,
    filter_update,
    scheme_coefficients,
    shift_deltas,
)
from .compression import (
    CompressionResult,
    CompressorSpec,
    compress,
    measured_epsilon,
    message_bits,
)
from .errors import ConfigError, DivergenceError, EmptyTraceError, VerificationError
from .estimators import AlphaSchedule, Estimator, fixed_order_mean, init_v0
from .harness import figure1_experiment, main, verify_suite, write_metrics_csv
from .oracle import (
    GhostTrace,
    IdentityReport,
    SchemeComparison,
    coefficient_form_run,
    diagnostic_At,
    ghost_run,
    residual_closed_form,
    residual_sum_comparison,
    u_hat_run,
    uncompressed_reference,
    verify_residual_identity,
)
from .problems import (
    ProblemSpec,
    SampleHandle,
    Shard,
    full_grad,
    loss,
    make_problem,
    minibatch_indices,
    partition_data,
    shard_sampler,
    stoch_grad,
    variance_sigma2,
)
from .simulator import RunConfig, RunHistory, RunTrace, run

__all__ = [
    "AlphaSchedule",
    "CompensationState",
    "CompressionResult",
    "CompressorSpec",
    "ConfigError",
    "DivergenceError",
    "EmptyTraceError",
    "Estimator",
    "GhostTrace",
    "IdentityReport",
    "ProblemSpec",
    "RunConfig",
    "RunHistory",
    "RunTrace",
    "SampleHandle",
    "SchemeComparison",
    "SchemeSpec",
    "Shard",
    "VerificationError",
    "coefficient_form_run",
    "compensate",
    "compress",
    "diagnostic_At",
    "figure1_experiment",
    "filter_update",
    "fixed_order_mean",
    "init_v0",
    "full_grad",
    "ghost_run",
    "loss",
    "main",
    "make_problem",
    "measured_epsilon",
    "message_bits",
    "minibatch_indices",
    "partition_data",
    "residual_closed_form",
    "residual_sum_comparison",
    "run",
    "scheme_coefficients",
    "shard_sampler",
    "shift_deltas",
    "stoch_grad",
    "transmits_weighted_increment",
    "u_hat_run",
    "uncompressed_reference",
    "variance_sigma2",
    "verify_residual_identity",
    "verify_suite",
    "write_metrics_csv",
]
