"""Asymptotic secret-key rates for coherent-one-way QKD.

Closed-form detector gains for every prepared two-pulse sequence, an
analytic phase-error upper bound built from decoy-sequence observations, key
rates with parameter optimization, a repeaterless capacity reference, and a
seeded Monte-Carlo detection oracle for cross-validation.
"""

from .gains import GainSet, data_line_gains, full_gain_set, nonclassical_gains_ideal
from .optimize import Protocol, ScanConfig, evaluate_point, optimize_point, scan
from .oracle import (
    OracleEstimate,
    VerificationReport,
    estimate_data_gains,
    estimate_monitoring_gains,
    run_verification,
    sample_clicks,
)
from .params import (
    ParameterError,
    SystemParams,
    Variant,
    channel_transmittance,
    total_transmittance,
)
from .security import (
    BoundPair,
    NoDetectionError,
    NoMonitoringDetectionError,
    RatePoint,
    azuma_deviation,
    binary_entropy,
    bit_error_x,
    bit_error_z,
    gain_bounds,
    key_rate_cow,
    key_rate_nonclassical,
    phase_error_upper,
    phase_error_upper_raw,
    plob_bound,
)

__version__ = "0.1.0"

__all__ = [
    "BoundPair",
    "GainSet",
    "NoDetectionError",
    "NoMonitoringDetectionError",
    "OracleEstimate",
    "ParameterError",
    "Protocol",
    "RatePoint",
    "ScanConfig",
    "SystemParams",
    "VerificationReport",
    "Variant",
    "azuma_deviation",
    "binary_entropy",
    "bit_error_x",
    "bit_error_z",
    "channel_transmittance",
    "data_line_gains",
    "estimate_data_gains",
    "estimate_monitoring_gains",
    "evaluate_point",
    "full_gain_set",
    "gain_bounds",
    "key_rate_cow",
    "key_rate_nonclassical",
    "nonclassical_gains_ideal",
    "optimize_point",
    "phase_error_upper",
    "phase_error_upper_raw",
    "plob_bound",
    "run_verification",
    "sample_clicks",
    "scan",
    "total_transmittance",
]
