"""Degradation of the port-based teleportation resource state under recycling.

Schur-Weyl combinatorics on Young-frame tables drive closed-form recycling
fidelities for arbitrary port count and local dimension, with the
optimal-protocol variant and a small-instance dense-matrix oracle that
verifies every formula.
"""

from .optimal import (
    CoefficientError,
    VCoefficients,
    frec_optimal,
    load_v_coefficients,
    parse_v_coefficients,
    resource_state_fidelity,
    save_v_coefficients,
    v_optimal,
)
from .oracle import (
    DimensionCapError,
    SpectrumReport,
    build_optimizing_operator,
    channel_fidelity_oracle,
    frec_optimal_oracle,
    frec_oracle,
    permutation_operator,
    pinv_sqrt_psd,
    resource_fidelity_oracle,
    rho_operator,
    rho_spectrum_report,
    signal_state,
    sqrt_psd,
    srm_povm,
    verify_suite,
    young_projector,
)
from .partitions import frame_table, ln_schur_weyl_probability, partitions_bounded
from .recycling import frec, kround_lower_bound, lower_bound_qubit, trace_sqrt_povm_signal
from .reports import CheckResult, FidelityReport, VerifyReport

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "CoefficientError",
    "DimensionCapError",
    "FidelityReport",
    "SpectrumReport",
    "VCoefficients",
    "VerifyReport",
    "build_optimizing_operator",
    "channel_fidelity_oracle",
    "frame_table",
    "frec",
    "frec_optimal",
    "frec_optimal_oracle",
    "frec_oracle",
    "kround_lower_bound",
    "ln_schur_weyl_probability",
    "load_v_coefficients",
    "lower_bound_qubit",
    "parse_v_coefficients",
    "partitions_bounded",
    "permutation_operator",
    "pinv_sqrt_psd",
    "resource_fidelity_oracle",
    "resource_state_fidelity",
    "rho_operator",
    "rho_spectrum_report",
    "save_v_coefficients",
    "signal_state",
    "sqrt_psd",
    "srm_povm",
    "trace_sqrt_povm_signal",
    "v_optimal",
    "verify_suite",
    "young_projector",
]
