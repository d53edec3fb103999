"""Degradation of the port-based teleportation resource state under recycling.

Schur-Weyl combinatorics on Young-frame tables drive closed-form recycling
fidelities for arbitrary port count and local dimension, with the
optimal-protocol variant and a small-instance dense-matrix oracle that
verifies every formula.  Importing the package does not load the oracle.
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
from .partitions import frame_table, ln_schur_weyl_probability, partitions_bounded
from .recycling import frec, kround_lower_bound, lower_bound_qubit, trace_sqrt_povm_signal
from .reports import CheckResult, DimensionCapError, FidelityReport, VerifyReport

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
    "resource_fidelity_oracle",
    "resource_state_fidelity",
    "rho_spectrum_report",
    "save_v_coefficients",
    "srm_povm",
    "trace_sqrt_povm_signal",
    "v_optimal",
    "verify_suite",
]


def __getattr__(name: str):
    if name in __all__:  # the public names not imported above are the oracle's
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
