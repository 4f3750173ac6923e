"""Security-analysis toolkit for relay-based CV QKD with GKP error correction.

Layers, bottom up: channel models (:mod:`channels`), the GKP-TMS code and
its residual-error statistics (:mod:`gkp`), closed-form relay conditioning
and rate functionals (:mod:`security`), composable finite-size accounting
(:mod:`finite_size`), free-space fading averages (:mod:`fading`), Monte
Carlo oracles (:mod:`mc`), and a sweep/CLI front end (:mod:`sweeps`,
:mod:`cli`).
"""

__version__ = "0.1.0"

from .channels import (ProtocolParams, awgn_variance_preamp, awgn_variance_qt,
                       fiber_transmittance, plob_bound)
from .fading import (CodePolicy, FadingConfig, average_composable_rate, fading_cdf,
                     fading_pdf, fading_quantile, fading_scalars, mean_residual_variance,
                     mean_transmittance, pointing_wander_variance, xi_integral)
from .finite_size import (FiniteSizeParams, UnphysicalWorstCaseError, aep_delta,
                          composable_rate, epsilon_total, kappa_from_eps)
from .gkp import (GkpAncilla, break_even, concat_variance, lower_bound_variance,
                  optimize_squeezing, residual_variance, syndrome_reduce)
from .mc import (McMutualInfo, McVariance, RngStream, mc_pe_coverage,
                 mc_protocol_mutual_info, mc_residual_variance)
from .security import (ConditionedScalars, RateReport, asymptotic_rate,
                       conditioned_scalars, h_function)

__all__ = [
    # channels
    "ProtocolParams", "awgn_variance_preamp", "awgn_variance_qt", "fiber_transmittance",
    "plob_bound",
    # gkp
    "GkpAncilla", "break_even", "concat_variance", "lower_bound_variance",
    "optimize_squeezing", "residual_variance", "syndrome_reduce",
    # security
    "ConditionedScalars", "RateReport", "asymptotic_rate", "conditioned_scalars",
    "h_function",
    # finite_size
    "FiniteSizeParams", "UnphysicalWorstCaseError", "aep_delta", "composable_rate",
    "epsilon_total", "kappa_from_eps",
    # fading
    "CodePolicy", "FadingConfig", "average_composable_rate", "fading_cdf", "fading_pdf",
    "fading_quantile", "fading_scalars", "mean_residual_variance", "mean_transmittance",
    "pointing_wander_variance", "xi_integral",
    # mc
    "McMutualInfo", "McVariance", "RngStream", "mc_pe_coverage",
    "mc_protocol_mutual_info", "mc_residual_variance",
]
