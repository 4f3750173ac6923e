"""Security-analysis toolkit for relay-based CV QKD with GKP error correction.

Layers, bottom up: channel models (:mod:`channels`), the GKP-TMS code and
its residual-error statistics (:mod:`gkp`), closed-form relay conditioning
and rate functionals (:mod:`security`), composable finite-size accounting
(:mod:`finite_size`), free-space fading averages (:mod:`fading`), Monte
Carlo oracles (:mod:`mc`), and a sweep/CLI front end (:mod:`sweeps`,
:mod:`cli`).
"""

__version__ = "0.1.0"

from .channels import ProtocolParams, awgn_variance_preamp, awgn_variance_qt, fiber_transmittance
from .fading import (FadingConfig, fading_cdf, fading_pdf, fading_quantile, residual_nodes,
                     xi_integral)
from .finite_size import (FiniteSizeParams, UnphysicalWorstCaseError, aep_delta,
                          composable_rate, kappa_from_eps)
from .gkp import (GkpAncilla, concat_variance, lower_bound_variance, optimize_squeezing,
                  residual_variance, syndrome_reduce)
from .mc import (McMutualInfo, McVariance, RngStream, mc_pe_coverage,
                 mc_protocol_mutual_info, mc_residual_variance)
from .security import ConditionedScalars, RateReport, asymptotic_rate, fiber_link, link_scalars

__all__ = [
    # channels
    "ProtocolParams", "awgn_variance_preamp", "awgn_variance_qt", "fiber_transmittance",
    # gkp
    "GkpAncilla", "concat_variance", "lower_bound_variance",
    "optimize_squeezing", "residual_variance", "syndrome_reduce",
    # security
    "ConditionedScalars", "RateReport", "asymptotic_rate", "fiber_link", "link_scalars",
    # finite_size
    "FiniteSizeParams", "UnphysicalWorstCaseError", "aep_delta", "composable_rate",
    "kappa_from_eps",
    # fading
    "FadingConfig", "fading_cdf", "fading_pdf", "fading_quantile", "residual_nodes",
    "xi_integral",
    # mc
    "McMutualInfo", "McVariance", "RngStream", "mc_pe_coverage",
    "mc_protocol_mutual_info", "mc_residual_variance",
]
