"""Free-space horizontal link: transmittance statistics and averaged rates.

The instantaneous transmittance of the beam-wandering link is a random
variable on (0, tau0] with a Weibull-like density in log-transmittance.
A dynamic code re-optimized per transmittance keeps the state Gaussian when
averaged over outcomes, and the conditioned scalars of the averaged state
are the fixed-link closed forms (:mod:`gkpmdi.security`) with the
conditioning scalar xi replaced by its fading average (``xi_integral``).

Every average is a composite Gauss-Legendre sum in the quantile variable
(``_quantile_nodes``), and the code residual is evaluated exactly at each
node transmittance: one array call of ``optimize_squeezing`` (dynamic code)
or ``residual_variance`` (fixed squeezing) per set of nodes.

The distribution parameters (tau0, gamma0, r0, sigma_bw^2) are inputs; the
shipped reference configurations carry values fitted to reproduce the
reference mean residual variances and are labeled as such.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ProtocolParams
from .gkp import GkpAncilla, optimize_squeezing, residual_variance
from .security import ConditionedScalars, _conditioned_entries, _link_coefficients
from .finite_size import FiniteSizeParams, composable_rate_from_pe, pe_rate_from_scalars

_XI_PANELS = 64
_XI_ORDER = 16


def pointing_wander_variance(l_km: float, pointing_urad: float = 1.0) -> float:
    """Beam-wandering variance (m^2) from a transmitter pointing jitter."""
    if l_km < 0 or pointing_urad < 0:
        raise ValueError("inputs must be >= 0")
    return (pointing_urad * 1e-6 * (l_km * 1e3)) ** 2


@dataclass(frozen=True)
class FadingConfig:
    """Log-transmittance Weibull fading channel.

    ``tau0`` is the perfectly aligned transmittance (extinction already
    folded in multiplicatively); ``gamma0``/``r0_m`` are the shape and scale
    of the deflection-to-transmittance map; ``sigma_bw2_m2`` the centroid
    wander variance.  Aperture, spot size, wavelength and pointing error are
    carried as metadata.
    """

    tau0: float
    gamma0: float
    r0_m: float
    sigma_bw2_m2: float
    a_r_m: float = 0.1
    w0_m: float = 0.05
    l_a_km: float = 1.0
    pointing_urad: float = 1.0
    wavelength_nm: float = 800.0

    def __post_init__(self):
        if not 0.0 < self.tau0 <= 1.0:
            raise ValueError("tau0 must be in (0, 1]")
        if self.gamma0 <= 0 or self.r0_m <= 0 or self.sigma_bw2_m2 <= 0:
            raise ValueError("gamma0, r0 and sigma_bw2 must be > 0")


@dataclass(frozen=True)
class CodePolicy:
    """Error-correction policy along the fading link.

    ``fixed_r`` pins the code squeezing; ``None`` re-optimizes it for every
    transmittance value (dynamic code).
    """

    ancilla: GkpAncilla
    fixed_r: float | None = None

    @property
    def dynamic(self) -> bool:
        return self.fixed_r is None


def fading_pdf(tau_a, cfg: FadingConfig):
    """Probability density of the instantaneous transmittance; 0 off-support."""
    tau_a = np.asarray(tau_a, dtype=float)
    out = np.zeros_like(tau_a)
    inside = (tau_a > 0.0) & (tau_a <= cfg.tau0)
    t = tau_a[inside]
    lg = np.log(cfg.tau0 / t)
    g = cfg.gamma0
    scale = cfg.r0_m**2 / (g * cfg.sigma_bw2_m2)
    with np.errstate(divide="ignore", over="ignore"):
        out[inside] = (scale / t) * lg ** (2.0 / g - 1.0) * np.exp(
            -(cfg.r0_m**2 / (2.0 * cfg.sigma_bw2_m2)) * lg ** (2.0 / g))
    if out.ndim == 0:
        return float(out)
    return out


def fading_cdf(tau_a, cfg: FadingConfig):
    """Closed-form CDF: exp(-(r0^2/2 sigma_bw^2) ln(tau0/tau)^(2/gamma0))."""
    tau_a = np.asarray(tau_a, dtype=float)
    out = np.zeros_like(tau_a)
    inside = tau_a > 0.0
    t = np.minimum(tau_a[inside], cfg.tau0)
    lg = np.log(cfg.tau0 / t)
    out[inside] = np.exp(-(cfg.r0_m**2 / (2.0 * cfg.sigma_bw2_m2))
                         * lg ** (2.0 / cfg.gamma0))
    if out.ndim == 0:
        return float(out)
    return out


def fading_quantile(u, cfg: FadingConfig):
    """Inverse CDF; u in (0, 1)."""
    u = np.asarray(u, dtype=float)
    arg = (2.0 * cfg.sigma_bw2_m2 / cfg.r0_m**2) * (-np.log(u))
    out = cfg.tau0 * np.exp(-(arg ** (cfg.gamma0 / 2.0)))
    if out.ndim == 0:
        return float(out)
    return out


def sample_transmittance(cfg: FadingConfig, n: int, gen: np.random.Generator):
    return fading_quantile(gen.uniform(size=n), cfg)


def sigma_r2_of_tau(cfg: FadingConfig, policy: CodePolicy, tau):
    """Residual variance of the (possibly re-optimized) code at transmittance tau.

    The channel noise is 1 - tau; where it vanishes, so does the residual.
    """
    s2 = 1.0 - np.asarray(tau, dtype=float)
    out = np.zeros_like(s2)
    noisy = s2 > 0.0
    if policy.dynamic:
        out[noisy] = optimize_squeezing(s2[noisy], policy.ancilla)[1]
    else:
        out[noisy] = residual_variance(policy.fixed_r, s2[noisy], policy.ancilla)
    if out.ndim == 0:
        return float(out)
    return out


def _quantile_nodes(cfg: FadingConfig, n_panels: int = _XI_PANELS):
    """Nodes and weights for E[g(tau)] under the fading law.

    Composite Gauss-Legendre in the quantile variable: substituting
    u = CDF(tau) makes the measure uniform on (0, 1), which concentrates
    nodes wherever the density does (near tau0 for weak fading).
    """
    x, w = np.polynomial.legendre.leggauss(_XI_ORDER)
    edges = np.linspace(0.0, 1.0, n_panels + 1)
    mids = (edges[1:] + edges[:-1]) / 2.0
    halfs = (edges[1:] - edges[:-1]) / 2.0
    u = (mids[:, None] + halfs[:, None] * x[None, :]).ravel()
    uw = (halfs[:, None] * w[None, :]).ravel()
    return fading_quantile(u, cfg), uw


def _residual_nodes(cfg: FadingConfig, policy: CodePolicy, n_panels: int = _XI_PANELS):
    """Weights and exact sigma_r^2 at the nodes: every residual average reads these."""
    tau, uw = _quantile_nodes(cfg, n_panels)
    return uw, sigma_r2_of_tau(cfg, policy, tau)


def _mean_at(nodes) -> float:
    uw, sr2 = nodes
    return float(np.sum(uw * sr2))


def _xi_at(nodes, params: ProtocolParams) -> float:
    uw, sr2 = nodes
    denom_const = params.sigma2_a + params.tau_b * params.sigma2_b + 2.0
    return float(np.sum(uw * (1.0 / (denom_const + 2.0 * sr2))))


def _scalars_at(nodes, params: ProtocolParams) -> ConditionedScalars:
    _, ca2 = _link_coefficients("gkp", params.tau_a, params.sigma2_a, 0.0)
    phi_a, psi, phi_b = _conditioned_entries(params, params.tau_b, ca2, _xi_at(nodes, params))
    return ConditionedScalars(phi_a=float(phi_a), psi=float(psi), phi_b=float(phi_b))


def _composable_at(nodes, params: ProtocolParams, fs: FiniteSizeParams) -> float:
    sc = _scalars_at(nodes, params)
    r_pe = pe_rate_from_scalars(sc.phi_a, sc.psi, sc.phi_b, params.beta0, fs)
    return composable_rate_from_pe(r_pe, fs)


def xi_integral(cfg: FadingConfig, params: ProtocolParams, policy: CodePolicy,
                n_panels: int = _XI_PANELS) -> float:
    """The fading-averaged conditioning scalar
    E[ 1 / (sigma_a^2 + 2 sigma_r^2(tau) + tau_b sigma_b^2 + 2) ]."""
    return _xi_at(_residual_nodes(cfg, policy, n_panels), params)


def fading_scalars(cfg: FadingConfig, params: ProtocolParams,
                   policy: CodePolicy) -> ConditionedScalars:
    """Conditioned scalars of the fading-averaged state (corrected gkp link).

    With a point-mass transmittance they coincide with the fiber-path
    conditioning at the matching transmittance and residual noise.
    """
    return _scalars_at(_residual_nodes(cfg, policy), params)


def mean_transmittance(cfg: FadingConfig) -> float:
    tau, uw = _quantile_nodes(cfg)
    return float(np.sum(uw * tau))


def mean_residual_variance(cfg: FadingConfig, policy: CodePolicy) -> float:
    """Fading-averaged residual variance of the (dynamic) code."""
    return _mean_at(_residual_nodes(cfg, policy))


def average_composable_rate(cfg: FadingConfig, params: ProtocolParams,
                            fs: FiniteSizeParams, policy: CodePolicy) -> float:
    """Composable rate of the fading-averaged state (worst-case shifted)."""
    return _composable_at(_residual_nodes(cfg, policy), params, fs)
