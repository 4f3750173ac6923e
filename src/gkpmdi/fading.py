"""Free-space horizontal link: transmittance statistics and averaged rates.

The instantaneous transmittance of the beam-wandering link is a random
variable on (0, tau0] with a Weibull-like density in log-transmittance.
The code is dynamic: its squeezing is re-optimized at every transmittance
(``sigma_r2_of_tau``).  The conditioned scalars of the averaged state are
the fixed-link closed forms (:mod:`gkpmdi.security`) with the conditioning
scalar xi replaced by its fading average (``xi_integral``): the link is the
node set (w, 1, sigma_r2) that :func:`gkpmdi.security.link_scalars` takes.

Every average is a weighted sum over one node set, ``residual_nodes``: a
composite 16-point Gauss-Legendre rule in the quantile variable, read from
a literal table (``_GL16``), with the residual evaluated exactly at each
node transmittance, in one array call of ``optimize_squeezing``.  Build
the nodes once and pass them to every average: the mean residual is
``np.sum(w * sigma_r2)``, the mean transmittance ``np.sum(w * tau)``, and
``xi_integral`` takes the nodes too.

The distribution parameters (tau0, gamma0, r0, sigma_bw^2) are inputs; the
shipped reference configurations carry values fitted to reproduce the
reference mean residual variances and are labeled as such.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ProtocolParams, _as_output
from .gkp import GkpAncilla, optimize_squeezing
from .security import _link_xi

_XI_PANELS = 64
# positive nodes and weights of the 16-point Gauss-Legendre rule on [-1, 1]
# (Abramowitz & Stegun, Table 25.4) as the reprs of numpy's exactly
# symmetric leggauss(16); residual_nodes mirrors them
_GL16 = np.array([
    [0.09501250983763744, 0.18945061045506864],
    [0.2816035507792589, 0.18260341504492364],
    [0.45801677765722737, 0.16915651939500265],
    [0.6178762444026438, 0.1495959888165767],
    [0.755404408355003, 0.12462897125553407],
    [0.8656312023878318, 0.0951585116824926],
    [0.9445750230732326, 0.062253523938647456],
    [0.9894009349916499, 0.027152459411754176],
])


@dataclass(frozen=True)
class FadingConfig:
    """Log-transmittance Weibull fading channel.

    ``tau0`` is the perfectly aligned transmittance (extinction already
    folded in multiplicatively); ``gamma0``/``r0_m`` are the shape and scale
    of the deflection-to-transmittance map; ``sigma_bw2_m2`` the centroid
    wander variance, by default that of a 1 urad pointing error over 1 km.
    """

    tau0: float
    gamma0: float
    r0_m: float
    sigma_bw2_m2: float = 1e-6

    def __post_init__(self):
        if not 0.0 < self.tau0 <= 1.0:
            raise ValueError("tau0 must be in (0, 1]")
        if not all(0 < x < np.inf for x in (self.gamma0, self.r0_m, self.sigma_bw2_m2)):
            raise ValueError("gamma0, r0 and sigma_bw2 must be finite and > 0")
        if not 0 < self.r0_m * self.r0_m / self.sigma_bw2_m2 < np.inf:  # the law's rate
            raise ValueError("r0^2 / sigma_bw2 must be finite and > 0")


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
    return _as_output(out)


def fading_cdf(tau_a, cfg: FadingConfig):
    """Closed-form CDF: exp(-(r0^2/2 sigma_bw^2) ln(tau0/tau)^(2/gamma0))."""
    tau_a = np.asarray(tau_a, dtype=float)
    out = np.zeros_like(tau_a)
    inside = tau_a > 0.0
    t = np.minimum(tau_a[inside], cfg.tau0)
    lg = np.log(cfg.tau0 / t)
    out[inside] = np.exp(-(cfg.r0_m**2 / (2.0 * cfg.sigma_bw2_m2))
                         * lg ** (2.0 / cfg.gamma0))
    return _as_output(out)


def fading_quantile(u, cfg: FadingConfig):
    """Inverse CDF; u in (0, 1)."""
    u = np.asarray(u, dtype=float)
    arg = (2.0 * cfg.sigma_bw2_m2 / cfg.r0_m**2) * (-np.log(u))
    out = cfg.tau0 * np.exp(-(arg ** (cfg.gamma0 / 2.0)))
    return _as_output(out)


def sigma_r2_of_tau(ancilla: GkpAncilla, tau):
    """Residual variance of the dynamic code at transmittance tau.

    The channel noise is 1 - tau; where it vanishes, so does the residual.
    """
    return optimize_squeezing(1.0 - np.asarray(tau, dtype=float), ancilla)[1]


def residual_nodes(cfg: FadingConfig, ancilla: GkpAncilla):
    """The node set every fading average is a weighted sum over:
    ``(weights, tau, sigma_r2)``.

    Composite Gauss-Legendre in the quantile variable (``_XI_PANELS`` panels
    of the 16-point rule in the table ``_GL16``, which equals
    ``np.polynomial.legendre.leggauss(16)`` bit for bit): substituting
    u = CDF(tau) makes the measure uniform on (0, 1), which concentrates
    nodes wherever the density does (near tau0 for weak fading).  The
    residual is exact at every node.
    """
    x, w = np.concatenate([_GL16[::-1] * [-1.0, 1.0], _GL16]).T
    edges = np.linspace(0.0, 1.0, _XI_PANELS + 1)
    mids = (edges[1:] + edges[:-1]) / 2.0
    halfs = (edges[1:] - edges[:-1]) / 2.0
    u = (mids[:, None] + halfs[:, None] * x[None, :]).ravel()
    tau = fading_quantile(u, cfg)
    return (halfs[:, None] * w[None, :]).ravel(), tau, sigma_r2_of_tau(ancilla, tau)


def xi_integral(nodes, params: ProtocolParams):
    """The fading-averaged conditioning scalar
    E[ 1 / (sigma_a^2 + 2 sigma_r^2(tau) + tau_b sigma_b^2 + 2) ] on
    ``nodes``, at every B-link length of ``params`` (a float for a scalar
    length): the xi of the link (w, 1, sigma_r2) that ``link_scalars`` forms."""
    w, _, sigma_r2 = nodes
    return _as_output(np.sum(_link_xi((w, 1.0, sigma_r2), params, params.tau_b), axis=-1))
