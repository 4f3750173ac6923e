"""GKP-TMS oscillator-to-oscillator code: syndrome statistics and residual error.

The code entangles a data mode with a square-lattice GKP ancilla through a
two-mode squeezer, sends both through an additive-Gaussian channel of
per-quadrature variance sigma^2 (vacuum-1/2 units), undoes the squeezer, and
reads the ancilla modulo the lattice pitch ell = sqrt(2*pi).  A linear
function of the wrapped syndrome is then subtracted from the data.

Because the lattice is square, the q and p quadratures decouple and carry
identical statistics, so every quantity here is per quadrature.  The scalar
model is: data noise a and pre-wrap syndrome w are jointly Gaussian with

    Var(a) = sigma^2 cosh(2r),   Cov(a, w) = sigma^2 sinh(2r),
    Var(w) = sigma^2 cosh(2r) + delta_syn^2,

where delta_syn^2 is the syndrome broadening of a finitely squeezed ancilla
(zero for an ideal one).  The corrected output is a - phi * wrap(w), and its
variance follows from the wrapped-Gaussian moments E[wrap(w)^2], E[w wrap(w)].
Over one lattice cell each moment is a Gaussian integral of a polynomial, so
both are exact sums of per-cell closed forms in Phi and the normal density
(no quadrature).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

ELL = np.sqrt(2.0 * np.pi)  # square-lattice pitch

# Neglected Gaussian tail mass below 1e-12 -> sum whole cells past 7.5 sigma.
_TAIL_SIGMA = 7.5
_MAX_CELLS = 20000


@dataclass(frozen=True)
class GkpAncilla:
    """Ancilla quality: ideal, or finitely squeezed at ``squeezing_db``.

    ``delta2`` is the per-quadrature peak variance 10^(-s/10)/2 implied by
    the squeezing definition s = -10 log10(2 delta^2).  The syndrome read
    from a finitely squeezed ancilla is broadened by twice that amount
    (preparation and modular readout each contribute one peak width).
    """

    squeezing_db: float | None = None  # None means ideal

    def __post_init__(self):
        if self.squeezing_db is not None and self.squeezing_db <= 0:
            raise ValueError("finite ancilla squeezing must be > 0 dB")

    @property
    def ideal(self) -> bool:
        return self.squeezing_db is None

    @property
    def delta2(self) -> float:
        if self.ideal:
            return 0.0
        return 10.0 ** (-self.squeezing_db / 10.0) / 2.0

    @property
    def syndrome_noise_variance(self) -> float:
        return 2.0 * self.delta2

    @classmethod
    def parse(cls, spec: str | float | None) -> "GkpAncilla":
        if spec is None or (isinstance(spec, str) and spec.lower() == "ideal"):
            return cls(None)
        return cls(float(spec))


IDEAL = GkpAncilla(None)


def effective_estimator_gain(r: float, sigma2: float, ancilla: GkpAncilla = IDEAL) -> float:
    """Per-quadrature regression gain of data noise on the pre-wrap syndrome.

    Equals tanh(2r) for an ideal ancilla and is reduced by the syndrome
    broadening of a finitely squeezed one.
    """
    var_w = sigma2 * np.cosh(2.0 * r) + ancilla.syndrome_noise_variance
    if var_w <= 0.0:
        return 0.0
    return sigma2 * np.sinh(2.0 * r) / var_w


def syndrome_reduce(x):
    """Reduce mod sqrt(2*pi) into [-sqrt(pi/2), sqrt(pi/2)], componentwise.

    Ties at exact half-lattice points round away from zero, for determinism.
    """
    x = np.asarray(x, dtype=float)
    n = np.sign(x) * np.floor(np.abs(x) / ELL + 0.5)
    out = x - n * ELL
    if out.ndim == 0:
        return float(out)
    return out


def wrapped_moments(var_w: float, n_cells_boost: int = 0):
    """(E[wrap(w)^2], E[w wrap(w)]) for w ~ N(0, var_w), wrap = mod-ell.

    Exact sum over lattice cells [a, b] = [c - ell/2, c + ell/2], c = n*ell,
    out to where the neglected Gaussian mass is below 1e-12.  On a cell
    wrap(w) is u = w - c.  Writing E[g; cell] for the integral of g f over the
    cell, with f the N(0, var_w) density and P = E[1; cell] the cell mass,
    the Gaussian identities

        E[u; cell]   = var_w (f(a) - f(b)) - c P,
        E[w u; cell] = var_w P + var_w ((a - c) f(a) - (b - c) f(b)),
        E[u^2; cell] = E[w u; cell] - c E[u; cell]

    need only Phi differences and the density at the cell edges.  P is a
    difference of upper tails, so a far cell's mass keeps its relative
    accuracy and its c-weighted terms round off by about eps c^2 P, which
    sums to about eps var_w over all cells.  The integrands are even in w:
    cell 0 is folded onto [0, ell/2] and the sums are doubled.
    ``n_cells_boost`` adds lattice cells beyond the truncation (used by the
    truncation-stability check).
    """
    if var_w < 0:
        raise ValueError("variance must be >= 0")
    if var_w == 0.0:
        return 0.0, 0.0
    sd = np.sqrt(var_w)
    n_cells = int(np.ceil(_TAIL_SIGMA * sd / ELL + 0.5)) + n_cells_boost
    if n_cells > _MAX_CELLS:
        raise ValueError("lattice sum does not converge: variance too large")
    c = np.arange(n_cells + 1) * ELL
    edges = (np.arange(n_cells + 2) - 0.5) * ELL
    edges[0] = 0.0
    z = edges / sd
    tail = ndtr(-z)
    vf = sd * np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)  # var_w * f(edge)
    p = tail[:-1] - tail[1:]
    e_u = vf[:-1] - vf[1:] - c * p
    e_wu = var_w * p + (edges[:-1] - c) * vf[:-1] - (edges[1:] - c) * vf[1:]
    return 2.0 * float(np.sum(e_wu - c * e_u)), 2.0 * float(np.sum(e_wu))


def residual_variance(r: float, sigma2: float, ancilla: GkpAncilla = IDEAL,
                      n_cells_boost: int = 0) -> float:
    """Per-quadrature variance of the data noise after the corrective shift.

    Exact second-moment decomposition of a - phi*wrap(w):

        Var(a) - 2 phi Cov(a, w)/Var(w) E[w wrap(w)] + phi^2 E[wrap(w)^2]

    with phi the regression gain of the data noise on the pre-wrap syndrome.
    At r = 0 the gain vanishes and the channel noise is returned unchanged.
    """
    if r < 0 or sigma2 < 0:
        raise ValueError("r and sigma2 must be >= 0")
    if sigma2 == 0.0:
        return 0.0
    c2 = np.cosh(2.0 * r)
    var_d = sigma2 * c2
    var_w = var_d + ancilla.syndrome_noise_variance
    cov = sigma2 * np.sinh(2.0 * r)
    if cov == 0.0:
        return float(var_d)
    m2, m11 = wrapped_moments(var_w, n_cells_boost=n_cells_boost)
    phi = cov / var_w
    return float(var_d - 2.0 * phi * (cov / var_w) * m11 + phi * phi * m2)


_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
_R_MAX = 3.0
_COARSE_POINTS = 200
# The moment sums neglect Gaussian mass below 1e-12, so a relative gain
# smaller than that is rounding, not coding gain.
_NO_GAIN_RTOL = 1e-12


def optimize_squeezing(sigma2: float, ancilla: GkpAncilla = IDEAL) -> tuple[float, float]:
    """Minimize residual_variance over r in [0, 3].

    Coarse 200-point grid scan followed by golden-section refinement around
    the best grid cell.  Returns (r_opt, minimum variance); where coding
    gains less than the moment sums resolve, that is (0, sigma2).
    """
    if sigma2 <= 0:
        raise ValueError("sigma2 must be > 0")
    rs = np.linspace(0.0, _R_MAX, _COARSE_POINTS)
    vals = np.array([residual_variance(r, sigma2, ancilla) for r in rs])
    i = int(np.argmin(vals))
    a = rs[max(0, i - 1)]
    b = rs[min(len(rs) - 1, i + 1)]
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc = residual_variance(c, sigma2, ancilla)
    fd = residual_variance(d, sigma2, ancilla)
    while b - a > 1e-10:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = residual_variance(c, sigma2, ancilla)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = residual_variance(d, sigma2, ancilla)
    r_opt = (a + b) / 2.0
    v_opt = residual_variance(r_opt, sigma2, ancilla)
    if v_opt >= sigma2 * (1.0 - _NO_GAIN_RTOL):
        return 0.0, float(sigma2)
    return float(r_opt), float(v_opt)


def lower_bound_variance(sigma2: float) -> float:
    """Capacity-based floor for single-layer correction: s^4 / (e (1-s^2)^2)."""
    if not 0.0 <= sigma2 < 1.0:
        raise ValueError("sigma2 must be in [0, 1)")
    return sigma2 ** 2 / (np.e * (1.0 - sigma2) ** 2)


def break_even(sigma2: float) -> float:
    """The no-coding reference level: the channel noise itself."""
    return float(sigma2)


def concat_variance(sigma_r2_single: float, layers: int) -> float:
    """Accumulated residual of ``layers`` identical one-by-one layers."""
    if layers < 1 or layers != int(layers):
        raise ValueError("layer count must be a positive integer")
    return float(layers) * float(sigma_r2_single)


def segment_noise(l_a_km: float, layers: int, alpha0_db_per_km: float = 0.2) -> float:
    """Compensated-channel noise of one of ``layers`` equal fiber segments."""
    from .channels import awgn_variance_preamp, fiber_transmittance

    l_seg = l_a_km / layers
    return awgn_variance_preamp(fiber_transmittance(l_seg, alpha0_db_per_km))


def concat_residual_variance(l_a_km: float, layers: int, ancilla: GkpAncilla = IDEAL,
                             alpha0_db_per_km: float = 0.2) -> tuple[float, float, float]:
    """Optimized concatenated residual for a link split into equal segments.

    Each segment is compensated and corrected independently; displacement
    noise accumulates linearly across segments.  Returns
    (total residual, per-segment residual, per-segment r_opt).
    """
    s2 = segment_noise(l_a_km, layers, alpha0_db_per_km)
    r_opt, v_seg = optimize_squeezing(s2, ancilla)
    return concat_variance(v_seg, layers), v_seg, r_opt
