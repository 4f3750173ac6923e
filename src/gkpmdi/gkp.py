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

from .channels import _as_output, awgn_variance_preamp, fiber_transmittance

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
    return _as_output(x - n * ELL)


def wrapped_moments(var_w, n_cells_boost: int = 0):
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

    ``var_w`` may be an array; a scalar gives floats.  Elements are summed in
    groups of equal cell count, so each one's arithmetic is batch-independent.
    """
    var = np.asarray(var_w, dtype=float)
    if np.any(var < 0):
        raise ValueError("variance must be >= 0")
    flat = var.ravel()
    m2, m11 = np.zeros_like(flat), np.zeros_like(flat)
    live = np.flatnonzero(flat > 0.0)
    counts = np.ceil(_TAIL_SIGMA * np.sqrt(flat[live]) / ELL + 0.5).astype(int) + n_cells_boost
    if np.any(counts > _MAX_CELLS):
        raise ValueError("lattice sum does not converge: variance too large")
    for n_cells in np.unique(counts):
        rows = live[counts == n_cells]
        v = flat[rows, None]
        sd = np.sqrt(v)
        c = np.arange(n_cells + 1) * ELL
        edges = (np.arange(n_cells + 2) - 0.5) * ELL
        edges[0] = 0.0
        z = edges / sd
        tail = ndtr(-z)
        vf = sd * np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)  # var_w * f(edge)
        p = tail[:, :-1] - tail[:, 1:]
        e_u = vf[:, :-1] - vf[:, 1:] - c * p
        e_wu = v * p + (edges[:-1] - c) * vf[:, :-1] - (edges[1:] - c) * vf[:, 1:]
        m2[rows] = 2.0 * np.sum(e_wu - c * e_u, axis=1)
        m11[rows] = 2.0 * np.sum(e_wu, axis=1)
    return _as_output(m2.reshape(var.shape)), _as_output(m11.reshape(var.shape))


def residual_variance(r, sigma2, ancilla: GkpAncilla = IDEAL, n_cells_boost: int = 0):
    """Per-quadrature variance of the data noise after the corrective shift.

    Exact second-moment decomposition of a - phi*wrap(w):

        Var(a) - 2 phi Cov(a, w)/Var(w) E[w wrap(w)] + phi^2 E[wrap(w)^2]

    with phi the regression gain of the data noise on the pre-wrap syndrome.
    At r = 0 the gain vanishes and the channel noise is returned unchanged.
    ``r`` and ``sigma2`` broadcast together; scalars give a float.
    """
    r, sigma2 = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(sigma2, dtype=float))
    if np.any(r < 0) or np.any(sigma2 < 0):
        raise ValueError("r and sigma2 must be >= 0")
    out = np.asarray(sigma2 * np.cosh(2.0 * r))  # Var(a): the result where phi = 0
    cov = sigma2 * np.sinh(2.0 * r)
    live = cov != 0.0
    if np.any(live):
        var_d, cov = out[live], cov[live]
        var_w = var_d + ancilla.syndrome_noise_variance
        m2, m11 = wrapped_moments(var_w, n_cells_boost=n_cells_boost)
        phi = cov / var_w
        out[live] = var_d - 2.0 * phi * (cov / var_w) * m11 + phi * phi * m2
    return _as_output(out)


_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
_R_MAX = 3.0
_COARSE_POINTS = 200
_GRID = np.linspace(0.0, _R_MAX, _COARSE_POINTS)
_SCAN_BLOCK = 2**14  # grid points per scan call: bounds the working memory
# The moment sums neglect Gaussian mass below 1e-12, so a relative gain
# smaller than that is rounding, not coding gain.
_NO_GAIN_RTOL = 1e-12


def optimize_squeezing(sigma2, ancilla: GkpAncilla = IDEAL):
    """Minimize residual_variance over r >= 0, elementwise over ``sigma2``.

    A 200-point grid scan over [0, 3], moved up wherever its best point is
    the last one, brackets each minimum; golden-section steps shrink each
    bracket to 1e-10.  Returns (r_opt, minimum variance) shaped like
    ``sigma2`` (floats for a scalar); where coding gains less than the
    moment sums resolve, that is (0, sigma2), so a noiseless channel
    (sigma2 = 0) gives (0, 0).
    """
    shape = np.shape(sigma2)
    s2 = np.asarray(sigma2, dtype=float).ravel()
    if not np.all(s2 >= 0):
        raise ValueError("sigma2 must be >= 0")
    lo = np.zeros_like(s2)
    best = np.empty(s2.size, dtype=int)
    todo = np.arange(s2.size)
    rows = _SCAN_BLOCK // _COARSE_POINTS
    while todo.size:
        for k in range(0, todo.size, rows):
            blk = todo[k:k + rows]
            vals = residual_variance(lo[blk, None] + _GRID, s2[blk, None], ancilla)
            best[blk] = np.argmin(vals, axis=1)
        todo = todo[best[todo] == _COARSE_POINTS - 1]
        lo[todo] += _GRID[-2]
    a = lo + _GRID[np.maximum(best - 1, 0)]
    b = lo + _GRID[np.minimum(best + 1, _COARSE_POINTS - 1)]
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = residual_variance(np.stack([c, d]), s2, ancilla)
    act = np.flatnonzero(b - a > 1e-10)
    while act.size:
        left = fc[act] < fd[act]
        i, j = act[left], act[~left]
        b[i], d[i], fd[i] = d[i], c[i], fc[i]
        a[j], c[j], fc[j] = c[j], d[j], fd[j]
        c[i] = b[i] - _GOLDEN * (b[i] - a[i])
        d[j] = a[j] + _GOLDEN * (b[j] - a[j])
        fx = residual_variance(np.concatenate([c[i], d[j]]), s2[np.concatenate([i, j])], ancilla)
        fc[i], fd[j] = fx[:i.size], fx[i.size:]
        act = act[b[act] - a[act] > 1e-10]
    r_opt = (a + b) / 2.0
    v_opt = residual_variance(r_opt, s2, ancilla)
    no_gain = v_opt >= s2 * (1.0 - _NO_GAIN_RTOL)
    r_opt[no_gain], v_opt[no_gain] = 0.0, s2[no_gain]
    return _as_output(r_opt.reshape(shape)), _as_output(v_opt.reshape(shape))


def lower_bound_variance(sigma2):
    """Capacity-based floor for single-layer correction: s^4 / (e (1-s^2)^2)."""
    if not np.all((sigma2 >= 0.0) & (sigma2 < 1.0)):
        raise ValueError("sigma2 must be in [0, 1)")
    return sigma2 ** 2 / (np.e * (1.0 - sigma2) ** 2)


def break_even(sigma2):
    """The no-coding reference level: the channel noise itself."""
    return sigma2


def concat_variance(sigma_r2_single, layers):
    """Accumulated residual of ``layers`` identical one-by-one layers."""
    if not np.all((layers >= 1) & (layers == np.floor(layers))):
        raise ValueError("layer count must be a positive integer")
    return layers * sigma_r2_single


def concat_residual_variance(l_a_km: float, layers: int, ancilla: GkpAncilla = IDEAL,
                             alpha0_db_per_km: float = 0.2) -> tuple[float, float, float]:
    """Optimized concatenated residual for a link split into equal segments.

    Each segment is compensated and corrected independently; displacement
    noise accumulates linearly across segments.  Returns
    (total residual, per-segment residual, per-segment r_opt).
    """
    s2 = awgn_variance_preamp(fiber_transmittance(l_a_km / layers, alpha0_db_per_km))
    r_opt, v_seg = optimize_squeezing(s2, ancilla)
    return concat_variance(v_seg, layers), v_seg, r_opt
