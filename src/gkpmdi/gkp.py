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
variance follows from the wrapped-Gaussian moments E[wrap(w)^2], E[w wrap(w)],
evaluated without quadrature in one of two exact forms: for a broad syndrome
(Var(w) >= 1/2) the Fourier (theta) series of the wrapped normal, five terms
of exponentials; for a narrow one, sums of per-cell closed forms in the normal
tail Phi(-z) and density over at most three lattice cells.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import _as_output, awgn_variance_preamp, fiber_transmittance

ELL = np.sqrt(2.0 * np.pi)  # square-lattice pitch

# Neglected Gaussian tail mass below 1e-12 -> sum whole cells past 7.5 sigma.
_TAIL_SIGMA = 7.5
# Var(w) from which the theta series replaces the cell sum.  Below it the
# sum needs at most three cells, and every cell edge but 0 has z >= sqrt(pi).
_THETA_MIN_VAR = 0.5
_THETA_TERMS = 5  # first neglected term: exp(-36 pi var_w) <= exp(-18 pi) ~ 3e-25

# erfc(x) = exp(-x^2) P(x)/Q(x) for 1 <= x < 8 and exp(-x^2) R(x)/S(x) for
# x >= 8: the large-argument branches of Cephes ndtr.c (S. L. Moshier).  The
# columns hold P, Q, R, S, highest power first; R and S are padded with
# leading zeros, so one Horner loop evaluates all four.
_ERFC_PQRS = np.array([
    [2.46196981473530512524e-10, 1.0, 0.0, 0.0],
    [5.64189564831068821977e-1, 1.32281951154744992508e1, 0.0, 0.0],
    [7.46321056442269912687e0, 8.67072140885989742329e1, 0.0, 1.0],
    [4.86371970985681366614e1, 3.54937778887819891062e2,
     5.64189583547755073984e-1, 2.26052863220117276590e0],
    [1.96520832956077098242e2, 9.75708501743205489753e2,
     1.27536670759978104416e0, 9.39603524938001434673e0],
    [5.26445194995477358631e2, 1.82390916687909736289e3,
     5.01905042251180477414e0, 1.20489539808096656605e1],
    [9.34528527171957607540e2, 2.24633760818710981792e3,
     6.16021097993053585195e0, 1.70814450747565897222e1],
    [1.02755188689515710272e3, 1.65666309194161350182e3,
     7.40974269950448939160e0, 9.60896809063285878198e0],
    [5.57535335369399327526e2, 5.57535340817727675546e2,
     2.97886665372100240670e0, 3.36907645100081516050e0]])
_MAXLOG = 7.09782712893383996843e2  # Cephes: past x^2 = MAXLOG the tail is 0


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


def _normal_tail(z):
    """Phi(-z) = erfc(z/sqrt(2))/2 elementwise, for z >= sqrt(2).

    The two branches of Cephes' erfc for arguments x = z/sqrt(2) >= 1, with
    its arithmetic order; within 6e-16 relative of ``scipy.special.ndtr(-z)``
    wherever the tail is a normal float.
    """
    x = z * np.sqrt(0.5)
    xp = np.minimum(x, 27.0)  # past sqrt(MAXLOG) ~ 26.6 the tail is 0: keeps the polynomials finite
    poly = np.zeros((4,) + xp.shape)
    for coef in _ERFC_PQRS:
        poly *= xp
        poly += coef.reshape((4,) + (1,) * xp.ndim)
    p, q, r, s = poly
    e = np.exp(-xp * xp)
    y = np.where(xp < 8.0, e * p / q, e * r / s)
    return np.where(x * x > _MAXLOG, 0.0, 0.5 * y)


def wrapped_moments(var_w, n_cells_boost: int = 0):
    """(E[wrap(w)^2], E[w wrap(w)]) for w ~ N(0, var_w), wrap = mod-ell.

    Broad syndromes (var_w >= 1/2) use the theta series of the wrapped
    normal (Mardia & Jupp, Directional Statistics, 2000), with q_k =
    exp(-pi k^2 var_w):

        E[wrap(w)^2] = pi/6 + (2/pi) sum_k (-1)^k q_k / k^2,
        E[w wrap(w)] = 2 var_w sum_k (-1)^(k+1) q_k,

    summed to k = 5; the neglected terms are below exp(-18 pi) ~ 3e-25.
    E[wrap(w)^2] is then within 3e-16 relative of the exact value and
    E[w wrap(w)] within a few ulps times its condition number pi var_w.
    Any finite variance converges: past var_w ~ 240 every q_k underflows
    and the moments are the uniform limit (pi/6, 0).

    Narrow syndromes (0 < var_w < 1/2) use an exact sum over lattice cells
    [a, b] = [c - ell/2, c + ell/2], c = n*ell, out to where the neglected
    Gaussian mass is below 1e-12 (at most three cells).  On a cell wrap(w)
    is u = w - c.  Writing E[g; cell] for the integral of g f over the cell,
    with f the N(0, var_w) density and P = E[1; cell] the cell mass, the
    Gaussian identities

        E[u; cell]   = var_w (f(a) - f(b)) - c P,
        E[w u; cell] = var_w P + var_w ((a - c) f(a) - (b - c) f(b)),
        E[u^2; cell] = E[w u; cell] - c E[u; cell]

    need only normal tails and the density at the cell edges.  P is a
    difference of upper tails, so a far cell's mass keeps its relative
    accuracy.  The integrands are even in w: cell 0 is folded onto
    [0, ell/2] and the sums are doubled.  Every edge but 0 lies at least
    sqrt(pi) standard deviations out, where :func:`_normal_tail` applies.
    ``n_cells_boost`` adds lattice cells beyond the truncation (used by the
    truncation-stability check).

    ``var_w`` may be an array; a scalar gives floats.  Each element's
    arithmetic is independent of its batch: theta terms are summed one k at
    a time, and cell sums in groups of equal cell count.  A NaN, infinite
    or negative variance raises ValueError.
    """
    var = np.asarray(var_w, dtype=float)
    if not np.all(np.isfinite(var)):
        raise ValueError("variance must be finite")
    if np.any(var < 0):
        raise ValueError("variance must be >= 0")
    flat = var.ravel()
    m2, m11 = np.zeros_like(flat), np.zeros_like(flat)
    broad = np.flatnonzero(flat >= _THETA_MIN_VAR)
    if broad.size:
        v = flat[broad]
        pv = np.pi * np.minimum(v, 300.0)  # every term underflows past 240: keeps pi k^2 v finite
        s2, s11 = 0.0, 0.0
        for k in range(_THETA_TERMS, 0, -1):  # smallest term first
            t = (-1.0) ** k * np.exp(-pv * (k * k))
            s2, s11 = s2 + t / (k * k), s11 - t
        m2[broad] = np.pi / 6.0 + (2.0 / np.pi) * s2
        m11[broad] = v * (2.0 * s11)  # not (2 v) s11, which overflows near the float max
    narrow = np.flatnonzero((flat > 0.0) & (flat < _THETA_MIN_VAR))
    counts = np.ceil(_TAIL_SIGMA * np.sqrt(flat[narrow]) / ELL + 0.5).astype(int) + n_cells_boost
    for n_cells in range(1 + n_cells_boost, 4 + n_cells_boost):  # 1 to 3 cells, plus the boost
        rows = narrow[counts == n_cells]
        if not rows.size:
            continue
        v = flat[rows, None]
        sd = np.sqrt(v)
        c = np.arange(n_cells + 1) * ELL
        edges = (np.arange(n_cells + 2) - 0.5) * ELL
        edges[0] = 0.0
        z = edges / sd
        tail = np.empty_like(z)
        tail[:, 0] = 0.5
        tail[:, 1:] = _normal_tail(z[:, 1:])
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
