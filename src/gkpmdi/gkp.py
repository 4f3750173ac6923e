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
(zero for an ideal one).  The corrected output is a - phi * wrap(w).  With
D = w - wrap(w) the lattice shift (n ell on lattice cell n), that output is
(a - phi w) + phi D, the first part independent of w, so its variance is a
sum of two non-negative terms.  The only non-Gaussian one, E[D^2], is
evaluated without quadrature in one of two exact forms: for a narrow
syndrome (Var(w) < 1/2) a sum of normal tails over three lattice cells, for
a broad one the Fourier (theta) series of the wrapped normal, five terms of
exponentials.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import _as_output

ELL = np.sqrt(2.0 * np.pi)  # square-lattice pitch

# Var(w) from which the theta series replaces the cell sum.  Below it three
# cells suffice, and every cell edge but 0 has z >= sqrt(pi).
_THETA_MIN_VAR = 0.5
_HALF_CELLS = np.array([[0.5], [1.5], [2.5]])  # upper edges of cells 0 to 2, in ell
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
_R_LIMIT = _MAXLOG / 2.0  # largest squeezing r with a finite exp(2r), and so cosh 2r


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
        if self.squeezing_db is not None and not 0 < self.squeezing_db < np.inf:
            raise ValueError("finite ancilla squeezing must be finite and > 0 dB")

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


IDEAL = GkpAncilla(None)


def effective_estimator_gain(r, sigma2, ancilla: GkpAncilla = IDEAL):
    """Per-quadrature regression gain of data noise on the pre-wrap syndrome.

    Equals tanh(2r) for an ideal ancilla and is reduced by the syndrome
    broadening of a finitely squeezed one; 0 where Var(w) = 0.  ``r`` and
    ``sigma2`` broadcast together; scalars give a float.
    """
    r, sigma2 = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(sigma2, dtype=float))
    var_w = sigma2 * np.cosh(2.0 * r) + ancilla.syndrome_noise_variance
    return _as_output(np.divide(sigma2 * np.sinh(2.0 * r), var_w, out=np.zeros_like(var_w),
                                where=var_w > 0.0))


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
    return np.where(xp * xp > _MAXLOG, 0.0, 0.5 * y)


def _shift_terms(var):
    """E[D^2] and its first two derivatives in ``var``, elementwise over a
    flat array of positive variances (unchecked).

    Narrow branch, with c_n = (n - 1/2) ell, z_n = c_n / sqrt(var) and
    pdf the standard normal density (z^3 / c^2 = var^(-3/2) / c, and so on):

        E'  = ell^2 sum_n (2n - 1) pdf(z_n) z_n^3 / c_n^2,
        E'' = (ell^2 / 2) sum_n (2n - 1) pdf(z_n) (z_n^2 - 3) z_n^5 / c_n^4;

    past z = 40 the density underflows to 0, so z is capped there.  Theta
    branch: E' = 1 + sum_k (-1)^k q_k (2 - 4 pi k^2 var) and
    E'' = sum_k (-1)^k q_k pi k^2 (4 pi k^2 var - 6).
    """
    shift, d1, d2 = np.zeros_like(var), np.zeros_like(var), np.zeros_like(var)
    broad = var >= _THETA_MIN_VAR
    if np.any(broad):
        v = var[broad]
        vc = np.minimum(v, 300.0)  # every q_k underflows past 240: keeps 4 vc finite
        s = s1 = s2 = 0.0
        for k in range(_THETA_TERMS, 0, -1):  # smallest term first
            qk = (-1.0) ** k * np.exp(-np.pi * vc * (k * k))
            s = s + qk * (2.0 / (np.pi * k * k) + 4.0 * vc)
            s1 = s1 + qk * (2.0 - 4.0 * np.pi * k * k * vc)
            s2 = s2 + qk * (np.pi * k * k * (4.0 * np.pi * k * k * vc - 6.0))
        shift[broad], d1[broad], d2[broad] = v + np.pi / 6.0 + s, 1.0 + s1, s2
    narrow = ~broad
    if np.any(narrow):
        z = _HALF_CELLS * ELL / np.sqrt(var[narrow])
        t1, t3, t5 = _normal_tail(z)
        shift[narrow] = 2.0 * ELL**2 * ((5.0 * t5 + 3.0 * t3) + t1)
        zc, c2 = np.minimum(z, 40.0), (_HALF_CELLS * ELL) ** 2
        p = np.exp(-0.5 * zc * zc) / np.sqrt(2.0 * np.pi) * zc**3 / c2  # pdf z^3 / c^2
        q = p * (zc * zc - 3.0) * zc * zc / c2
        d1[narrow] = ELL**2 * ((5.0 * p[2] + 3.0 * p[1]) + p[0])
        d2[narrow] = 0.5 * ELL**2 * ((5.0 * q[2] + 3.0 * q[1]) + q[0])
    return shift, d1, d2


def lattice_shift_variance(var_w):
    """E[D^2] for the lattice shift D = w - wrap(w) of w ~ N(0, var_w).

    D = n ell on lattice cell n, where w lies in [(n - 1/2) ell, (n + 1/2) ell].
    Narrow syndromes (0 < var_w < 1/2) sum n^2 ell^2 P(cell n) by parts into
    positive terms, with sd = sqrt(var_w):

        E[D^2] = 2 ell^2 sum_{n >= 1} (2n - 1) Phi(-(n - 1/2) ell / sd),

    kept to n = 3; the n = 4 term is below 1e-32 of the first.  Every
    argument is at least sqrt(pi) standard deviations out, where
    :func:`_normal_tail` applies.

    Broad syndromes (var_w >= 1/2) use the theta series of the wrapped
    normal (Mardia & Jupp, Directional Statistics, 2000), with q_k =
    exp(-pi k^2 var_w):

        E[D^2] = var_w + pi/6 + sum_k (-1)^k q_k (2 / (pi k^2) + 4 var_w),

    summed to k = 5; the neglected terms are below exp(-18 pi) ~ 3e-25.
    Any finite variance converges: past var_w ~ 240 every q_k underflows
    and E[D^2] is var_w + pi/6.

    ``var_w`` may be an array; a scalar gives a float.  Each element's
    arithmetic is independent of its batch.  A NaN, infinite or negative
    variance raises ValueError.
    """
    var = np.asarray(var_w, dtype=float)
    if not np.all(np.isfinite(var)):
        raise ValueError("variance must be finite")
    if np.any(var < 0):
        raise ValueError("variance must be >= 0")
    flat = var.ravel()
    out = np.zeros_like(flat)
    pos = flat > 0.0
    if np.any(pos):
        out[pos] = _shift_terms(flat[pos])[0]
    return _as_output(out.reshape(var.shape))


def residual_variance(r, sigma2, ancilla: GkpAncilla = IDEAL):
    """Per-quadrature variance of the data noise after the corrective shift.

    With phi = Cov(a, w)/Var(w) the regression gain of the data noise on the
    pre-wrap syndrome and D = w - wrap(w) the lattice shift, the corrected
    noise is a - phi wrap(w) = (a - phi w) + phi D, and a - phi w is
    independent of w.  The variance is therefore a sum of two non-negative
    terms, neither formed by cancellation:

        sigma^2 (sigma^2 + delta_syn^2 cosh 2r) / Var(w) + phi^2 E[D^2],

    the first being Var(a) - Cov(a, w)^2 / Var(w) and the second
    :func:`lattice_shift_variance`.  At r = 0 the gain vanishes and the
    channel noise is returned unchanged.  ``r`` and ``sigma2`` broadcast
    together; scalars give a float.  An r outside [0, _R_LIMIT], where
    cosh 2r is finite, raises ValueError.
    """
    r, sigma2 = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(sigma2, dtype=float))
    if not np.all((r >= 0) & (r <= _R_LIMIT)):
        raise ValueError(f"r must be in [0, {_R_LIMIT:.1f}]: cosh 2r overflows past it")
    if np.any(sigma2 < 0):
        raise ValueError("sigma2 must be >= 0")
    c2r = np.cosh(2.0 * r)
    out = np.asarray(sigma2 * c2r)  # Var(a): the result where phi = 0
    cov = sigma2 * np.sinh(2.0 * r)
    live = cov != 0.0
    if np.any(live):
        s2, c2r, cov = sigma2[live], c2r[live], cov[live]
        noise = ancilla.syndrome_noise_variance
        var_w = out[live] + noise
        shift = lattice_shift_variance(var_w)  # raises first on a NaN or infinite var_w
        phi = cov / var_w
        out[live] = s2 * ((s2 + noise * c2r) / var_w) + phi * phi * shift
    return _as_output(out)


def _log_slope_ratio(r, s2, noise):
    """ln(P/N) and its derivative in r, elementwise (unchecked: needs
    s2 > noise >= 0 and r in [0, _R_LIMIT]).

    With W = Var(w), phi the regression gain and E the lattice-shift
    variance, the slope of :func:`residual_variance` splits as
    dV/dr = 2 phi (P - N) into a rising part P = phi' E + phi^2 W E'(W),
    the growing wrap error, and a falling part N = (s2^2 - noise^2) / W > 0,
    the shrinking Gaussian error; phi' = 2 s2 (s2 + noise cosh 2r) / W^2.
    So ln(P/N) has the sign of the slope for r > 0, and unlike the slope it
    is not 0 at r = 0 and is nearly linear where P varies super-
    exponentially (a tiny syndrome variance).  With phi'' = 4 phi (noise/W
    - phi') and W' = 2 phi W,

        P' = phi (4 (noise/W - phi') E + 4 phi' W E' + 2 phi^2 W (E' + W E'')),
        N' = -2 phi N.

    P, P' and N are formed divided by W, which keeps them finite for any
    finite W.  Where E underflows, P = 0 and the log is -inf, with
    derivative 0.
    """
    c2r = np.cosh(2.0 * r)
    var_w = s2 * c2r + noise
    shift, d1, d2 = _shift_terms(var_w)
    phi = s2 * np.sinh(2.0 * r) / var_w
    t, e = noise / var_w, shift / var_w
    dphi = 2.0 * ((s2 / var_w) ** 2 + (s2 * c2r / var_w) * t)
    rise = dphi * e + phi * phi * d1  # P / W
    drise = 4.0 * (t - dphi) * e + 4.0 * dphi * d1 + 2.0 * phi * phi * (d1 + d2 * var_w)  # P' / (phi W)
    log_fall = np.log(s2 - noise) + np.log(s2 + noise) - 2.0 * np.log(var_w)  # ln(N / W)
    has = rise > 0.0
    ratio = np.log(rise, out=np.full_like(rise, -np.inf), where=has) - log_fall
    slope = np.where(has, phi * (np.divide(drise, rise, out=np.zeros_like(rise), where=has) + 2.0), 0.0)
    return ratio, slope


_R_MAX = 3.0  # the initial search window is [0, _R_MAX]
# syndrome variance of the first interior iterate: the optimum's lies at
# 0.014-0.3 for sigma2 from 1e-12 to 0.3, ideal to 40 dB
_W_START = 0.1
# A gain below this fraction of sigma2 is a few thousand ulps: it is reported
# as no gain rather than as an optimum.
_NO_GAIN_RTOL = 1e-12


def optimize_squeezing(sigma2, ancilla: GkpAncilla = IDEAL):
    """Minimize residual_variance over r >= 0, elementwise over ``sigma2``.

    The residual is even and unimodal in r.  So r = 0 is the minimum
    unless the slope is negative just past it, which needs sigma2 above the
    syndrome noise and ln(P/N) < 0 at r = 0 (see :func:`_log_slope_ratio`).
    Elsewhere a window [0, b] brackets the minimum once ln(P/N) >= 0 at b:
    b starts at 3 and doubles (up to _R_LIMIT) while the slope at b is
    still negative.  A safeguarded Newton iteration on ln(P/N) then finds
    the root, starting where the syndrome variance reaches _W_START.  The
    Newton step is taken in u = ln cosh^2 r, in which ln(P/N) is close to
    linear both near r = 0 (where it goes as r^2) and far out (as 2r); it
    falls back to bisection in r when the step leaves the bracket or is
    more than half the step before last.  It stops at a step below 1e-13
    of r or a bracket of 1e-10, typically after 4 to 6 evaluations.

    Returns (r_opt, residual_variance(r_opt)) shaped like ``sigma2``
    (floats for a scalar); where coding gains less than 1e-12 of sigma2,
    that is (0, sigma2), so a noiseless channel (sigma2 = 0) gives (0, 0).
    A negative or non-finite sigma2 raises ValueError.
    """
    shape = np.shape(sigma2)
    noise = np.asarray(sigma2, dtype=float).ravel()
    if not np.all(np.isfinite(noise)):
        raise ValueError("sigma2 must be finite")
    if not np.all(noise >= 0):
        raise ValueError("sigma2 must be >= 0")
    # a subnormal sigma2 keeps no relative precision through the residual:
    # it is searched as 0, which gives no gain
    s2 = np.where(noise < np.finfo(float).tiny, 0.0, noise)
    syn = ancilla.syndrome_noise_variance
    r, f, df = np.zeros_like(s2), np.zeros_like(s2), np.zeros_like(s2)
    live = np.flatnonzero(s2 > syn)
    f[live] = _log_slope_ratio(np.zeros(live.size), s2[live], syn)[0]
    live = live[f[live] < 0.0]
    a, b = np.zeros_like(s2), np.full_like(s2, _R_MAX)
    todo = live
    while todo.size:
        r[todo] = b[todo]
        f[todo] = _log_slope_ratio(b[todo], s2[todo], syn)[0]
        todo = todo[(f[todo] < 0.0) & (b[todo] < _R_LIMIT)]
        a[todo] = b[todo]
        b[todo] = np.minimum(2.0 * b[todo], _R_LIMIT)
    act = live[f[live] > 0.0]  # elsewhere r = b: a root there, or the minimum at _R_LIMIT
    aa, ba = a[act], b[act]
    x = np.clip(0.5 * np.arccosh(np.maximum((_W_START - syn) / s2[act], 1.0)),
                aa + (ba - aa) / 8.0, 0.5 * (aa + ba))
    step, last = b - a, b - a  # the bracket width stands in for the steps before the first
    while act.size:
        r[act] = x
        f[act], df[act] = _log_slope_ratio(x, s2[act], syn)
        left = f[act] < 0.0
        a[act[left]], b[act[~left]] = x[left], x[~left]
        act = act[(f[act] != 0.0) & (b[act] - a[act] > 1e-10)]
        x, aa, ba = r[act], a[act], b[act]
        du = np.divide(2.0 * np.tanh(x) * f[act], df[act], out=np.full_like(x, np.inf),
                       where=df[act] > 0.0)
        u = np.clip(np.log1p(np.sinh(x) ** 2) - du, 0.0, 709.0)  # expm1 stays finite
        newton = np.arcsinh(np.sqrt(np.expm1(u)))
        done = np.abs(newton - x) <= 1e-13 * x
        ok = (aa < newton) & (newton < ba) & (2.0 * np.abs(newton - x) <= last[act])
        nxt = np.where(ok, newton, 0.5 * (aa + ba))
        last[act], step[act] = step[act], np.abs(nxt - x)
        act, x = act[~done], nxt[~done]
    v = s2.copy()
    if live.size:
        v[live] = residual_variance(r[live], s2[live], ancilla)
    no_gain = v >= s2 * (1.0 - _NO_GAIN_RTOL)
    r[no_gain], v[no_gain] = 0.0, noise[no_gain]
    return _as_output(r.reshape(shape)), _as_output(v.reshape(shape))


def lower_bound_variance(sigma2):
    """Capacity-based floor for single-layer correction: s^4 / (e (1-s^2)^2)."""
    if not np.all((sigma2 >= 0.0) & (sigma2 < 1.0)):
        raise ValueError("sigma2 must be in [0, 1)")
    return sigma2 ** 2 / (np.e * (1.0 - sigma2) ** 2)


def concat_variance(sigma_r2_single, layers):
    """Accumulated residual of ``layers`` identical one-by-one layers."""
    if not np.all((layers >= 1) & (layers == np.floor(layers))):
        raise ValueError("layer count must be a positive integer")
    return layers * sigma_r2_single

