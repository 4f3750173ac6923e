"""Quadrature-level Monte Carlo oracles for the analytic pipeline.

Every oracle consumes an :class:`RngStream`, a (seed, stream_id) pair mapped
to an independent deterministic generator: identical pairs reproduce draws
bit for bit, distinct stream ids are statistically independent.  Estimates
carry standard errors; comparisons against analytic values should use
three-sigma bands.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .finite_size import correlation_shift, kappa_from_eps
from .gkp import GkpAncilla, IDEAL, effective_estimator_gain, syndrome_reduce

_CHUNK = 1_000_000
_MI_BLOCKS = 16  # block means behind the mutual-information standard error


@dataclass(frozen=True)
class RngStream:
    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence([self.seed, self.stream_id]))


@dataclass(frozen=True)
class McVariance:
    mean_q: float
    mean_p: float
    var_q: float
    var_p: float
    stderr_q: float
    stderr_p: float

    @property
    def variance(self) -> float:
        return 0.5 * (self.var_q + self.var_p)

    @property
    def stderr(self) -> float:
        return 0.5 * np.hypot(self.stderr_q, self.stderr_p)


def mc_residual_variance(r: float, sigma2: float, ancilla: GkpAncilla = IDEAL,
                         n_samples: int = 1_000_000,
                         rng: RngStream = RngStream(0)) -> McVariance:
    """Residual error variance estimated by simulating the code sample-wise.

    Draws channel noise on the encoded pair, undoes the two-mode squeezer,
    reads the ancilla modulo the lattice pitch (with syndrome broadening for
    a finite ancilla), applies the linear corrective displacement and
    accumulates the output moments per quadrature.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    gen = rng.generator()
    c, s = np.cosh(r), np.sinh(r)
    phi = effective_estimator_gain(r, sigma2, ancilla)
    dsyn = np.sqrt(ancilla.syndrome_noise_variance)
    sd = np.sqrt(sigma2)
    sums = np.zeros(2)
    sums2 = np.zeros(2)
    sums4 = np.zeros(2)

    def accumulate(k, out):
        sq = out * out
        sums[k] += out.sum()
        sums2[k] += sq.sum()
        sums4[k] += (sq * sq).sum()

    def wrapped(u):
        # the ancilla readout, broadened by syndrome noise, modulo the lattice
        if dsyn > 0:
            u = u + gen.normal(0.0, dsyn, size=u.shape)
        return syndrome_reduce(u)

    done = 0
    while done < n_samples:
        m = min(_CHUNK, n_samples - done)
        xi = gen.normal(0.0, sd, size=(4, m)) if sd > 0 else np.zeros((4, m))
        # the p output, then the q output: only one path's temporaries are
        # alive at a time, and the syndrome-noise draws keep their order
        t1 = wrapped(c * xi[3] - s * xi[1])                   # u1 = z_pa
        accumulate(1, c * xi[1] - s * xi[3] + phi * t1)       # z_pd + phi t1
        del t1
        t2 = wrapped(-(c * xi[2] - s * xi[0]))                # u2 = -z_qa
        accumulate(0, c * xi[0] - s * xi[2] - phi * t2)       # z_qd - phi t2
        del t2, xi
        done += m
    n = float(n_samples)
    means = sums / n
    variances = sums2 / n - means**2
    m4 = sums4 / n
    stderr = np.sqrt(np.maximum(m4 - variances**2, 0.0) / n)
    return McVariance(mean_q=float(means[0]), mean_p=float(means[1]),
                      var_q=float(variances[0]), var_p=float(variances[1]),
                      stderr_q=float(stderr[0]), stderr_p=float(stderr[1]))


@dataclass(frozen=True)
class McMutualInfo:
    mutual_info: float
    stderr: float
    corr_key_relay: float  # largest |sample correlation| of either key with the outcome


def mc_protocol_mutual_info(params, sigma_r2: float, n_samples: int = 1_000_000,
                            rng: RngStream = RngStream(0)) -> McMutualInfo:
    """Raw-key mutual information from a protocol-level simulation.

    Simulates the compensated configuration: Gaussian-modulated inputs, the
    relay's two quadrature outcomes built from the transmitted quadratures
    plus unit shot noise, residual correction noise of variance 2*sigma_r2
    (vacuum-1 units) on the A side, and the optimal conditional displacements
    with their analytically known coefficients.  The estimate is the
    two-quadrature Gaussian mutual information of the displaced keys from
    sample covariances; the standard error comes from block means.
    """
    if n_samples < _MI_BLOCKS * 10:
        raise ValueError("n_samples too small for block error estimation")
    gen = rng.generator()
    sa2, sb2 = params.sigma2_a, params.sigma2_b
    tau_b = params.tau_b
    theta = (sa2 + 2.0 * sigma_r2 + tau_b * sb2 + 2.0) / 2.0
    ca = -np.sqrt(0.5) * sa2 / theta          # q_A coefficient on the q outcome
    cb = np.sqrt(tau_b / 2.0) * sb2 / theta   # q_B coefficient on the q outcome
    block = n_samples // _MI_BLOCKS
    mis = []
    pooled = np.zeros(6)  # sums of x^2, y^2, xy per quadrature pair (q then p)
    pooled_xr = 0.0
    pooled_yr = 0.0
    for _ in range(_MI_BLOCKS):
        qa = gen.normal(0.0, np.sqrt(sa2), block)
        pa = gen.normal(0.0, np.sqrt(sa2), block)
        qb = gen.normal(0.0, np.sqrt(sb2), block)
        pb = gen.normal(0.0, np.sqrt(sb2), block)
        dq = gen.normal(0.0, np.sqrt(2.0 * sigma_r2), block) if sigma_r2 > 0 else 0.0
        dp = gen.normal(0.0, np.sqrt(2.0 * sigma_r2), block) if sigma_r2 > 0 else 0.0
        qr = np.sqrt(tau_b / 2.0) * qb - np.sqrt(0.5) * (qa + dq) + gen.normal(0.0, 1.0, block)
        pr = np.sqrt(tau_b / 2.0) * pb + np.sqrt(0.5) * (pa + dp) + gen.normal(0.0, 1.0, block)
        qx = qa - ca * qr
        qy = qb - cb * qr
        px = pa + ca * pr
        py = pb - cb * pr
        stats = np.array([(qx * qx).sum(), (qy * qy).sum(), (qx * qy).sum(),
                          (px * px).sum(), (py * py).sum(), (px * py).sum()])
        pooled += stats
        pooled_xr += (qx * qr).sum()
        pooled_yr += (qy * qr).sum()
        mis.append(_gaussian_mi(stats))
    mis = np.asarray(mis)
    mi = _gaussian_mi(pooled)
    stderr = float(mis.std(ddof=1) / np.sqrt(_MI_BLOCKS))
    n_used = block * _MI_BLOCKS
    corr = 0.0
    for s2_key, cross in ((pooled[0], pooled_xr), (pooled[1], pooled_yr)):
        if s2_key > 0:
            corr = max(corr, abs(cross / n_used) / np.sqrt(s2_key / n_used * theta))
    return McMutualInfo(mutual_info=float(mi), stderr=stderr, corr_key_relay=float(corr))


def _gaussian_mi(stats: np.ndarray) -> float:
    """Two-quadrature Gaussian mutual information from second-moment sums;
    degenerate (zero-variance) keys carry no information."""
    out = 0.0
    for sx, sy, sxy in ((stats[0], stats[1], stats[2]), (stats[3], stats[4], stats[5])):
        if sx <= 0.0 or sy <= 0.0:
            continue
        rho2 = sxy * sxy / (sx * sy)
        out += -0.5 * np.log2(1.0 - rho2)
    return out


def mc_pe_coverage(true_cm: np.ndarray, m_pe: int, eps_pe: float,
                   n_trials: int = 10_000, rng: RngStream = RngStream(0)) -> float:
    """Fraction of simulated estimation rounds whose worst-case bound fails.

    Each round stands for m_pe correlated Gaussian pairs per quadrature,
    (a, b) = (sqrt(va) x, (c/sqrt(va)) x + k y) with x, y iid N(0, 1).  The
    cross-moment estimator reads the pairs only through sxx = sum x^2 and
    sxy = sum x y, so those are drawn from their exact joint law (the
    Bartlett decomposition of a 2x2 Wishart matrix): sxx ~ chi^2(m_pe) and,
    given sxx, sxy ~ N(0, sxx).  The estimate is shifted by the tail-bound
    margin (local variances taken as known) and the round fails when the true
    correlation is worse than the shifted estimate; q is drawn before p.  The
    guarantee is a failure fraction of at most eps_pe.
    """
    v = np.asarray(true_cm, dtype=float)
    kappa = kappa_from_eps(eps_pe)
    gen = rng.generator()
    fail = np.zeros(n_trials, dtype=bool)
    for va, vb, c, sign in ((v[0, 0], v[2, 2], v[0, 2], -1.0),   # q: bound from below
                            (v[1, 1], v[3, 3], v[1, 3], +1.0)):  # p: bound from above
        sxx = gen.chisquare(m_pe, n_trials)
        sxy = np.sqrt(sxx) * gen.standard_normal(n_trials)
        k = np.sqrt(max(vb - c * c / va, 0.0))
        est = (c * sxx + np.sqrt(va) * k * sxy) / m_pe
        wc = est + sign * correlation_shift(va, vb, kappa, m_pe)
        fail |= (c < wc) if sign < 0 else (c > wc)
    return float(fail.mean())
