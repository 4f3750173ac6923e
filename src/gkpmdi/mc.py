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

# samples per chunk of draws.  Not shrunk to save memory: a chunk's draws
# come as one (4, m) array, so the chunk size fixes which random number lands
# on which sample, and with it every residual estimate
_CHUNK = 1_000_000
_BLOCK = 1 << 14  # samples per cache-resident block of a chunk; the estimates do not depend on it
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
    # the only chunk-sized array is the channel noise of a chunk: each
    # block's output overwrites the data-mode draws it is formed from, and a
    # block's temporaries stay in cache
    size = min(_CHUNK, n_samples)
    draws = np.empty(4 * size)
    scratch, spare = np.empty((2, min(_BLOCK, size)))
    done = 0
    while done < n_samples:
        m = min(size, n_samples - done)
        xi = draws[:4 * m].reshape(4, m)
        if sd > 0:
            gen.standard_normal(out=xi)  # scaled: bit for bit gen.normal(0, sd, (4, m))
            xi *= sd
        else:
            xi.fill(0.0)  # the last chunk's outputs are still in the data rows
        # xi rows: q and p of the data mode d, then of the ancilla mode a.
        # The p output (z_pd + phi t1, u1 = z_pa), then the q output
        # (z_qd - phi t2, u2 = -z_qa); the syndrome-noise draws keep their order
        for d, a, sign in ((1, 3, 1.0), (0, 2, -1.0)):
            for i in range(0, m, _BLOCK):
                j = min(i + _BLOCK, m)
                xd, xa, u, v = xi[d, i:j], xi[a, i:j], scratch[:j - i], spare[:j - i]
                np.multiply(xa, c, out=u)
                np.multiply(xd, s, out=v)
                u -= v                                        # z_a = c x_a - s x_d
                if sign < 0:
                    np.negative(u, out=u)
                if dsyn > 0:
                    # the ancilla readout, broadened by syndrome noise
                    gen.standard_normal(out=v)
                    v *= dsyn
                    u += v
                t = syndrome_reduce(u)
                np.multiply(xa, s, out=u)
                xd *= c
                xd -= u                                       # z_d = c x_d - s x_a
                t *= sign * phi
                xd += t                                       # the output, over x_d
            o = xi[d]
            sums[d] += o.sum()
            o *= o
            sums2[d] += o.sum()
            o *= o
            sums4[d] += o.sum()
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
    k_a, k_b = np.sqrt(0.5), np.sqrt(tau_b / 2.0)  # relay weights of A and of B
    ca = -k_a * sa2 / theta          # q_A coefficient on the q outcome
    cb = k_b * sb2 / theta           # q_B coefficient on the q outcome
    block = n_samples // _MI_BLOCKS
    # qr and pr are drawn as the shot noise and become the relay outcomes;
    # dq and dp are drawn as the correction noise (if any) and become
    # k_a (qa + dq) and k_a (pa + dp)
    qa, pa, qb, pb, dq, dp, qr, pr, scratch = np.empty((9, block))
    sd_a, sd_b, sd_r = np.sqrt(sa2), np.sqrt(sb2), np.sqrt(2.0 * sigma_r2)
    # every block's draws, in this order
    draws = [(qa, sd_a), (pa, sd_a), (qb, sd_b), (pb, sd_b)]
    if sigma_r2 > 0:
        draws += [(dq, sd_r), (dp, sd_r)]
        noise_q, noise_p = dq, dp
    else:
        noise_q = noise_p = 0.0
    draws += [(qr, 1.0), (pr, 1.0)]

    def dot(x, y):
        return np.multiply(x, y, out=scratch).sum()

    mis = []
    pooled = np.zeros(6)  # sums of x^2, y^2, xy per quadrature pair (q then p)
    pooled_xr = 0.0
    pooled_yr = 0.0
    for _ in range(_MI_BLOCKS):
        for buf, sd in draws:
            gen.standard_normal(out=buf)  # scaled: bit for bit gen.normal(0, sd, block)
            buf *= sd
        np.multiply(np.add(qa, noise_q, out=dq), k_a, out=dq)
        qr += np.subtract(np.multiply(qb, k_b, out=scratch), dq, out=scratch)
        # qr = shot + (k_b qb - k_a (qa + dq)), the same sum in either order
        np.multiply(np.add(pa, noise_p, out=dp), k_a, out=dp)
        pr += np.add(np.multiply(pb, k_b, out=scratch), dp, out=scratch)
        # pr = shot + (k_b pb + k_a (pa + dp))
        qa -= np.multiply(qr, ca, out=scratch)      # the displaced keys, in place:
        qb -= np.multiply(qr, cb, out=scratch)      # qx, qy, px, py
        pa += np.multiply(pr, ca, out=scratch)
        pb -= np.multiply(pr, cb, out=scratch)
        stats = np.array([dot(qa, qa), dot(qb, qb), dot(qa, qb),
                          dot(pa, pa), dot(pb, pb), dot(pa, pb)])
        pooled += stats
        pooled_xr += dot(qa, qr)
        pooled_yr += dot(qb, qr)
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
