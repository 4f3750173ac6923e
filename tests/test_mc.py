import tracemalloc

import numpy as np

from gkpmdi.channels import ProtocolParams, awgn_variance_preamp
from gkpmdi.finite_size import correlation_shift, kappa_from_eps
from gkpmdi import mc
from gkpmdi.gkp import (ELL, GkpAncilla, IDEAL, effective_estimator_gain, optimize_squeezing,
                        syndrome_reduce)
from gkpmdi.mc import (McMutualInfo, McVariance, RngStream, mc_pe_coverage,
                       mc_protocol_mutual_info, mc_residual_variance)
from gkpmdi.security import fiber_link, link_scalars


def test_stream_determinism():
    a = mc_residual_variance(0.4, 0.1, GkpAncilla(20.0), 200_000, RngStream(123, 4))
    b = mc_residual_variance(0.4, 0.1, GkpAncilla(20.0), 200_000, RngStream(123, 4))
    assert a == b  # bit-identical estimates


def _residual_both_paths_at_once(r, sigma2, ancilla, n_samples, rng, chunk):
    """The sampler as it was before the p and q paths were split: every
    intermediate of a chunk is alive at once."""
    gen = rng.generator()
    c, s = np.cosh(r), np.sinh(r)
    phi = effective_estimator_gain(r, sigma2, ancilla)
    dsyn = np.sqrt(ancilla.syndrome_noise_variance)
    sd = np.sqrt(sigma2)
    sums, sums2, sums4 = np.zeros(2), np.zeros(2), np.zeros(2)
    done = 0
    while done < n_samples:
        m = min(chunk, n_samples - done)
        xi = gen.normal(0.0, sd, size=(4, m)) if sd > 0 else np.zeros((4, m))
        z_qd = c * xi[0] - s * xi[2]
        z_pd = c * xi[1] - s * xi[3]
        z_qa = c * xi[2] - s * xi[0]
        z_pa = c * xi[3] - s * xi[1]
        u1 = z_pa
        u2 = -z_qa
        if dsyn > 0:
            u1 = u1 + gen.normal(0.0, dsyn, size=m)
            u2 = u2 + gen.normal(0.0, dsyn, size=m)
        t1 = syndrome_reduce(u1)
        t2 = syndrome_reduce(u2)
        out_q = z_qd - phi * t2
        out_p = z_pd + phi * t1
        for k, arr in enumerate((out_q, out_p)):
            sq = arr * arr
            sums[k] += arr.sum()
            sums2[k] += sq.sum()
            sums4[k] += (sq * sq).sum()
        done += m
    n = float(n_samples)
    means = sums / n
    variances = sums2 / n - means**2
    stderr = np.sqrt(np.maximum(sums4 / n - variances**2, 0.0) / n)
    return McVariance(*(float(x) for x in (means[0], means[1], variances[0], variances[1],
                                           stderr[0], stderr[1])))


def test_residual_paths_in_turn_match_all_at_once(monkeypatch):
    # three full chunks and a partial one; blocks split every chunk and the
    # last block of each chunk is partial
    monkeypatch.setattr(mc, "_CHUNK", 3_000)
    monkeypatch.setattr(mc, "_BLOCK", 1024)
    for r, sigma2, ancilla in [(0.5, 0.129, GkpAncilla(20.0)),  # syndrome-noise draws
                               (0.46, 0.129, IDEAL),             # no syndrome noise
                               (0.5, 0.0, GkpAncilla(20.0))]:    # no channel noise
        rng = RngStream(7, 3)
        got = mc_residual_variance(r, sigma2, ancilla, 10_000, rng)
        want = _residual_both_paths_at_once(r, sigma2, ancilla, 10_000, rng, 3_000)
        assert got == want, (r, sigma2, ancilla)


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_residual_peak_memory_is_one_draw_buffer():
    # 32 bytes per sample of a chunk (30.5 MiB at 1e6) plus cache-sized block
    # temporaries; the outputs overwrite the data-mode draws
    peak = _traced_peak(lambda: mc_residual_variance(0.5, 0.129, GkpAncilla(20.0),
                                                     1_000_000, RngStream(0)))
    assert peak <= 33 * 2**20, peak / 2**20


def test_protocol_mi_peak_memory_is_nine_block_buffers():
    # 9 buffers of n/16 samples: 4.5 bytes per sample (4.29 MiB at 1e6)
    params = ProtocolParams(l_a_km=1.0, l_b_km=10.0)
    mc_protocol_mutual_info(params, 0.02, 1_000, RngStream(0))  # numpy.random's lazy import
    peak = _traced_peak(lambda: mc_protocol_mutual_info(params, 0.02, 1_000_000,
                                                        RngStream(0)))
    assert peak <= 4.5 * 2**20, peak / 2**20


def _mi_fresh_arrays(params, sigma_r2, n_samples, rng):
    """The mutual-information sampler on fresh arrays per block: the
    buffered kernel must reproduce its fields bit for bit."""
    gen = rng.generator()
    sa2, sb2 = params.sigma2_a, params.sigma2_b
    tau_b = params.tau_b
    theta = (sa2 + 2.0 * sigma_r2 + tau_b * sb2 + 2.0) / 2.0
    ca = -np.sqrt(0.5) * sa2 / theta
    cb = np.sqrt(tau_b / 2.0) * sb2 / theta
    block = n_samples // mc._MI_BLOCKS
    mis = []
    pooled = np.zeros(6)
    pooled_xr = 0.0
    pooled_yr = 0.0
    for _ in range(mc._MI_BLOCKS):
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
        mis.append(mc._gaussian_mi(stats))
    mis = np.asarray(mis)
    n_used = block * mc._MI_BLOCKS
    corr = 0.0
    for s2_key, cross in ((pooled[0], pooled_xr), (pooled[1], pooled_yr)):
        if s2_key > 0:
            corr = max(corr, abs(cross / n_used) / np.sqrt(s2_key / n_used * theta))
    return McMutualInfo(mutual_info=float(mc._gaussian_mi(pooled)),
                        stderr=float(mis.std(ddof=1) / np.sqrt(mc._MI_BLOCKS)),
                        corr_key_relay=float(corr))


def test_protocol_mi_buffers_match_fresh_arrays():
    for params, sigma_r2 in [(ProtocolParams(l_a_km=1.0, l_b_km=10.0), 0.02),
                             (ProtocolParams(l_a_km=1.0, l_b_km=10.0), 0.0),
                             (ProtocolParams(sigma2_a=0.0, sigma2_b=0.0, l_a_km=1.0,
                                             l_b_km=5.0), 0.0)]:
        rng = RngStream(5, 2)
        got = mc_protocol_mutual_info(params, sigma_r2, 50_003, rng)
        want = _mi_fresh_arrays(params, sigma_r2, 50_003, rng)
        assert vars(got) == vars(want), (params, sigma_r2)


def test_stream_independence():
    a = mc_residual_variance(0.4, 0.1, IDEAL, 100_000, RngStream(123, 1))
    b = mc_residual_variance(0.4, 0.1, IDEAL, 100_000, RngStream(123, 2))
    assert a != b
    c = mc_residual_variance(0.4, 0.1, IDEAL, 100_000, RngStream(124, 1))
    assert a != c


def test_residual_no_correction_limit():
    est = mc_residual_variance(0.0, 0.2, IDEAL, 400_000, RngStream(1))
    assert abs(est.variance - 0.2) < 3.0 * est.stderr
    assert abs(est.mean_q) < 3.0 * np.sqrt(0.2 / 400_000)


def test_residual_quadrature_symmetry():
    est = mc_residual_variance(0.5, 0.13, GkpAncilla(20.0), 500_000, RngStream(2))
    assert abs(est.var_q - est.var_p) < 3.0 * np.hypot(est.stderr_q, est.stderr_p)


def test_wrapped_syndromes_stay_in_interval():
    gen = RngStream(9, 0).generator()
    t = syndrome_reduce(gen.normal(0.0, 3.0, 100_000))
    assert np.all(np.abs(t) <= ELL / 2.0)


def test_protocol_mi_zero_modulation():
    p = ProtocolParams(sigma2_a=0.0, sigma2_b=0.0, l_a_km=1.0, l_b_km=5.0)
    est = mc_protocol_mutual_info(p, 0.0, 200_000, RngStream(4))
    assert est.mutual_info < 3.0 * est.stderr + 1e-4


def test_protocol_mi_relay_decorrelation():
    p = ProtocolParams(l_a_km=1.0, l_b_km=10.0)
    est = mc_protocol_mutual_info(p, 0.02, 400_000, RngStream(5))
    assert est.corr_key_relay < 0.01


def test_pe_coverage_within_bound():
    p = ProtocolParams(l_a_km=1.0, l_b_km=10.0)
    cm = link_scalars(fiber_link(p, 0.02, "gkp"), p).cm
    frac = mc_pe_coverage(cm, m_pe=2_000, eps_pe=0.05, n_trials=2_000,
                          rng=RngStream(6))
    bound = 0.05 + 3.0 * np.sqrt(0.05 * 0.95 / 2_000)
    assert frac <= bound


def test_pe_coverage_deterministic():
    p = ProtocolParams(l_a_km=1.0, l_b_km=10.0)
    cm = link_scalars(fiber_link(p, 0.02, "gkp"), p).cm
    f1 = mc_pe_coverage(cm, 1_000, 0.05, 500, RngStream(8, 3))
    f2 = mc_pe_coverage(cm, 1_000, 0.05, 500, RngStream(8, 3))
    assert f1 == f2


def _pair_level_coverage(cm, m_pe, eps_pe, n_trials, gen):
    """Failure fraction from explicit float64 (n_trials, m_pe) pairs per
    quadrature, with the same estimator and shifts as mc_pe_coverage."""
    kappa = kappa_from_eps(eps_pe)
    fail = np.zeros(n_trials, dtype=bool)
    for va, vb, c, sign in ((cm[0, 0], cm[2, 2], cm[0, 2], -1.0),
                            (cm[1, 1], cm[3, 3], cm[1, 3], +1.0)):
        k = np.sqrt(max(vb - c * c / va, 0.0))
        x = gen.standard_normal((n_trials, m_pe))
        b = (c / np.sqrt(va)) * x + k * gen.standard_normal((n_trials, m_pe))
        est = (np.sqrt(va) * x * b).sum(axis=1) / m_pe
        wc = est + sign * correlation_shift(va, vb, kappa, m_pe)
        fail |= (c < wc) if sign < 0 else (c > wc)
    return fail.mean()


def test_pe_coverage_matches_pair_level_simulation():
    # Loose eps_pe values put the failure fraction near 4 % and 21 %, so the
    # sampled law of (sum x^2, sum x y) is exercised, not only the bound.
    params = ProtocolParams(l_a_km=1.0, l_b_km=10.0)
    _, sr2 = optimize_squeezing(awgn_variance_preamp(params.tau_a), GkpAncilla(20.0))
    cm = link_scalars(fiber_link(params, sr2, "gkp"), params).cm
    m_pe, n = 200, 20_000
    for i, eps in enumerate((0.5, 2.0)):
        frac = mc_pe_coverage(cm, m_pe, eps, n, RngStream(11, i))
        ref = _pair_level_coverage(cm, m_pe, eps, n, RngStream(12, i).generator())
        p = 0.5 * (frac + ref)
        assert 0.01 < p < 0.5
        assert abs(frac - ref) <= 4.0 * np.sqrt(2.0 * p * (1.0 - p) / n)
