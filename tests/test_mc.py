import numpy as np

from gkpmdi.channels import ProtocolParams, awgn_variance_preamp
from gkpmdi.finite_size import correlation_shift, kappa_from_eps
from gkpmdi.gkp import ELL, GkpAncilla, IDEAL, optimize_squeezing, syndrome_reduce
from gkpmdi.mc import (RngStream, mc_pe_coverage, mc_protocol_mutual_info,
                       mc_residual_variance)
from gkpmdi.security import conditioned_scalars


def test_stream_determinism():
    a = mc_residual_variance(0.4, 0.1, GkpAncilla(20.0), 200_000, RngStream(123, 4))
    b = mc_residual_variance(0.4, 0.1, GkpAncilla(20.0), 200_000, RngStream(123, 4))
    assert a == b  # bit-identical estimates


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
    cm = conditioned_scalars(ProtocolParams(l_a_km=1.0, l_b_km=10.0), 0.02, "gkp").cm
    frac = mc_pe_coverage(cm, m_pe=2_000, eps_pe=0.05, n_trials=2_000,
                          rng=RngStream(6))
    bound = 0.05 + 3.0 * np.sqrt(0.05 * 0.95 / 2_000)
    assert frac <= bound


def test_pe_coverage_deterministic():
    cm = conditioned_scalars(ProtocolParams(l_a_km=1.0, l_b_km=10.0), 0.02, "gkp").cm
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
    cm = conditioned_scalars(params, sr2, "gkp").cm
    m_pe, n = 200, 20_000
    for i, eps in enumerate((0.5, 2.0)):
        frac = mc_pe_coverage(cm, m_pe, eps, n, RngStream(11, i))
        ref = _pair_level_coverage(cm, m_pe, eps, n, RngStream(12, i).generator())
        p = 0.5 * (frac + ref)
        assert 0.01 < p < 0.5
        assert abs(frac - ref) <= 4.0 * np.sqrt(2.0 * p * (1.0 - p) / n)
