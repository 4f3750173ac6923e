import numpy as np
import pytest
from scipy.integrate import quad

from gkpmdi.channels import ProtocolParams
from gkpmdi.fading import (CodePolicy, FadingConfig, average_composable_rate,
                           fading_cdf, fading_pdf, fading_quantile, fading_scalars,
                           mean_residual_variance, mean_transmittance,
                           pointing_wander_variance, sample_transmittance,
                           sigma_r2_of_tau, xi_integral)
from gkpmdi.finite_size import FiniteSizeParams, composable_rate
from gkpmdi.gkp import GkpAncilla, optimize_squeezing, residual_variance
from gkpmdi.mc import RngStream
from matrix_oracle import conditioned_state, symplectic_eigenvalues

CFG = FadingConfig(tau0=0.95, gamma0=1.5, r0_m=0.02, sigma_bw2_m2=1e-6)
POLICY = CodePolicy(ancilla=GkpAncilla(20.0))
PARAMS = ProtocolParams(l_a_km=1.0, l_b_km=8.0)


def test_pointing_wander_variance():
    assert pointing_wander_variance(1.0, 1.0) == pytest.approx(1e-6, rel=1e-12)
    assert pointing_wander_variance(1.0, 0.0) == 0.0
    assert pointing_wander_variance(2.0, 1.0) == pytest.approx(4e-6, rel=1e-12)


def test_pdf_normalizes():
    for cfg in (CFG,
                FadingConfig(tau0=0.99465, gamma0=1.2, r0_m=0.022195, sigma_bw2_m2=1e-6),
                FadingConfig(tau0=0.7, gamma0=2.0, r0_m=0.01, sigma_bw2_m2=4e-6)):
        total, _ = quad(lambda t: fading_pdf(t, cfg), 0.0, cfg.tau0, limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)


def test_pdf_support():
    assert fading_pdf(CFG.tau0 * 1.01, CFG) == 0.0
    assert fading_pdf(-0.1, CFG) == 0.0
    assert fading_pdf(1e-9, CFG) < 1e-12  # vanishes toward zero transmittance


def test_cdf_closed_form_weibull_case():
    cfg = FadingConfig(tau0=0.9, gamma0=2.0, r0_m=0.015, sigma_bw2_m2=1e-6)
    assert fading_cdf(cfg.tau0, cfg) == pytest.approx(1.0, rel=1e-12)
    expo = cfg.r0_m**2 / (2.0 * cfg.sigma_bw2_m2)
    for t in (0.3, 0.6, 0.85):
        assert fading_cdf(t, cfg) == pytest.approx((t / cfg.tau0) ** expo, rel=1e-10)


def test_cdf_matches_pdf_integral():
    t = 0.8
    num, _ = quad(lambda x: fading_pdf(x, CFG), 0.0, t, limit=200)
    assert fading_cdf(t, CFG) == pytest.approx(num, abs=1e-8)


def test_quantile_inverts_cdf():
    us = np.linspace(0.01, 0.99, 25)
    taus = fading_quantile(us, CFG)
    assert np.allclose(fading_cdf(taus, CFG), us, atol=1e-12)


def test_sampling_matches_cdf():
    gen = RngStream(11).generator()
    taus = sample_transmittance(CFG, 200_000, gen)
    assert np.all((taus > 0) & (taus <= CFG.tau0))
    emp = np.mean(taus <= 0.9)
    assert emp == pytest.approx(fading_cdf(0.9, CFG), abs=3.0 * np.sqrt(0.25 / 200_000) + 1e-3)


def _point_mass(tau_star):
    # vanishing wander concentrates the law at tau0
    return FadingConfig(tau0=tau_star, gamma0=2.0, r0_m=0.02, sigma_bw2_m2=1e-30)


def test_xi_point_mass_limit():
    cfg = _point_mass(0.92)
    s2 = 1.0 - cfg.tau0
    _, sr2 = optimize_squeezing(s2, POLICY.ancilla)
    xi = xi_integral(cfg, PARAMS, POLICY)
    expected = 1.0 / (PARAMS.sigma2_a + 2.0 * sr2 + PARAMS.tau_b * PARAMS.sigma2_b + 2.0)
    assert xi == pytest.approx(expected, rel=1e-9)


def test_xi_dynamic_beats_fixed():
    xi_dyn = xi_integral(CFG, PARAMS, POLICY)
    for r in (0.1, 0.4, 0.8):
        xi_fix = xi_integral(CFG, PARAMS, CodePolicy(ancilla=POLICY.ancilla, fixed_r=r))
        assert xi_dyn >= xi_fix - 1e-12


def _expect_by_quad(integrand):
    # adaptive quadrature in tau against the density: independent of the
    # quantile map and of the Gauss-Legendre nodes the library integrates on
    total, _ = quad(lambda t: fading_pdf(t, CFG) * integrand(t), 0.0, CFG.tau0,
                    limit=200, epsabs=0.0, epsrel=1e-10)
    return total


def test_xi_against_quad():
    denom = PARAMS.sigma2_a + PARAMS.tau_b * PARAMS.sigma2_b + 2.0
    expected = _expect_by_quad(lambda t: 1.0 / (denom + 2.0 * sigma_r2_of_tau(CFG, POLICY, t)))
    assert xi_integral(CFG, PARAMS, POLICY) == pytest.approx(expected, rel=1e-7)


def test_xi_node_doubling_stability():
    a = xi_integral(CFG, PARAMS, POLICY, n_panels=64)
    b = xi_integral(CFG, PARAMS, POLICY, n_panels=128)
    assert abs(a - b) / a < 1e-8


def test_fading_cm_point_mass_matches_fiber_path():
    cfg = _point_mass(0.92)
    s2 = 1.0 - cfg.tau0
    _, sr2 = optimize_squeezing(s2, POLICY.ancilla)
    state_fad = fading_scalars(cfg, PARAMS, POLICY)
    # fiber path at the matched transmittance and residual noise
    l_a = -10.0 * np.log10(cfg.tau0) / PARAMS.alpha0_db_per_km
    p = ProtocolParams(l_a_km=l_a, l_b_km=PARAMS.l_b_km)
    state_fib = conditioned_state(p, sr2, "gkp")
    assert np.max(np.abs(state_fad.cm - state_fib.cm)) < 1e-9


def test_fading_cm_structure():
    v = fading_scalars(CFG, PARAMS, POLICY).cm
    assert min(symplectic_eigenvalues(v)) >= 1.0  # the averaged state is physical
    assert np.allclose(v, v.T)
    assert v[0, 0] == pytest.approx(v[1, 1])
    assert v[0, 2] == pytest.approx(-v[1, 3])
    assert v[0, 3] == 0.0 and v[1, 2] == 0.0


def test_mean_residual_point_mass():
    cfg = _point_mass(0.9)
    _, sr2 = optimize_squeezing(0.1, POLICY.ancilla)
    assert mean_residual_variance(cfg, POLICY) == pytest.approx(sr2, rel=1e-6)


def test_mean_residual_against_quad():
    # the quantile-variable rule converges only as O(1/n) for this mean
    # (tau(u) -> 0 slower than any power of u), hence the looser tolerance
    expected = _expect_by_quad(lambda t: sigma_r2_of_tau(CFG, POLICY, t))
    assert mean_residual_variance(CFG, POLICY) == pytest.approx(expected, rel=1e-4)


def test_mean_transmittance_against_sampling():
    gen = RngStream(14).generator()
    taus = sample_transmittance(CFG, 300_000, gen)
    se = taus.std(ddof=1) / np.sqrt(len(taus))
    assert abs(mean_transmittance(CFG) - taus.mean()) < 3.0 * se


def test_average_composable_point_mass_matches_fiber():
    cfg = _point_mass(0.92)
    fs = FiniteSizeParams()
    s2 = 1.0 - cfg.tau0
    _, sr2 = optimize_squeezing(s2, POLICY.ancilla)
    l_a = -10.0 * np.log10(cfg.tau0) / PARAMS.alpha0_db_per_km
    p = ProtocolParams(l_a_km=l_a, l_b_km=PARAMS.l_b_km)
    r_fib = composable_rate(p, sr2, fs, "gkp")
    r_fad = average_composable_rate(cfg, PARAMS, fs, POLICY)
    assert r_fad == pytest.approx(r_fib, abs=1e-9)


def test_config_validation():
    with pytest.raises(ValueError):
        FadingConfig(tau0=0.0, gamma0=1.0, r0_m=0.01, sigma_bw2_m2=1e-6)
    with pytest.raises(ValueError):
        FadingConfig(tau0=0.9, gamma0=-1.0, r0_m=0.01, sigma_bw2_m2=1e-6)
