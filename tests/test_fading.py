import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from gkpmdi import fading
from gkpmdi.channels import ProtocolParams
from gkpmdi.config import RunConfig
from gkpmdi.fading import (FadingConfig, fading_cdf, fading_pdf, fading_quantile,
                           residual_nodes, sigma_r2_of_tau, xi_integral)
from gkpmdi.finite_size import FiniteSizeParams, composable_rate
from gkpmdi.gkp import IDEAL, GkpAncilla, optimize_squeezing, residual_variance
from gkpmdi.mc import RngStream
from gkpmdi.security import fiber_link, link_scalars
from gkpmdi.sweeps import rate_point
from matrix_oracle import conditioned_state, symplectic_eigenvalues

CFG = FadingConfig(tau0=0.95, gamma0=1.5, r0_m=0.02, sigma_bw2_m2=1e-6)
ANC = GkpAncilla(20.0)
PARAMS = ProtocolParams(l_a_km=1.0, l_b_km=8.0)


@pytest.fixture(scope="module")
def nodes():
    return residual_nodes(CFG, ANC)


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
    taus = fading_quantile(gen.uniform(size=200_000), CFG)
    assert np.all((taus > 0) & (taus <= CFG.tau0))
    emp = np.mean(taus <= 0.9)
    assert emp == pytest.approx(fading_cdf(0.9, CFG), abs=3.0 * np.sqrt(0.25 / 200_000) + 1e-3)


def _point_mass(tau_star):
    # vanishing wander concentrates the law at tau0
    return FadingConfig(tau0=tau_star, gamma0=2.0, r0_m=0.02, sigma_bw2_m2=1e-30)


# a point-mass law at tau0 averages to the fiber link of that transmittance;
# each property below checks one averaged quantity against the fiber path
point_mass_cases = given(
    tau0=st.floats(0.5, 0.9999), l_b=st.floats(0.0, 30.0),
    ancilla=st.sampled_from([IDEAL, GkpAncilla(12.0), GkpAncilla(20.0), GkpAncilla(30.0)]))
point_mass_settings = settings(max_examples=60)


def _point_mass_case(tau0, l_b, ancilla):
    nodes = residual_nodes(_point_mass(tau0), ancilla)
    _, sr2 = optimize_squeezing(1.0 - tau0, ancilla)
    params = ProtocolParams(l_a_km=1.0, l_b_km=l_b)
    fiber = ProtocolParams(l_a_km=-10.0 * np.log10(tau0) / 0.2, l_b_km=l_b)
    return nodes, sr2, params, fiber


@point_mass_cases
@point_mass_settings
def test_xi_point_mass_limit(tau0, l_b, ancilla):
    nodes, sr2, params, _ = _point_mass_case(tau0, l_b, ancilla)
    xi = 1.0 / (params.sigma2_a + 2.0 * sr2 + params.tau_b * params.sigma2_b + 2.0)
    assert xi_integral(nodes, params) == pytest.approx(xi, rel=1e-9)


@point_mass_cases
@point_mass_settings
def test_mean_residual_point_mass(tau0, l_b, ancilla):
    (w, _, sr2_nodes), sr2, _, _ = _point_mass_case(tau0, l_b, ancilla)
    assert float(np.sum(w * sr2_nodes)) == pytest.approx(sr2, rel=1e-6)


@point_mass_cases
@point_mass_settings
def test_fading_cm_point_mass_matches_fiber_path(tau0, l_b, ancilla):
    nodes, sr2, params, fiber = _point_mass_case(tau0, l_b, ancilla)
    sc = link_scalars((nodes[0], 1.0, nodes[2]), params)
    assert np.max(np.abs(sc.cm - conditioned_state(fiber, sr2, "gkp").cm)) < 1e-9


@point_mass_cases
@point_mass_settings
def test_average_composable_point_mass_matches_fiber(tau0, l_b, ancilla):
    nodes, sr2, params, fiber = _point_mass_case(tau0, l_b, ancilla)
    fs = FiniteSizeParams()
    fading_sc = link_scalars((nodes[0], 1.0, nodes[2]), params)
    fiber_sc = link_scalars(fiber_link(fiber, sr2, "gkp"), fiber)
    assert composable_rate(fading_sc, params.beta0, fs) == pytest.approx(
        composable_rate(fiber_sc, fiber.beta0, fs), abs=1e-9)


@point_mass_cases
@point_mass_settings
def test_rate_point_point_mass_matches_fiber(tau0, l_b, ancilla):
    # the fading and the fiber A link share rate_point, asymptotic and composable
    nodes, _, params, fiber = _point_mass_case(tau0, l_b, ancilla)
    for fs in (None, FiniteSizeParams()):
        fading_cfg = RunConfig(protocol=params, ancilla=ancilla, finite_size=fs,
                               fading=_point_mass(tau0))
        fiber_cfg = RunConfig(protocol=fiber, ancilla=ancilla, finite_size=fs)
        got = rate_point(fading_cfg, params.l_a_km, l_b, nodes=nodes)
        want = rate_point(fiber_cfg, fiber.l_a_km, l_b)
        assert got["rate_kind"] == want["rate_kind"]
        assert got["rate_bits"] == pytest.approx(want["rate_bits"], abs=1e-9)


def test_xi_dynamic_beats_fixed(nodes):
    w, tau, _ = nodes
    xi_dyn = xi_integral(nodes, PARAMS)
    for r in (0.1, 0.4, 0.8):
        fixed = (w, tau, residual_variance(r, 1.0 - tau, ANC))
        assert xi_dyn >= xi_integral(fixed, PARAMS) - 1e-12


def _expect_by_quad(integrand):
    # adaptive quadrature in tau against the density: independent of the
    # quantile map and of the Gauss-Legendre nodes the library integrates on
    total, _ = quad(lambda t: fading_pdf(t, CFG) * integrand(t), 0.0, CFG.tau0,
                    limit=200, epsabs=0.0, epsrel=1e-10)
    return total


def test_xi_against_quad(nodes):
    denom = PARAMS.sigma2_a + PARAMS.tau_b * PARAMS.sigma2_b + 2.0
    expected = _expect_by_quad(lambda t: 1.0 / (denom + 2.0 * sigma_r2_of_tau(ANC, t)))
    assert xi_integral(nodes, PARAMS) == pytest.approx(expected, rel=1e-7)


def test_node_rule_is_leggauss_16(nodes):
    # the literal table, mirrored, is numpy's 16-point rule bit for bit, and
    # so is the node set built from it: a changed digit fails here
    x, w = np.polynomial.legendre.leggauss(16)
    assert np.all(fading._GL16[:, 0] == x[8:]) and np.all(fading._GL16[:, 1] == w[8:])
    assert np.all(x == -x[::-1]) and np.all(w == w[::-1])
    edges = np.linspace(0.0, 1.0, fading._XI_PANELS + 1)
    mids, halfs = (edges[1:] + edges[:-1]) / 2.0, (edges[1:] - edges[:-1]) / 2.0
    weights, tau, _ = nodes
    assert np.all(weights == (halfs[:, None] * w[None, :]).ravel())
    assert np.all(tau == fading_quantile((mids[:, None] + halfs[:, None] * x[None, :]).ravel(),
                                         CFG))


def test_xi_node_doubling_stability(nodes, monkeypatch):
    a = xi_integral(nodes, PARAMS)
    monkeypatch.setattr(fading, "_XI_PANELS", 2 * fading._XI_PANELS)
    b = xi_integral(residual_nodes(CFG, ANC), PARAMS)
    assert abs(a - b) / a < 1e-8


def test_fading_cm_structure(nodes):
    v = link_scalars((nodes[0], 1.0, nodes[2]), PARAMS).cm
    assert min(symplectic_eigenvalues(v)) >= 1.0  # the averaged state is physical
    assert np.allclose(v, v.T)
    assert v[0, 0] == pytest.approx(v[1, 1])
    assert v[0, 2] == pytest.approx(-v[1, 3])
    assert v[0, 3] == 0.0 and v[1, 2] == 0.0


def test_mean_residual_against_quad(nodes):
    # the quantile-variable rule converges only as O(1/n) for this mean
    # (tau(u) -> 0 slower than any power of u), hence the looser tolerance
    w, _, sr2 = nodes
    expected = _expect_by_quad(lambda t: sigma_r2_of_tau(ANC, t))
    assert float(np.sum(w * sr2)) == pytest.approx(expected, rel=1e-4)


def test_mean_transmittance_against_sampling(nodes):
    gen = RngStream(14).generator()
    taus = fading_quantile(gen.uniform(size=300_000), CFG)
    se = taus.std(ddof=1) / np.sqrt(len(taus))
    w, tau, _ = nodes
    assert abs(float(np.sum(w * tau)) - taus.mean()) < 3.0 * se


def test_config_validation():
    with pytest.raises(ValueError):
        FadingConfig(tau0=0.0, gamma0=1.0, r0_m=0.01, sigma_bw2_m2=1e-6)
    with pytest.raises(ValueError):
        FadingConfig(tau0=0.9, gamma0=-1.0, r0_m=0.01, sigma_bw2_m2=1e-6)
