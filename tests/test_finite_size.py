from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gkpmdi.channels import ProtocolParams
from gkpmdi.config import MODULATION_RANGE, load_config
from gkpmdi.finite_size import (FiniteSizeParams, UnphysicalWorstCaseError, _worst_case,
                                aep_delta, composable_rate, correlation_shift, kappa_from_eps)
from gkpmdi.security import asymptotic_rate, fiber_link, link_scalars
from gkpmdi.sweeps import rate_point
from matrix_oracle import (PHYSICALITY_TOL, ConditionedState, conditioned_state, holevo_bound,
                           mutual_information, scalars_from_entries, symplectic_eigenvalues,
                           worst_case_cm)
from shipped import FIBER_DEFAULT

FS = FiniteSizeParams()


def test_kappa_values():
    assert kappa_from_eps(4.0 / np.e) == pytest.approx(1.0, rel=1e-12)
    assert kappa_from_eps(1e-10) == pytest.approx(24.412145, abs=1e-5)
    for eps in (1e-3, 1e-10, 0.5):
        assert 4.0 * np.exp(-kappa_from_eps(eps)) == pytest.approx(eps, rel=1e-12)
    with pytest.raises(ValueError):
        kappa_from_eps(0.0)


def test_aep_delta_values():
    assert aep_delta(4, 1.0) == pytest.approx(8.0, rel=1e-12)
    assert aep_delta(32, 1e-10) == pytest.approx(96.47, abs=0.01)
    ds = [2, 4, 8, 16, 32]
    vals = [aep_delta(d, 1e-10) for d in ds]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert aep_delta(32, 1e-12) > aep_delta(32, 1e-10)
    # eps_s^2 underflows to 0 here: the penalty stays finite
    assert aep_delta(32, 1e-300) == pytest.approx(4.0 * np.log2(np.sqrt(32) + 2.0)
                                                  * np.sqrt(1.0 + 600.0 * np.log2(10.0)))


def test_params_validation():
    with pytest.raises(ValueError):
        FiniteSizeParams(d=3)
    with pytest.raises(ValueError):
        FiniteSizeParams(m_pe=0.0)
    with pytest.raises(ValueError):
        FiniteSizeParams(p_ec=0.0)
    with pytest.raises(ValueError):
        FiniteSizeParams(eps_pe=1.0)
    assert FS.pe_signals == pytest.approx(1e7)
    assert FS.key_signals == pytest.approx(9e7)


def _state():
    return conditioned_state(ProtocolParams(l_a_km=1.0, l_b_km=10.0), 0.02, "gkp")


def _worst_case_scalars(sc, fs):
    """The worst-case state: psi lowered by the tail-bound correlation shift."""
    shift = correlation_shift(sc.phi_a, sc.phi_b, kappa_from_eps(fs.eps_pe), fs.pe_signals)
    return scalars_from_entries(sc.phi_a, sc.psi - shift, sc.phi_b)


def test_worst_case_shift_signs():
    state = _state()
    wc = worst_case_cm(state.cm, FS)
    assert wc.physical
    assert wc.v_wc[0, 2] < state.cm[0, 2]          # q correlation shrinks
    assert wc.v_wc[1, 3] > state.cm[1, 3]          # p correlation grows (less negative)
    assert np.allclose(np.diag(wc.v_wc), np.diag(state.cm))
    assert wc.kappa == pytest.approx(kappa_from_eps(FS.eps_pe))


def test_worst_case_vanishes_for_large_pe_blocks():
    state = _state()
    fs_big = FiniteSizeParams(n_total=1e18, m_pe=1e17)
    wc = worst_case_cm(state.cm, fs_big)
    assert np.max(np.abs(wc.v_wc - state.cm)) < 1e-3


def test_worst_case_unphysical_is_flagged():
    # absurdly small PE block: the shift overshoots past the physical cone
    state = _state()
    fs_small = FiniteSizeParams(n_total=100, m_pe=20)
    wc = worst_case_cm(state.cm, fs_small)
    assert not wc.physical  # flagged, not clamped
    assert wc.v_wc[0, 2] < -abs(state.cm[0, 2])  # overshoot left in place
    # the production path flags the same state instead of evaluating it
    with pytest.raises(UnphysicalWorstCaseError, match="m_pe = 20"):
        p = ProtocolParams(l_a_km=1.0, l_b_km=10.0)
        composable_rate(link_scalars(fiber_link(p, 0.02, "gkp"), p), p.beta0, fs_small)


@settings(max_examples=300)
@given(st.floats(1.0, 50.0), st.floats(1.0, 50.0), st.floats(-1.0, 1.0), st.floats(1.0, 11.0))
def test_worst_case_flag_is_physicality_of_the_far_end(phi_a, phi_b, u, log_m_pe):
    # the closed-form block-size rule against the symplectic spectrum of the
    # tail bound's far end sign(psi) (|psi| - shift), for either sign of psi
    lo, hi = min(phi_a, phi_b), max(phi_a, phi_b)
    psi = u * np.sqrt((lo - 1.0) * (hi + 1.0))  # a physical estimate
    fs = FiniteSizeParams(n_total=1e12, m_pe=10.0**log_m_pe)
    shift = correlation_shift(phi_a, phi_b, kappa_from_eps(fs.eps_pe), fs.pe_signals)
    far = psi - np.copysign(shift, psi)
    # off the cone's edge by more than float rounding of the two routes
    assume(abs(far * far - (lo - 1.0) * (hi + 1.0)) > 1e-6 * hi * hi)
    cm = np.diag([phi_a, phi_a, phi_b, phi_b])
    cm[0, 2] = cm[2, 0] = far
    cm[1, 3] = cm[3, 1] = -far
    physical = True
    try:
        symplectic_eigenvalues(cm)
    except ValueError:  # not positive-definite, or an eigenvalue below 1
        physical = False
    _, bad = _worst_case(scalars_from_entries(phi_a, psi, phi_b), fs, strict=False)
    assert bool(bad) is not physical


_DECADES = range(round(np.log10(MODULATION_RANGE[0])), round(np.log10(MODULATION_RANGE[1])))
_MODULATION = st.sampled_from(_DECADES).flatmap(
    lambda decade: st.floats(0.0, 1.0).map(lambda x: 10.0 ** (decade + x)))


@settings(max_examples=300)
@given(st.sampled_from(("direct", "preamp", "gkp", "qt")), _MODULATION, _MODULATION,
       st.floats(0.0, 100.0), st.floats(0.0, 1200.0), st.sampled_from([0.0, 0.05]),
       st.floats(0.0, 0.5), st.floats(2.0, 10.0))
def test_worst_case_flag_matches_the_matrix_oracle(mode, sa2, sb2, la, lb, n_bar, sr2, log_n):
    # the margin rule on production scalars against the symplectic spectrum
    # of the explicit worst-case matrix of the matrix route's conditioned state
    p = ProtocolParams(sigma2_a=sa2, sigma2_b=sb2, l_a_km=la, l_b_km=lb, n_bar=n_bar)
    fs = FiniteSizeParams(n_total=10.0**log_n)
    sc = link_scalars(fiber_link(p, sr2, mode), p)
    _, bad = _worst_case(sc, fs, strict=False)
    shift = correlation_shift(sc.phi_a, sc.phi_b, kappa_from_eps(fs.eps_pe), fs.pe_signals)
    least = min(sc.margin_a, sc.margin_b)
    # off the edge by more than 1e-9 relative and by more than twice the band
    # of squared correlations past it that the oracle's eigenvalue tolerance
    # still accepts, PHYSICALITY_TOL (2 + |phi_b - phi_a|)
    edge = abs(shift * (shift - 2.0 * abs(sc.psi)) - least)
    assume(edge > 1e-9 * (sc.psi**2 + least)
           + 2.0 * PHYSICALITY_TOL * (2.0 + abs(sc.phi_b - sc.phi_a)))
    state = conditioned_state(p, sr2, "gkp" if mode == "qt" else mode)  # qt is the gkp form
    assert bool(bad) is not worst_case_cm(state.cm, fs).physical


def epsilon_total(fs: FiniteSizeParams) -> float:
    """Overall security parameter eps_cor + eps_s + eps_h + p_ec * eps_pe."""
    return fs.eps_cor + fs.eps_s + fs.eps_h + fs.p_ec * fs.eps_pe


def test_epsilon_total():
    assert epsilon_total(FS) == pytest.approx(3.9e-10, rel=1e-9)
    fs = FiniteSizeParams(p_ec=1.0)
    assert epsilon_total(fs) == pytest.approx(4e-10, rel=1e-12)


def test_composable_below_scaled_asymptotic():
    p = ProtocolParams(l_a_km=1.0, l_b_km=8.0)
    sc = link_scalars(fiber_link(p, 0.02, "gkp"), p)
    r_asy = asymptotic_rate(sc, p.beta0).rate
    r_com = composable_rate(sc, p.beta0, FS)
    assert r_com <= FS.p_ec * r_asy


def test_composable_recovers_asymptotic_in_the_large_block_limit():
    p = ProtocolParams(l_a_km=1.0, l_b_km=8.0)
    sc = link_scalars(fiber_link(p, 0.02, "gkp"), p)
    r_asy = asymptotic_rate(sc, p.beta0).rate
    fs = FiniteSizeParams(n_total=1e20, m_pe=1e15)
    r_com = composable_rate(sc, p.beta0, fs)
    assert r_com == pytest.approx(fs.p_ec * r_asy, rel=1e-4)


def test_composable_rate_with_tiny_epsilons_is_finite():
    # eps_h^2 eps_cor underflows to 0 at 1e-300: its log2 is taken term by term
    p = ProtocolParams(l_a_km=1.0, l_b_km=8.0)
    sc = link_scalars(fiber_link(p, 0.02, "gkp"), p)
    fs = FiniteSizeParams(eps_cor=1e-300, eps_s=1e-300, eps_h=1e-300)
    assert np.isfinite(composable_rate(sc, p.beta0, fs))
    assert composable_rate(sc, p.beta0, fs) < composable_rate(sc, p.beta0, FS)


def test_composable_monotone_in_block_size():
    p = ProtocolParams(l_a_km=1.0, l_b_km=12.0)
    sc = link_scalars(fiber_link(p, 0.02, "gkp"), p)
    rates = [composable_rate(sc, p.beta0, FiniteSizeParams(n_total=n))
             for n in (1e7, 1e8, 1e9, 1e10)]
    assert all(b >= a for a, b in zip(rates, rates[1:]))


def test_composable_dual_path():
    # worst-case rate of the shifted scalars versus explicit worst-case matrix pipeline
    for (l_a, l_b, sr2) in [(1.0, 8.0, 0.02), (2.0, 5.0, 0.08), (0.5, 15.0, 0.0)]:
        p = ProtocolParams(l_a_km=l_a, l_b_km=l_b)
        state = conditioned_state(p, sr2, "gkp")
        sc = link_scalars(fiber_link(p, sr2, "gkp"), p)
        direct = asymptotic_rate(_worst_case_scalars(sc, FS), p.beta0).rate
        wc = worst_case_cm(state.cm, FS)
        wc_state = ConditionedState(cm=wc.v_wc, theta=state.theta)
        r_pe = p.beta0 * mutual_information(wc_state) - holevo_bound(wc_state)
        assert r_pe == pytest.approx(direct, rel=1e-9, abs=1e-12)
        # the matrix worst case equals the scalar correlation shift
        shift = correlation_shift(state.cm[0, 0], state.cm[2, 2],
                                  wc.kappa, FS.pe_signals)
        assert wc.v_wc[0, 2] == pytest.approx(state.cm[0, 2] - shift, rel=1e-12)
        assert wc.v_wc[1, 3] == pytest.approx(state.cm[1, 3] + shift, rel=1e-12)


def test_worst_case_rate_below_nominal():
    p = ProtocolParams(l_a_km=1.0, l_b_km=10.0)
    sc = link_scalars(fiber_link(p, 0.02, "gkp"), p)
    r_wc = asymptotic_rate(_worst_case_scalars(sc, FS), p.beta0).rate
    assert r_wc < asymptotic_rate(sc, p.beta0).rate
    # the composable rate is the finite-size bracket around that worst-case rate
    ell = FS.key_signals
    bracket = ell * r_wc - np.sqrt(ell) * aep_delta(FS.d, FS.eps_s) \
        + np.log2(FS.eps_h**2 * FS.eps_cor)
    assert composable_rate(sc, p.beta0, FS) == pytest.approx(FS.p_ec * bracket / FS.n_total,
                                                             rel=1e-12)


@pytest.mark.parametrize("l_b_km", [300.0, 1000.0, 100000.0])
def test_worst_case_is_no_more_correlated_than_the_estimate(l_b_km):
    # past lb ~ 276 km on fiber_default.ini the correlation shift exceeds psi
    # (at 100000 km tau_b underflows and psi = 0): the worst case is psi' = 0,
    # and its rate may not exceed that of the estimated state itself
    cfg = load_config(FIBER_DEFAULT)
    fs = cfg.finite_size
    block = rate_point(cfg, cfg.protocol.l_a_km, l_b_km)
    params = replace(cfg.protocol, l_b_km=l_b_km)
    sc = link_scalars(fiber_link(params, block["sigma_r2"], "gkp"), params)
    assert sc.psi < correlation_shift(sc.phi_a, sc.phi_b, kappa_from_eps(fs.eps_pe), fs.pe_signals)
    ell = fs.key_signals
    at_estimate = fs.p_ec * (ell * asymptotic_rate(sc, params.beta0).rate
                             - np.sqrt(ell) * aep_delta(fs.d, fs.eps_s)
                             + np.log2(fs.eps_h**2 * fs.eps_cor)) / fs.n_total
    assert block["rate_bits"] == composable_rate(sc, params.beta0, fs)
    assert block["rate_bits"] <= at_estimate + 1e-12
