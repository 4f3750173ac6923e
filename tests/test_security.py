from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gkpmdi.channels import ProtocolParams, awgn_variance_preamp
from gkpmdi.gkp import GkpAncilla, optimize_squeezing
from gkpmdi.mc import RngStream, mc_protocol_mutual_info
from gkpmdi.security import asymptotic_rate, conditioned_scalars, h_function
from matrix_oracle import (assemble_global_cm, ci_rci, condition_on_bell, conditioned_state,
                           holevo_bound, mutual_information, theta_value)

TABLE = ProtocolParams()  # reference defaults


def params(l_a=1.0, l_b=10.0, **kw):
    return ProtocolParams(l_a_km=l_a, l_b_km=l_b, **kw)


def link_rate(p, sigma_r2, mode):
    """The asymptotic rate of a fixed link: its conditioned scalars, then the rate."""
    return asymptotic_rate(conditioned_scalars(p, sigma_r2, mode), p.beta0)


def test_global_cm_vacuum_limit():
    p = ProtocolParams(sigma2_a=0.0, sigma2_b=0.0, l_a_km=0.0, l_b_km=0.0)
    v = assemble_global_cm(p, 0.0, "gkp")
    assert np.allclose(v, 0.5 * np.eye(8), atol=1e-15)


def test_global_cm_structure():
    p = params()
    v = assemble_global_cm(p, 0.0, "gkp")
    assert np.allclose(v, v.T)
    assert abs(v[0, 4] - 0.5 * np.sqrt(440.0)) < 1e-12
    assert abs(v[1, 5] + 0.5 * np.sqrt(440.0)) < 1e-12
    assert np.all(v[0:2, 6:8] == 0)  # kept mode a does not touch B'
    assert np.all(v[4:6, 6:8] == 0)  # travelling modes uncorrelated


def test_theta_values():
    p = ProtocolParams(l_a_km=0.0, l_b_km=0.0)
    assert theta_value(p, "gkp", 0.0) == pytest.approx(21.0)
    assert theta_value(p, "preamp") == pytest.approx(21.0)
    p2 = ProtocolParams(l_a_km=0.0, l_b_km=-np.log10(0.5) * 50.0)  # tau_b = 1/2
    assert p2.tau_b == pytest.approx(0.5, rel=1e-12)
    assert theta_value(p2, "gkp", 0.05) == pytest.approx((20 + 0.1 + 10 + 2) / 2.0)


def test_condition_without_correlations_is_identity():
    v = np.zeros((8, 8))
    v[0:4, 0:4] = np.diag([3.0, 3.0, 4.0, 4.0])
    v[4:8, 4:8] = np.eye(4) * 2.0
    v *= 0.5
    state = condition_on_bell(v, theta=2.0)
    assert np.allclose(state.cm, np.diag([3.0, 3.0, 4.0, 4.0]))


def test_conditioned_state_hand_values():
    # lossless reference point: entries are exact rationals
    p = ProtocolParams(l_a_km=0.0, l_b_km=0.0)
    state = conditioned_state(p, 0.0, "gkp")
    assert state.cm[0, 0] == pytest.approx(221.0 / 21.0, rel=1e-12)
    assert state.cm[2, 2] == pytest.approx(221.0 / 21.0, rel=1e-12)
    assert state.cm[0, 2] == pytest.approx(220.0 / 21.0, rel=1e-12)
    assert state.cm[1, 3] == pytest.approx(-220.0 / 21.0, rel=1e-12)


@st.composite
def _link_batches(draw):
    mode = draw(st.sampled_from(("direct", "preamp", "gkp")))
    n_bar = 0.0 if mode == "gkp" else draw(st.floats(0.0, 0.2))
    n = draw(st.integers(1, 6))

    def column(lo, hi):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))

    p = ProtocolParams(l_a_km=column(0.0, 5.0), l_b_km=column(0.0, 30.0),
                       sigma2_a=draw(st.floats(5.0, 40.0)), sigma2_b=draw(st.floats(5.0, 40.0)),
                       n_bar=n_bar)
    return p, column(0.0, 0.3), mode


@settings(derandomize=True, deadline=None)
@given(_link_batches())
def test_scalar_path_matches_matrix_path(batch):
    # the oracle derives the link table from the channel, so this also checks
    # _link_coefficients; the closed forms run on the whole batch at once
    p, sr2, mode = batch
    sc = conditioned_scalars(p, sr2, mode)
    for k in range(len(sr2)):
        state = conditioned_state(replace(p, l_a_km=p.l_a_km[k], l_b_km=p.l_b_km[k]), sr2[k], mode)
        assert state.cm[0, 0] == pytest.approx(sc.phi_a[k], rel=1e-11)
        assert state.cm[0, 2] == pytest.approx(sc.psi[k], rel=1e-11)
        assert state.cm[2, 2] == pytest.approx(sc.phi_b[k], rel=1e-11)
    # the cancellation-free variant agrees in the moderate regime
    assert sc.phi_a_m1 == pytest.approx(sc.phi_a - 1.0, rel=1e-9)


def test_mutual_information_zero_without_correlation():
    state = condition_on_bell(_uncorrelated_cm(), theta=2.0)
    assert mutual_information(state) == pytest.approx(0.0, abs=1e-14)


def _uncorrelated_cm():
    v = np.zeros((8, 8))
    v[0:4, 0:4] = np.diag([3.0, 3.0, 4.0, 4.0])
    v[4:8, 4:8] = np.eye(4) * 2.0
    return 0.5 * v


def test_mutual_information_nonnegative_on_random_draws():
    rng = np.random.default_rng(21)
    for _ in range(200):
        p = ProtocolParams(l_a_km=rng.uniform(0, 6), l_b_km=rng.uniform(0, 40),
                           sigma2_a=rng.uniform(2, 40), sigma2_b=rng.uniform(2, 40))
        state = conditioned_state(p, rng.uniform(0, 0.3), "gkp")
        assert mutual_information(state) >= 0.0


def test_mutual_information_lossless_value():
    p = ProtocolParams(l_a_km=0.0, l_b_km=0.0)
    state = conditioned_state(p, 0.0, "gkp")
    assert mutual_information(state) == pytest.approx(np.log2(121.0 / 21.0), rel=1e-12)


def test_mutual_information_matches_protocol_simulation():
    p = params(1.0, 10.0)
    s2 = awgn_variance_preamp(p.tau_a)
    _, sr2 = optimize_squeezing(s2, GkpAncilla(20.0))
    analytic = mutual_information(conditioned_state(p, sr2, "gkp"))
    est = mc_protocol_mutual_info(p, sr2, 2_000_000, RngStream(3, 5))
    assert abs(est.mutual_info - analytic) < max(3.0 * est.stderr, 0.01 * analytic)
    assert est.corr_key_relay < 0.01


def test_holevo_lossless_limit():
    p = ProtocolParams(l_a_km=0.0, l_b_km=0.0)
    state = conditioned_state(p, 0.0, "gkp")
    assert holevo_bound(state) < 1e-6


def test_holevo_dual_path():
    # generic eigenvalue route versus the closed-form scalar route
    for (l_a, l_b, sr2) in [(1.0, 10.0, 0.02), (2.0, 5.0, 0.08), (0.5, 20.0, 0.0)]:
        p = params(l_a, l_b)
        state = conditioned_state(p, sr2, "gkp")
        report = link_rate(p, sr2, "gkp")
        assert holevo_bound(state) == pytest.approx(report.holevo, rel=1e-9, abs=1e-12)
        assert mutual_information(state) == pytest.approx(report.mutual_info, rel=1e-9)


def test_rate_negative_when_bob_channel_dies():
    p = params(1.0, 120.0)
    assert link_rate(p, 0.02, "gkp").rate < 0.0


def test_rate_monotone_in_bob_distance():
    rates = [link_rate(params(1.0, lb), 0.02, "gkp").rate
             for lb in np.linspace(1.0, 40.0, 25)]
    assert all(a >= b for a, b in zip(rates, rates[1:]))


def test_gkp_improves_over_break_even_substitution():
    for l_a in (0.5, 1.0, 2.0, 3.0):
        p = params(l_a, 8.0)
        s2 = awgn_variance_preamp(p.tau_a)
        _, sr2 = optimize_squeezing(s2, GkpAncilla(20.0))
        assert link_rate(p, sr2, "gkp").rate >= link_rate(p, s2, "gkp").rate


def test_ci_rci_symmetric_state():
    p = ProtocolParams(l_a_km=2.0, l_b_km=2.0)
    state = conditioned_state(p, 0.0, "direct")
    ci, rci = ci_rci(state)
    assert ci == pytest.approx(rci, rel=1e-10)


def test_rci_exceeds_ci_on_working_grid():
    for l_a in (0.5, 1.0, 2.0):
        for l_b in (4.0, 8.0, 12.0):
            p = params(l_a, l_b)
            s2 = awgn_variance_preamp(p.tau_a)
            _, sr2 = optimize_squeezing(s2, GkpAncilla(20.0))
            ci, rci = ci_rci(conditioned_state(p, sr2, "gkp"))
            assert rci >= ci


def test_rci_lossless_first_principles():
    p = ProtocolParams(l_a_km=0.0, l_b_km=0.0)
    state = conditioned_state(p, 0.0, "gkp")
    ci, rci = ci_rci(state)
    nu_a = np.sqrt(np.linalg.det(state.cm[0:2, 0:2]))
    assert rci == pytest.approx(h_function(nu_a), abs=1e-9)  # v1 = v2 = 1 here


def test_thermal_background_lowers_the_rate():
    clean = link_rate(params(1.0, 8.0), 0.0, "preamp").rate
    for n_bar in (0.05, 0.2):
        warm = link_rate(params(1.0, 8.0, n_bar=n_bar), 0.0, "preamp").rate
        assert warm < clean
        clean = warm
    # scalar and matrix paths stay consistent with a thermal background
    p = params(1.5, 6.0, n_bar=0.1)
    state = conditioned_state(p, 0.0, "direct")
    sc = conditioned_scalars(p, 0.0, "direct")
    assert state.cm[0, 0] == pytest.approx(sc.phi_a, rel=1e-11)
    assert sc.phi_a_m1 == pytest.approx(sc.phi_a - 1.0, rel=1e-9)


def test_thermal_background_vanishes_on_a_lossless_link():
    # thermal noise enters through the loss, so a zero-length A link is clean
    for mode in ("direct", "preamp", "gkp"):
        clean = link_rate(params(0.0, 5.0), 0.0, mode)
        warm = link_rate(params(0.0, 5.0, n_bar=0.1), 0.0, mode)
        assert warm.rate == clean.rate == pytest.approx(1.0497, abs=1e-4), mode
    s2 = awgn_variance_preamp(params(0.0, 5.0).tau_a, 0.1)
    assert s2 == 0.0 and optimize_squeezing(s2, GkpAncilla(20.0)) == (0.0, 0.0)


def test_condition_rejects_bad_theta():
    with pytest.raises(ValueError):
        condition_on_bell(np.eye(8) * 0.5, 0.0)


def test_conditioned_scalars_qt_link_is_the_gkp_form():
    # a qt link has unit gain and its code residual as excess noise, as a gkp link
    p = params(1.5, 6.0)
    qt, gkp = conditioned_scalars(p, 0.03, "qt"), conditioned_scalars(p, 0.03, "gkp")
    assert (qt.phi_a, qt.psi, qt.phi_b, qt.phi_a_m1) == \
        (gkp.phi_a, gkp.psi, gkp.phi_b, gkp.phi_a_m1)
    with pytest.raises(ValueError, match="unknown link mode 'warp'"):
        conditioned_scalars(p, 0.03, "warp")
