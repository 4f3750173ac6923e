from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gkpmdi.channels import ProtocolParams, awgn_variance_preamp
from gkpmdi.config import MODULATION_RANGE, load_config
from gkpmdi.fading import FadingConfig, residual_nodes
from gkpmdi.finite_size import FiniteSizeParams, _worst_case
from gkpmdi.gkp import GkpAncilla, optimize_squeezing
from gkpmdi.mc import RngStream, mc_protocol_mutual_info
from gkpmdi.security import asymptotic_rate, fiber_link, link_scalars
from matrix_oracle import (assemble_global_cm, ci_rci, condition_on_bell, conditioned_scalars,
                           conditioned_state, decimal_conditioned, decimal_holevo, h_function,
                           holevo_bound, mutual_information, scalars_from_entries, theta_value)
from shipped import reference_fading_config

TABLE = ProtocolParams()  # reference defaults


def params(l_a=1.0, l_b=10.0, **kw):
    return ProtocolParams(l_a_km=l_a, l_b_km=l_b, **kw)


def link_rate(p, sigma_r2, mode):
    """The asymptotic rate of a fixed link: its conditioned scalars, then the rate."""
    return asymptotic_rate(link_scalars(fiber_link(p, sigma_r2, mode), p), p.beta0)


def _assert_margins_are_the_products(sc):
    direct = scalars_from_entries(sc.phi_a, sc.psi, sc.phi_b)
    assert sc.margin_a == pytest.approx(direct.margin_a, rel=1e-9)
    assert sc.margin_b == pytest.approx(direct.margin_b, rel=1e-9)


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


@given(_link_batches())
def test_scalar_path_matches_matrix_path(batch):
    # the oracle derives the link table from the channel, so this also checks
    # fiber_link's link table; the closed forms run on the whole batch at once
    p, sr2, mode = batch
    sc = link_scalars(fiber_link(p, sr2, mode), p)
    for k in range(len(sr2)):
        state = conditioned_state(replace(p, l_a_km=p.l_a_km[k], l_b_km=p.l_b_km[k]), sr2[k], mode)
        assert state.cm[0, 0] == pytest.approx(sc.phi_a[k], rel=1e-11)
        assert state.cm[0, 2] == pytest.approx(sc.psi[k], rel=1e-11)
        assert state.cm[2, 2] == pytest.approx(sc.phi_b[k], rel=1e-11)
    # the cancellation-free margins agree with their direct products in the moderate regime
    _assert_margins_are_the_products(sc)


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


_MODES = ("direct", "preamp", "gkp", "qt")
# lengths up to 1200 km: 0, uniform, and log-uniform down to 1 m
_LENGTH = st.one_of(st.just(0.0), st.floats(0.0, 1200.0),
                    st.floats(-6.0, np.log10(1200.0)).map(lambda x: 10.0 ** x))
_DECADES = range(round(np.log10(MODULATION_RANGE[0])), round(np.log10(MODULATION_RANGE[1])))


def _modulation(decade):
    return st.floats(0.0, 1.0).map(lambda x: 10.0 ** (decade + x))


def _assert_holevo_matches_oracle(sc, state, fs):
    """chi of the state and of its finite-size worst case against the 60-digit oracle."""
    assert abs(asymptotic_rate(sc, 1.0).holevo - decimal_holevo(state)) <= 1e-8
    wc, bad = _worst_case(sc, fs, strict=False)
    if not bad:
        assert abs(asymptotic_rate(wc, 1.0).holevo - decimal_holevo(state, fs)) <= 1e-8


@pytest.mark.parametrize("decade", _DECADES)
@settings(max_examples=25)
@given(data=st.data())
def test_holevo_matches_the_60_digit_oracle_on_fixed_links(decade, data):
    # nearly pure states (large modulation, short links) and nearly product
    # ones (long links) alike: each decade of MODULATION_RANGE separately
    variance = _modulation(decade)
    p = data.draw(st.builds(ProtocolParams, sigma2_a=variance, sigma2_b=variance,
                            l_a_km=_LENGTH, l_b_km=_LENGTH, n_bar=st.sampled_from([0.0, 0.05])))
    mode = data.draw(st.sampled_from(_MODES))
    sr2 = data.draw(st.one_of(st.just(0.0), st.floats(-12.0, 0.0).map(lambda x: 10.0 ** x)))
    fs = FiniteSizeParams(n_total=data.draw(st.floats(3.0, 14.0).map(lambda x: 10.0 ** x)))
    _assert_holevo_matches_oracle(link_scalars(fiber_link(p, sr2, mode), p),
                                  decimal_conditioned(p, mode, sr2), fs)


@pytest.fixture(scope="module")
def a010_nodes():
    cfg = load_config(reference_fading_config(0.1))
    return residual_nodes(cfg.fading, cfg.ancilla)


@settings(max_examples=40)
@given(st.sampled_from(_DECADES).flatmap(_modulation), _LENGTH,
       st.one_of(st.none(), st.floats(0.5, 1.0)), st.floats(3.0, 14.0))
def test_holevo_matches_the_60_digit_oracle_on_fading_links(a010_nodes, modulation, lb,
                                                             point_mass, log_n):
    # the shipped a010 law, or a point mass at tau0 (vanishing wander)
    nodes = a010_nodes if point_mass is None else residual_nodes(
        FadingConfig(tau0=point_mass, gamma0=2.0, r0_m=0.02, sigma_bw2_m2=1e-30),
        GkpAncilla(20.0))
    p = ProtocolParams(l_b_km=lb, sigma2_a=modulation, sigma2_b=modulation)
    _assert_holevo_matches_oracle(link_scalars((nodes[0], 1.0, nodes[2]), p),
                                  decimal_conditioned(p, nodes=nodes),
                                  FiniteSizeParams(n_total=10.0 ** log_n))


_FIELDS = ("phi_a", "psi", "phi_b", "margin_a", "margin_b")


def _same_bits(x, y):
    return type(x) is type(y) and np.asarray(x).tobytes() == np.asarray(y).tobytes()


@pytest.mark.parametrize("decade", _DECADES)
@settings(max_examples=25)
@given(data=st.data())
def test_fiber_link_scalars_equal_the_reference_bit_for_bit(decade, data):
    # a fiber link as a one-node set reproduces the fixed-link closed forms
    # in their order of operations: every mode, scalar and array lengths
    n = data.draw(st.integers(1, 6))

    def value(elements):  # a scalar or a length-n array
        return data.draw(st.one_of(elements, st.lists(elements, min_size=n, max_size=n)
                                   .map(np.array)))

    p = ProtocolParams(sigma2_a=data.draw(_modulation(decade)),
                       sigma2_b=data.draw(st.sampled_from(_DECADES).flatmap(_modulation)),
                       l_a_km=value(_LENGTH), l_b_km=value(_LENGTH),
                       n_bar=data.draw(st.sampled_from([0.0, 0.05, 0.5])))
    mode, sr2 = data.draw(st.sampled_from(_MODES)), value(st.floats(0.0, 0.5))
    got, want = link_scalars(fiber_link(p, sr2, mode), p), conditioned_scalars(p, sr2, mode)
    for field in _FIELDS:
        assert _same_bits(getattr(got, field), getattr(want, field)), field


@settings(max_examples=60)
@given(st.integers(0, 1023), st.floats(0.0, 100.0), st.floats(1.0, 100.0))
def test_splitting_a_node_leaves_the_link_scalars(a010_nodes, k, lb, variance):
    # a node split into two half-weight copies is the same law
    w, _, sr2 = a010_nodes
    split = (np.insert(w, k, w[k] / 2.0), 1.0, np.insert(sr2, k, sr2[k]))
    split[0][k + 1] = w[k] / 2.0
    p = ProtocolParams(l_b_km=lb, sigma2_a=variance, sigma2_b=variance)
    got, want = link_scalars(split, p), link_scalars((w, 1.0, sr2), p)
    # the sums xi and e xi agree to 1e-15, so do psi and the margins; phi_a
    # and phi_b are sigma^2 + 1 less c^2 xi, equal to 1e-15 of sigma^2 + 1
    for field in _FIELDS:
        scale = variance + 1.0 if field.startswith("phi") else abs(getattr(want, field))
        assert abs(getattr(got, field) - getattr(want, field)) <= 1e-15 * scale, field


def test_a_node_set_with_gain_needs_one_node():
    # psi of a mixture with varying gain has no closed form: a direct link's
    # gain tau_a stands on one node only
    p = params(2.0, 10.0, n_bar=0.05)
    w, gain, excess = fiber_link(p, 0.0, "direct")
    assert gain[0] < 1.0 and link_scalars((w, gain, excess), p).margin_a > 0.0
    with pytest.raises(ValueError, match="unit gain"):
        link_scalars((np.array([0.5, 0.5]), np.repeat(gain, 2), np.repeat(excess, 2)), p)


@settings(max_examples=100)
@given(st.sampled_from(_MODES), st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
       st.floats(300.0, 1200.0), st.floats(0.0, 0.3))
def test_deep_loss_holevo_is_exact_to_1e12_relative(mode, la, lb, sr2):
    # psi^2 down to 1e-24 of the variances at the shipped modulation 20
    p = params(la, lb)
    chi = asymptotic_rate(link_scalars(fiber_link(p, sr2, mode), p), p.beta0).holevo
    assert chi == pytest.approx(decimal_holevo(decimal_conditioned(p, mode, sr2)),
                                rel=1e-12, abs=0.0)


def test_unphysical_margins_raise():
    p = params(1.0, 10.0)
    sc = link_scalars(fiber_link(p, 0.02, "gkp"), p)
    with pytest.raises(ValueError, match="physicality margin"):
        asymptotic_rate(replace(sc, margin_b=-1e-3), 1.0)


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
    sc = link_scalars(fiber_link(p, 0.0, "direct"), p)
    assert state.cm[0, 0] == pytest.approx(sc.phi_a, rel=1e-11)
    _assert_margins_are_the_products(sc)


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
    qt, gkp = (link_scalars(fiber_link(p, 0.03, mode), p) for mode in ("qt", "gkp"))
    assert qt == gkp
    with pytest.raises(ValueError, match="unknown link mode 'warp'"):
        fiber_link(p, 0.03, "warp")
