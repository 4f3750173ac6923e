import numpy as np
import pytest

from gkpmdi.channels import (ProtocolParams, awgn_variance_preamp, awgn_variance_qt,
                             fiber_transmittance)
from matrix_oracle import plob_bound


def test_fiber_transmittance():
    assert fiber_transmittance(0.0) == 1.0
    assert abs(fiber_transmittance(50.0, 0.2) - 0.1) < 1e-15
    assert abs(fiber_transmittance(3.0, 0.2) - 0.8709635899560806) < 1e-12
    with pytest.raises(ValueError):
        fiber_transmittance(-1.0)


def test_preamp_variance():
    assert awgn_variance_preamp(1.0, 0.0) == 0.0
    for tau in (0.3, 0.7, 0.95):
        assert abs(awgn_variance_preamp(tau) - (1.0 - tau)) < 1e-15
    tau3 = fiber_transmittance(3.0)
    assert abs(awgn_variance_preamp(tau3) - 0.1290364100439194) < 1e-12


def test_preamp_variance_monotone_and_floor():
    # the thermal background enters through the loss: (1 + n_bar)(1 - tau)
    taus = np.linspace(0.05, 1.0, 50)
    vals = awgn_variance_preamp(taus, 0.2)
    assert np.all(np.diff(vals) < 0)
    assert np.all(vals >= awgn_variance_preamp(taus)) and vals[-1] == 0.0
    assert np.allclose(vals, 1.2 * (1.0 - taus), rtol=1e-15, atol=0.0)


def test_qt_variance():
    assert awgn_variance_qt(1.0, 300.0) < 1e-15
    for tau in (0.2, 0.6, 0.9):
        assert abs(awgn_variance_qt(tau, 0.0) - 1.0) < 1e-15
    tau3 = fiber_transmittance(3.0)
    expected = 1.0 - np.sqrt(tau3) * 0.99
    assert abs(awgn_variance_qt(tau3, 20.0) - expected) < 1e-12
    assert abs(expected - 0.07610) < 5e-5


def test_qt_below_preamp_on_working_grid():
    # teleportation compensation adds less noise over the studied distances
    for l_a in np.linspace(0.5, 5.0, 10):
        tau = fiber_transmittance(l_a)
        assert awgn_variance_qt(tau, 20.0) < awgn_variance_preamp(tau)


def test_plob_bound():
    assert plob_bound(0.0) == 0.0
    assert abs(plob_bound(0.5) - 1.0) < 1e-15
    assert abs(plob_bound(0.9) - 3.321928094887362) < 1e-12
    with pytest.raises(ValueError):
        plob_bound(1.0)
    taus = np.linspace(0.0, 0.99, 40)
    vals = [plob_bound(t) for t in taus]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    # an array gives the elementwise bound; a value out of range anywhere raises
    assert np.array_equal(plob_bound(taus), np.array(vals))
    with pytest.raises(ValueError):
        plob_bound(np.array([0.5, 1.0]))


def test_protocol_params_validation():
    p = ProtocolParams()
    assert abs(p.tau_a - fiber_transmittance(1.0)) < 1e-15
    with pytest.raises(ValueError):
        ProtocolParams(beta0=0.0)
    with pytest.raises(ValueError):
        ProtocolParams(sigma2_a=-1.0)
    with pytest.raises(ValueError):
        ProtocolParams(n_bar=-0.1)
    for bad in (-0.2, np.nan, np.inf):
        with pytest.raises(ValueError, match="attenuation"):
            ProtocolParams(alpha0_db_per_km=bad)
    assert ProtocolParams(alpha0_db_per_km=0.0).tau_b == 1.0
