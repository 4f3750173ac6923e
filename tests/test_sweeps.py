import numpy as np
import pytest

from gkpmdi.channels import ProtocolParams
from gkpmdi.config import RunConfig, SweepSpec
from gkpmdi.finite_size import FiniteSizeParams
from gkpmdi.gkp import GkpAncilla
from gkpmdi.sweeps import (link_sigma_r2, max_secure_distance, max_secure_la,
                           max_secure_lb, rate_point)


def cfg(mode="gkp", ancilla=GkpAncilla(20.0), layers=1, finite=True,
        la=1.0, lb=10.0, qt_db=20.0):
    return RunConfig(scenario="fiber",
                     protocol=ProtocolParams(l_a_km=la, l_b_km=lb),
                     link_mode=mode, ancilla=ancilla, layers=layers,
                     qt_squeezing_db=qt_db,
                     finite_size=FiniteSizeParams() if finite else None,
                     fading=None, sweep=SweepSpec())


def test_max_secure_distance_simple_root():
    assert max_secure_distance(lambda x: 5.0 - x, 0.1, 100.0) == pytest.approx(5.0, abs=0.01)


def test_max_secure_distance_no_secure_region():
    assert np.isnan(max_secure_distance(lambda x: np.full(np.shape(x), -1.0), 0.1, 100.0))


def test_max_secure_distance_expands_window():
    assert max_secure_distance(lambda x: 250.0 - x, 0.1, 100.0) == pytest.approx(250.0, abs=0.01)


def test_max_secure_distance_takes_last_positive():
    # isolated false negatives below the true edge must not stop the search
    def noisy(x):
        return np.where((4.9 < x) & (x < 4.95), -1e-18, 10.0 - x)

    assert max_secure_distance(noisy, 0.1, 100.0) == pytest.approx(10.0, abs=0.01)


def test_link_sigma_r2_modes():
    c = cfg("direct")
    assert link_sigma_r2(c, 1.0) == (0.0, 0.0, 0.0)
    total, per, r_opt = link_sigma_r2(cfg("gkp"), 1.0)
    assert total == per and r_opt > 0
    total4, per4, _ = link_sigma_r2(cfg("gkp", layers=4, la=3.0), 3.0)
    assert total4 == pytest.approx(4 * per4)
    qt_total, _, _ = link_sigma_r2(cfg("qt"), 1.0)
    assert 0 < qt_total < total  # teleportation leaves less noise to correct


def test_rate_point_row_contents():
    row = rate_point(cfg("gkp"), 1.0, 8.0)
    assert row["rate_kind"] == "composable"
    assert row["rate_bits"] > 0
    assert row["holevo_bits"] >= 0
    assert row["v1"] >= 1.0 and row["v2"] >= 1.0 - 1e-9
    row_asy = rate_point(cfg("gkp", finite=False), 1.0, 8.0)
    assert row_asy["rate_kind"] == "asymptotic"
    assert row_asy["rate_bits"] > row["rate_bits"]  # finite size always costs


def test_qt_overtakes_ideal_code_beyond_short_range():
    # teleportation compensation wins once the near link passes ~1.1 km
    short_qt = max_secure_lb(cfg("qt", la=1.0), 1.0, hi=60.0)
    short_ideal = max_secure_lb(cfg("gkp", GkpAncilla(None), la=1.0), 1.0, hi=60.0)
    assert short_qt < short_ideal
    long_qt = max_secure_lb(cfg("qt", la=1.2), 1.2, hi=60.0)
    long_ideal = max_secure_lb(cfg("gkp", GkpAncilla(None), la=1.2), 1.2, hi=60.0)
    assert long_qt > long_ideal


def test_frontier_la_consistent_with_rate_sign():
    c = cfg("gkp", GkpAncilla(None), lb=5.0)
    edge = max_secure_la(c, 5.0, hi=10.0)
    just_inside = rate_point(c, edge - 0.05, 5.0)["rate_bits"]
    just_outside = rate_point(c, edge + 0.05, 5.0)["rate_bits"]
    assert just_inside > 0 >= just_outside


@pytest.mark.parametrize("mode", ["gkp", "qt", "direct"])
def test_rate_point_block_matches_single_points(mode):
    # one block over la (a batched link optimization), lb or block size
    c = cfg(mode)
    axes = [(np.array([0.0, 0.5, 1.7, 3.0]), 10.0, None),
            (1.0, np.array([2.0, 8.0, 15.0, 30.0]), None),
            (1.0, 8.0, np.array([1e8, 3e8, 1e9, 1e10]))]
    for args in axes:
        block = rate_point(c, *args)
        for k in range(4):
            row = rate_point(c, *(a[k] if isinstance(a, np.ndarray) else a for a in args))
            assert row.keys() == block.keys()
            for col, value in block.items():
                assert (value[k] if isinstance(value, np.ndarray) else value) == row[col], col
