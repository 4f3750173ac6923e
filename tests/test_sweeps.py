from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from gkpmdi.channels import ProtocolParams
from gkpmdi.config import ConfigError, RunConfig, SweepSpec, load_config
from gkpmdi.finite_size import FiniteSizeParams, composable_rate
from gkpmdi.gkp import GkpAncilla, optimize_squeezing
from gkpmdi.security import asymptotic_rate, conditioned_scalars
from gkpmdi.sweeps import _link, frontier, link_sigma_r2, max_secure_distance, rate_point, \
    rate_rows, residual_rows
from shipped import FIBER_DEFAULT, reference_fading_config


def cfg(mode="gkp", ancilla=GkpAncilla(20.0), layers=1, finite=True,
        la=1.0, lb=10.0, qt_db=20.0):
    return RunConfig(protocol=ProtocolParams(l_a_km=la, l_b_km=lb),
                     link_mode=mode, ancilla=ancilla, layers=layers,
                     qt_squeezing_db=qt_db,
                     finite_size=FiniteSizeParams() if finite else None,
                     fading=None, sweep=SweepSpec())


def bisection_reference(rate_fn, lo, hi):
    """The frontier search with scalar bisection in the bracketing cell: one
    ``rate_fn`` call per probe."""
    for _ in range(8):
        grid = np.linspace(lo, hi, 400)
        pos = np.nonzero(rate_fn(grid) > 0.0)[0]
        if len(pos) == 0:
            return float("nan")
        i = pos[-1]
        if i == len(grid) - 1:
            lo, hi = grid[-1], hi * 2.0
            continue
        a, b = grid[i], grid[i + 1]
        while b - a > 0.01:
            mid = (a + b) / 2.0
            if rate_fn(mid) > 0.0:
                a = mid
            else:
                b = mid
        return float((a + b) / 2.0)
    return float("nan")


# rate functions of distance x with their one sign change at x = edge
_SHAPES = {
    "linear": lambda x, edge: edge - x,
    "cubic": lambda x, edge: (edge - x) ** 3,  # flat through the edge
    "decay": lambda x, edge: np.exp(-x / edge) - np.exp(-1.0),
}


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.floats(0.0, 50.0), st.floats(0.5, 2000.0), st.floats(1e-3, 3.0),
       st.sampled_from(sorted(_SHAPES)))
def test_frontier_matches_bisection(lo, width, where, shape):
    # edges past hi (where > 1) take the guard's extended windows
    edge = lo + where * width
    calls = []

    def rate_fn(x):
        calls.append(np.ndim(x))
        return _SHAPES[shape](x, edge)

    found = max_secure_distance(rate_fn, lo, lo + width)
    reference = bisection_reference(lambda x: _SHAPES[shape](x, edge), lo, lo + width)
    # the two form the same probe points by different float sums, a few ulp
    # apart: more than 1e-12 km only for edges past ~2,000 km
    assert found == pytest.approx(reference, abs=max(1e-12, 4 * np.spacing(reference)),
                                  nan_ok=True)
    assert set(calls) == {1} and len(calls) <= 8 + 1  # scan windows, one refinement


def test_max_secure_distance_passes_only_arrays():
    # one scan call and one refinement call, each on a 1-D array
    calls = []

    def rate_fn(x):
        if np.ndim(x) != 1:
            raise TypeError("rate_fn takes 1-D arrays")
        calls.append(len(x))
        return 5.0 - x

    assert max_secure_distance(rate_fn, 0.1, 100.0) == pytest.approx(5.0, abs=0.01)
    assert calls == [400, 31]  # a 0.25 km cell in 32 sub-cells of 0.0078 km


def test_refinement_finds_the_supremum_past_a_noisy_probe():
    # a false negative at the centre of the bracketing cell, where bisection
    # probes first, hides the edge from bisection but not from the supremum
    grid = np.linspace(0.1, 100.0, 400)
    centre, edge = (grid[39] + grid[40]) / 2.0, grid[40] - 0.005

    def noisy(x):
        return np.where(np.abs(x - centre) < 1e-3, -1e-18, edge - x)

    assert max_secure_distance(noisy, 0.1, 100.0) == pytest.approx(edge, abs=0.01)
    assert bisection_reference(noisy, 0.1, 100.0) < centre


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


def test_link_segments_match_single_layer_links():
    # a layer-count array is one optimization over per-segment noises, each
    # element the configured-layers link bit for bit
    layers = np.arange(1, 9)
    total, per, r_opt = _link(cfg("gkp", la=3.0), 3.0, layers)
    singles = np.array([link_sigma_r2(cfg("gkp", layers=int(k), la=3.0), 3.0) for k in layers])
    assert np.array_equal(np.stack([total, per, r_opt], axis=1), singles)
    # each of the four 0.75 km segments is corrected on its own compensated noise
    assert per[3] == optimize_squeezing(1.0 - 10 ** (-0.2 * 0.75 / 10), GkpAncilla(20.0))[1]
    assert np.array_equal(total, layers * per) and np.all(r_opt > 0)


_LINKS = st.tuples(st.sampled_from(("direct", "preamp", "gkp", "qt")),
                   st.sampled_from((GkpAncilla(None), GkpAncilla(15.0), GkpAncilla(20.0))),
                   st.floats(0.0, 2.0))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_LINKS, st.lists(st.floats(0.0, 100.0), min_size=2, max_size=40),
       st.floats(1e7, 1e12))
def test_rate_does_not_increase_with_lb(link, lbs, n_total):
    mode, ancilla, la = link
    lb = np.sort(np.array(lbs))
    for finite in (False, True):
        c = replace(cfg(mode, ancilla, la=la),
                    finite_size=FiniteSizeParams(n_total=n_total) if finite else None)
        rate = rate_point(c, la, lb)["rate_bits"]
        # a negative value is no key: past its minimum it climbs back toward 0
        # as both information terms vanish with the loss
        assert np.all(np.diff(np.maximum(rate, 0.0)) <= 0.0), (finite, lb, rate)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_LINKS, st.lists(st.floats(0.0, 100.0), min_size=1, max_size=40),
       st.floats(1e7, 1e12), st.floats(0.01, 0.5), st.floats(0.5, 1.0))
def test_composable_rate_below_scaled_asymptotic(link, lbs, n_total, pe_fraction, p_ec):
    # composable <= p_ec (1 - m/N) asymptotic: the worst-case PE rate is at
    # most the asymptotic one and the other finite-size terms are penalties
    mode, ancilla, la = link
    lb = np.array(lbs)
    fs = FiniteSizeParams(n_total=n_total, m_pe=pe_fraction * n_total, p_ec=p_ec)
    asym = rate_point(cfg(mode, ancilla, finite=False, la=la), la, lb)["rate_bits"]
    comp = rate_point(replace(cfg(mode, ancilla, la=la), finite_size=fs), la, lb)["rate_bits"]
    assert np.all(comp <= p_ec * (1.0 - pe_fraction) * asym)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(_LINKS, st.lists(st.floats(0.0, 100.0), min_size=1, max_size=20),
       st.one_of(st.none(), st.floats(1e7, 1e12)))
def test_rate_point_is_the_public_rate_functions(link, lbs, n_total):
    # every rate row goes through asymptotic_rate and composable_rate on the
    # conditioned scalars of its link, bit for bit
    mode, ancilla, la = link
    lb = np.array(lbs)
    fs = None if n_total is None else FiniteSizeParams(n_total=n_total)
    c = replace(cfg(mode, ancilla, la=la), finite_size=fs)
    row = rate_point(c, la, lb, strict=False)
    params = replace(c.protocol, l_b_km=lb)
    sc = conditioned_scalars(params, _link(c, la)[0], mode)
    report = asymptotic_rate(sc, params.beta0)
    expected = {"mutual_info_bits": report.mutual_info, "holevo_bits": report.holevo,
                "v1": report.spectrum[0], "v2": report.spectrum[1], "v3": report.spectrum[2],
                "rate_bits": report.rate if fs is None
                else composable_rate(sc, params.beta0, fs, strict=False)}
    for column, value in expected.items():
        assert np.array_equal(row[column], value, equal_nan=True), column


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
    short_qt = frontier(cfg("qt", la=1.0), "lb_km")[0]
    short_ideal = frontier(cfg("gkp", GkpAncilla(None), la=1.0), "lb_km")[0]
    assert short_qt < short_ideal
    long_qt = frontier(cfg("qt", la=1.2), "lb_km")[0]
    long_ideal = frontier(cfg("gkp", GkpAncilla(None), la=1.2), "lb_km")[0]
    assert long_qt > long_ideal


def test_frontier_la_consistent_with_rate_sign():
    c = cfg("gkp", GkpAncilla(None), lb=5.0)
    edge = frontier(c, "la_km")[0]
    just_inside = rate_point(c, edge - 0.05, 5.0)["rate_bits"]
    just_outside = rate_point(c, edge + 0.05, 5.0)["rate_bits"]
    assert just_inside > 0 >= just_outside


def test_frontier_counts_the_unphysical_points_rate_rows_writes():
    # a noiseless A link: past ~400 km of B link the 1e7-signal estimate
    # cannot bound the worst case, and those scan points count as not secure
    fiber = load_config(FIBER_DEFAULT)
    c = replace(fiber, protocol=replace(fiber.protocol, l_a_km=0.0),
                sweep=replace(fiber.sweep, mode="frontier"))
    km, unphysical = frontier(c, "lb_km")
    assert unphysical == 298 and round(km, 2) == 37.13
    row = next(rate_rows(c))
    assert (row["max_secure_km"], row["unphysical_points"]) == (km, unphysical)
    assert frontier(fiber, "lb_km")[1] == 0


def test_frontier_rejects_axes_it_cannot_scan():
    for axis in ("total_pulse", "layers"):
        with pytest.raises(ConfigError, match="frontier mode supports axes lb_km and la_km"):
            frontier(cfg(), axis)
    fading = load_config(reference_fading_config(0.1))
    with pytest.raises(ConfigError, match="axis = la_km does not act on a \\[fading\\] link"):
        frontier(fading, "la_km")


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


@settings(derandomize=True, deadline=None, max_examples=100)
@given(la=st.floats(0.0, 40.0), squeezing_db=st.none() | st.floats(5.0, 40.0),
       n_bar=st.just(0.0) | st.floats(0.0, 0.5))
@example(la=17.5, squeezing_db=20.0, n_bar=0.0)  # sigma2 = 0.5533: the floor alone is 0.5645
def test_residual_rows_never_fall_below_their_floor(la, squeezing_db, n_bar):
    # sigma_lb2 bounds any single-layer correction from below, and leaving
    # the noise uncorrected reaches sigma2: the written floor is the lower
    c = RunConfig(protocol=ProtocolParams(n_bar=n_bar), ancilla=GkpAncilla(squeezing_db),
                  finite_size=None, sweep=SweepSpec(axis="la_km", start=la, stop=la + 1.0,
                                                    step=0.25))
    try:
        (block,) = residual_rows(c)
    except ConfigError:  # sigma2 >= 1: no floor to write
        assume(False)
    assert np.all(block["sigma_r2"] >= block["sigma_lb2"])
    assert np.all(block["sigma_lb2"] <= block["sigma2"])
