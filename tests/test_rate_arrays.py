"""The rate layer on arrays equals its length-1 calls bit for bit."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gkpmdi.channels import ProtocolParams
from gkpmdi.finite_size import FiniteSizeParams, UnphysicalWorstCaseError, composable_rate
from gkpmdi.security import ConditionedScalars, asymptotic_rate, fiber_link, link_scalars

_POINT = st.tuples(st.sampled_from(("direct", "preamp", "gkp")), st.floats(0.0, 5.0),
                   st.one_of(st.floats(0.0, 40.0), st.floats(400.0, 800.0)),
                   st.floats(0.0, 0.3), st.floats(1e7, 1e12))
# a lossless A link and a 700 km B link: a nearly product state (psi^2 about
# 2e-13 of phi_a phi_b), whose worst case at a 1e8-pulse block is unphysical
_DEEP = ("direct", 0.0, 700.0, 0.0, 1e8)
_FIELDS = ("phi_a", "psi", "phi_b", "margin_a", "margin_b")


def _params(la, lb):
    return ProtocolParams(l_a_km=la, l_b_km=lb, sigma2_a=18.0, sigma2_b=24.0, beta0=0.95)


def _scalars(la, lb, sr2, mode):
    p = _params(la, lb)
    return link_scalars(fiber_link(p, sr2, mode), p)


def _fs(n_total):
    return FiniteSizeParams(n_total=n_total, m_pe=0.1 * n_total)


def _same(batch, singles):
    assert np.array_equal(np.asarray(batch), np.array(singles, dtype=float))


def _same_report(batch, singles):
    for field in ("mutual_info", "holevo", "rate"):
        _same(getattr(batch, field), [getattr(s, field) for s in singles])
    for i in range(3):
        _same(batch.spectrum[i], [s.spectrum[i] for s in singles])


@settings(max_examples=60)
@given(st.lists(_POINT, min_size=1, max_size=12))
def test_array_rate_layer_matches_length1_calls(points):
    points = points + [_DEEP]
    modes = np.array([p[0] for p in points])
    la, lb, sr2, n_total = (np.array([p[i] for p in points]) for i in range(1, 5))
    one = [_scalars(la[k], lb[k], sr2[k], modes[k]) for k in range(len(points))]
    for mode in set(modes.tolist()):
        idx = np.flatnonzero(modes == mode)
        sc = _scalars(la[idx], lb[idx], sr2[idx], mode)
        for field in _FIELDS:
            _same(getattr(sc, field), [getattr(one[k], field) for k in idx])
        _same_report(asymptotic_rate(sc, 0.95), [asymptotic_rate(one[k], 0.95) for k in idx])

    # the rate functionals take one batch across link modes
    batch = ConditionedScalars(*(np.array([getattr(s, f) for s in one]) for f in _FIELDS))
    _same_report(asymptotic_rate(batch, 0.95), [asymptotic_rate(sc, 0.95) for sc in one])

    single = []
    for k in range(len(one)):
        try:
            single.append(composable_rate(one[k], 0.95, _fs(n_total[k])))
        except UnphysicalWorstCaseError:
            single.append(None)
    ok = np.array([r is not None for r in single])
    assert not ok[-1]
    with pytest.raises(UnphysicalWorstCaseError):
        composable_rate(batch, 0.95, _fs(n_total))
    physical = ConditionedScalars(*(getattr(batch, f)[ok] for f in _FIELDS))
    _same(composable_rate(physical, 0.95, _fs(n_total[ok])), [r for r in single if r is not None])
    # a frontier scan's lenient call: unphysical elements are NaN, the rest unchanged
    lenient = composable_rate(batch, 0.95, _fs(n_total), strict=False)
    assert np.all(np.isnan(lenient[~ok]))
    _same(lenient[ok], [r for r in single if r is not None])
    for mode in set(modes[ok].tolist()):
        idx = np.flatnonzero(ok & (modes == mode))
        sc = _scalars(la[idx], lb[idx], sr2[idx], mode)
        _same(composable_rate(sc, 0.95, _fs(n_total[idx])), [single[k] for k in idx])


def test_one_unphysical_element_raises_naming_its_block():
    sc = _scalars(np.array([1.0, 1.0, 1.0]), np.array([10.0, 10.0, 10.0]), 0.02, "gkp")
    fs = _fs(np.array([1e8, 100.0, 1e9]))
    with pytest.raises(UnphysicalWorstCaseError, match="m_pe = 10 "):
        composable_rate(sc, 0.95, fs)
