"""The rate layer on arrays equals its length-1 calls bit for bit."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gkpmdi.channels import ProtocolParams
from gkpmdi.finite_size import (FiniteSizeParams, UnphysicalWorstCaseError, composable_rate,
                                composable_rate_from_pe, pe_rate_from_scalars)
from gkpmdi.security import _TAIL_THRESHOLD, _rate_pieces, asymptotic_rate, conditioned_scalars

_POINT = st.tuples(st.sampled_from(("direct", "preamp", "gkp")), st.floats(0.0, 5.0),
                   st.one_of(st.floats(0.0, 40.0), st.floats(400.0, 800.0)),
                   st.floats(0.0, 0.3), st.floats(1e7, 1e12))
# a lossless A link and a 700 km B link: psi^2/(phi_a + phi_b)^2 is below the
# deep-loss threshold, and the worst case of a 1e8-pulse block is unphysical
_DEEP = ("direct", 0.0, 700.0, 0.0, 1e8)


def _params(la, lb):
    return ProtocolParams(l_a_km=la, l_b_km=lb, sigma2_a=18.0, sigma2_b=24.0, beta0=0.95)


def _fs(n_total):
    return FiniteSizeParams(n_total=n_total, m_pe=0.1 * n_total)


def _same(batch, singles):
    assert np.array_equal(np.asarray(batch), np.array(singles, dtype=float))


def _same_report(batch, singles):
    for field in ("mutual_info", "holevo", "rate"):
        _same(getattr(batch, field), [getattr(s, field) for s in singles])
    for i in range(3):
        _same(batch.spectrum[i], [s.spectrum[i] for s in singles])


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.lists(_POINT, min_size=1, max_size=12))
def test_array_rate_layer_matches_length1_calls(points):
    points = points + [_DEEP]
    modes = np.array([p[0] for p in points])
    la, lb, sr2, n_total = (np.array([p[i] for p in points]) for i in range(1, 5))
    one = [conditioned_scalars(_params(la[k], lb[k]), sr2[k], modes[k]) for k in range(len(points))]
    for mode in set(modes.tolist()):
        idx = np.flatnonzero(modes == mode)
        sc = conditioned_scalars(_params(la[idx], lb[idx]), sr2[idx], mode)
        for field in ("phi_a", "psi", "phi_b", "phi_a_m1"):
            _same(getattr(sc, field), [getattr(one[k], field) for k in idx])
        _same_report(asymptotic_rate(_params(la[idx], lb[idx]), sr2[idx], mode),
                     [asymptotic_rate(_params(la[k], lb[k]), sr2[k], mode) for k in idx])

    # the scalar functionals take one batch across link modes
    pa, psi, pb, m1 = (np.array([getattr(s, f) for s in one])
                       for f in ("phi_a", "psi", "phi_b", "phi_a_m1"))
    assert np.any(psi * psi / (pa + pb) ** 2 <= _TAIL_THRESHOLD)
    _same_report(_rate_pieces(pa, psi, pb, 0.95, m1),
                 [_rate_pieces(pa[k], psi[k], pb[k], 0.95, m1[k]) for k in range(len(one))])

    single_pe = []
    for k in range(len(one)):
        try:
            single_pe.append(pe_rate_from_scalars(pa[k], psi[k], pb[k], 0.95, _fs(n_total[k])))
        except UnphysicalWorstCaseError:
            single_pe.append(None)
    ok = np.array([r is not None for r in single_pe])
    assert not ok[-1]
    with pytest.raises(UnphysicalWorstCaseError):
        pe_rate_from_scalars(pa, psi, pb, 0.95, _fs(n_total))
    r_pe = pe_rate_from_scalars(pa[ok], psi[ok], pb[ok], 0.95, _fs(n_total[ok]))
    _same(r_pe, [r for r in single_pe if r is not None])
    # a frontier scan's lenient call: unphysical elements are NaN, the rest unchanged
    lenient = pe_rate_from_scalars(pa, psi, pb, 0.95, _fs(n_total), strict=False)
    assert np.all(np.isnan(lenient[~ok]))
    _same(lenient[ok], [r for r in single_pe if r is not None])
    _same(composable_rate_from_pe(r_pe, _fs(n_total[ok])),
          [composable_rate_from_pe(r, _fs(n)) for r, n in zip(r_pe.tolist(), n_total[ok])])
    for mode in set(modes[ok].tolist()):
        idx = np.flatnonzero(ok & (modes == mode))
        _same(composable_rate(_params(la[idx], lb[idx]), sr2[idx], _fs(n_total[idx]), mode),
              [composable_rate(_params(la[k], lb[k]), sr2[k], _fs(n_total[k]), mode)
               for k in idx])


def test_one_unphysical_element_raises_naming_its_block():
    sc = conditioned_scalars(_params(np.array([1.0, 1.0, 1.0]), np.array([10.0, 10.0, 10.0])),
                             0.02, "gkp")
    fs = _fs(np.array([1e8, 100.0, 1e9]))
    with pytest.raises(UnphysicalWorstCaseError, match="m_pe = 10 "):
        pe_rate_from_scalars(sc.phi_a, sc.psi, sc.phi_b, 0.95, fs)
