import json
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.special import ndtr

from gkpmdi import fading, gkp, sweeps
from gkpmdi.config import load_config
from gkpmdi.gkp import (ELL, GkpAncilla, IDEAL, concat_variance,
                        effective_estimator_gain, lower_bound_variance,
                        optimize_squeezing, residual_variance, syndrome_reduce)
from gkpmdi.channels import ProtocolParams
from gkpmdi.mc import RngStream, mc_protocol_mutual_info, mc_residual_variance
from matrix_oracle import (conditioning_blocks, linear_estimator, mu_tilde,
                           padded_normal_tail, reshaped_noise_cm, symplectic_form)
from shipped import FIBER_DEFAULT, reference_fading_config

DB20 = GkpAncilla(20.0)
ANCILLAS = [IDEAL, GkpAncilla(15.0), DB20, GkpAncilla(25.0)]
TINY = np.finfo(float).tiny


def theta_series_moments(var_w, terms=400):
    """Independent oracle: Fourier series of the wrapped second moments."""
    q = np.exp(-np.pi * var_w)
    m2 = np.pi / 6.0
    m11 = 0.0
    for m in range(1, terms):
        t = (-1.0) ** m * q ** (m * m)
        m2 += (2.0 / np.pi) * t / (m * m)
        m11 -= 2.0 * var_w * t
        if abs(t) < 1e-18:
            break
    return m2, m11


def cell_sum_moments(var_w):
    """Oracle: the lattice-cell sum of the wrapped moments with scipy's ndtr.

    Exact per-cell closed forms in Phi and the normal density over every
    cell out to 7.5 standard deviations, for any variance; the moments of
    the second-moment decomposition the production kernel replaced.
    """
    var = np.asarray(var_w, dtype=float)
    flat = var.ravel()
    m2, m11 = np.zeros_like(flat), np.zeros_like(flat)
    live = np.flatnonzero(flat > 0.0)
    counts = np.ceil(7.5 * np.sqrt(flat[live]) / ELL + 0.5).astype(int)
    for n_cells in np.unique(counts):
        rows = live[counts == n_cells]
        v = flat[rows, None]
        sd = np.sqrt(v)
        c = np.arange(n_cells + 1) * ELL
        edges = (np.arange(n_cells + 2) - 0.5) * ELL
        edges[0] = 0.0
        z = edges / sd
        tail = ndtr(-z)
        vf = sd * np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
        p = tail[:, :-1] - tail[:, 1:]
        e_u = vf[:, :-1] - vf[:, 1:] - c * p
        e_wu = v * p + (edges[:-1] - c) * vf[:, :-1] - (edges[1:] - c) * vf[:, 1:]
        m2[rows] = 2.0 * np.sum(e_wu - c * e_u, axis=1)
        m11[rows] = 2.0 * np.sum(e_wu, axis=1)
    return m2.reshape(var.shape), m11.reshape(var.shape)


def cell_mass_shift_variance(var_w, n_cells=None):
    """Oracle: E[D^2] = sum over lattice cells of (n ell)^2 P(cell n), with ndtr.

    Sums the cells out past 12 standard deviations, or cells 1 to
    ``n_cells`` on each side when that is given.
    """
    out = []
    for v in np.atleast_1d(np.asarray(var_w, dtype=float)):
        sd = np.sqrt(v)
        n = np.arange(1, n_cells + 1 if n_cells else int(12.0 * sd / ELL) + 4)
        mass = ndtr(-(n - 0.5) * ELL / sd) - ndtr(-(n + 0.5) * ELL / sd)
        out.append(2.0 * np.sum((n * ELL) ** 2 * mass))
    return np.array(out)


def shift_variance(var):
    """E[D^2] from the production kernel, over positive variances."""
    return gkp._shift_terms(np.asarray(var, dtype=float))[0]


def test_ancilla_definitions():
    assert IDEAL.ideal and IDEAL.delta2 == 0.0
    assert abs(DB20.delta2 - 0.005) < 1e-15
    assert abs(DB20.syndrome_noise_variance - 0.01) < 1e-15
    with pytest.raises(ValueError):
        GkpAncilla(-3.0)


def test_reshaped_noise_cm_limits():
    assert np.allclose(reshaped_noise_cm(0.0, 0.3), 0.3 * np.eye(4))
    assert np.array_equal(reshaped_noise_cm(0.7, 0.0), np.zeros((4, 4)))


def test_reshaped_noise_cm_against_sampling():
    r, sigma2 = 0.5, 0.1
    rng = np.random.default_rng(42)
    n = 2_000_000
    xi = rng.normal(0.0, np.sqrt(sigma2), size=(4, n))
    c, s = np.cosh(r), np.sinh(r)
    z = np.stack([c * xi[0] - s * xi[2], c * xi[1] - s * xi[3],
                  c * xi[2] - s * xi[0], c * xi[3] - s * xi[1]])
    sample_cm = z @ z.T / n
    se = 3.0 * sigma2 * np.cosh(2 * r) * np.sqrt(2.0 / n)
    assert np.max(np.abs(sample_cm - reshaped_noise_cm(r, sigma2))) < 3 * se


def test_conditioning_blocks_uncorrelated():
    blocks = conditioning_blocks(0.25 * np.eye(4))
    assert np.allclose(blocks.v_d, 0.25 * np.eye(2))
    assert np.allclose(blocks.v_a, 0.25 * np.eye(2))
    assert np.allclose(blocks.v_da, 0.0)
    assert np.allclose(blocks.v_d_given_a, 0.25 * np.eye(2))


def test_conditioning_blocks_roundtrip_identity():
    v_z = reshaped_noise_cm(0.5, 0.1)
    blocks = conditioning_blocks(v_z)
    reassembled = np.block([[blocks.v_d, blocks.v_da], [blocks.v_da.T, blocks.v_a]])
    rot = np.zeros((4, 4))
    rot[:2, :2] = np.eye(2)
    rot[2:, 2:] = symplectic_form(1)
    assert np.max(np.abs(reassembled - rot @ v_z @ rot.T)) < 1e-10


def test_linear_estimator_closed_form():
    assert np.allclose(linear_estimator(0.0), np.zeros((2, 2)))
    assert abs(mu_tilde(10.0) - 1.0) < 1e-8
    assert abs(mu_tilde(0.5) - 0.7615941559557649) < 1e-12
    # matrix path: regression of the data noise on the rotated ancilla noise
    for r in (0.2, 0.5, 1.0):
        blocks = conditioning_blocks(reshaped_noise_cm(r, 0.1))
        regression = blocks.v_da @ np.linalg.inv(blocks.v_a)
        assert np.allclose(linear_estimator(r), regression, atol=1e-12)
        assert np.allclose(np.abs(regression), mu_tilde(r) * np.abs(np.eye(2)[::-1]),
                           atol=1e-12)


def test_effective_gain_reduces_with_ancilla_noise():
    assert effective_estimator_gain(0.5, 0.1) == pytest.approx(mu_tilde(0.5))
    assert effective_estimator_gain(0.5, 0.1, DB20) < mu_tilde(0.5)
    assert effective_estimator_gain(0.0, 0.1, DB20) == 0.0


def test_effective_gain_broadcasts():
    r = np.array([[0.0], [0.3], [1.1]])
    s2 = np.array([0.0, 1e-3, 0.1, 0.5])
    for ancilla in (IDEAL, DB20):
        batch = effective_estimator_gain(r, s2, ancilla)  # Var(w) = 0 in one cell: no warning
        single = [[effective_estimator_gain(float(a), float(b), ancilla) for b in s2]
                  for a in r[:, 0]]
        assert batch.shape == (3, 4) and np.array_equal(batch, single)
    assert isinstance(effective_estimator_gain(0.4, 0.1), float)
    ideal = effective_estimator_gain(r, s2[1:], IDEAL)
    assert ideal == pytest.approx(np.tanh(2.0 * r) * np.ones(3), rel=1e-14)
    assert np.all(effective_estimator_gain(r, 0.0, IDEAL) == 0.0)


def test_syndrome_reduce():
    assert syndrome_reduce(0.0) == 0.0
    assert abs(syndrome_reduce(3.0 * ELL)) < 1e-12
    assert abs(syndrome_reduce(2.0) - (2.0 - ELL)) < 1e-15
    assert abs(syndrome_reduce(2.0) + 0.5066282746310002) < 1e-12
    arr = syndrome_reduce(np.array([0.0, ELL, -1.4 * ELL]))
    assert np.allclose(arr, [0.0, 0.0, -0.4 * ELL])
    # boundary ties leave the interval closed
    assert abs(syndrome_reduce(ELL / 2.0)) <= ELL / 2.0 + 1e-15


def test_lattice_shift_variance_against_theta_series():
    # broad syndromes: E[D^2] = E[(w - wrap(w))^2] = v - 2 E[w wrap(w)] + E[wrap(w)^2]
    v = np.array([0.5, np.nextafter(0.5, 1.0), 0.51, 0.8, 1.5, 6.0, 20.0, 50.0, 200.0])
    ref = np.array([x - 2.0 * m11 + m2 for x in v for m2, m11 in [theta_series_moments(x)]])
    shift = shift_variance(v)
    assert np.all(np.abs(shift - ref) <= 4e-15 * ref)


def test_lattice_shift_variance_against_cell_mass_oracle():
    crossover = [np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0), 0.49, 0.51]
    v = np.concatenate([np.geomspace(1e-3, 1e3, 400), crossover])
    shift = shift_variance(v)
    ref = cell_mass_shift_variance(v)
    assert np.all(np.abs(shift - ref) <= 4e-15 * ref)
    # the two branches meet at the crossover: the three variances next to 1/2
    assert np.ptp(shift[-5:-2]) < 1e-15


def test_normal_tail_against_ndtr():
    z = np.linspace(np.sqrt(np.pi), 40.0, 200_001)
    ref = ndtr(-z)
    tail = gkp._normal_tail(z)
    np.testing.assert_allclose(tail, ref, rtol=1e-13, atol=0.0)
    assert np.array_equal(tail == 0.0, ref == 0.0)  # the same underflow point
    assert gkp._normal_tail(np.array([1e30, 1e200, np.inf])).tolist() == [0.0, 0.0, 0.0]


_TAIL_Z = st.floats(np.sqrt(np.pi), 60.0) | st.sampled_from([1e30, np.inf])
# the branch edges: x = z / sqrt(2) = 8 exactly at the float below 8 sqrt(2),
# and x^2 = MAXLOG crossed between sqrt(2 MAXLOG) and the float below it
_TAIL_EDGES = [np.sqrt(np.pi), 8.0 * np.sqrt(2.0), np.nextafter(8.0 * np.sqrt(2.0), 0.0),
               np.sqrt(2.0 * gkp._MAXLOG), np.nextafter(np.sqrt(2.0 * gkp._MAXLOG), 0.0), 60.0]


@settings(max_examples=300)
@given(st.integers(1, 40).flatmap(lambda n: st.lists(_TAIL_Z, min_size=3 * n, max_size=3 * n)))
@example(_TAIL_EDGES)
@example([2.0] * 6)  # every element on the P/Q branch
@example([20.0] * 3)  # every element on the R/S branch
@example([60.0, 1e30, np.inf])  # every tail underflows
def test_normal_tail_equals_the_padded_oracle_bit_for_bit(z):
    # each element runs only its own erfc branch, in the oracle's Horner
    # order, so the tail is the four-polynomial form's to the bit, in 1-D
    # and in the (3, n) cell layout
    z = np.array(z)
    for shaped in (z, z.reshape(3, -1)):
        tail = gkp._normal_tail(shaped)
        assert tail.shape == shaped.shape
        assert tail.tobytes() == padded_normal_tail(shaped).tobytes()


def test_residual_variance_narrow_limit():
    # with an ideal ancilla and Var(w) = 0.01 a shift has probability ~1e-35:
    # the residual is the regression residual sigma^2 / cosh(2r), to rounding
    for r in (0.5, 1.0, 2.0, 5.0, 7.0):
        s2 = 1e-2 / np.cosh(2.0 * r)
        assert residual_variance(r, s2) == pytest.approx(s2 / np.cosh(2.0 * r), rel=1e-15)


def test_residual_variance_against_moment_decomposition():
    # the second-moment decomposition Var(a) - 2 phi Cov(a, w)/Var(w) E[w wrap(w)]
    # + phi^2 E[wrap(w)^2], with the cell-sum moments; it cancels, and most
    # where the syndrome is narrow and the ancilla ideal
    r = np.linspace(0.0, 4.0, 81)[:, None]
    s2 = np.geomspace(1e-4, 0.999, 60)[None, :]
    for ancilla, rtol in ((GkpAncilla(12.0), 1e-13), (DB20, 1e-13), (GkpAncilla(30.0), 1e-13),
                          (IDEAL, 1e-10)):
        var_a, cov = s2 * np.cosh(2.0 * r), s2 * np.sinh(2.0 * r)
        var_w = var_a + ancilla.syndrome_noise_variance
        m2, m11 = cell_sum_moments(var_w)
        phi = cov / var_w
        ref = var_a - 2.0 * phi * (cov / var_w) * m11 + phi * phi * m2
        assert np.all(np.abs(residual_variance(r, s2, ancilla) - ref) <= rtol * ref)


def test_residual_variance_no_correction_recovers_channel():
    for s2 in (1e-6, 0.05, 0.3):
        assert residual_variance(0.0, s2, IDEAL) == pytest.approx(s2, rel=1e-9)
        assert residual_variance(0.0, s2, DB20) == pytest.approx(s2, rel=1e-9)
    assert residual_variance(0.7, 0.0) == 0.0


def test_residual_variance_truncation_stability():
    # six lattice cells with scipy's ndtr against the kernel's three
    r, s2 = 0.46, 0.129
    var_w = s2 * np.cosh(2.0 * r) + DB20.syndrome_noise_variance
    phi = s2 * np.sinh(2.0 * r) / var_w
    six = s2 * np.cosh(2.0 * r) - phi * phi * (var_w - cell_mass_shift_variance(var_w, 6)[0])
    base = residual_variance(r, s2, DB20)
    assert abs(base - six) / base < 1e-9


def test_residual_variance_matches_monte_carlo():
    r, s2 = 0.46, 0.129
    analytic = residual_variance(r, s2, DB20)
    est = mc_residual_variance(r, s2, DB20, 1_500_000, RngStream(7, 1))
    assert abs(est.variance - analytic) < 3.0 * est.stderr
    assert abs(est.var_q - est.var_p) < 3.0 * np.hypot(est.stderr_q, est.stderr_p)


def test_ideal_never_worse_than_finite():
    for r in (0.2, 0.5, 0.9):
        for s2 in (0.03, 0.1, 0.2):
            assert residual_variance(r, s2, IDEAL) <= residual_variance(r, s2, DB20)


def test_optimize_never_worse_than_break_even():
    for s2 in (0.01, 0.05, 0.129, 0.3, 0.5):
        _, v = optimize_squeezing(s2, DB20)
        assert v <= s2 + 1e-15
        assert v >= lower_bound_variance(s2) if s2 < 1.0 else True


@given(st.floats(1e-3, 0.9), st.sampled_from(ANCILLAS))
@example(0.01, DB20)
def test_optimize_reports_no_gain_as_r_zero(s2, ancilla):
    r_opt, v = optimize_squeezing(s2, ancilla)
    assert v <= s2
    assert (r_opt == 0.0) == (v == s2)


@settings(max_examples=40)
@given(st.lists(st.floats(0.0, 0.999), min_size=1, max_size=30), st.sampled_from(ANCILLAS))
def test_optimized_residual_never_exceeds_channel_noise(drawn, ancilla):
    # one array call across the noise range, a noiseless channel included
    s2 = np.array([0.0] + drawn)
    _, v = optimize_squeezing(s2, ancilla)
    assert np.all((0.0 <= v) & (v <= s2))


@given(st.floats(1e-6, 0.9), st.sampled_from(ANCILLAS))
@example(1e-5, IDEAL)
@example(1.7e-4, IDEAL)
def test_optimum_is_interior_to_its_bracket(s2, ancilla):
    # a step of the old 200-point grid either way raises the residual: the
    # optimum is not pinned to the end of a search window
    r_opt, v = optimize_squeezing(s2, ancilla)
    if r_opt == 0.0:
        return  # no coding gain
    step = 3.0 / 199.0
    assert residual_variance(max(r_opt - step, 0.0), s2, ancilla) > v
    assert residual_variance(r_opt + step, s2, ancilla) > v


def scalar_reference_optimize(s2, ancilla):
    """The optimizer as a scalar loop: one residual_variance call per point."""
    lo = 0.0
    while True:  # move the 200-point window up while its last point is best
        rs = lo + np.linspace(0.0, 3.0, 200)
        i = int(np.argmin([residual_variance(r, s2, ancilla) for r in rs]))
        if i < 199:
            break
        lo = rs[198]
    a, b = rs[max(0, i - 1)], rs[min(199, i + 1)]
    g = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = residual_variance(c, s2, ancilla), residual_variance(d, s2, ancilla)
    while b - a > 1e-10:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = residual_variance(c, s2, ancilla)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = residual_variance(d, s2, ancilla)
    r = (a + b) / 2.0
    v = residual_variance(r, s2, ancilla)
    return (0.0, s2) if v >= s2 * (1.0 - 1e-12) else (r, v)


@settings(max_examples=4)
@given(st.lists(st.floats(1e-6, 0.9), min_size=1, max_size=90), st.sampled_from(ANCILLAS))
def test_optimize_batch_matches_single_calls(drawn, ancilla):
    # window-extended (1e-6 .. 1.7e-4 ideal) and no-gain (0.9) elements always ride along
    fixed = [1e-6, 1e-5, 1.7e-4, 0.01, 0.5, 0.9]
    s2 = np.array(fixed + drawn)
    r_opt, v = optimize_squeezing(s2, ancilla)
    single = np.array([optimize_squeezing(float(x), ancilla) for x in s2])
    assert np.array_equal(r_opt, single[:, 0]) and np.array_equal(v, single[:, 1])
    # the scan-free search finds the scan's minimum, not its bits
    reference = np.array([scalar_reference_optimize(x, ancilla) for x in s2])
    np.testing.assert_allclose(v, reference[:, 1], rtol=1e-12, atol=0.0)
    assert np.array_equal(r_opt == 0.0, reference[:, 0] == 0.0)
    assert np.any(r_opt == 0.0)
    assert not ancilla.ideal or np.any(r_opt > gkp._R_MAX)
    assert isinstance(optimize_squeezing(0.1, ancilla)[0], float)


@given(st.lists(st.tuples(st.sampled_from([0.0, 0.2, 1.0, 3.0]) | st.floats(0.0, 4.0),
                          st.sampled_from([0.0, 1e-9]) | st.floats(1e-12, 1.0)),
                min_size=1, max_size=60),
       st.sampled_from(ANCILLAS))
def test_residual_batch_matches_single_calls(pairs, ancilla):
    r, s2 = np.array(pairs).T
    batch = residual_variance(r, s2, ancilla)
    single = [residual_variance(float(a), float(b), ancilla) for a, b in pairs]
    assert np.array_equal(batch, single)
    var = s2[s2 > 0.0] * 1e3  # up to 1000: both branches
    terms = gkp._shift_terms(var)
    assert all(np.array_equal(terms[:, i:i + 1], gkp._shift_terms(var[i:i + 1])) for i in range(var.size))
    assert isinstance(residual_variance(0.4, 0.1, ancilla), float)


@settings(max_examples=30)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20), st.data())
def test_negative_element_anywhere_raises(values, data):
    bad = np.array(values)
    bad[data.draw(st.integers(0, len(values) - 1))] = -1e-3
    with pytest.raises(ValueError):
        residual_variance(bad, 0.1)
    with pytest.raises(ValueError):
        residual_variance(0.4, bad)
    with pytest.raises(ValueError):
        optimize_squeezing(np.where(bad < 0, bad, bad + 0.1))


def test_optimize_squeezing_names_a_nan_input_as_not_finite():
    # NaN fails both checks; the finiteness one names it
    for bad in (np.nan, np.array([0.1, np.nan, 0.2])):
        with pytest.raises(ValueError, match="sigma2 must be finite"):
            optimize_squeezing(bad, DB20)


def test_optimize_tiny_noise_ideal():
    _, v = optimize_squeezing(1e-9, IDEAL)
    assert v <= 1e-9


def test_tiny_variances_run_clean():
    r = np.linspace(0.0, 3.0, 200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = residual_variance(r, 5e-324)
        r_opt, v_opt = optimize_squeezing(3e-308, IDEAL)
    assert np.all((0.0 <= v) & (v <= 5e-324 * np.cosh(2.0 * r)))
    assert 0.0 <= v_opt <= 3e-308 * np.cosh(2.0 * r_opt)


_NOISE = (st.floats(0.0, 1.0, exclude_max=True)
          | st.sampled_from([0.0, 5e-324, 1e-310, TINY, 3e-308, 1e-200, 1e-12]))


@settings(max_examples=200)
@given(st.floats(0.0, 16.0), _NOISE, st.sampled_from(ANCILLAS))
@example(11.4, 1e-12, IDEAL)
@example(2.0, 5e-324, IDEAL)
def test_residual_variance_is_bounded(r, s2, ancilla):
    # 0 <= V <= Var(a) + phi^2 pi/6: the lattice shift adds at most the
    # variance of a uniform wrap (E[D^2] <= Var(w) + pi/6, theta series)
    v = residual_variance(r, s2, ancilla)
    phi = effective_estimator_gain(r, s2, ancilla)
    assert 0.0 <= v <= (s2 * np.cosh(2.0 * r) + phi * phi * np.pi / 6.0) * (1.0 + 2e-15)


@settings(max_examples=100)
@given(st.floats(1e-12, 0.999),
       st.just(IDEAL) | st.floats(5.0, 40.0).map(GkpAncilla))
@example(1e-12, IDEAL)
@example(1.7e-4, IDEAL)
def test_residual_variance_is_unimodal_in_r(s2, ancilla):
    # the scan-free search relies on it: V does not rise before its
    # minimum and does not fall after it
    v = residual_variance(np.linspace(0.0, 16.0, 16_001), s2, ancilla)
    k = int(np.argmin(v))
    assert np.all(np.diff(v[:k + 1]) <= 0.0) and np.all(np.diff(v[k:]) >= 0.0)


@settings(max_examples=100)
@given(_NOISE, st.sampled_from(ANCILLAS))
@example(1e-200, IDEAL)
@example(1e-160, IDEAL)
def test_optimize_terminates_without_warnings(s2, ancilla):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r_opt, v = optimize_squeezing(s2, ancilla)
    assert 0.0 <= v <= s2 and r_opt >= 0.0


def kernel_slope(r, s2, ancilla):
    """dV/dr and d2V/dr2 rebuilt from the optimizer's kernel: with N the
    falling part of the slope, dV/dr = 2 phi N (P/N - 1) and N' = -2 phi N."""
    noise = ancilla.syndrome_noise_variance
    f, df, _ = gkp._log_slope_ratio(np.atleast_1d(r), np.atleast_1d(s2), noise)
    var_w = s2 * np.cosh(2.0 * r) + noise
    phi = s2 * np.sinh(2.0 * r) / var_w
    dphi = 2.0 * s2 * (s2 + noise * np.cosh(2.0 * r)) / var_w**2
    fall = (s2 - noise) * (s2 + noise) / var_w
    g = 2.0 * phi * fall * np.expm1(f)
    dg = 2.0 * fall * ((dphi - 2.0 * phi * phi) * np.expm1(f) + phi * np.exp(f) * df)
    return g[0], dg[0]


_BRANCH_R = 0.5 * np.arccosh(np.array([0.49, 0.51]) / 0.1)  # Var(w) either side of 1/2


_LOG_NOISE = st.floats(-12.0, np.log10(0.999)).map(lambda e: 10.0 ** e)  # 1e-12 .. 0.999


@settings(max_examples=300)
@given(st.floats(0.0, 16.0), _LOG_NOISE | st.floats(1e-12, 0.999),
       st.just(IDEAL) | st.floats(5.0, 40.0).map(GkpAncilla))
@example(_BRANCH_R[0], 0.1, IDEAL)
@example(_BRANCH_R[1], 0.1, IDEAL)
@example(0.0, 0.3, DB20)
@example(10.8, 1.2e-11, IDEAL)
def test_slope_kernel_matches_central_differences(r, s2, ancilla):
    # the closed-form slope against differences of residual_variance, and its
    # closed-form derivative against differences of the slope; V is even in
    # r, so a step below r = 0 reflects
    assume(s2 > ancilla.syndrome_noise_variance)  # the kernel's domain
    h = 1e-6
    g, dg = kernel_slope(r, s2, ancilla)
    v = residual_variance(r, s2, ancilla)
    g_fd = (residual_variance(r + h, s2, ancilla) - residual_variance(abs(r - h), s2, ancilla)) / (2 * h)
    g_hi = kernel_slope(r + h, s2, ancilla)[0]
    g_lo = kernel_slope(abs(r - h), s2, ancilla)[0] * (1.0 if r >= h else -1.0)  # g is odd
    dg_fd = (g_hi - g_lo) / (2 * h)
    assert abs(g - g_fd) <= 1e-7 * (abs(g) + v)
    assert abs(dg - dg_fd) <= 1e-7 * (abs(dg) + abs(g) + v)
    # the residual the kernel returns is residual_variance's, to the bit
    noise = ancilla.syndrome_noise_variance
    assert gkp._log_slope_ratio(np.array([r]), np.array([s2]), noise)[2][0] == v


@settings(max_examples=100)
@given(_LOG_NOISE, st.just(IDEAL) | st.floats(5.0, 40.0).map(GkpAncilla))
@example(0.2963, DB20)  # a gain of 9e-9: the optimum sits at r ~ 0.008
@example(1e-12, IDEAL)
def test_optimum_is_stationary(s2, ancilla):
    # the slope changes sign across r_opt, and the Newton step from r_opt
    # is within the search tolerance (1e-13 of r, or a 1e-10 bracket)
    r_opt, v = optimize_squeezing(s2, ancilla)
    if r_opt == 0.0:
        return
    noise = ancilla.syndrome_noise_variance
    f, df, v_kernel = gkp._log_slope_ratio(np.array([r_opt]), np.array([s2]), noise)
    assert abs(f[0]) <= df[0] * (1e-12 * r_opt + 1e-10)
    d = 1e-9 * (1.0 + r_opt)
    assert kernel_slope(r_opt - d, s2, ancilla)[0] < 0.0 < kernel_slope(r_opt + d, s2, ancilla)[0]
    assert v == residual_variance(r_opt, s2, ancilla) == v_kernel[0]


_GOLDEN = json.loads(Path(__file__).with_name("golden_optimum.json").read_text())


@pytest.mark.parametrize("name", sorted(_GOLDEN["optimum"]))
def test_optimum_matches_the_golden_table_bit_for_bit(name):
    # (r_opt, v) as float.hex, recorded before the search shared its first
    # kernel call and took the minimum from the kernel: a log grid of
    # sigma2 from 1e-14 to 3 and edge points (0, subnormal, tiny, the
    # no-gain edge, 1, 5), as one array call and as scalar calls
    ancilla = IDEAL if name == "ideal" else GkpAncilla(float(name))
    s2, want = [float.fromhex(x) for x in _GOLDEN["sigma2"]], _GOLDEN["optimum"][name]
    r_opt, v = optimize_squeezing(np.array(s2), ancilla)
    assert [[a.hex(), b.hex()] for a, b in zip(r_opt.tolist(), v.tolist())] == want
    for x, row in zip(s2, want):
        r_x, v_x = optimize_squeezing(x, ancilla)
        assert [r_x.hex(), v_x.hex()] == row
        assert v_x == residual_variance(r_x, x, ancilla)


_GOLDEN_RESIDUAL = json.loads(Path(__file__).with_name("golden_residual.json").read_text())


@pytest.mark.parametrize("name", sorted(_GOLDEN_RESIDUAL["residual_gain"]))
def test_residual_and_gain_match_the_golden_table_bit_for_bit(name):
    # (residual_variance, effective_estimator_gain) as float.hex, recorded
    # before the two and the optimizer's kernel shared one parts function:
    # r from 0 to 300 against sigma2 from 0 (subnormal, tiny, the 15-25 dB
    # syndrome noises and the floats below them, Var(w) either side of 1/2)
    # to 5, as one array call and as scalar calls
    ancilla = IDEAL if name == "ideal" else GkpAncilla(float(name))
    r, s2 = ([float.fromhex(x) for x in _GOLDEN_RESIDUAL[key]] for key in ("r", "sigma2"))
    want = _GOLDEN_RESIDUAL["residual_gain"][name]
    grid = np.array(r)[:, None], np.array(s2)
    batch = np.stack([residual_variance(*grid, ancilla), effective_estimator_gain(*grid, ancilla)], -1)
    assert [[[x.hex() for x in cell] for cell in row] for row in batch.tolist()] == want
    for a, row in zip(r, want):
        for b, cell in zip(s2, row):
            assert [residual_variance(a, b, ancilla).hex(),
                    effective_estimator_gain(a, b, ancilla).hex()] == cell


@pytest.mark.parametrize("r, s2, message", [
    (0.5, np.nan, "sigma2 must be finite"), (0.5, np.inf, "sigma2 must be finite"),
    (0.5, -0.1, "sigma2 must be >= 0"), (-0.5, 0.1, "r must be in"),
    (np.nan, 0.1, "r must be in"), (400.0, 0.1, "r must be in"),
    (354.0, 100.0, "sigma2 is too large for r"), (1.0, 1e308, "sigma2 is too large for r")])
def test_gain_residual_and_oracle_share_one_input_rule(r, s2, message):
    # each raises before any arithmetic warns, and the oracle before it draws
    no_draws = SimpleNamespace(generator=lambda: pytest.fail("the oracle drew"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (residual_variance, effective_estimator_gain):
            with pytest.raises(ValueError, match=message):
                call(r, s2, DB20)
        with pytest.raises(ValueError, match=message):
            mc_residual_variance(r, s2, DB20, n_samples=16, rng=no_draws)


@pytest.mark.parametrize("sigma_r2", [-0.01, np.nan, np.inf])
def test_mutual_info_oracle_rejects_a_bad_residual(sigma_r2):
    with pytest.raises(ValueError, match="sigma_r2 must be finite and >= 0"):
        mc_protocol_mutual_info(ProtocolParams(), sigma_r2, 1600)


def test_optimizer_work_counts(monkeypatch):
    # deterministic work: kernel passes per optimize_squeezing call on the
    # shipped a010 node set and on the 400-point la_km frontier scan,
    # counting a residual_variance pass for the minimum as one (the
    # minimum comes from the last kernel pass: no such pass is left)
    calls = []
    kernel, residual, optimize = gkp._log_slope_ratio, gkp.residual_variance, gkp.optimize_squeezing

    def counted_kernel(*args):
        calls[-1] += 1
        return kernel(*args)

    def counted_residual(*args):
        calls[-1] += 1
        return residual(*args)

    def counted_optimize(sigma2, ancilla):
        calls.append(0)
        sizes.append(np.size(sigma2))
        return optimize(sigma2, ancilla)

    sizes = []
    monkeypatch.setattr(gkp, "_log_slope_ratio", counted_kernel)
    monkeypatch.setattr(gkp, "residual_variance", counted_residual)
    monkeypatch.setattr(fading, "optimize_squeezing", counted_optimize)
    monkeypatch.setattr(sweeps, "optimize_squeezing", counted_optimize)
    a010 = load_config(reference_fading_config(0.1))
    fading.residual_nodes(a010.fading, a010.ancilla)
    fiber = load_config(FIBER_DEFAULT)
    sweeps.frontier(fiber, "la_km")
    assert sizes[:2] == [1024, 400]
    assert calls[0] <= 7 and calls[1] <= 9, calls


def test_r_past_cosh_overflow_is_rejected_by_name():
    # cosh 2r overflows past r ~ 355: the error names r, not the variance it spoils
    for bad in (400.0, np.array([0.5, np.nan]), np.inf):
        with pytest.raises(ValueError, match="r must be in"):
            residual_variance(bad, 0.1)
    assert np.isfinite(residual_variance(gkp._R_LIMIT, 0.1))
    # an ideal ancilla at this noise doubles its search window past r = 192,
    # which without the limit reached r = 384 and overflowed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r_opt, v = optimize_squeezing(3.94e-170, IDEAL)
    assert 0.0 < r_opt < gkp._R_LIMIT and 0.0 <= v <= 3.94e-170


def test_optimize_matches_dense_grid():
    s2 = 0.1290364100439194
    r_opt, v_opt = optimize_squeezing(s2, DB20)
    rs = np.arange(0.0, 1.5, 1e-4)
    dense = residual_variance(rs, s2, DB20).min()
    assert v_opt <= dense + 1e-6


def test_lower_bound_variance():
    assert lower_bound_variance(0.0) == 0.0
    assert lower_bound_variance(0.5) == pytest.approx(1.0 / np.e, rel=1e-12)
    with pytest.raises(ValueError):
        lower_bound_variance(1.0)


def test_concat_variance():
    assert concat_variance(0.05, 1) == 0.05
    assert concat_variance(0.05, 4) == pytest.approx(0.2)
    with pytest.raises(ValueError):
        concat_variance(0.05, 0)


def test_residual_variance_rejects_bad_inputs():
    with pytest.raises(ValueError):
        residual_variance(-0.1, 0.1)
    with pytest.raises(ValueError):
        residual_variance(0.1, -0.1)
    # every finite variance converges: a huge one gives the uniform limit
    assert shift_variance([4e9, np.finfo(float).max]).tolist() == [4e9 + np.pi / 6.0,
                                                                  np.finfo(float).max]
    with pytest.raises(ValueError):
        residual_variance(0.4, np.nan)
    with pytest.raises(ValueError):
        residual_variance(0.4, np.inf)
