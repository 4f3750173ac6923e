import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import ndtr

from gkpmdi import gkp
from gkpmdi.gkp import (ELL, GkpAncilla, IDEAL, break_even, concat_variance,
                        effective_estimator_gain, lower_bound_variance, optimize_squeezing,
                        residual_variance, syndrome_reduce, wrapped_moments)
from gkpmdi.mc import RngStream, mc_residual_variance
from matrix_oracle import (conditioning_blocks, linear_estimator, mu_tilde,
                           reshaped_noise_cm, symplectic_form)

DB20 = GkpAncilla(20.0)
ANCILLAS = [IDEAL, GkpAncilla(15.0), DB20, GkpAncilla(25.0)]


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
    cell out to 7.5 standard deviations, for any variance (the production
    code uses it only below var_w = 1/2, with its own normal tail).
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


def test_ancilla_definitions():
    assert IDEAL.ideal and IDEAL.delta2 == 0.0
    assert abs(DB20.delta2 - 0.005) < 1e-15
    assert abs(DB20.syndrome_noise_variance - 0.01) < 1e-15
    assert GkpAncilla.parse("ideal").ideal
    assert GkpAncilla.parse(25.0).squeezing_db == 25.0
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


def test_syndrome_reduce():
    assert syndrome_reduce(0.0) == 0.0
    assert abs(syndrome_reduce(3.0 * ELL)) < 1e-12
    assert abs(syndrome_reduce(2.0) - (2.0 - ELL)) < 1e-15
    assert abs(syndrome_reduce(2.0) + 0.5066282746310002) < 1e-12
    arr = syndrome_reduce(np.array([0.0, ELL, -1.4 * ELL]))
    assert np.allclose(arr, [0.0, 0.0, -0.4 * ELL])
    # boundary ties leave the interval closed
    assert abs(syndrome_reduce(ELL / 2.0)) <= ELL / 2.0 + 1e-15


def test_wrapped_moments_against_theta_series():
    # narrow syndromes only: from var_w = 1/2 up the production code is this series
    for var_w in (1e-10, 1e-7, 1e-4, 0.02, 0.1, 0.4, 0.4999):
        m2, m11 = wrapped_moments(var_w)
        # the series needs about sqrt(13 / var_w) terms to converge
        t2, t11 = theta_series_moments(var_w, terms=400_000)
        assert m2 == pytest.approx(t2, rel=1e-9, abs=1e-12)
        assert m11 == pytest.approx(t11, rel=1e-9, abs=1e-9)


def test_wrapped_moments_against_cell_sum_oracle():
    crossover = [np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0), 0.49, 0.51]
    v = np.concatenate([np.geomspace(1e-10, 1e3, 400), crossover])
    m2, m11 = wrapped_moments(v)
    o2, o11 = cell_sum_moments(v)
    # the oracle's cell sum rounds off by about eps * var_w, so both bounds grow with v
    scale = 1e-13 * np.maximum(1.0, v)
    assert np.all(np.abs(m2 - o2) <= scale * o2)
    assert np.all(np.abs(m11 - o11) <= scale)
    # the two branches meet at the crossover: the three variances next to 1/2
    assert np.ptp(m2[-5:-2]) < 1e-15 and np.ptp(m11[-5:-2]) < 1e-15


def test_normal_tail_against_ndtr():
    z = np.linspace(np.sqrt(np.pi), 40.0, 200_001)
    ref = ndtr(-z)
    tail = gkp._normal_tail(z)
    np.testing.assert_allclose(tail, ref, rtol=1e-13, atol=0.0)
    assert np.array_equal(tail == 0.0, ref == 0.0)  # the same underflow point
    assert gkp._normal_tail(np.array([1e30, np.inf])).tolist() == [0.0, 0.0]


def test_wrapped_moments_narrow_limit():
    m2, m11 = wrapped_moments(1e-10)
    assert m2 == pytest.approx(1e-10, rel=1e-9)
    assert m11 == pytest.approx(1e-10, rel=1e-9)


def test_residual_variance_no_correction_recovers_channel():
    for s2 in (1e-6, 0.05, 0.3):
        assert residual_variance(0.0, s2, IDEAL) == pytest.approx(s2, rel=1e-9)
        assert residual_variance(0.0, s2, DB20) == pytest.approx(s2, rel=1e-9)
    assert residual_variance(0.7, 0.0) == 0.0


def test_residual_variance_truncation_stability():
    base = residual_variance(0.46, 0.129, DB20)
    boosted = residual_variance(0.46, 0.129, DB20, n_cells_boost=4)
    assert abs(base - boosted) / base < 1e-9


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


@settings(derandomize=True, deadline=None)
@given(st.floats(1e-3, 0.9), st.sampled_from(ANCILLAS))
@example(0.01, DB20)
def test_optimize_reports_no_gain_as_r_zero(s2, ancilla):
    r_opt, v = optimize_squeezing(s2, ancilla)
    assert v <= s2
    assert (r_opt == 0.0) == (v == s2)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.lists(st.floats(0.0, 0.999), min_size=1, max_size=30), st.sampled_from(ANCILLAS))
def test_optimized_residual_never_exceeds_channel_noise(drawn, ancilla):
    # one array call across the noise range, a noiseless channel included
    s2 = np.array([0.0] + drawn)
    _, v = optimize_squeezing(s2, ancilla)
    assert np.all((0.0 <= v) & (v <= s2))


@settings(derandomize=True, deadline=None)
@given(st.floats(1e-6, 0.9), st.sampled_from(ANCILLAS))
@example(1e-5, IDEAL)
@example(1.7e-4, IDEAL)
def test_optimum_is_interior_to_its_bracket(s2, ancilla):
    # a coarse-grid step either way raises the residual: the optimum is not
    # pinned to the end of a search window
    r_opt, v = optimize_squeezing(s2, ancilla)
    if r_opt == 0.0:
        return  # no coding gain
    step = gkp._GRID[1]
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


# More elements than one block of the coarse scan holds.
_BEYOND_ONE_BLOCK = gkp._SCAN_BLOCK // gkp._COARSE_POINTS + 1


@settings(derandomize=True, deadline=None, max_examples=4)
@given(st.lists(st.floats(1e-6, 0.9), min_size=_BEYOND_ONE_BLOCK - 6,
                max_size=_BEYOND_ONE_BLOCK + 10),
       st.sampled_from(ANCILLAS))
def test_optimize_batch_matches_single_calls(drawn, ancilla):
    # window-extended (1e-6 .. 1.7e-4 ideal) and no-gain (0.9) elements always ride along
    fixed = [1e-6, 1e-5, 1.7e-4, 0.01, 0.5, 0.9]
    s2 = np.array(fixed + drawn)
    r_opt, v = optimize_squeezing(s2, ancilla)
    single = np.array([optimize_squeezing(float(x), ancilla) for x in s2])
    assert np.array_equal(r_opt, single[:, 0]) and np.array_equal(v, single[:, 1])
    reference = np.array([scalar_reference_optimize(x, ancilla) for x in fixed])
    assert np.array_equal(single[:len(fixed)], reference)
    assert np.any(r_opt == 0.0)
    assert not ancilla.ideal or np.any(r_opt > gkp._R_MAX)
    assert isinstance(optimize_squeezing(0.1, ancilla)[0], float)


@settings(derandomize=True, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([0.0, 0.2, 1.0, 3.0]) | st.floats(0.0, 4.0),
                          st.sampled_from([0.0, 1e-9]) | st.floats(1e-12, 1.0)),
                min_size=1, max_size=60),
       st.sampled_from(ANCILLAS))
def test_residual_batch_matches_single_calls(pairs, ancilla):
    r, s2 = np.array(pairs).T
    batch = residual_variance(r, s2, ancilla)
    single = [residual_variance(float(a), float(b), ancilla) for a, b in pairs]
    assert np.array_equal(batch, single)
    m2, m11 = wrapped_moments(s2 * 1e3)  # 0 .. 1000: many cell counts
    single = np.array([wrapped_moments(float(x)) for x in s2 * 1e3])
    assert np.array_equal(m2, single[:, 0]) and np.array_equal(m11, single[:, 1])
    assert isinstance(wrapped_moments(0.3)[0], float)
    assert isinstance(residual_variance(0.4, 0.1, ancilla), float)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20), st.data())
def test_negative_element_anywhere_raises(values, data):
    bad = np.array(values)
    bad[data.draw(st.integers(0, len(values) - 1))] = -1e-3
    with pytest.raises(ValueError):
        wrapped_moments(bad)
    with pytest.raises(ValueError):
        residual_variance(bad, 0.1)
    with pytest.raises(ValueError):
        residual_variance(0.4, bad)
    with pytest.raises(ValueError):
        optimize_squeezing(np.where(bad < 0, bad, bad + 0.1))


def test_optimize_tiny_noise_ideal():
    _, v = optimize_squeezing(1e-9, IDEAL)
    assert v <= 1e-9


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


def test_break_even_identity():
    assert break_even(0.1) == 0.1
    _, v = optimize_squeezing(0.1, DB20)
    assert v < break_even(0.1)


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
    assert wrapped_moments(4e9) == (np.pi / 6.0, 0.0)
    assert wrapped_moments(np.finfo(float).max) == (np.pi / 6.0, 0.0)
    for bad in (np.nan, np.inf, -np.inf, [0.3, np.nan]):
        with pytest.raises(ValueError):
            wrapped_moments(bad)
    with pytest.raises(ValueError):
        residual_variance(0.4, np.nan)
    with pytest.raises(ValueError):
        residual_variance(0.4, np.inf)
