import numpy as np
import pytest

from gkpmdi.channels import ProtocolParams
from gkpmdi.security import asymptotic_rate, fiber_link, link_scalars
from matrix_oracle import (beamsplitter_symplectic, conditioned_state, h_function, is_symplectic,
                           schur_condition, squeezer_symplectic, symplectic_eigenvalues,
                           symplectic_form, tms_symplectic)


def random_symplectic(rng, n_modes=2):
    """Random symplectic from interleaved squeezers and beamsplitters."""
    dim = 2 * n_modes
    s = np.eye(dim)
    for _ in range(4):
        local = np.eye(dim)
        for k in range(n_modes):
            local[2 * k:2 * k + 2, 2 * k:2 * k + 2] = squeezer_symplectic(rng.uniform(-0.7, 0.7))
        s = local @ s
        if n_modes >= 2:
            mix = np.eye(dim)
            mix[:4, :4] = beamsplitter_symplectic(rng.uniform(0.2, 0.8))
            s = mix @ s
    return s


def test_symplectic_form_single_mode():
    assert np.array_equal(symplectic_form(1), [[0.0, 1.0], [-1.0, 0.0]])


def test_symplectic_form_direct_sum_and_orthogonality():
    for n in (1, 2, 3, 5):
        omega = symplectic_form(n)
        assert np.allclose(omega @ omega.T, np.eye(2 * n))
        assert np.allclose(omega @ omega, -np.eye(2 * n))
    omega2 = symplectic_form(2)
    assert np.array_equal(omega2[:2, :2], symplectic_form(1))
    assert np.array_equal(omega2[2:, 2:], symplectic_form(1))
    assert np.all(omega2[:2, 2:] == 0)


def test_symplectic_form_rejects_bad_mode_count():
    with pytest.raises(ValueError):
        symplectic_form(0)


def test_tms_zero_squeezing_is_identity():
    assert np.allclose(tms_symplectic(0.0), np.eye(4), atol=1e-15)


def test_tms_is_symplectic():
    for r in (-1.2, -0.3, 0.1, 0.5, 2.0):
        s = tms_symplectic(r)
        assert is_symplectic(s, tol=1e-12)


def test_building_blocks_are_symplectic():
    for t in (0.1, 0.5, 0.9):
        assert is_symplectic(beamsplitter_symplectic(t), tol=1e-12)
    for r in (-0.8, 0.3):
        two_mode = np.zeros((4, 4))
        two_mode[:2, :2] = squeezer_symplectic(r)
        two_mode[2:, 2:] = squeezer_symplectic(-r)
        assert is_symplectic(two_mode, tol=1e-12)


def test_tms_matches_explicit_factor_product():
    # independent reconstruction of the beamsplitter-squeezer sandwich
    r = 0.5
    c, q = np.sqrt(0.5), np.sqrt(0.5)
    b = np.block([[c * np.eye(2), q * np.eye(2)], [-q * np.eye(2), c * np.eye(2)]])
    mid = np.diag([np.exp(-r), np.exp(r), np.exp(r), np.exp(-r)])
    assert np.allclose(tms_symplectic(r), b @ mid @ b.T, atol=1e-14)


def test_symplectic_eigenvalues_vacuum_and_thermal():
    assert np.allclose(symplectic_eigenvalues(np.eye(4)), (1.0, 1.0), atol=1e-12)
    assert np.allclose(symplectic_eigenvalues(2.0 * np.eye(4)), (2.0, 2.0), atol=1e-12)


def test_symplectic_eigenvalues_tmsv_pure_state():
    # two-mode squeezed vacuum: diagonal 3, cross sqrt(8) diag(1,-1)
    v = np.eye(4) * 3.0
    z = np.diag([1.0, -1.0])
    v[:2, 2:] = v[2:, :2] = np.sqrt(8.0) * z
    # brute-force oracle: |eigenvalues of i Omega V|
    omega = symplectic_form(2)
    brute = np.abs(np.linalg.eigvals(1j * omega @ v))
    assert np.allclose(sorted(brute), [1, 1, 1, 1], atol=1e-9)
    assert np.allclose(symplectic_eigenvalues(v), (1.0, 1.0), atol=1e-9)


def test_symplectic_eigenvalues_congruence_invariance():
    rng = np.random.default_rng(11)
    for _ in range(20):
        v = np.eye(4) * rng.uniform(1.5, 4.0)
        s = random_symplectic(rng)
        before = symplectic_eigenvalues(v)
        after = symplectic_eigenvalues(s.T @ v @ s)
        assert np.allclose(before, after, atol=1e-9)


def test_two_mode_pair_matches_general_route():
    # closed-form (v1, v2) of the rate layer versus the general symplectic spectrum
    rng = np.random.default_rng(3)
    for _ in range(30):
        p = ProtocolParams(l_a_km=rng.uniform(0, 5), l_b_km=rng.uniform(0, 30),
                           sigma2_a=rng.uniform(1.2, 20.0), sigma2_b=rng.uniform(1.2, 20.0))
        sr2 = rng.uniform(0, 0.3)
        mode = ("gkp", "preamp", "direct")[rng.integers(3)]
        report = asymptotic_rate(link_scalars(fiber_link(p, sr2, mode), p), p.beta0)
        pair = sorted(report.spectrum[:2], reverse=True)
        assert np.allclose(pair, symplectic_eigenvalues(conditioned_state(p, sr2, mode).cm),
                           rtol=1e-10)


def test_h_function_values():
    assert h_function(1.0) == 0.0
    assert abs(h_function(3.0) - 2.0) < 1e-12
    assert abs(h_function(2.0) - 1.3774437510817343) < 1e-12


def test_h_function_clamp_and_error():
    assert h_function(1.0 - 5e-10) == 0.0
    with pytest.raises(ValueError):
        h_function(0.9)


def test_h_function_monotone_nonnegative():
    vs = np.linspace(1.0, 40.0, 200)
    hs = [h_function(v) for v in vs]
    assert all(h >= 0.0 for h in hs)
    assert all(b > a for a, b in zip(hs, hs[1:]))


def test_schur_condition_no_correlation():
    b = np.diag([2.0, 3.0])
    out = schur_condition(np.eye(2), b, np.zeros((2, 2)))
    assert np.allclose(out, b)


def test_schur_condition_hand_value():
    out = schur_condition(np.eye(2), 2.0 * np.eye(2), np.eye(2))
    assert np.allclose(out, 1.5 * np.eye(2), atol=1e-14)


def test_schur_condition_matches_direct_inverse():
    rng = np.random.default_rng(5)
    for _ in range(25):
        a = rng.uniform(1.1, 5.0) * np.eye(2)
        b = rng.uniform(1.1, 5.0) * np.eye(2)
        c = rng.uniform(-0.8, 0.8) * np.diag([1.0, -1.0])
        expected = b - c.T @ np.linalg.inv(a + np.eye(2)) @ c
        got = schur_condition(a, b, c)
        assert np.allclose(got, expected, atol=1e-12)
        assert np.allclose(got, got.T, atol=1e-12)
        assert np.all(np.linalg.eigvalsh(got) > 0)


def test_schur_condition_singular_block():
    with pytest.raises(ValueError):
        schur_condition(-np.eye(2), np.eye(2), np.eye(2))
