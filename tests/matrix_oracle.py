"""Matrix-route oracle for the closed-form conditioning in :mod:`gkpmdi.security`.

An independent second route to the relay-conditioned state and its
entropic quantities, kept for tests only:

* symplectic tools (forms, building-block symplectics, symplectic spectra,
  heterodyne conditioning by Schur complement);
* the bosonic entropy :func:`h_function` of a symplectic eigenvalue;
* the 8x8 covariance matrix of (a, b, A', B'), the relay's Bell-measurement
  update, and mutual information, Holevo bound and CI/RCI from the
  resulting 4x4 matrix;
* the explicit worst-case matrix of the finite-size layer;
* the 4x4 decoded-noise model of the GKP-TMS code;
* a 60-digit ``decimal`` evaluation of the conditioned state and its Holevo
  bound, fixed link, fading average and worst case, for states whose
  double-precision entries cancel (nearly pure or deep-loss);
* :func:`scalars_from_entries`, conditioned scalars with their physicality
  margins taken from the entries, for states built by hand;
* :func:`conditioned_scalars`, the closed-form fixed-link scalars as the
  library formed them before one node set described every A link: the
  bit-for-bit reference of :func:`gkpmdi.security.link_scalars` on
  :func:`gkpmdi.security.fiber_link`;
* :func:`plob_bound`, the repeaterless secret-key capacity of a pure-loss
  channel, the ceiling every rate is checked against.

The conditioning and the entropy share no code with production (only the
tail-bound shift, ``awgn_variance_preamp`` in the reference and the
``ConditionedScalars`` type are imported): the per-mode A' variance and
correlation are derived below from the channel steps (thermal loss,
amplification), so a comparison against
:func:`gkpmdi.security.link_scalars` also checks
:func:`gkpmdi.security.fiber_link`'s link table.

Conventions: quadrature ordering (q1, p1, q2, p2, ...); covariance matrices
in shot-noise units with vacuum variance 1, so a physical state satisfies
V + i*Omega >= 0 and every symplectic eigenvalue is >= 1.  The assembled
global matrix carries the conventional 1/2 prefactor (vacuum 1/2) and the
conversion happens once, inside the conditioning step.
"""
from __future__ import annotations

import decimal
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from gkpmdi.channels import ProtocolParams, _as_output, awgn_variance_preamp
from gkpmdi.finite_size import FiniteSizeParams, correlation_shift, kappa_from_eps
from gkpmdi.security import ConditionedScalars


def _thermal_loss(v, c2, tau, n_bar):
    """Thermal-loss channel on A' (vacuum-1 units): V -> tau V + (1 - tau)(2 n_bar + 1),
    and the a-A' correlation shrinks by sqrt(tau)."""
    return tau * v + (1.0 - tau) * (2.0 * n_bar + 1.0), tau * c2


def _amplifier(v, c2, gain):
    """Phase-insensitive amplifier of gain g: V -> g V + (g - 1), and the
    a-A' correlation grows by sqrt(g)."""
    return gain * v + (gain - 1.0), gain * c2


def link_coefficients(mode: str, params: ProtocolParams, sigma_r2: float = 0.0):
    """(A'-variance, squared a-A' correlation) of the travelling mode A'.

    Composed from the channel steps acting on the source arm (variance
    sigma_a^2 + 1, squared correlation sigma_a^2 (sigma_a^2 + 2)): ``direct``
    is the thermal-loss channel; ``preamp`` amplifies by 1/tau_a and then
    crosses the thermal loss; ``gkp`` leaves the corrected residual 2 sigma_r2.
    """
    sa2, tau_a, n_bar = params.sigma2_a, params.tau_a, params.n_bar
    v, c2 = sa2 + 1.0, sa2 * (sa2 + 2.0)
    if mode == "direct":
        return _thermal_loss(v, c2, tau_a, n_bar)
    if mode == "preamp":
        return _thermal_loss(*_amplifier(v, c2, 1.0 / tau_a), tau_a, n_bar)
    if mode == "gkp":
        return v + 2.0 * sigma_r2, c2
    raise ValueError(f"unknown link mode {mode!r}")


SYMPLECTIC_TOL = 1e-12
PHYSICALITY_TOL = 1e-9


def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal symplectic form, one (0, 1; -1, 0) block per mode."""
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    omega1 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    out = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        out[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = omega1
    return out


def is_symplectic(s: np.ndarray, tol: float = SYMPLECTIC_TOL) -> bool:
    """Check S Omega S^T = Omega to within ``tol`` (max-norm)."""
    n = s.shape[0] // 2
    omega = symplectic_form(n)
    return bool(np.max(np.abs(s @ omega @ s.T - omega)) < tol)


def beamsplitter_symplectic(transmittance: float = 0.5) -> np.ndarray:
    """Two-mode beamsplitter on quadratures (q1, p1, q2, p2)."""
    t = np.sqrt(transmittance)
    r = np.sqrt(1.0 - transmittance)
    i2 = np.eye(2)
    return np.block([[t * i2, r * i2], [-r * i2, t * i2]])


def squeezer_symplectic(r: float) -> np.ndarray:
    """One-mode squeezer diag(e^-r, e^r)."""
    return np.diag([np.exp(-r), np.exp(r)])


def tms_symplectic(r: float) -> np.ndarray:
    """Two-mode squeezing built from a balanced beamsplitter sandwich.

    Composes B(1/2) . (S(r) (+) S(-r)) . B(1/2)^T, which squeezes the
    sum/difference quadratures of the pair.
    """
    b = beamsplitter_symplectic(0.5)
    mid = np.zeros((4, 4))
    mid[:2, :2] = squeezer_symplectic(r)
    mid[2:, 2:] = squeezer_symplectic(-r)
    return b @ mid @ b.T


def symplectic_eigenvalues(v: np.ndarray) -> tuple[float, ...]:
    """Symplectic spectrum of a covariance matrix, sorted descending.

    Uses the real route: with V = L L^T, the singular values of L^T Omega L
    are the symplectic eigenvalues, each appearing twice.  Values below
    1 - PHYSICALITY_TOL indicate an unphysical input and raise.
    """
    v = np.asarray(v, dtype=float)
    if v.shape[0] % 2 or v.shape != v.T.shape:
        raise ValueError("covariance matrix must be square with even dimension")
    try:
        chol = np.linalg.cholesky(v)
    except np.linalg.LinAlgError as exc:
        raise ValueError("covariance matrix must be positive-definite") from exc
    n = v.shape[0] // 2
    a = chol.T @ symplectic_form(n) @ chol
    sv = np.linalg.svd(a, compute_uv=False)
    nus = np.sort(sv)[::-1][::2]  # pairs of identical singular values
    if np.any(nus < 1.0 - PHYSICALITY_TOL):
        raise ValueError(f"unphysical state: symplectic eigenvalue {nus.min():.12g} < 1")
    return tuple(float(x) for x in nus)


def h_function(v):
    """Bosonic entropy of a thermal mode with symplectic eigenvalue v, in bits.

    h(1) = 0 with the 0*log(0) = 0 convention.  Values in
    [1 - PHYSICALITY_TOL, 1] are rounding noise of a pure mode and give 0;
    smaller values raise.
    """
    v = np.asarray(v, dtype=float)
    if np.any(v < 1.0 - PHYSICALITY_TOL):
        raise ValueError(f"symplectic eigenvalue {np.min(v)} < 1")
    out = np.zeros_like(v)
    live = ~(v <= 1.0)
    up = (v[live] + 1.0) / 2.0
    dn = (v[live] - 1.0) / 2.0
    out[live] = up * np.log2(up) - dn * np.log2(dn)
    return float(out) if out.ndim == 0 else out


def schur_condition(block_a: np.ndarray, block_b: np.ndarray, cross: np.ndarray) -> np.ndarray:
    """Covariance of mode b after a heterodyne measurement of mode a.

    Computes B - C^T (A + I)^{-1} C for conformable blocks, where C is the
    a-to-b cross block (rows indexing mode a).  The result is symmetrized.
    """
    a = np.atleast_2d(np.asarray(block_a, dtype=float))
    b = np.atleast_2d(np.asarray(block_b, dtype=float))
    c = np.atleast_2d(np.asarray(cross, dtype=float))
    m = a + np.eye(a.shape[0])
    try:
        sol = np.linalg.solve(m, c)
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular conditioning block") from exc
    out = b - c.T @ sol
    return (out + out.T) / 2.0


Z2 = np.diag([1.0, -1.0])


@dataclass(frozen=True)
class ConditionedState:
    """Two-mode state left after the relay measurement (vacuum-1 units)."""

    cm: np.ndarray
    theta: float


def theta_value(params: ProtocolParams, mode: str = "gkp", sigma_r2: float = 0.0) -> float:
    """Variance (vacuum-1 units) of each relay-outcome quadrature.

    Equals half the sum of the travelling-mode variances:
    (sigma_a^2 + 2 sigma_r^2 + tau_b sigma_b^2 + 2)/2 for the corrected link
    and (sigma_a^2 - 2 tau_a + tau_b sigma_b^2 + 4)/2 for pre-amp only
    (pure loss; a thermal background adds 2 n_bar (1 - tau_a) to the A'
    variance on either link).
    """
    va, _ = link_coefficients(mode, params, sigma_r2)
    vb = params.tau_b * params.sigma2_b + 1.0
    return (va + vb) / 2.0


def assemble_global_cm(params: ProtocolParams, sigma_r2: float = 0.0,
                       mode: str = "gkp") -> np.ndarray:
    """8x8 covariance matrix of (a, b, A', B') before the relay measurement.

    Carries the global 1/2 prefactor (vacuum variance 1/2).  Blocks: kept
    modes have variance sigma^2 + 1, the travelling modes the link-dependent
    variance, and each kept mode correlates only with its own travelling
    mode through a diag(1, -1) block.
    """
    sa2, sb2 = params.sigma2_a, params.sigma2_b
    va, ca2 = link_coefficients(mode, params, sigma_r2)
    vb = params.tau_b * sb2 + 1.0
    cb2 = params.tau_b * sb2 * (sb2 + 2.0)
    v = np.zeros((8, 8))
    i2 = np.eye(2)
    v[0:2, 0:2] = (sa2 + 1.0) * i2
    v[2:4, 2:4] = (sb2 + 1.0) * i2
    v[4:6, 4:6] = va * i2
    v[6:8, 6:8] = vb * i2
    v[0:2, 4:6] = v[4:6, 0:2] = np.sqrt(ca2) * Z2
    v[2:4, 6:8] = v[6:8, 2:4] = np.sqrt(cb2) * Z2
    return 0.5 * v


def condition_on_bell(v_global: np.ndarray, theta: float) -> ConditionedState:
    """Apply the relay's joint q-difference / p-sum measurement of (A', B').

    The update uses the standard transformation for continuous Bell-like
    measurements with measured-quadrature covariance diag(theta/2, theta/2);
    the outcome itself shifts only the mean, so the conditioned covariance
    is outcome-independent.  The returned matrix is rescaled to vacuum-1
    units (entries then match the closed-form conditioned variances).
    """
    if theta <= 0:
        raise ValueError("theta must be > 0")
    v = np.asarray(v_global, dtype=float)
    v_ab = v[0:4, 0:4]
    c1 = v[0:4, 4:6]
    c2 = v[0:4, 6:8]
    x1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    x2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    big_theta = np.diag([theta / 2.0, theta / 2.0])
    det_theta = float(np.linalg.det(big_theta))
    cs = (c1, c2)
    xs = (x1, x2)
    corr = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            corr += cs[i] @ (xs[i].T @ big_theta @ xs[j]) @ cs[j].T
    out = v_ab - corr / (2.0 * det_theta)
    out = (out + out.T) / 2.0
    return ConditionedState(cm=2.0 * out, theta=float(theta))


def conditioned_state(params: ProtocolParams, sigma_r2: float = 0.0,
                      mode: str = "gkp") -> ConditionedState:
    """Conditioned two-mode state via the explicit matrix pipeline."""
    theta = theta_value(params, mode, sigma_r2)
    return condition_on_bell(assemble_global_cm(params, sigma_r2, mode), theta)


def mutual_information(state: ConditionedState) -> float:
    """Reverse-reconciliation mutual information of the conditioned state."""
    v = state.cm
    v_b = v[2:4, 2:4]
    v_b_cond = schur_condition(v[0:2, 0:2], v_b, v[0:2, 2:4])
    num = 1.0 + np.linalg.det(v_b) + np.trace(v_b)
    den = 1.0 + np.linalg.det(v_b_cond) + np.trace(v_b_cond)
    if den <= 0 or num <= 0:
        raise ValueError("unphysical conditioned state")
    return float(0.5 * np.log2(num / den))


def holevo_bound(state: ConditionedState) -> float:
    """Eavesdropper information bound h(v1) + h(v2) - h(v3), clamped at 0."""
    v = state.cm
    v1, v2 = symplectic_eigenvalues(v)
    v_b_cond = schur_condition(v[0:2, 0:2], v[2:4, 2:4], v[0:2, 2:4])
    (v3,) = symplectic_eigenvalues(v_b_cond)
    chi = h_function(v1) + h_function(v2) - h_function(v3)
    return float(max(chi, 0.0))


def ci_rci(state: ConditionedState) -> tuple[float, float]:
    """Coherent and reverse coherent information of the conditioned state.

    The link is viewed as a channel from the far user (mode b) toward the
    decoding user (mode a), matching reverse reconciliation: the coherent
    information is keyed to the output mode a and the reverse coherent
    information to the input mode b, so the RCI is the relevant
    entanglement-distribution rate for this protocol.
    """
    v = state.cm
    v1, v2 = symplectic_eigenvalues(v)
    nu_a = float(np.sqrt(np.linalg.det(v[0:2, 0:2])))
    nu_b = float(np.sqrt(np.linalg.det(v[2:4, 2:4])))
    ent = h_function(v1) + h_function(v2)
    return float(h_function(nu_a) - ent), float(h_function(nu_b) - ent)


@dataclass(frozen=True)
class WorstCaseCM:
    v_wc: np.ndarray
    kappa: float
    physical: bool


def worst_case_cm(v: np.ndarray, fs: FiniteSizeParams) -> WorstCaseCM:
    """Replace the cross correlations of a conditioned CM by their worst case.

    The q correlation is decreased and the p correlation increased by the
    chi-squared tail-bound shift; diagonals are local quantities and stay.
    An unphysical result is flagged, never clamped.
    """
    v = np.asarray(v, dtype=float)
    kappa = kappa_from_eps(fs.eps_pe)
    m = fs.pe_signals
    out = v.copy()
    shift_q = correlation_shift(v[0, 0], v[2, 2], kappa, m)
    shift_p = correlation_shift(v[1, 1], v[3, 3], kappa, m)
    out[0, 2] = out[2, 0] = v[0, 2] - shift_q
    out[1, 3] = out[3, 1] = v[1, 3] + shift_p
    try:
        symplectic_eigenvalues(out)
        physical = True
    except ValueError:
        physical = False
    return WorstCaseCM(v_wc=out, kappa=kappa, physical=physical)


@dataclass(frozen=True)
class NoiseBlocks:
    """Covariance blocks of the (data noise, rotated ancilla noise) pair.

    ``v_d_given_a`` is the Schur complement v_a - v_da^T v_d^{-1} v_da.
    """

    v_d: np.ndarray
    v_da: np.ndarray
    v_a: np.ndarray
    v_d_given_a: np.ndarray


def reshaped_noise_cm(r: float, sigma2: float) -> np.ndarray:
    """Covariance of the decoded channel noise on (q_d, p_d, q_a, p_a).

    Diagonal sigma^2 cosh(2r); data-ancilla cross terms -sigma^2 sinh(2r)
    on matching quadratures.
    """
    if r < 0 or sigma2 < 0:
        raise ValueError("r and sigma2 must be >= 0")
    c2 = np.cosh(2.0 * r)
    s2 = np.sinh(2.0 * r)
    v = sigma2 * np.diag([c2, c2, c2, c2])
    for i in range(2):
        v[i, i + 2] = v[i + 2, i] = -sigma2 * s2
    return v


def conditioning_blocks(v_z: np.ndarray) -> NoiseBlocks:
    """Blocks of (I2 (+) Omega) V_z (I2 (+) Omega^T): the joint covariance of
    the data noise and the symplectically rotated ancilla noise whose modular
    reduction is the syndrome."""
    v_z = np.asarray(v_z, dtype=float)
    rot = np.zeros((4, 4))
    rot[:2, :2] = np.eye(2)
    rot[2:, 2:] = symplectic_form(1)
    joint = rot @ v_z @ rot.T
    if abs(np.linalg.det(joint)) < 1e-300:
        raise ValueError("singular noise covariance")
    v_d = joint[:2, :2]
    v_da = joint[:2, 2:]
    v_a = joint[2:, 2:]
    v_dga = v_a - v_da.T @ np.linalg.solve(v_d, v_da)
    return NoiseBlocks(v_d=v_d, v_da=v_da, v_a=v_a, v_d_given_a=v_dga)


def mu_tilde(r: float) -> float:
    """Estimator gain 2 cosh(r) sinh(r) / (cosh^2(r) + sinh^2(r)) = tanh(2r)."""
    return np.tanh(2.0 * r)


def linear_estimator(r: float) -> np.ndarray:
    """Syndrome-to-displacement matrix: the regression of the data noise on
    the rotated ancilla noise, v_da @ v_a^{-1} of :func:`conditioning_blocks`.

    For a noiseless ancilla this reduces to mu_tilde(r) times the single-mode
    symplectic form: each data quadrature couples with gain tanh(2r) to the
    syndrome component that carries it, with the sign that subtracts noise.
    """
    return mu_tilde(r) * symplectic_form(1)


def scalars_from_entries(phi_a, psi, phi_b) -> ConditionedScalars:
    """Conditioned scalars of [[phi_a I, psi Z], [psi Z, phi_b I]] with the
    margins as direct products, exact enough away from pure and product states."""
    psi2 = psi * psi
    return ConditionedScalars(phi_a, psi, phi_b, (phi_a - 1.0) * (phi_b + 1.0) - psi2,
                              (phi_a + 1.0) * (phi_b - 1.0) - psi2)


def conditioned_scalars(params: ProtocolParams, sigma_r2=0.0,
                        mode: str = "gkp") -> ConditionedScalars:
    """Conditioned scalars of a fixed link, xi = 1/(v_A' + v_B'), in the
    order of operations the production route keeps bit for bit."""
    tau_a, tau_b, n_bar = params.tau_a, params.tau_b, params.n_bar
    if mode in ("gkp", "qt"):
        gain, excess = 1.0, sigma_r2
    elif mode == "preamp":
        gain, excess = 1.0, awgn_variance_preamp(tau_a, n_bar)
    elif mode == "direct":
        gain, excess = tau_a, n_bar * (1.0 - tau_a)
    else:
        raise ValueError(f"unknown link mode {mode!r}")
    sa2, sb2 = params.sigma2_a, params.sigma2_b
    xi = 1.0 / ((gain * sa2 + 1.0 + 2.0 * excess) + (tau_b * sb2 + 1.0))
    ca2 = gain * sa2 * (sa2 + 2.0)
    cb2 = tau_b * sb2 * (sb2 + 2.0)
    margin_a = 2.0 * sa2 * (sb2 + 2.0) * ((1.0 - gain) * xi + excess * xi)
    margin_b = 2.0 * sb2 * (sa2 + 2.0) * ((1.0 - tau_b) * xi + excess * xi)
    return ConditionedScalars(*(_as_output(x) for x in (
        sa2 + 1.0 - ca2 * xi, np.sqrt(ca2 * cb2) * xi, sb2 + 1.0 - cb2 * xi, margin_a, margin_b)))


def plob_bound(tau):
    """Repeaterless secret-key capacity ceiling -log2(1 - tau), bits per use
    (Pirandola et al., Nat. Commun. 8, 15043 (2017))."""
    tau = np.asarray(tau, dtype=float)
    if not np.all((0.0 <= tau) & (tau < 1.0)):
        raise ValueError("transmittance must be in [0, 1)")
    return _as_output(-np.log2(1.0 - tau))


_DIGITS = decimal.Context(prec=60)


def _dec(x) -> Decimal:
    return Decimal(float(x))  # the double exactly


def decimal_conditioned(params: ProtocolParams, mode: str = "gkp", sigma_r2: float = 0.0,
                        nodes=None) -> tuple[Decimal, Decimal, Decimal]:
    """(phi_a, psi, phi_b) of the conditioned state to 60 digits, from the
    double inputs taken exactly.

    A fixed link composes its A' mode from the channel steps, as
    :func:`link_coefficients` does (``qt`` is the ``gkp`` form); with
    ``nodes`` = (w, tau, sigma_r2) of a fading link, the corrected link's
    conditioning scalar is averaged over the nodes, their weights taken as
    a law of unit mass: the double weights miss it by rounding (a010's by
    -5.6e-17), which a nearly pure state amplifies to 4e-8 bits of chi at
    modulation 1e7.  Lengths are scalars.
    """
    with decimal.localcontext(_DIGITS):
        sa2, sb2, tau_b = _dec(params.sigma2_a), _dec(params.sigma2_b), _dec(params.tau_b)
        va, ca2 = sa2 + 1, sa2 * (sa2 + 2)
        vb, cb2 = tau_b * sb2 + 1, tau_b * sb2 * (sb2 + 2)
        if nodes is not None:
            xi = sum(_dec(w) / (va + 2 * _dec(s) + vb) for w, s in zip(nodes[0], nodes[2])) \
                / sum(map(_dec, nodes[0]))
        else:
            tau_a, n_bar = _dec(params.tau_a), _dec(params.n_bar)
            if mode == "preamp":  # amplify by 1/tau_a; the loss then restores ca2
                va, ca2 = (va + 1) / tau_a - 1, ca2 / tau_a
            if mode in ("direct", "preamp"):
                va, ca2 = tau_a * va + (1 - tau_a) * (2 * n_bar + 1), tau_a * ca2
            elif mode in ("gkp", "qt"):
                va += 2 * _dec(sigma_r2)
            else:
                raise ValueError(f"unknown link mode {mode!r}")
            xi = 1 / (va + vb)
        return sa2 + 1 - ca2 * xi, (ca2 * cb2).sqrt() * xi, sb2 + 1 - cb2 * xi


def _decimal_h(v: Decimal) -> Decimal:
    """Bosonic entropy in nats; v - 1 below 0 is the 60-digit rounding of a pure mode."""
    x = (v - 1) / 2
    return (x + 1) * (x + 1).ln() - x * x.ln() if x > 0 else Decimal(0)


def decimal_holevo(state: tuple[Decimal, Decimal, Decimal],
                   fs: FiniteSizeParams | None = None) -> float:
    """chi = h(v1) + h(v2) - h(v3) in bits of the 60-digit ``state``.

    With ``fs`` the finite-size worst case is taken first: |psi| lowered by
    the tail-bound shift sqrt(kappa/m_pe)(phi_a + phi_b), never past 0.
    """
    with decimal.localcontext(_DIGITS):
        phi_a, psi, phi_b = state
        psi = abs(psi)
        if fs is not None:
            kappa = (4 / _dec(fs.eps_pe)).ln()
            psi = max(psi - (kappa / _dec(fs.pe_signals)).sqrt() * (phi_a + phi_b), Decimal(0))
        psi2 = psi * psi
        disc = ((phi_a + phi_b) ** 2 - 4 * psi2).sqrt()
        v1, v2 = (disc + phi_b - phi_a) / 2, (disc - phi_b + phi_a) / 2
        v3 = phi_b - psi2 / (phi_a + 1)
        chi = _decimal_h(v1) + _decimal_h(v2) - _decimal_h(v3)
        return float(chi / Decimal(2).ln())
