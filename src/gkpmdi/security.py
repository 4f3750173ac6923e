"""Relay conditioning and secret-key-rate functionals.

The entanglement-based picture assembles an 8-mode-quadrature covariance
matrix for (a, b, A', B'): the kept modes a, b and the travelling modes
A', B' that meet at the relay.  The relay's joint q/p measurement of
(A', B') is then applied, leaving a two-mode conditioned state whose
covariance matrix determines mutual information, the eavesdropper's Holevo
bound, and coherent-information lower bounds.

Covariance matrices produced by :func:`condition_on_bell` and consumed by
the entropic functions are in vacuum-1 shot-noise units; the assembled
global matrix carries the conventional global 1/2 prefactor (vacuum 1/2)
and the conversion happens once, inside the conditioning step.

Three A-side link configurations are supported:

* ``direct``  - the plain lossy link,
* ``preamp``  - loss compensated by a pre-amplifier (additive noise
                2*(1 - tau_a) replaces the loss),
* ``gkp``     - pre-amplified link followed by error correction, leaving
                residual noise 2*sigma_r2.

``preamp`` is the ``gkp`` assembly with sigma_r2 = 1 - tau_a.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ProtocolParams, awgn_variance_preamp
from .gaussian import h_function, h_function_1p, symplectic_eigenvalues, schur_condition

Z2 = np.diag([1.0, -1.0])

# Below this value of psi^2/(Phi+phi)^2 the two-mode state is numerically
# product-like and the Holevo terms are evaluated through cancellation-free
# differences instead of the direct eigenvalue formulas.
_TAIL_THRESHOLD = 1e-10


@dataclass(frozen=True)
class ConditionedState:
    """Two-mode state left after the relay measurement (vacuum-1 units)."""

    cm: np.ndarray
    theta: float

    def scalars(self) -> tuple[float, float, float]:
        """(a-variance, q-cross, b-variance) of the [[aI, cZ], [cZ, bI]] form."""
        v = self.cm
        return float(v[0, 0]), float(v[0, 2]), float(v[2, 2])


@dataclass(frozen=True)
class RateReport:
    mutual_info: float
    holevo: float
    rate: float
    spectrum: tuple[float, float, float]


def _link_coefficients(mode: str, tau_a: float, sigma2_a: float, sigma_r2: float,
                       n_bar: float = 0.0):
    """(A'-variance, squared a-A' correlation) for the chosen link mode."""
    if mode == "gkp":
        return sigma2_a + 1.0 + 2.0 * sigma_r2, sigma2_a * (sigma2_a + 2.0)
    if mode == "preamp":
        s2 = awgn_variance_preamp(tau_a, n_bar)
        return sigma2_a + 1.0 + 2.0 * s2, sigma2_a * (sigma2_a + 2.0)
    if mode == "direct":
        return tau_a * sigma2_a + 1.0 + 2.0 * n_bar, tau_a * sigma2_a * (sigma2_a + 2.0)
    raise ValueError(f"unknown link mode {mode!r}")


def theta_value(params: ProtocolParams, mode: str = "gkp", sigma_r2: float = 0.0) -> float:
    """Variance (vacuum-1 units) of each relay-outcome quadrature.

    Equals half the sum of the travelling-mode variances:
    (sigma_a^2 + 2 sigma_r^2 + tau_b sigma_b^2 + 2)/2 for the corrected link
    and (sigma_a^2 - 2 tau_a + tau_b sigma_b^2 + 4)/2 for pre-amp only
    (pure loss; a thermal background adds 2 n_bar to the A' variance).
    """
    va, _ = _link_coefficients(mode, params.tau_a, params.sigma2_a, sigma_r2,
                               params.n_bar)
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
    va, ca2 = _link_coefficients(mode, params.tau_a, sa2, sigma_r2, params.n_bar)
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


@dataclass(frozen=True)
class _Scalars:
    """Closed-form entries of the conditioned two-mode matrix.

    ``phi_a_m1``/``phi_b_m1`` are the same variances minus one, computed
    without cancellation; they feed the deep-loss evaluation path.
    """

    phi_a: float
    psi: float
    phi_b: float
    phi_a_m1: float
    phi_b_m1: float
    theta: float


def conditioned_scalars(params: ProtocolParams, sigma_r2: float = 0.0,
                        mode: str = "gkp") -> _Scalars:
    sa2, sb2 = params.sigma2_a, params.sigma2_b
    tau_a, tau_b = params.tau_a, params.tau_b
    va, ca2 = _link_coefficients(mode, tau_a, sa2, sigma_r2, params.n_bar)
    vb = tau_b * sb2 + 1.0
    cb2 = tau_b * sb2 * (sb2 + 2.0)
    two_theta = va + vb
    xi = 1.0 / two_theta
    phi_a = sa2 + 1.0 - ca2 * xi
    phi_b = sb2 + 1.0 - cb2 * xi
    psi = np.sqrt(ca2 * cb2) * xi
    if mode == "gkp":
        bracket_a = tau_b * sb2 + 2.0 * sigma_r2
    else:  # pre-amplified or plain lossy link
        bracket_a = tau_b * sb2 + 2.0 * (1.0 - tau_a) + 2.0 * params.n_bar
    phi_a_m1 = sa2 * bracket_a * xi
    phi_b_m1 = sb2 * (va + 1.0 - 2.0 * tau_b) * xi
    return _Scalars(phi_a=float(phi_a), psi=float(psi), phi_b=float(phi_b),
                    phi_a_m1=float(phi_a_m1), phi_b_m1=float(phi_b_m1),
                    theta=two_theta / 2.0)


def conditioned_state(params: ProtocolParams, sigma_r2: float = 0.0,
                      mode: str = "gkp") -> ConditionedState:
    """Conditioned two-mode state via the explicit matrix pipeline."""
    theta = theta_value(params, mode, sigma_r2)
    return condition_on_bell(assemble_global_cm(params, sigma_r2, mode), theta)


def _clamped_h(v: float) -> float:
    return h_function(max(v, 1.0)) if v >= 1.0 - 1e-9 else h_function(v)


def _rate_pieces(phi_a: float, psi: float, phi_b: float, beta0: float,
                 phi_a_m1: float | None = None) -> RateReport:
    """Mutual information, Holevo bound and rate from the conditioned scalars.

    The reverse-reconciliation mutual information compares Bob's conditional
    variance before and after heterodyne conditioning on mode a.  For
    strongly attenuated links (psi^2 far below the variances) the Holevo
    terms are evaluated through exact small-difference algebra so that the
    bound stays positive instead of drowning in rounding noise; this path
    needs the cancellation-free ``phi_a_m1`` and is skipped when the scalars
    have been shifted away from their closed forms (e.g. worst-case CMs).
    """
    psi2 = psi * psi
    v3 = phi_b - psi2 / (phi_a + 1.0)
    mutual = np.log2((1.0 + phi_b) / (1.0 + v3))
    s = phi_a + phi_b
    disc = np.sqrt(s * s - 4.0 * psi2)
    if psi2 / (s * s) > _TAIL_THRESHOLD or phi_a_m1 is None:
        v1 = (disc + (phi_b - phi_a)) / 2.0
        v2 = (disc - (phi_b - phi_a)) / 2.0
        holevo = _clamped_h(v1) + _clamped_h(v2) - _clamped_h(v3)
    else:
        # v1 - v3 and v2 - 1 without catastrophic cancellation
        d13 = psi2 * (1.0 / (phi_a + 1.0) - 2.0 / (disc + s))
        dh13 = 0.5 * d13 * np.log2((phi_b + 1.0) / (phi_b - 1.0))
        e2 = phi_a_m1 - 2.0 * psi2 / (disc + s)
        holevo = dh13 + h_function_1p(max(e2, 0.0))
        v1 = v3 + d13
        v2 = 1.0 + max(e2, 0.0)
    holevo = max(holevo, 0.0)
    return RateReport(mutual_info=float(mutual), holevo=float(holevo),
                      rate=float(beta0 * mutual - holevo),
                      spectrum=(float(v1), float(v2), float(v3)))


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
    chi = _clamped_h(v1) + _clamped_h(v2) - _clamped_h(v3)
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
    ent = _clamped_h(v1) + _clamped_h(v2)
    return float(_clamped_h(nu_a) - ent), float(_clamped_h(nu_b) - ent)


def asymptotic_rate(params: ProtocolParams, sigma_r2: float = 0.0,
                    mode: str = "gkp") -> RateReport:
    """Asymptotic reverse-reconciliation key rate beta0*I - chi (may be < 0)."""
    sc = conditioned_scalars(params, sigma_r2, mode)
    return _rate_pieces(sc.phi_a, sc.psi, sc.phi_b, params.beta0, sc.phi_a_m1)
