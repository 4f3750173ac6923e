"""Relay conditioning and secret-key-rate functionals.

After the relay's joint q/p measurement of the travelling modes (A', B'),
the kept modes (a, b) are left in a two-mode Gaussian state of the form

    [[phi_a I, psi Z], [psi Z, phi_b I]],   Z = diag(1, -1),

in vacuum-1 shot-noise units, and every rate depends on that state only
through the three scalars (phi_a, psi, phi_b).  With sigma_a^2, sigma_b^2 the
modulation variances, c_a^2 the squared a-A' correlation, c_b^2 =
tau_b sigma_b^2 (sigma_b^2 + 2) and xi the conditioning scalar, they are

    phi_a = sigma_a^2 + 1 - c_a^2 xi,   phi_b = sigma_b^2 + 1 - c_b^2 xi,
    psi   = sqrt(c_a^2 c_b^2) xi.

On a fixed link xi = 1/(v_A' + v_B') is the inverse sum of the travelling
mode variances; a fading link averages it over the transmittance
(:func:`gkpmdi.fading.xi_integral`).  Mutual information, the eavesdropper's
Holevo bound and the key rate follow from the scalars in closed form.

Three A-side link configurations are supported:

* ``direct``  - the plain lossy link,
* ``preamp``  - loss compensated by a pre-amplifier (additive noise
                2*(1 - tau_a) replaces the loss),
* ``gkp``     - pre-amplified link followed by error correction, leaving
                residual noise 2*sigma_r2.

``preamp`` is the ``gkp`` link with sigma_r2 = 1 - tau_a.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ProtocolParams, awgn_variance_preamp

# Symplectic eigenvalues this far below 1 are rounding noise of a physical
# state; anything smaller is an unphysical input.
PHYSICALITY_TOL = 1e-9

# Below this value of psi^2/(Phi+phi)^2 the two-mode state is numerically
# product-like and the Holevo terms are evaluated through cancellation-free
# differences instead of the direct eigenvalue formulas.
_TAIL_THRESHOLD = 1e-10


@dataclass(frozen=True)
class RateReport:
    mutual_info: float
    holevo: float
    rate: float
    spectrum: tuple[float, float, float]


@dataclass(frozen=True)
class ConditionedScalars:
    """Closed-form entries of the conditioned two-mode matrix.

    ``phi_a_m1``/``phi_b_m1`` are the same variances minus one, computed
    without cancellation; they feed the deep-loss evaluation path and are
    ``None`` where no such form is available (fading averages).
    """

    phi_a: float
    psi: float
    phi_b: float
    phi_a_m1: float | None = None
    phi_b_m1: float | None = None

    @property
    def cm(self) -> np.ndarray:
        """The 4x4 matrix [[phi_a I, psi Z], [psi Z, phi_b I]] on (qa, pa, qb, pb)."""
        a, c, b = self.phi_a, self.psi, self.phi_b
        return np.array([[a, 0.0, c, 0.0], [0.0, a, 0.0, -c],
                         [c, 0.0, b, 0.0], [0.0, -c, 0.0, b]])


def h_function(v: float) -> float:
    """Bosonic entropy of a thermal mode with symplectic eigenvalue v, in bits.

    h(1) = 0 with the 0*log(0) = 0 convention.  Values in [1 - 1e-9, 1]
    are clamped to 1; smaller values raise.
    """
    if v < 1.0 - PHYSICALITY_TOL:
        raise ValueError(f"symplectic eigenvalue {v} < 1")
    if v <= 1.0:
        return 0.0
    up = (v + 1.0) / 2.0
    dn = (v - 1.0) / 2.0
    return up * np.log2(up) - dn * np.log2(dn)


def h_function_1p(e: float) -> float:
    """h(1 + e) for small e >= 0, evaluated without cancellation."""
    if e <= 0.0:
        return 0.0
    half = e / 2.0
    return (1.0 + half) * np.log1p(half) / np.log(2.0) - half * np.log2(half)


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


def _conditioned_entries(params: ProtocolParams, tau_b: float, ca2: float, xi: float):
    """(phi_a, psi, phi_b) for the squared a-A' correlation ``ca2`` and the
    conditioning scalar ``xi``: the one place the conditioned entries are formed.
    ``tau_b`` is ``params.tau_b``, passed in because callers already hold it."""
    sa2, sb2 = params.sigma2_a, params.sigma2_b
    cb2 = tau_b * sb2 * (sb2 + 2.0)
    return sa2 + 1.0 - ca2 * xi, np.sqrt(ca2 * cb2) * xi, sb2 + 1.0 - cb2 * xi


def conditioned_scalars(params: ProtocolParams, sigma_r2: float = 0.0,
                        mode: str = "gkp") -> ConditionedScalars:
    """Conditioned scalars of a fixed link, xi = 1/(v_A' + v_B')."""
    sa2, sb2 = params.sigma2_a, params.sigma2_b
    tau_a, tau_b = params.tau_a, params.tau_b
    va, ca2 = _link_coefficients(mode, tau_a, sa2, sigma_r2, params.n_bar)
    vb = tau_b * sb2 + 1.0
    xi = 1.0 / (va + vb)
    phi_a, psi, phi_b = _conditioned_entries(params, tau_b, ca2, xi)
    if mode == "gkp":
        bracket_a = tau_b * sb2 + 2.0 * sigma_r2
    else:  # pre-amplified or plain lossy link
        bracket_a = tau_b * sb2 + 2.0 * (1.0 - tau_a) + 2.0 * params.n_bar
    phi_a_m1 = sa2 * bracket_a * xi
    phi_b_m1 = sb2 * (va + 1.0 - 2.0 * tau_b) * xi
    return ConditionedScalars(phi_a=float(phi_a), psi=float(psi), phi_b=float(phi_b),
                              phi_a_m1=float(phi_a_m1), phi_b_m1=float(phi_b_m1))


def _rate_pieces(phi_a: float, psi: float, phi_b: float, beta0: float,
                 phi_a_m1: float | None = None) -> RateReport:
    """Mutual information, Holevo bound and rate from the conditioned scalars.

    The reverse-reconciliation mutual information compares Bob's conditional
    variance before and after heterodyne conditioning on mode a.  For
    strongly attenuated links (psi^2 far below the variances) the Holevo
    terms are evaluated through exact small-difference algebra so that the
    bound stays positive instead of drowning in rounding noise; this path
    needs the cancellation-free ``phi_a_m1`` and is skipped when the scalars
    have been shifted away from their closed forms (e.g. worst-case states).
    """
    psi2 = psi * psi
    v3 = phi_b - psi2 / (phi_a + 1.0)
    mutual = np.log2((1.0 + phi_b) / (1.0 + v3))
    s = phi_a + phi_b
    disc = np.sqrt(s * s - 4.0 * psi2)
    if psi2 / (s * s) > _TAIL_THRESHOLD or phi_a_m1 is None:
        v1 = (disc + (phi_b - phi_a)) / 2.0
        v2 = (disc - (phi_b - phi_a)) / 2.0
        holevo = h_function(v1) + h_function(v2) - h_function(v3)
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


def asymptotic_rate(params: ProtocolParams, sigma_r2: float = 0.0,
                    mode: str = "gkp") -> RateReport:
    """Asymptotic reverse-reconciliation key rate beta0*I - chi (may be < 0)."""
    sc = conditioned_scalars(params, sigma_r2, mode)
    return _rate_pieces(sc.phi_a, sc.psi, sc.phi_b, params.beta0, sc.phi_a_m1)
