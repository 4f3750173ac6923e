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
Holevo bound and the key rate follow from the scalars in closed form:
:func:`asymptotic_rate` is the one rate functional on them.

Four A-side link configurations are supported:

* ``direct``  - the plain lossy link,
* ``preamp``  - loss compensated by a pre-amplifier (additive noise
                2*(1 + n_bar)(1 - tau_a) replaces the loss),
* ``gkp``     - pre-amplified link followed by error correction, leaving
                residual noise 2*sigma_r2,
* ``qt``      - loss compensated by teleportation over a two-mode squeezed
                resource, then error correction: as ``gkp``, residual noise
                2*sigma_r2.

``preamp`` is the ``gkp`` link with sigma_r2 = (1 + n_bar)(1 - tau_a).

Everything here broadcasts over arrays (link lengths, sigma_r2, the scalars);
a scalar call is the length-1 case.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ProtocolParams, _as_output, awgn_variance_preamp

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

    ``phi_a_m1`` is phi_a minus one, computed without cancellation; it feeds
    the deep-loss evaluation path and is ``None`` where no such form is
    available (fading averages, worst-case states).
    """

    phi_a: float
    psi: float
    phi_b: float
    phi_a_m1: float | None = None

    @property
    def cm(self) -> np.ndarray:
        """The 4x4 matrix [[phi_a I, psi Z], [psi Z, phi_b I]] on (qa, pa, qb, pb)."""
        a, c, b = self.phi_a, self.psi, self.phi_b
        return np.array([[a, 0.0, c, 0.0], [0.0, a, 0.0, -c],
                         [c, 0.0, b, 0.0], [0.0, -c, 0.0, b]])


def h_function(v):
    """Bosonic entropy of a thermal mode with symplectic eigenvalue v, in bits.

    h(1) = 0 with the 0*log(0) = 0 convention.  Values in [1 - 1e-9, 1]
    are clamped to 1; smaller values raise.
    """
    v = np.asarray(v, dtype=float)
    if np.any(v < 1.0 - PHYSICALITY_TOL):
        raise ValueError(f"symplectic eigenvalue {np.min(v)} < 1")
    out = np.zeros_like(v)
    live = ~(v <= 1.0)
    up = (v[live] + 1.0) / 2.0
    dn = (v[live] - 1.0) / 2.0
    out[live] = up * np.log2(up) - dn * np.log2(dn)
    return _as_output(out)


def h_function_1p(e):
    """h(1 + e) for small e >= 0, evaluated without cancellation."""
    e = np.asarray(e, dtype=float)
    out = np.zeros_like(e)
    live = ~(e <= 0.0)
    half = e[live] / 2.0
    out[live] = (1.0 + half) * np.log1p(half) / np.log(2.0) - half * np.log2(half)
    return _as_output(out)


def _link_coefficients(mode: str, tau_a, sigma_r2, n_bar: float = 0.0):
    """(gain, excess noise) of the A link: A' has variance
    gain * sigma_a^2 + 1 + 2 * excess and squared a-A' correlation
    gain * sigma_a^2 (sigma_a^2 + 2)."""
    if mode in ("gkp", "qt"):
        return 1.0, sigma_r2
    if mode == "preamp":
        return 1.0, awgn_variance_preamp(tau_a, n_bar)
    if mode == "direct":
        return tau_a, n_bar * (1.0 - tau_a)
    raise ValueError(f"unknown link mode {mode!r}")


def _conditioned_entries(params: ProtocolParams, tau_b, gain, xi):
    """(phi_a, psi, phi_b) for the A-link ``gain`` and the conditioning
    scalar ``xi``: the one place the conditioned entries are formed.
    ``tau_b`` is ``params.tau_b``, passed in because callers already hold it."""
    sa2, sb2 = params.sigma2_a, params.sigma2_b
    ca2 = gain * sa2 * (sa2 + 2.0)
    cb2 = tau_b * sb2 * (sb2 + 2.0)
    return sa2 + 1.0 - ca2 * xi, np.sqrt(ca2 * cb2) * xi, sb2 + 1.0 - cb2 * xi


def conditioned_scalars(params: ProtocolParams, sigma_r2=0.0,
                        mode: str = "gkp") -> ConditionedScalars:
    """Conditioned scalars of a fixed link, xi = 1/(v_A' + v_B')."""
    sa2, sb2 = params.sigma2_a, params.sigma2_b
    tau_b = params.tau_b
    gain, excess = _link_coefficients(mode, params.tau_a, sigma_r2, params.n_bar)
    va = gain * sa2 + 1.0 + 2.0 * excess
    vb = tau_b * sb2 + 1.0
    xi = 1.0 / (va + vb)
    phi_a, psi, phi_b = _conditioned_entries(params, tau_b, gain, xi)
    # phi_a - 1 = (sa2 (v_A' + v_B') - ca2) xi, free of cancellation
    phi_a_m1 = sa2 * (tau_b * sb2 + 2.0 * (excess + (1.0 - gain))) * xi
    return ConditionedScalars(phi_a=_as_output(phi_a), psi=_as_output(psi),
                              phi_b=_as_output(phi_b), phi_a_m1=_as_output(phi_a_m1))


def asymptotic_rate(sc: ConditionedScalars, beta0: float) -> RateReport:
    """Mutual information, Holevo bound and rate beta0*I - chi (may be < 0).

    The reverse-reconciliation mutual information compares Bob's conditional
    variance before and after heterodyne conditioning on mode a.  For
    strongly attenuated links (psi^2 far below the variances) the Holevo
    terms are evaluated through exact small-difference algebra so that the
    bound stays positive instead of drowning in rounding noise; this path
    needs the cancellation-free ``sc.phi_a_m1`` and is skipped where that is
    None (worst-case and fading states).  Each element takes its own branch.
    """
    phi_a, psi, phi_b = np.broadcast_arrays(*(np.asarray(x, dtype=float)
                                              for x in (sc.phi_a, sc.psi, sc.phi_b)))
    psi2 = psi * psi
    v3 = phi_b - psi2 / (phi_a + 1.0)
    mutual = np.log2((1.0 + phi_b) / (1.0 + v3))
    s = phi_a + phi_b
    disc = np.sqrt(s * s - 4.0 * psi2)
    v1 = np.array((disc + (phi_b - phi_a)) / 2.0)
    v2 = np.array((disc - (phi_b - phi_a)) / 2.0)
    holevo = np.empty(s.shape)
    tail = (sc.phi_a_m1 is not None) & ~(psi2 / (s * s) > _TAIL_THRESHOLD)
    full = ~tail
    holevo[full] = h_function(v1[full]) + h_function(v2[full]) - h_function(v3[full])
    if np.any(tail):
        # v1 - v3 and v2 - 1 without catastrophic cancellation
        p2, pa, pb, ss = psi2[tail], phi_a[tail], phi_b[tail], s[tail]
        d13 = p2 * (1.0 / (pa + 1.0) - 2.0 / (disc[tail] + ss))
        dh13 = 0.5 * d13 * np.log2((pb + 1.0) / (pb - 1.0))
        m1 = np.broadcast_to(np.asarray(sc.phi_a_m1, dtype=float), s.shape)[tail]
        e2 = np.maximum(m1 - 2.0 * p2 / (disc[tail] + ss), 0.0)
        holevo[tail] = dh13 + h_function_1p(e2)
        v1[tail] = v3[tail] + d13
        v2[tail] = 1.0 + e2
    holevo = np.maximum(holevo, 0.0)
    return RateReport(mutual_info=_as_output(mutual), holevo=_as_output(holevo),
                      rate=_as_output(beta0 * mutual - holevo),
                      spectrum=(_as_output(v1), _as_output(v2), _as_output(v3)))
