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

The A link is one node set (weights, gain, excess) on a trailing axis: at
each node A' has variance gain * sigma_a^2 + 1 + 2 * excess, and xi is the
weighted sum of 1/(v_A' + v_B') (:func:`link_scalars`).  A fading link is
the ``residual_nodes`` of :mod:`gkpmdi.fading` with unit gain and excess
sigma_r2(tau); a fiber link is one node (:func:`fiber_link`) of a mode:

* ``direct``  - the plain lossy link: gain tau_a, excess n_bar (1 - tau_a),
* ``preamp``  - loss compensated by a pre-amplifier: unit gain, excess
                (1 + n_bar)(1 - tau_a), the ``gkp`` link with that sigma_r2,
* ``gkp``     - pre-amplified link then error correction: excess sigma_r2,
* ``qt``      - loss compensated by teleportation over a two-mode squeezed
                resource, then error correction: as ``gkp``.

Mutual information, the Holevo bound and the key rate follow from the
scalars in closed form: :func:`asymptotic_rate` is the one rate functional.

Everything here broadcasts over arrays (link lengths, sigma_r2, the scalars);
a scalar call is the length-1 case.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ProtocolParams, _as_output, awgn_variance_preamp


@dataclass(frozen=True)
class RateReport:
    mutual_info: float
    holevo: float
    rate: float
    spectrum: tuple[float, float, float]


@dataclass(frozen=True)
class ConditionedScalars:
    """Closed-form entries of the conditioned two-mode matrix and its
    physicality margins (phi_a -/+ 1)(phi_b +/- 1) - psi^2, both >= 0 iff the
    state is physical.  The margins are formed as products of non-negative
    terms, free of the cancellation the entries suffer on a nearly pure or
    nearly product state; the Holevo bound reads its spectrum from them."""

    phi_a: float
    psi: float
    phi_b: float
    margin_a: float
    margin_b: float

    @property
    def cm(self) -> np.ndarray:
        """The 4x4 matrix [[phi_a I, psi Z], [psi Z, phi_b I]] on (qa, pa, qb, pb)."""
        a, c, b = self.phi_a, self.psi, self.phi_b
        return np.array([[a, 0.0, c, 0.0], [0.0, a, 0.0, -c],
                         [c, 0.0, b, 0.0], [0.0, -c, 0.0, b]])


def _entropy_rise(e, d):
    """h(1 + e + d) - h(1 + e) in bits for e, d >= 0, free of cancellation.

    With u = e/2 and t = d/2 it is [ln(1 + t/(1 + u)) - u ln(1 + t/(u (1 + u + t)))
    + t ln(1 + 1/(u + t))] / ln 2, a term with a vanishing factor u or t being 0.
    Floats are halved into numpy scalars, whose division by 0 is masked, not raised.
    """
    u, t = np.divide(e, 2.0), np.divide(d, 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        low = np.where(u > 0.0, u * np.log1p(t / (u * (1.0 + u + t))), 0.0)
        top = np.where(t > 0.0, t * np.log1p(1.0 / (u + t)), 0.0)
    return (np.log1p(t / (1.0 + u)) - low + top) / np.log(2.0)


def fiber_link(params: ProtocolParams, sigma_r2=0.0, mode: str = "gkp"):
    """A fiber link of ``mode`` as a one-node set (weights, gain, excess),
    the node axis of length 1 trailing; the squared a-A' correlation is
    gain * sigma_a^2 (sigma_a^2 + 2)."""
    tau_a, n_bar = params.tau_a, params.n_bar
    if mode in ("gkp", "qt"):
        gain, excess = 1.0, sigma_r2
    elif mode == "preamp":
        gain, excess = 1.0, awgn_variance_preamp(tau_a, n_bar)
    elif mode == "direct":
        gain, excess = tau_a, n_bar * (1.0 - tau_a)
    else:
        raise ValueError(f"unknown link mode {mode!r}")
    return tuple(np.asarray(x, dtype=float)[..., None] for x in (1.0, gain, excess))


def _link_xi(link, params: ProtocolParams, tau_b):
    """w / (v_A' + v_B') at each node of ``link`` (``tau_b`` is ``params.tau_b``)."""
    w, gain, excess = link
    v_b = np.asarray(tau_b * params.sigma2_b + 1.0)[..., None]
    return w / ((gain * params.sigma2_a + 1.0 + 2.0 * excess) + v_b)


def link_scalars(link, params: ProtocolParams) -> ConditionedScalars:
    """Conditioned scalars of the node set ``link``: the one place they are
    formed.  They are linear in xi, so they read the sums of xi and excess *
    xi over the nodes.  A set of more than one node must have unit gain:
    psi of a mixture with varying gain has no closed form."""
    tau_b = params.tau_b
    xi_k = _link_xi(link, params, tau_b)
    gain = np.asarray(link[1], dtype=float)
    if xi_k.shape[-1] > 1 and np.any(gain != 1.0):
        raise ValueError("a link of more than one node must have unit gain")
    gain = gain[..., 0] if gain.ndim else gain
    xi, excess_xi = np.sum(xi_k, axis=-1), np.sum(xi_k * link[2], axis=-1)
    sa2, sb2 = params.sigma2_a, params.sigma2_b
    ca2 = gain * sa2 * (sa2 + 2.0)
    cb2 = tau_b * sb2 * (sb2 + 2.0)
    margin_a = 2.0 * sa2 * (sb2 + 2.0) * ((1.0 - gain) * xi + excess_xi)
    margin_b = 2.0 * sb2 * (sa2 + 2.0) * ((1.0 - tau_b) * xi + excess_xi)
    return ConditionedScalars(*(_as_output(x) for x in (
        sa2 + 1.0 - ca2 * xi, np.sqrt(ca2 * cb2) * xi, sb2 + 1.0 - cb2 * xi, margin_a, margin_b)))


def asymptotic_rate(sc: ConditionedScalars, beta0: float) -> RateReport:
    """Mutual information, Holevo bound and rate beta0*I - chi (may be < 0).

    The reverse-reconciliation mutual information compares Bob's conditional
    variance before and after heterodyne conditioning on mode a.  The Holevo
    bound h(v1) + h(v2) - h(v3) = [h(v1) - h(v3)] + [h(v2) - h(1)] takes its
    spectrum's excesses over 1 from the margins p, q with no difference of
    large terms, so every state, nearly pure or nearly product, takes one
    route.  A negative margin is an unphysical input and raises.
    """
    phi_a, psi, phi_b, p, q = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (
        sc.phi_a, sc.psi, sc.phi_b, sc.margin_a, sc.margin_b)))
    if np.any((p < 0.0) | (q < 0.0)):
        raise ValueError("unphysical conditioned state: a physicality margin is negative")
    psi2 = psi * psi
    # the direct form, bit for bit: criterion 04's frontier sits on its rounding floor
    mutual = np.log2((1.0 + phi_b) / (1.0 + (phi_b - psi2 / (phi_a + 1.0))))
    e3 = q / (phi_a + 1.0)  # v3 - 1, the excess of b conditioned on a
    ea = p / (phi_b + 1.0)  # the excess of a conditioned on b
    # phi_b - phi_a = v1 - v2; (q - p)/2 would cancel on two lossy links
    gap = (e3 - ea) * (phi_a + 1.0) / (ea + 2.0)
    det = 1.0 + (p + q) / 2.0
    disc = np.sqrt(gap * gap + 4.0 * det)
    # v1 - 1 and v2 - 1 have sum (gap^2 + 2(p + q))/(disc + 2) and product
    # pq/(det + 1 + disc); a pure state has both 0
    big = ((gap * gap + 2.0 * (p + q)) / (disc + 2.0) + np.abs(gap)) / 2.0
    small = p * q / (det + 1.0 + disc) / np.where(big > 0.0, big, 1.0)
    e1, e2 = np.where(gap >= 0.0, big, small), np.where(gap >= 0.0, small, big)
    d13 = 2.0 * psi2 * e1 / ((phi_a + 1.0) * (phi_a + phi_b + disc))  # v1 - v3
    holevo = np.maximum(_entropy_rise(e3, d13) + _entropy_rise(0.0, e2), 0.0)
    return RateReport(mutual_info=_as_output(mutual), holevo=_as_output(holevo),
                      rate=_as_output(beta0 * mutual - holevo),
                      spectrum=(_as_output(1.0 + e1), _as_output(1.0 + e2), _as_output(1.0 + e3)))
