"""Composable finite-size layer: tail-bound parameter estimation and key rate.

Parameter estimation on m_pe signals bounds each cross correlation of the
conditioned state by a chi-squared tail bound: the worst case lowers the q
correlation psi and raises the p correlation -psi by the same shift, so the
worst-case state is again of the closed form [[phi_a I, psi' Z],
[psi' Z, phi_b I]] with psi' = psi - shift.  :func:`composable_rate` takes
the conditioned scalars and evaluates the asymptotic rate functional on
(phi_a, psi', phi_b), its margins raised by psi^2 - psi'^2.  The same
margins tell, with no tolerance, a block so small that the shift leaves the
physical cone; it is reported as :class:`UnphysicalWorstCaseError`, never
clamped, and a frontier scan reads such a point as not secure.
The rates broadcast over arrays, block sizes (``n_total``, ``m_pe``) included.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import _as_output
from .security import ConditionedScalars, asymptotic_rate


class UnphysicalWorstCaseError(ValueError):
    """The worst-case (tail-bound shifted) state violates the uncertainty
    principle: the parameter-estimation block is too small."""


@dataclass(frozen=True)
class FiniteSizeParams:
    """Block-size and epsilon-security parameters (reference defaults)."""

    n_total: float = 1e8
    m_pe: float | None = None  # default 0.1 * n_total
    d: int = 32
    p_ec: float = 0.9
    eps_cor: float = 1e-10
    eps_s: float = 1e-10
    eps_h: float = 1e-10
    eps_pe: float = 1e-10

    def __post_init__(self):
        if np.any(np.asarray(self.n_total) <= 0):
            raise ValueError("total pulse count must be > 0")
        m = np.asarray(self.pe_signals)
        if not np.all((0 < m) & (m < self.n_total)):
            raise ValueError("PE signal count must satisfy 0 < m_pe < N")
        if self.d < 2 or (self.d & (self.d - 1)) != 0:
            raise ValueError("digitalization must be a power of two >= 2")
        if not 0 < self.p_ec <= 1:
            raise ValueError("EC success probability must be in (0, 1]")
        for name in ("eps_cor", "eps_s", "eps_h", "eps_pe"):
            e = getattr(self, name)
            if not 0 < e < 1:
                raise ValueError(f"{name} must be in (0, 1)")

    @property
    def pe_signals(self) -> float:
        return 0.1 * self.n_total if self.m_pe is None else self.m_pe

    @property
    def key_signals(self) -> float:
        return self.n_total - self.pe_signals


def kappa_from_eps(eps_pe: float) -> float:
    """Tail-bound exponent solving 4 exp(-kappa) = eps_pe.

    Accepts any argument giving a positive exponent; the stricter
    probability range is enforced by :class:`FiniteSizeParams`.
    """
    if not 0 < eps_pe < 4:
        raise ValueError("eps_pe must be in (0, 4) for a positive exponent")
    return float(np.log(4.0 / eps_pe))


def correlation_shift(v_qa: float, v_qb: float, kappa: float, m_pe: float) -> float:
    """Pessimistic shift applied to each cross correlation:
    sqrt(kappa/m_pe) * (<qa^2> + <qb^2>)."""
    return np.sqrt(kappa / m_pe) * (v_qa + v_qb)


def aep_delta(d: int, eps_s: float) -> float:
    """Asymptotic-equipartition penalty 4 log2(sqrt(d)+2) sqrt(log2(2/eps_s^2)),
    with the logarithm taken apart so that a tiny eps_s cannot underflow."""
    return float(4.0 * np.log2(np.sqrt(d) + 2.0) * np.sqrt(1.0 - 2.0 * np.log2(eps_s)))


def _worst_case(sc: ConditionedScalars, fs: FiniteSizeParams, strict: bool):
    """The worst-case state and the mask where the estimate cannot bound it.

    The tail bound puts the true correlation within ``shift`` of psi; the
    worst case is the least correlation in that range, psi' = sign(psi)
    max(|psi| - shift, 0), so it is never more correlated than the estimate.
    The flag is a block-size rule read from the margins: a correlation c in
    place of psi moves both margins by psi^2 - c^2, so the bound's far end
    |psi| - shift leaves the physical cone, and the estimation block is too
    small, iff shift (shift - 2|psi|) > min(margin_a, margin_b).
    A separate function, so its temporaries are freed before the rate runs."""
    phi_a, psi, phi_b = sc.phi_a, sc.psi, sc.phi_b
    m_pe = fs.pe_signals
    shift = correlation_shift(phi_a, phi_b, kappa_from_eps(fs.eps_pe), m_pe)
    psi_wc = np.sign(psi) * np.maximum(np.abs(psi) - shift, 0.0)
    bad = shift * (shift - 2.0 * np.abs(psi)) > np.minimum(sc.margin_a, sc.margin_b)
    if strict and np.any(bad):
        m_pe, shift, psi = (np.broadcast_to(x, bad.shape)[bad][0] for x in (m_pe, shift, psi))
        raise UnphysicalWorstCaseError(
            f"worst-case state is unphysical at m_pe = {m_pe:g} (correlation "
            f"shift {shift:.6g} against psi {psi:.6g}): enlarge the parameter-estimation block")
    psi_wc = np.where(bad, psi, psi_wc)  # the unshifted state stands in where the bound is not
    lift = (np.abs(psi) - np.abs(psi_wc)) * (np.abs(psi) + np.abs(psi_wc))  # psi^2 - psi'^2
    return ConditionedScalars(phi_a, psi_wc, phi_b, sc.margin_a + lift, sc.margin_b + lift), bad


def composable_rate(sc: ConditionedScalars, beta0: float, fs: FiniteSizeParams, *,
                    strict: bool = True):
    """Composable finite-size key rate, bits per protocol use.

    p_ec * [l * R_pe - sqrt(l) * Delta_aep + log2(eps_h^2 eps_cor)] / N with
    l = N - m_pe and R_pe the asymptotic rate of the worst-case state.
    Raises :class:`UnphysicalWorstCaseError`, naming the first element whose
    worst-case state is unphysical; with ``strict=False`` such elements are
    NaN instead, which a frontier scan counts as not secure.
    """
    wc, bad = _worst_case(sc, fs, strict)
    r_pe = np.where(bad, np.nan, asymptotic_rate(wc, beta0).rate)
    ell = fs.key_signals
    bracket = ell * r_pe - np.sqrt(ell) * aep_delta(fs.d, fs.eps_s) \
        + (2.0 * np.log2(fs.eps_h) + np.log2(fs.eps_cor))  # log2(eps_h^2 eps_cor), no underflow
    return _as_output(fs.p_ec * bracket / fs.n_total)
