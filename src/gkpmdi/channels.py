"""Channel transmittance models and compensated-channel noise variances.

Noise variances returned here are per quadrature in the hbar = 1 convention
(vacuum variance 1/2), matching the additive-noise bookkeeping of the
error-correction layer.  Everything here broadcasts over arrays.  A thermal
background n_bar enters through the loss, tau V + (1 - tau)(2 n_bar + 1)
(Weedbrook et al., RMP 84, 621 (2012)): a lossless link carries none.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ProtocolParams:
    """Protocol-level parameters; defaults follow the reference configuration.

    Variances are dimensionless (shot-noise units), lengths in km,
    attenuation in dB/km.  The link lengths may be arrays (one rate
    evaluation per element).
    """

    sigma2_a: float = 20.0
    sigma2_b: float = 20.0
    l_a_km: float = 1.0
    l_b_km: float = 10.0
    n_bar: float = 0.0
    beta0: float = 1.0
    alpha0_db_per_km: float = 0.2

    def __post_init__(self):
        if not (0.0 <= self.sigma2_a < np.inf and 0.0 <= self.sigma2_b < np.inf):
            raise ValueError("modulation variances must be finite and >= 0")
        if not 0.0 < self.beta0 <= 1.0:
            raise ValueError("reconciliation efficiency must be in (0, 1]")
        if not 0.0 <= self.n_bar < np.inf:
            raise ValueError("thermal photon mean must be finite and >= 0")
        if not 0.0 <= self.alpha0_db_per_km < np.inf:
            raise ValueError("attenuation must be finite and >= 0 dB/km")
        for length in map(np.asarray, (self.l_a_km, self.l_b_km)):
            if not np.all((length >= 0.0) & np.isfinite(length)):
                raise ValueError("link lengths must be finite and >= 0")

    @property
    def tau_a(self):
        return fiber_transmittance(self.l_a_km, self.alpha0_db_per_km)

    @property
    def tau_b(self):
        return fiber_transmittance(self.l_b_km, self.alpha0_db_per_km)


def _as_output(x):
    """A float for a 0-d result, the array otherwise: scalar calls return floats."""
    x = np.asarray(x, dtype=float)
    return float(x) if x.ndim == 0 else x


def fiber_transmittance(length_km, alpha0_db_per_km: float = 0.2):
    """Fiber transmittance 10^(-alpha0 * L / 10), elementwise.

    Each power is Python's float ``**`` (the C library's pow, which the
    scalar code always used): numpy's vectorized power differs from it by
    one ulp on a few per cent of elements.
    """
    length = np.asarray(length_km, dtype=float)
    if np.any(length < 0):
        raise ValueError("length must be >= 0")
    exponent = -alpha0_db_per_km * length / 10.0
    return _as_output(np.reshape([10.0 ** e for e in exponent.ravel().tolist()], length.shape))


def awgn_variance_preamp(tau_a, n_bar: float = 0.0):
    """Additive-noise variance of the loss channel compensated by a
    pre-amplifier of gain 1/tau_a and then thermal loss: (1 + n_bar)(1 - tau_a)."""
    if not np.all((tau_a > 0.0) & (tau_a <= 1.0)):
        raise ValueError("transmittance must be in (0, 1]")
    return (1.0 + n_bar) * (1.0 - tau_a)


def awgn_variance_qt(tau_a, s0_db: float):
    """Additive-noise variance when the loss is compensated by
    continuous-variable teleportation with a TMSV resource of s0_db dB:
    sqrt(tau_a) * 10^(-s0/10) + 1 - sqrt(tau_a)."""
    if not np.all((tau_a > 0.0) & (tau_a <= 1.0)):
        raise ValueError("transmittance must be in (0, 1]")
    if s0_db < 0:
        raise ValueError("resource squeezing must be >= 0 dB")
    root = np.sqrt(tau_a)
    return root * 10.0 ** (-s0_db / 10.0) + 1.0 - root

