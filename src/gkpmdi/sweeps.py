"""Sweep execution and secure-distance frontiers shared by the CLI and tests."""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from functools import lru_cache

import numpy as np

from .channels import awgn_variance_preamp, awgn_variance_qt
from .config import ConfigError, RunConfig
from .fading import CodePolicy, average_composable_rate, xi_integral, \
    mean_residual_variance, mean_transmittance, sigma_r2_of_tau, fading_quantile, fading_pdf
from .finite_size import composable_rate
from .gkp import break_even, concat_variance, lower_bound_variance, \
    optimize_squeezing, segment_noise
from .security import asymptotic_rate

SCHEMA_VERSION = "1"
_FRONTIER_POINTS = 400
_FRONTIER_RESOLUTION_KM = 0.01
_PDF_ROWS = 1000


@lru_cache(maxsize=4096)
def link_sigma_r2(cfg: RunConfig, l_a_km: float) -> tuple[float, float, float]:
    """(effective sigma_r2, per-segment sigma_r2, per-segment r_opt) of the A link.

    Memoized: frontier searches evaluate the same (config, distance) pair
    many times.  For ``direct``/``preamp`` modes the corrected-residual
    concept does not apply and zeros are returned (the security layer
    handles those modes through their own covariance assembly).
    """
    if cfg.link_mode in ("direct", "preamp"):
        return 0.0, 0.0, 0.0
    params = replace(cfg.protocol, l_a_km=l_a_km)
    if cfg.link_mode == "qt":
        s2 = awgn_variance_qt(params.tau_a, cfg.qt_squeezing_db)
        r_opt, v = optimize_squeezing(s2, cfg.ancilla)
        return v, v, r_opt
    if cfg.layers == 1:
        s2 = awgn_variance_preamp(params.tau_a, params.n_bar)
        r_opt, v = optimize_squeezing(s2, cfg.ancilla)
        return v, v, r_opt
    s2_seg = segment_noise(l_a_km, cfg.layers, params.alpha0_db_per_km)
    r_opt, v_seg = optimize_squeezing(s2_seg, cfg.ancilla)
    return concat_variance(v_seg, cfg.layers), v_seg, r_opt


def _security_mode(link_mode: str) -> str:
    return "gkp" if link_mode == "qt" else link_mode


def rate_point(cfg: RunConfig, l_a_km: float, l_b_km: float,
               n_total: float | None = None) -> dict:
    """One secret-key-rate evaluation, as an output row."""
    params = replace(cfg.protocol, l_a_km=l_a_km, l_b_km=l_b_km)
    sigma_r2, _, _ = link_sigma_r2(cfg, l_a_km)
    mode = _security_mode(cfg.link_mode)
    report = asymptotic_rate(params, sigma_r2, mode)
    row = {
        "schema_version": SCHEMA_VERSION,
        "link_mode": cfg.link_mode,
        "la_km": l_a_km,
        "lb_km": l_b_km,
        "sigma_r2": sigma_r2,
        "mutual_info_bits": report.mutual_info,
        "holevo_bits": report.holevo,
        "v1": report.spectrum[0],
        "v2": report.spectrum[1],
        "v3": report.spectrum[2],
        "modulation_variance_a": params.sigma2_a,
        "modulation_variance_b": params.sigma2_b,
        "reconciliation_efficiency": params.beta0,
        "attenuation_db_per_km": params.alpha0_db_per_km,
        "thermal_photon_mean": params.n_bar,
        "gkp_squeezing_db": cfg.ancilla.squeezing_db if not cfg.ancilla.ideal else "",
        "qt_squeezing_db": cfg.qt_squeezing_db if cfg.link_mode == "qt" else "",
        "layers": cfg.layers,
    }
    if cfg.finite_size is not None:
        if n_total is None:
            fs = cfg.finite_size
        else:  # block-size sweeps keep the configured PE fraction
            ratio = cfg.finite_size.pe_signals / cfg.finite_size.n_total
            fs = replace(cfg.finite_size, n_total=n_total, m_pe=ratio * n_total)
        row.update({
            "rate_kind": "composable",
            "total_pulse": fs.n_total,
            "pe_signals": fs.pe_signals,
            "digitalization": fs.d,
            "ec_success_probability": fs.p_ec,
            "eps_correctness": fs.eps_cor,
            "eps_smoothing": fs.eps_s,
            "eps_hashing": fs.eps_h,
            "eps_pe": fs.eps_pe,
            "rate_bits": composable_rate(params, sigma_r2, fs, mode),
        })
    else:
        row.update({
            "rate_kind": "asymptotic",
            "total_pulse": "", "pe_signals": "", "digitalization": "",
            "ec_success_probability": "", "eps_correctness": "",
            "eps_smoothing": "", "eps_hashing": "", "eps_pe": "",
            "rate_bits": report.rate,
        })
    return row


def _rate_value(cfg: RunConfig, l_a_km: float, l_b_km: float) -> float:
    params = replace(cfg.protocol, l_a_km=l_a_km, l_b_km=l_b_km)
    sigma_r2, _, _ = link_sigma_r2(cfg, l_a_km)
    mode = _security_mode(cfg.link_mode)
    if cfg.finite_size is not None:
        return composable_rate(params, sigma_r2, cfg.finite_size, mode)
    return asymptotic_rate(params, sigma_r2, mode).rate


def max_secure_distance(rate_fn, lo: float, hi: float) -> float:
    """Largest distance with positive rate, to 0.01 km.

    The secure region can be bounded by a numerically noisy edge, so the
    frontier is located as the supremum: a coarse 400-point scan finds the
    last positive point, then bisection refines inside the bracketing cell,
    and a guard extends the scan if the edge touches the last cell.
    """
    for _ in range(8):
        grid = np.linspace(lo, hi, _FRONTIER_POINTS)
        vals = np.array([rate_fn(x) for x in grid])
        pos = np.nonzero(vals > 0.0)[0]
        if len(pos) == 0:
            return float("nan")
        i = pos[-1]
        if i == len(grid) - 1:
            lo, hi = grid[-1], hi * 2.0  # guard: secure past the scan window
            continue
        a, b = grid[i], grid[i + 1]
        while b - a > _FRONTIER_RESOLUTION_KM:
            mid = (a + b) / 2.0
            if rate_fn(mid) > 0.0:
                a = mid
            else:
                b = mid
        return float((a + b) / 2.0)
    return float("nan")


def max_secure_lb(cfg: RunConfig, l_a_km: float, lo: float = 0.05,
                  hi: float = 1200.0) -> float:
    return max_secure_distance(lambda lb: _rate_value(cfg, l_a_km, lb), lo, hi)


def max_secure_la(cfg: RunConfig, l_b_km: float, lo: float = 0.05,
                  hi: float = 30.0) -> float:
    return max_secure_distance(lambda la: _rate_value(cfg, la, l_b_km), lo, hi)


def residual_rows(cfg: RunConfig) -> list[dict]:
    """Residual-error sweep: distance axis or concatenation-layer axis."""
    sweep = cfg.sweep
    if cfg.link_mode != "gkp":
        raise ConfigError("residual sweeps model the gkp link")
    if sweep.axis == "la_km" and cfg.layers != 1:
        raise ConfigError("use axis = layers for concatenation")
    rows = []
    alpha0 = cfg.protocol.alpha0_db_per_km
    common = {
        "schema_version": SCHEMA_VERSION,
        "gkp_squeezing_db": cfg.ancilla.squeezing_db if not cfg.ancilla.ideal else "",
        "attenuation_db_per_km": alpha0,
        "thermal_photon_mean": cfg.protocol.n_bar,
    }
    if sweep.axis == "layers":
        l_a = cfg.protocol.l_a_km
        for c in sweep.values():
            c = int(c)
            s2_seg = segment_noise(l_a, c, alpha0)
            r_opt, v_seg = optimize_squeezing(s2_seg, cfg.ancilla)
            s2_full = awgn_variance_preamp(10 ** (-alpha0 * l_a / 10))
            rows.append({**common, "la_km": l_a, "layers": c, "sigma2": s2_full,
                         "sigma_r2": concat_variance(v_seg, c),
                         "sigma_be2": break_even(s2_full),
                         "sigma_lb2": lower_bound_variance(s2_full), "r_opt": r_opt})
        return rows
    if sweep.axis != "la_km":
        raise ConfigError("residual sweeps support axes la_km and layers")
    for l_a in sweep.values():
        s2 = awgn_variance_preamp(10 ** (-alpha0 * l_a / 10), cfg.protocol.n_bar)
        r_opt, v = optimize_squeezing(s2, cfg.ancilla)
        rows.append({**common, "la_km": l_a, "layers": 1, "sigma2": s2, "sigma_r2": v,
                     "sigma_be2": break_even(s2), "sigma_lb2": lower_bound_variance(s2),
                     "r_opt": r_opt})
    return rows


def _rate_row_worker(args):
    cfg, la, lb, n = args
    return rate_point(cfg, la, lb, n)


def rate_rows(cfg: RunConfig, jobs: int = 1) -> list[dict]:
    """Key-rate sweep (grid mode) or secure-distance frontier (frontier mode)."""
    sweep = cfg.sweep
    if sweep.mode == "frontier":
        if sweep.axis == "lb_km":
            value = max_secure_lb(cfg, cfg.protocol.l_a_km)
            axis_echo = {"la_km": cfg.protocol.l_a_km}
        elif sweep.axis == "la_km":
            value = max_secure_la(cfg, cfg.protocol.l_b_km)
            axis_echo = {"lb_km": cfg.protocol.l_b_km}
        else:
            raise ConfigError("frontier mode supports axes lb_km and la_km")
        return [{
            "schema_version": SCHEMA_VERSION,
            "link_mode": cfg.link_mode,
            "frontier_axis": sweep.axis,
            "max_secure_km": None if np.isnan(value) else value,
            "rate_kind": "composable" if cfg.finite_size is not None else "asymptotic",
            "gkp_squeezing_db": cfg.ancilla.squeezing_db if not cfg.ancilla.ideal else "",
            "layers": cfg.layers,
            **axis_echo,
        }]
    if sweep.axis not in ("lb_km", "la_km", "total_pulse"):
        raise ConfigError("rate sweeps support axes lb_km, la_km and total_pulse")
    points = []
    for v in sweep.values():
        la, lb, n = cfg.protocol.l_a_km, cfg.protocol.l_b_km, None
        if sweep.axis == "la_km":
            la = v
        elif sweep.axis == "lb_km":
            lb = v
        else:
            n = v
        points.append((cfg, la, lb, n))
    if jobs > 1 and len(points) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_rate_row_worker, points))
    return [_rate_row_worker(p) for p in points]


def fading_rows(cfg: RunConfig) -> list[dict]:
    """Transmittance-density samples, summary means, and averaged-rate rows."""
    fad = cfg.fading
    policy = CodePolicy(ancilla=cfg.ancilla)
    rows = []
    common = {
        "schema_version": SCHEMA_VERSION,
        "receiver_aperture_m": fad.a_r_m,
        "tau0": fad.tau0,
        "gamma0": fad.gamma0,
        "r0_m": fad.r0_m,
        "sigma_bw2_m2": fad.sigma_bw2_m2,
        "gkp_squeezing_db": cfg.ancilla.squeezing_db if not cfg.ancilla.ideal else "",
    }
    taus = np.linspace(fading_quantile(1e-7, fad), fad.tau0, _PDF_ROWS)
    dens = fading_pdf(taus, fad)
    sig = sigma_r2_of_tau(fad, policy, taus)
    for t, d, s in zip(taus, dens, sig):
        rows.append({**common, "row_kind": "pdf", "tau_a": t, "pdf_density": d,
                     "sigma_r2_of_tau": s, "lb_km": "", "rate_bits": "",
                     "mean_sigma_r2": "", "mean_tau": "", "xi": ""})
    rows.append({**common, "row_kind": "summary", "tau_a": "", "pdf_density": "",
                 "sigma_r2_of_tau": "", "lb_km": "", "rate_bits": "",
                 "mean_sigma_r2": mean_residual_variance(fad, policy),
                 "mean_tau": mean_transmittance(fad),
                 "xi": xi_integral(fad, cfg.protocol, policy)})
    if cfg.sweep.axis == "lb_km" and cfg.finite_size is not None:
        for lb in cfg.sweep.values():
            params = replace(cfg.protocol, l_b_km=lb)
            r = average_composable_rate(fad, params, cfg.finite_size, policy)
            rows.append({**common, "row_kind": "rate", "tau_a": "", "pdf_density": "",
                         "sigma_r2_of_tau": "", "lb_km": lb, "rate_bits": r,
                         "mean_sigma_r2": "", "mean_tau": "", "xi": ""})
    return rows
