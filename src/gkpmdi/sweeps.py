"""Sweep execution and secure-distance frontiers shared by the CLI and tests."""
from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

import numpy as np

from .channels import awgn_variance_preamp, awgn_variance_qt
from .config import ConfigError, RunConfig
from .fading import CodePolicy, _composable_at, _mean_at, _residual_nodes, _xi_at, \
    mean_transmittance, sigma_r2_of_tau, fading_quantile, fading_pdf
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
    if cfg.link_mode == "qt":  # the config allows layers > 1 only on gkp links
        s2_seg = awgn_variance_qt(params.tau_a, cfg.qt_squeezing_db)
    elif cfg.layers == 1:
        s2_seg = awgn_variance_preamp(params.tau_a, params.n_bar)
    else:
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
            "rate_kind": "asymptotic",  # finite-size columns stay blank
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
    alpha0 = cfg.protocol.alpha0_db_per_km
    common = {
        "schema_version": SCHEMA_VERSION,
        "gkp_squeezing_db": cfg.ancilla.squeezing_db if not cfg.ancilla.ideal else "",
        "attenuation_db_per_km": alpha0,
        "thermal_photon_mean": cfg.protocol.n_bar,
    }
    if sweep.axis == "layers":
        l_a = cfg.protocol.l_a_km
        layers = [int(c) for c in sweep.values()]
        s2_seg = np.array([segment_noise(l_a, c, alpha0) for c in layers])
        r_opt, v_seg = optimize_squeezing(s2_seg, cfg.ancilla)
        s2_full = awgn_variance_preamp(10 ** (-alpha0 * l_a / 10))
        return [{**common, "la_km": l_a, "layers": c, "sigma2": s2_full,
                 "sigma_r2": concat_variance(v, c), "sigma_be2": break_even(s2_full),
                 "sigma_lb2": lower_bound_variance(s2_full), "r_opt": r}
                for c, r, v in zip(layers, r_opt.tolist(), v_seg.tolist())]
    if sweep.axis != "la_km":
        raise ConfigError("residual sweeps support axes la_km and layers")
    l_as = sweep.values()
    s2 = np.array([awgn_variance_preamp(10 ** (-alpha0 * l_a / 10), cfg.protocol.n_bar)
                   for l_a in l_as])
    r_opt, v = optimize_squeezing(s2, cfg.ancilla)
    return [{**common, "la_km": l_a, "layers": 1, "sigma2": s, "sigma_r2": vi,
             "sigma_be2": break_even(s), "sigma_lb2": lower_bound_variance(s), "r_opt": r}
            for l_a, s, r, vi in zip(l_as, s2.tolist(), r_opt.tolist(), v.tolist())]


def rate_rows(cfg: RunConfig) -> list[dict]:
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
    base = cfg.protocol
    return [rate_point(cfg, v if sweep.axis == "la_km" else base.l_a_km,
                       v if sweep.axis == "lb_km" else base.l_b_km,
                       v if sweep.axis == "total_pulse" else None)
            for v in sweep.values()]


def fading_rows(cfg: RunConfig) -> list[dict]:
    """Transmittance-density samples, summary means, and averaged-rate rows.

    Columns a row kind does not use are absent and written as blank cells.
    """
    fad = cfg.fading
    policy = CodePolicy(ancilla=cfg.ancilla)
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
    rows = [{**common, "row_kind": "pdf", "tau_a": t, "pdf_density": d, "sigma_r2_of_tau": s}
            for t, d, s in zip(taus, fading_pdf(taus, fad), sigma_r2_of_tau(fad, policy, taus))]
    nodes = _residual_nodes(fad, policy)  # shared by the summary and every rate row
    rows.append({**common, "row_kind": "summary", "mean_sigma_r2": _mean_at(nodes),
                 "mean_tau": mean_transmittance(fad), "xi": _xi_at(nodes, cfg.protocol)})
    if cfg.sweep.axis == "lb_km" and cfg.finite_size is not None:
        for lb in cfg.sweep.values():
            params = replace(cfg.protocol, l_b_km=lb)
            rows.append({**common, "row_kind": "rate", "lb_km": lb,
                         "rate_bits": _composable_at(nodes, params, cfg.finite_size)})
    return rows
