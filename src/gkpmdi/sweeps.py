"""Sweep execution and secure-distance frontiers shared by the CLI and tests.

Row builders return blocks: dicts mapping each output column to one echoed
value or to a 1-D array with one element per row.  A frontier block also
carries ``unphysical_points``, a diagnostic that no output column holds.
"""
from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

import numpy as np

from .channels import _as_output, awgn_variance_preamp, awgn_variance_qt, fiber_transmittance
from .config import ConfigError, RunConfig
from .fading import CodePolicy, _composable_at, _mean_at, _residual_nodes, _xi_at, \
    mean_transmittance, sigma_r2_of_tau, fading_quantile, fading_pdf
from .finite_size import composable_rate_from_pe, pe_rate_from_scalars
from .gkp import break_even, concat_variance, lower_bound_variance, optimize_squeezing
from .security import _rate_pieces, conditioned_scalars

SCHEMA_VERSION = "1"
_FRONTIER_POINTS = 400
_FRONTIER_RESOLUTION_KM = 0.01
_LB_WINDOW_KM = (0.05, 1200.0)  # initial frontier scan windows
_LA_WINDOW_KM = (0.05, 30.0)
_PDF_ROWS = 1000


def _link(cfg: RunConfig, l_a_km, layers=None):
    """(effective sigma_r2, per-segment sigma_r2, per-segment r_opt) of the A
    link, elementwise over ``l_a_km`` and ``layers`` (default: the configured
    count) in one array optimization; zeros for ``direct``/``preamp`` links,
    which carry no code."""
    if cfg.link_mode in ("direct", "preamp"):
        zero = _as_output(np.zeros(np.shape(l_a_km)))
        return zero, zero, zero
    layers = cfg.layers if layers is None else layers
    alpha0 = cfg.protocol.alpha0_db_per_km
    if cfg.link_mode == "qt":  # the config allows layers > 1 only on gkp links
        s2_seg = awgn_variance_qt(fiber_transmittance(l_a_km, alpha0), cfg.qt_squeezing_db)
    else:  # one of `layers` equal segments
        tau_seg = fiber_transmittance(l_a_km / layers, alpha0)
        s2_seg = awgn_variance_preamp(tau_seg, cfg.protocol.n_bar)
    r_opt, v_seg = optimize_squeezing(s2_seg, cfg.ancilla)
    return concat_variance(v_seg, layers), v_seg, r_opt


def _squeezing_echo(cfg: RunConfig):
    """The echoed ``gkp_squeezing_db``: blank for an ideal ancilla and on
    ``direct``/``preamp`` links, where no code acts on it."""
    if cfg.ancilla.ideal or cfg.link_mode in ("direct", "preamp"):
        return ""
    return cfg.ancilla.squeezing_db


@lru_cache(maxsize=4096)
def link_sigma_r2(cfg: RunConfig, l_a_km: float) -> tuple[float, float, float]:
    """The A link at one length: the memoized scalar case of ``_link``.

    A frontier along lb_km evaluates the same (config, distance) pair at
    every probe.
    """
    return _link(cfg, l_a_km)


def rate_point(cfg: RunConfig, l_a_km, l_b_km, n_total=None, strict: bool = True) -> dict:
    """Secret-key rates as one block of output columns.

    ``l_a_km``, ``l_b_km`` and ``n_total`` (None keeps the configured block
    size) are scalars or equal-length 1-D arrays.  The conditioned scalars
    are formed once and feed both the asymptotic and the composable columns.
    ``strict`` is passed to :func:`pe_rate_from_scalars`: when False, an
    unphysical worst-case state gives a NaN composable rate, not an error.
    """
    sigma_r2 = (link_sigma_r2 if np.ndim(l_a_km) == 0 else _link)(cfg, l_a_km)[0]
    params = replace(cfg.protocol, l_a_km=l_a_km, l_b_km=l_b_km)
    sc = conditioned_scalars(params, sigma_r2, "gkp" if cfg.link_mode == "qt" else cfg.link_mode)
    report = _rate_pieces(sc.phi_a, sc.psi, sc.phi_b, params.beta0, sc.phi_a_m1)
    block = {
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
        "gkp_squeezing_db": _squeezing_echo(cfg),
        "qt_squeezing_db": cfg.qt_squeezing_db if cfg.link_mode == "qt" else "",
        "layers": cfg.layers,
    }
    if cfg.finite_size is None:
        block.update({"rate_kind": "asymptotic",  # finite-size columns stay blank
                      "rate_bits": report.rate})
        return block
    fs = cfg.finite_size
    if n_total is not None:  # block-size sweeps keep the configured PE fraction
        ratio = fs.pe_signals / fs.n_total
        fs = replace(fs, n_total=n_total, m_pe=ratio * n_total)
    r_pe = pe_rate_from_scalars(sc.phi_a, sc.psi, sc.phi_b, params.beta0, fs, strict)
    block.update({
        "rate_kind": "composable",
        "total_pulse": fs.n_total,
        "pe_signals": fs.pe_signals,
        "digitalization": fs.d,
        "ec_success_probability": fs.p_ec,
        "eps_correctness": fs.eps_cor,
        "eps_smoothing": fs.eps_s,
        "eps_hashing": fs.eps_h,
        "eps_pe": fs.eps_pe,
        "rate_bits": composable_rate_from_pe(r_pe, fs),
    })
    return block


def max_secure_distance(rate_fn, lo: float, hi: float) -> float:
    """Largest distance with positive rate, to 0.01 km.

    ``rate_fn`` maps a 1-D array of distances to their rates.  The secure
    region can be bounded by a numerically noisy edge, so the frontier is
    located as the supremum: a coarse 400-point scan, one ``rate_fn`` call,
    finds the last positive point, and a guard extends the scan if the edge
    touches the last cell.  One more call refines the bracketing cell: it
    evaluates the 2^n - 1 points that split the cell into sub-cells no wider
    than 0.01 km (every point bisection could probe), and the result is the
    midpoint of the last sub-cell that starts at a positive rate.
    """
    for _ in range(8):
        grid = np.linspace(lo, hi, _FRONTIER_POINTS)
        pos = np.nonzero(rate_fn(grid) > 0.0)[0]
        if len(pos) == 0:
            return float("nan")
        i = pos[-1]
        if i == len(grid) - 1:
            lo, hi = grid[-1], hi * 2.0  # guard: secure past the scan window
            continue
        a, b = grid[i], grid[i + 1]
        n = max(0, int(np.ceil(np.log2((b - a) / _FRONTIER_RESOLUTION_KM))))  # halvings
        edges = np.linspace(a, b, 2**n + 1)
        pos = np.nonzero(rate_fn(edges[1:-1]) > 0.0)[0]
        j = pos[-1] + 1 if len(pos) else 0  # the last sub-cell starting positive (a is)
        return float((edges[j] + edges[j + 1]) / 2.0)
    return float("nan")


def _frontier(cfg: RunConfig, l_a_km, l_b_km, lo: float, hi: float) -> tuple[float, int]:
    """Largest secure distance along the link whose length is None, and the
    number of scanned points whose worst-case state was unphysical: their
    NaN rate counts as not secure."""
    unphysical = 0

    def rate_fn(x):
        nonlocal unphysical
        rate = rate_point(cfg, x if l_a_km is None else l_a_km,
                          x if l_b_km is None else l_b_km, strict=False)["rate_bits"]
        unphysical += int(np.count_nonzero(np.isnan(rate)))
        return rate

    return max_secure_distance(rate_fn, lo, hi), unphysical


def max_secure_lb(cfg: RunConfig, l_a_km: float, lo: float = _LB_WINDOW_KM[0],
                  hi: float = _LB_WINDOW_KM[1]) -> float:
    return _frontier(cfg, l_a_km, None, lo, hi)[0]


def max_secure_la(cfg: RunConfig, l_b_km: float, lo: float = _LA_WINDOW_KM[0],
                  hi: float = _LA_WINDOW_KM[1]) -> float:
    return _frontier(cfg, None, l_b_km, lo, hi)[0]


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
        "gkp_squeezing_db": _squeezing_echo(cfg),
        "attenuation_db_per_km": alpha0,
        "thermal_photon_mean": cfg.protocol.n_bar,
    }
    if sweep.axis not in ("la_km", "layers"):
        raise ConfigError("residual sweeps support axes la_km and layers")
    values = np.array(sweep.values())
    if sweep.axis == "la_km":
        l_a, layers = values, 1
    else:
        if np.any((values < 1) | (values != np.floor(values))):
            raise ConfigError("a layers sweep takes integer values >= 1")
        l_a, layers = cfg.protocol.l_a_km, values.astype(int)
    s2 = awgn_variance_preamp(fiber_transmittance(l_a, alpha0), cfg.protocol.n_bar)
    sigma_r2, _, r_opt = _link(cfg, l_a, layers)
    return [{**common, "la_km": l_a, "layers": layers, "sigma2": s2, "sigma_r2": sigma_r2,
             "sigma_be2": break_even(s2), "sigma_lb2": lower_bound_variance(s2), "r_opt": r_opt}]


def rate_rows(cfg: RunConfig) -> list[dict]:
    """Key-rate sweep (grid mode) or secure-distance frontier (frontier mode)."""
    sweep = cfg.sweep
    if sweep.mode == "frontier":
        if sweep.axis == "lb_km":
            value, unphysical = _frontier(cfg, cfg.protocol.l_a_km, None, *_LB_WINDOW_KM)
            axis_echo = {"la_km": cfg.protocol.l_a_km}
        elif sweep.axis == "la_km":
            value, unphysical = _frontier(cfg, None, cfg.protocol.l_b_km, *_LA_WINDOW_KM)
            axis_echo = {"lb_km": cfg.protocol.l_b_km}
        else:
            raise ConfigError("frontier mode supports axes lb_km and la_km")
        return [{
            "unphysical_points": unphysical,
            "schema_version": SCHEMA_VERSION,
            "link_mode": cfg.link_mode,
            "frontier_axis": sweep.axis,
            "max_secure_km": None if np.isnan(value) else value,
            "rate_kind": "composable" if cfg.finite_size is not None else "asymptotic",
            "gkp_squeezing_db": _squeezing_echo(cfg),
            "layers": cfg.layers,
            **axis_echo,
        }]
    if sweep.axis not in ("lb_km", "la_km", "total_pulse"):
        raise ConfigError("rate sweeps support axes lb_km, la_km and total_pulse")
    values = np.array(sweep.values(), dtype=float)
    base = cfg.protocol
    return [rate_point(cfg, values if sweep.axis == "la_km" else base.l_a_km,
                       values if sweep.axis == "lb_km" else base.l_b_km,
                       values if sweep.axis == "total_pulse" else None)]


def fading_rows(cfg: RunConfig) -> list[dict]:
    """Transmittance-density samples, summary means, and averaged-rate rows.

    Columns a row kind does not use are absent and written as blank cells.
    The fading link is modelled as one gkp-corrected segment.
    """
    if cfg.link_mode != "gkp" or cfg.layers != 1:
        raise ConfigError("fading models a single-layer gkp link")
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
    blocks = [{**common, "row_kind": "pdf", "tau_a": taus, "pdf_density": fading_pdf(taus, fad),
               "sigma_r2_of_tau": sigma_r2_of_tau(fad, policy, taus)}]
    nodes = _residual_nodes(fad, policy)  # shared by the summary and every rate row
    blocks.append({**common, "row_kind": "summary", "mean_sigma_r2": _mean_at(nodes),
                   "mean_tau": mean_transmittance(fad), "xi": _xi_at(nodes, cfg.protocol)})
    if cfg.sweep.axis == "lb_km" and cfg.finite_size is not None:
        lbs = np.array(cfg.sweep.values(), dtype=float)
        params = replace(cfg.protocol, l_b_km=lbs)
        blocks.append({**common, "row_kind": "rate", "lb_km": lbs,
                       "rate_bits": _composable_at(nodes, params, cfg.finite_size)})
    return blocks
