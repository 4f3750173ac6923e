"""Sweep execution and secure-distance frontiers shared by the CLI and tests.

Row builders yield blocks: dicts mapping each output column to one echoed
value or to a 1-D array with one element per row.  A sweep grid comes in
consecutive blocks of at most ``_GRID_BLOCK`` rows, each computed (and
checked) only when it is drawn; every operation on a row is elementwise, so
the rows do not depend on where the blocks split.  A frontier block also
carries ``unphysical_points`` and ``secure_past_scan``, diagnostics that no
output column holds.  Each builder checks its sweep against ``config.SWEEPS``.
"""
from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator
from dataclasses import replace
from functools import lru_cache

import numpy as np

from .channels import _as_output, awgn_variance_preamp, awgn_variance_qt, fiber_transmittance
from .config import SWEEPS, ConfigError, RunConfig, SweepSpec
from .fading import (_node_rule, fading_pdf, fading_quantile, residual_nodes, sigma_r2_of_tau,
                     xi_integral)
from .finite_size import composable_rate
from .gkp import concat_variance, lower_bound_variance, optimize_squeezing
from .security import asymptotic_rate, fiber_link, link_scalars

SCHEMA_VERSION = "2"
_FRONTIER_POINTS = 400
_FRONTIER_RESOLUTION_KM = 0.01
_PDF_ROWS = 1000
_GRID_BLOCK = 1 << 12  # rows per block of a sweep grid


def _row_blocks(values: Iterable[float]) -> Iterator[np.ndarray]:
    """``values`` drawn in consecutive arrays of at most ``_GRID_BLOCK`` elements."""
    values = iter(values)
    while len(block := np.fromiter(itertools.islice(values, _GRID_BLOCK), dtype=float)):
        yield block


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


def _echo(cfg: RunConfig) -> dict:
    """Every configuration cell a row may echo, the same keys for every config.
    ``gkp_squeezing_db`` is blank for an ideal ancilla and on ``direct``/``preamp``
    links, where no code acts on it, and ``qt_squeezing_db`` off ``qt`` links;
    the fading law and the finite-size constants without their section."""
    p, fad, fs = cfg.protocol, cfg.fading, cfg.finite_size
    code = not cfg.ancilla.ideal and cfg.link_mode in ("gkp", "qt")
    echo = {
        "schema_version": SCHEMA_VERSION,
        "link_mode": cfg.link_mode,
        "modulation_variance_a": p.sigma2_a,
        "modulation_variance_b": p.sigma2_b,
        "reconciliation_efficiency": p.beta0,
        "attenuation_db_per_km": p.alpha0_db_per_km,
        "thermal_photon_mean": p.n_bar,
        "gkp_squeezing_db": cfg.ancilla.squeezing_db if code else "",
        "qt_squeezing_db": cfg.qt_squeezing_db if cfg.link_mode == "qt" else "",
        "layers": cfg.layers,
    }
    echo.update({c: "" if fad is None else getattr(fad, c)
                 for c in ("tau0", "gamma0", "r0_m", "sigma_bw2_m2")})
    echo.update({c: "" if fs is None else getattr(fs, f) for c, f in (  # column, field
        ("total_pulse", "n_total"), ("pe_signals", "pe_signals"), ("digitalization", "d"),
        ("ec_success_probability", "p_ec"), ("eps_correctness", "eps_cor"),
        ("eps_smoothing", "eps_s"), ("eps_hashing", "eps_h"), ("eps_pe", "eps_pe"))})
    return echo


def _layout(*head: str) -> list[str]:
    """The columns of a ``rate`` grid or frontier or of ``fading``: ``schema_version``,
    the command's per-row ``head``, then the other keys of ``_echo`` in its order."""
    return ["schema_version", *head, *(c for c in _echo(RunConfig()) if c != "schema_version")]


@lru_cache(maxsize=4096)
def link_sigma_r2(cfg: RunConfig, l_a_km: float) -> tuple[float, float, float]:
    """The A link at one length: the memoized scalar case of ``_link``.

    A frontier along lb_km evaluates the same (config, distance) pair at
    every probe.
    """
    return _link(cfg, l_a_km)


RATE_COLUMNS = _layout("rate_kind", "la_km", "lb_km", "rate_bits", "mutual_info_bits",
                       "holevo_bits", "v1", "v2", "v3", "sigma_r2")  # of rate_point


def rate_point(cfg: RunConfig, l_a_km, l_b_km, n_total=None, strict: bool = True,
               nodes=None) -> dict:
    """Secret-key rates of a fiber or ``[fading]`` A link as one block of
    output columns.

    ``l_a_km``, ``l_b_km`` and ``n_total`` (None keeps the configured block
    size) are scalars or equal-length 1-D arrays.  The A link is one node
    set: a fiber link's ``fiber_link``, or a ``[fading]`` link's ``nodes``
    (its ``residual_nodes``, built here when None) with unit gain, whose
    ``la_km`` is blank and ``sigma_r2`` the mean.  Its conditioned scalars
    feed both the asymptotic and the composable columns.  ``strict`` is
    passed to :func:`composable_rate`: when False, an unphysical worst-case
    state gives a NaN composable rate, not an error.
    """
    if cfg.fading is None:
        sigma_r2 = (link_sigma_r2 if np.ndim(l_a_km) == 0 else _link)(cfg, l_a_km)[0]
        params = replace(cfg.protocol, l_a_km=l_a_km, l_b_km=l_b_km)
        link = fiber_link(params, sigma_r2, cfg.link_mode)
    else:  # the fading law, not l_a_km, sets the link
        w, _, node_sigma_r2 = residual_nodes(cfg.fading, cfg.ancilla) if nodes is None else nodes
        sigma_r2, l_a_km = float(np.sum(w * node_sigma_r2)), ""
        params = replace(cfg.protocol, l_b_km=l_b_km)
        link = (w, 1.0, node_sigma_r2)
    sc = link_scalars(link, params)
    report = asymptotic_rate(sc, params.beta0)
    block = {**_echo(cfg), "la_km": l_a_km, "lb_km": l_b_km, "sigma_r2": sigma_r2,
             "mutual_info_bits": report.mutual_info, "holevo_bits": report.holevo,
             "v1": report.spectrum[0], "v2": report.spectrum[1], "v3": report.spectrum[2]}
    fs = cfg.finite_size
    if fs is None:  # finite-size columns stay blank
        return {**block, "rate_kind": "asymptotic", "rate_bits": report.rate}
    if n_total is not None:  # block-size sweeps keep the configured PE fraction
        fs = replace(fs, n_total=n_total, m_pe=fs.pe_signals / fs.n_total * n_total)
        block.update(total_pulse=fs.n_total, pe_signals=fs.pe_signals)
    return {**block, "rate_kind": "composable",
            "rate_bits": composable_rate(sc, params.beta0, fs, strict=strict)}


def max_secure_distance(rate_fn, lo: float, hi: float) -> float:
    """Largest distance with positive rate, to 0.01 km.

    ``rate_fn`` maps a 1-D array of distances to their rates.  The secure
    region can be bounded by a numerically noisy edge, so the frontier is
    located as the supremum: a coarse 400-point scan, one ``rate_fn`` call,
    finds the last positive point, and a guard extends the scan if the edge
    touches the last cell.  One more call refines the bracketing cell: it
    evaluates the 2^n - 1 points that split the cell into sub-cells no wider
    than 0.01 km (every point bisection could probe), and the result is the
    midpoint of the last sub-cell that starts at a positive rate.  It is NaN
    if no scanned point is secure and inf if the guard's last window ends secure.
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
    return float("inf")


def _rate_along(cfg: RunConfig, axis: str, strict: bool = True):
    """:func:`rate_point` over an array of ``axis`` values, the rest as
    configured: the one axis dispatch of rate grids and frontiers.  A
    ``[fading]`` link's nodes are built here, once for every call."""
    if cfg.fading is not None and axis == "la_km":
        raise ConfigError("axis = la_km does not act on a [fading] link: "
                          "the fading law, not a fiber length, sets its A link")
    nodes = None if cfg.fading is None else residual_nodes(cfg.fading, cfg.ancilla)
    p = cfg.protocol
    return lambda x: rate_point(cfg, x if axis == "la_km" else p.l_a_km,
                                x if axis == "lb_km" else p.l_b_km,
                                x if axis == "total_pulse" else None, strict=strict, nodes=nodes)


def frontier(cfg: RunConfig, axis: str) -> tuple[float, int]:
    """Largest secure distance along ``axis``, scanned from its window in
    ``SWEEPS`` (NaN or inf as :func:`max_secure_distance` returns them), the
    other link at its configured length, and the number of scanned points
    whose worst-case state was unphysical: their NaN rate counts as not secure."""
    SweepSpec(axis, mode="frontier").require("rate")
    rate_at, unphysical = _rate_along(cfg, axis, strict=False), []

    def rate_fn(x):
        rate = rate_at(x)["rate_bits"]
        unphysical.append(int(np.count_nonzero(np.isnan(rate))))
        return rate

    return max_secure_distance(rate_fn, *SWEEPS["rate"]["frontier"][axis]), sum(unphysical)


RESIDUAL_COLUMNS = ["schema_version", "la_km", "layers", "sigma2", "sigma_r2", "sigma_lb2",
                    "r_opt", "gkp_squeezing_db", "attenuation_db_per_km",
                    "thermal_photon_mean"]  # only the settings that act on a residual


def residual_rows(cfg: RunConfig) -> Iterator[dict]:
    """Residual-error sweep: distance axis or concatenation-layer axis.  The
    capacity floor ``sigma_lb2`` is capped at the uncorrected noise ``sigma2``."""
    sweep = cfg.sweep
    if cfg.link_mode != "gkp" or cfg.fading is not None:
        raise ConfigError("residual sweeps model the gkp link over fiber "
                          "(gkpmdi fading gives a [fading] link's residuals)")
    sweep.require("residual")
    if sweep.axis == "la_km" and cfg.layers != 1:
        raise ConfigError("use axis = layers for concatenation")
    alpha0 = cfg.protocol.alpha0_db_per_km
    for x in _row_blocks(sweep.values()):
        if sweep.axis == "layers" and np.any((x < 1) | (x != np.floor(x))):
            raise ConfigError("a layers sweep takes integer values >= 1")
        l_a, layers = (x, 1) if sweep.axis == "la_km" else (cfg.protocol.l_a_km, x.astype(int))
        s2 = awgn_variance_preamp(fiber_transmittance(l_a, alpha0), cfg.protocol.n_bar)
        if np.any(s2 >= 1.0):  # lower_bound_variance needs sigma2 < 1
            raise ConfigError(f"the A-link noise sigma2 reaches {np.max(s2):.6g} at la_km = "
                              f"{float(np.max(l_a))!r}: sigma_lb2 is defined for sigma2 < 1 only "
                              "(shorten la_km or lower thermal_photon_mean)")
        sigma_r2, _, r_opt = _link(cfg, l_a, layers)
        yield {**_echo(cfg), "la_km": l_a, "layers": layers, "sigma2": s2, "sigma_r2": sigma_r2,
               "sigma_lb2": np.minimum(s2, lower_bound_variance(s2)), "r_opt": r_opt}


FRONTIER_COLUMNS = _layout("rate_kind", "frontier_axis", "max_secure_km", "la_km", "lb_km")


def rate_rows(cfg: RunConfig) -> Iterator[dict]:
    """Key-rate sweep (grid mode) or secure-distance frontier (frontier mode)
    of a fiber or ``[fading]`` A link."""
    sweep = cfg.sweep
    sweep.require("rate")
    if sweep.mode == "frontier":
        value, unphysical = frontier(cfg, sweep.axis)
        fixed = ({"la_km": cfg.protocol.l_a_km if cfg.fading is None else ""}
                 if sweep.axis == "lb_km" else {"lb_km": cfg.protocol.l_b_km})
        yield {**_echo(cfg), **fixed, "unphysical_points": unphysical,
               "secure_past_scan": value == np.inf, "frontier_axis": sweep.axis,
               "max_secure_km": value if np.isfinite(value) else None,
               "rate_kind": "composable" if cfg.finite_size is not None else "asymptotic"}
        return
    yield from map(_rate_along(cfg, sweep.axis), _row_blocks(sweep.values()))


FADING_COLUMNS = _layout("row_kind", "tau_a", "pdf_density", "sigma_r2_of_tau", "mean_sigma_r2",
                         "mean_tau", "xi", "rate_kind", "lb_km", "rate_bits")


def fading_rows(cfg: RunConfig) -> Iterator[dict]:
    """Transmittance-density samples, summary means, and the averaged rates
    of :func:`rate_point` on an ``lb_km`` grid (composable with a
    ``[finite_size]`` section, asymptotic without).

    Columns a row kind does not use are absent and written as blank cells.
    The fading link is modelled as one gkp-corrected segment.
    """
    if cfg.fading is None:
        raise ConfigError("fading command requires a [fading] section")
    cfg.sweep.require("fading")
    fad, echo = cfg.fading, _echo(cfg)
    lo = fading_quantile(1e-7, fad)
    # for gamma0 > 2 the density diverges (integrably) at tau0: stop one step short
    hi = fad.tau0 - (fad.tau0 - lo) / (_PDF_ROWS - 1) if fad.gamma0 > 2.0 else fad.tau0
    taus = np.linspace(lo, hi, _PDF_ROWS)
    # the residual_nodes, shared by the summary and every rate row, optimized
    # together with the density rows: one optimization per run
    w, tau = _node_rule(fad)
    sigma_r2 = sigma_r2_of_tau(cfg.ancilla, np.concatenate([taus, tau]))
    node_sigma_r2 = sigma_r2[_PDF_ROWS:]
    nodes = (w, tau, node_sigma_r2)
    yield {**echo, "row_kind": "pdf", "tau_a": taus, "pdf_density": fading_pdf(taus, fad),
           "sigma_r2_of_tau": sigma_r2[:_PDF_ROWS]}
    # the nodes' mean residual, as rate_point writes it in every rate block
    yield {**echo, "row_kind": "summary", "mean_sigma_r2": float(np.sum(w * node_sigma_r2)),
           "mean_tau": float(np.sum(w * tau)), "xi": xi_integral(nodes, cfg.protocol)}
    for lbs in _row_blocks(cfg.sweep.values()):
        yield {**rate_point(cfg, cfg.protocol.l_a_km, lbs, nodes=nodes), "row_kind": "rate"}
