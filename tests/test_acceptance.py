"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see every line.
"""
import time
from dataclasses import replace

import numpy as np
import pytest

from gkpmdi.channels import ProtocolParams, awgn_variance_preamp, awgn_variance_qt, \
    fiber_transmittance
from gkpmdi.config import RunConfig, SweepSpec
from gkpmdi.fading import fading_pdf, fading_scalars, residual_nodes
from gkpmdi.finite_size import FiniteSizeParams, composable_rate
from gkpmdi.gkp import ELL, GkpAncilla, IDEAL, lower_bound_variance, optimize_squeezing, \
    residual_variance
from gkpmdi.mc import RngStream, mc_pe_coverage, mc_protocol_mutual_info, \
    mc_residual_variance
from gkpmdi.security import conditioned_scalars, h_function
from gkpmdi.sweeps import frontier, residual_rows
from gkpmdi.config import load_config
from matrix_oracle import conditioned_state, mutual_information, symplectic_eigenvalues, \
    symplectic_form, tms_symplectic
from shipped import reference_fading_config

DB20 = GkpAncilla(20.0)
DB25 = GkpAncilla(25.0)


def _cfg(link_mode, ancilla=DB20, layers=1, finite=True, la=1.0, lb=10.0, qt_db=20.0):
    return RunConfig(protocol=ProtocolParams(l_a_km=la, l_b_km=lb),
                     link_mode=link_mode, ancilla=ancilla, layers=layers,
                     qt_squeezing_db=qt_db,
                     finite_size=FiniteSizeParams() if finite else None,
                     fading=None, sweep=SweepSpec())


def _concat_totals(ancilla):
    """Total residuals of a 3 km link split into 1..8 corrected segments."""
    cfg = replace(_cfg("gkp", ancilla, la=3.0), sweep=SweepSpec(axis="layers", start=1, stop=8))
    return next(residual_rows(cfg))["sigma_r2"].tolist()


def _sigma2(l_a):
    return awgn_variance_preamp(fiber_transmittance(l_a))


def _report(criterion, ok, detail, t0):
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} ({time.time() - t0:.1f}s): {detail}"
    print(line)
    return line


def test_criterion_01_break_even_crossing():
    t0 = time.time()
    below = []
    for l_a in np.arange(0.5, 4.51, 0.25):
        s2 = _sigma2(l_a)
        _, v = optimize_squeezing(s2, DB20)
        below.append(v < s2)
    crossing = None
    for l_a in np.arange(4.5, 6.01, 0.1):
        s2 = _sigma2(l_a)
        _, v = optimize_squeezing(s2, DB20)
        if v >= s2 - 1e-12:
            crossing = l_a
            break
    ok = all(below) and crossing is not None
    line = _report(1, ok, f"below break-even on [0.5, 4.5]: {all(below)}; "
                          f"crossing in [4.5, 6.0]: {crossing}", t0)
    assert ok, line


def test_criterion_02_lower_bound_gap():
    t0 = time.time()
    s2 = _sigma2(3.0)
    _, v = optimize_squeezing(s2, IDEAL)
    lb = lower_bound_variance(s2)
    ratio = v / lb
    ok = 3.0 <= ratio <= 30.0
    line = _report(2, ok, f"ideal sigma_r2={v:.6f} LB={lb:.6f} ratio={ratio:.2f}", t0)
    assert ok, line


def test_criterion_03a_concat_optimum_20db():
    t0 = time.time()
    vals = _concat_totals(DB20)
    best = int(np.argmin(vals)) + 1
    ok = best == 4
    line = _report("3a", ok, f"argmin C = {best}; totals = "
                             + " ".join(f"{v:.5f}" for v in vals), t0)
    assert ok, line


def test_criterion_03b_concat_monotone_25db():
    t0 = time.time()
    vals = _concat_totals(DB25)
    diffs = np.diff(vals)
    ok = bool(np.all(diffs <= 0.0))
    line = _report("3b", ok, "totals = " + " ".join(f"{v:.5f}" for v in vals), t0)
    assert ok, line


def test_criterion_04_asymptotic_baseline():
    t0 = time.time()
    base = frontier(_cfg("direct", finite=False, la=0.0), "lb_km")[0]
    ok = abs(base - 852.0) <= 5.0
    details = [f"L_A=0 direct max L_B = {base:.2f} km"]
    for l_a in (1.0, 2.0):
        d = frontier(_cfg("direct", finite=False, la=l_a), "lb_km")[0]
        p = frontier(_cfg("preamp", finite=False, la=l_a), "lb_km")[0]
        details.append(f"L_A={l_a}: direct={d:.2f} preamp={p:.2f}")
        ok = ok and (p < d)
    line = _report(4, ok, "; ".join(details), t0)
    assert ok, line


def test_criterion_05a_frontier_no_gkp():
    t0 = time.time()
    val = frontier(_cfg("direct"), "lb_km")[0]
    ok = abs(val - 12.7) <= 0.5
    line = _report("5a", ok, f"no-GKP max L_B = {val:.2f} km (target 12.7 +- 0.5)", t0)
    assert ok, line


def test_criterion_05b_frontier_20db():
    t0 = time.time()
    val = frontier(_cfg("gkp", DB20), "lb_km")[0]
    ok = abs(val - 17.5) <= 0.5
    line = _report("5b", ok, f"20 dB max L_B = {val:.2f} km (target 17.5 +- 0.5)", t0)
    assert ok, line


def test_criterion_05c_frontier_ideal():
    t0 = time.time()
    val = frontier(_cfg("gkp", GkpAncilla(None)), "lb_km")[0]
    ok = abs(val - 22.5) <= 0.5
    line = _report("5c", ok, f"ideal max L_B = {val:.2f} km (target 22.5 +- 0.5)", t0)
    assert ok, line


def test_criterion_05d_ideal_max_la():
    t0 = time.time()
    val = frontier(_cfg("gkp", GkpAncilla(None), lb=5.0), "la_km")[0]
    ok = abs(val - 2.68) <= 0.1
    line = _report("5d", ok, f"ideal max L_A = {val:.3f} km (target 2.68 +- 0.1)", t0)
    assert ok, line


def test_criterion_05e_qt_max_la():
    t0 = time.time()
    val = frontier(_cfg("qt", DB20, lb=5.0, qt_db=20.0), "la_km")[0]
    ok = abs(val - 4.6) <= 0.2
    line = _report("5e", ok, f"QT max L_A = {val:.3f} km (target 4.6 +- 0.2)", t0)
    assert ok, line


def test_criterion_06_block_size_threshold():
    t0 = time.time()
    p = ProtocolParams(l_a_km=3.0, l_b_km=5.0)
    _, sr2 = optimize_squeezing(_sigma2(3.0), DB20)
    sc = conditioned_scalars(p, sr2, "gkp")
    r_small = composable_rate(sc, p.beta0, FiniteSizeParams(n_total=1e8))
    r_large = composable_rate(sc, p.beta0, FiniteSizeParams(n_total=2e9))
    ok = (r_small <= 0.0) and (r_large > 0.0)
    line = _report(6, ok, f"R(1e8)={r_small:.4e} R(2e9)={r_large:.4e}", t0)
    assert ok, line


def test_criterion_07_concatenated_frontier():
    t0 = time.time()
    targets = [(DB20, 4, 5.87), (DB25, 2, 6.38), (DB25, 3, 8.43)]
    details = []
    ok = True
    for ancilla, layers, target in targets:
        val = frontier(_cfg("gkp", ancilla, layers=layers, la=3.0), "lb_km")[0]
        details.append(f"{ancilla.squeezing_db:.0f}dB C={layers}: {val:.2f} km "
                       f"(target {target} +- 0.3)")
        ok = ok and abs(val - target) <= 0.3
    line = _report(7, ok, "; ".join(details), t0)
    assert ok, line


def test_criterion_08_oracle_equivalence():
    t0 = time.time()
    n = 10_000_000
    ok = True
    details = []
    stream = 100
    for s2 in (0.05, 0.13, 0.25):
        for ancilla in (IDEAL, DB20):
            r_opt, _ = optimize_squeezing(s2, ancilla)
            for r in (0.3, r_opt, 1.2):
                analytic = residual_variance(r, s2, ancilla)
                est = mc_residual_variance(r, s2, ancilla, n, RngStream(2024, stream))
                stream += 1
                dev = abs(est.variance - analytic) / est.stderr
                ok = ok and dev <= 3.0
                if dev > 3.0:
                    details.append(f"residual s2={s2} r={r:.3f} dev={dev:.1f}sigma")
    for (l_a, l_b) in ((1.0, 10.0), (2.0, 6.0)):
        p = ProtocolParams(l_a_km=l_a, l_b_km=l_b)
        _, sr2 = optimize_squeezing(_sigma2(l_a), DB20)
        analytic = mutual_information(conditioned_state(p, sr2, "gkp"))
        est = mc_protocol_mutual_info(p, sr2, n, RngStream(2024, stream))
        stream += 1
        rel = abs(est.mutual_info - analytic) / analytic
        ok = ok and rel <= 0.01
        details.append(f"MI({l_a},{l_b}): rel dev {rel:.2e}")
    line = _report(8, ok, "18-point residual grid within 3 sigma; "
                   + "; ".join(details), t0)
    assert ok, line


def test_criterion_09_pe_coverage():
    t0 = time.time()
    state = conditioned_state(ProtocolParams(l_a_km=1.0, l_b_km=10.0), 0.02, "gkp")
    eps, trials = 1e-2, 10_000
    frac = mc_pe_coverage(state.cm, m_pe=100_000, eps_pe=eps, n_trials=trials,
                          rng=RngStream(77))
    bound = eps + 3.0 * np.sqrt(eps * (1 - eps) / trials)
    ok = frac <= bound
    line = _report(9, ok, f"failure fraction {frac:.4f} <= {bound:.4f}", t0)
    assert ok, line


def test_criterion_10_invariant_suite():
    t0 = time.time()
    checks = {}
    rng = np.random.default_rng(31)
    omega = symplectic_form(2)
    worst = 0.0
    for _ in range(25):
        s = tms_symplectic(rng.uniform(-1.5, 1.5))
        worst = max(worst, float(np.max(np.abs(s @ omega @ s.T - omega))))
    checks["symplectic identity"] = worst < 1e-12
    checks["h(1) = 0"] = h_function(1.0) == 0.0
    dev = 0.0
    for _ in range(10):
        v = np.eye(4) * rng.uniform(1.5, 5.0)
        s = tms_symplectic(rng.uniform(-0.8, 0.8))
        dev = max(dev, float(np.max(np.abs(
            np.subtract(symplectic_eigenvalues(s.T @ v @ s), symplectic_eigenvalues(v))))))
    checks["congruence invariance"] = dev < 1e-9

    from gkpmdi.fading import FadingConfig
    from scipy.integrate import quad

    cfg = FadingConfig(tau0=0.95, gamma0=1.5, r0_m=0.02, sigma_bw2_m2=1e-6)
    total, _ = quad(lambda t: fading_pdf(t, cfg), 0.0, cfg.tau0, limit=200)
    checks["fading pdf normalization"] = abs(total - 1.0) < 1e-6

    point = FadingConfig(tau0=0.92, gamma0=2.0, r0_m=0.02, sigma_bw2_m2=1e-30)
    params = ProtocolParams(l_a_km=1.0, l_b_km=8.0)
    _, sr2 = optimize_squeezing(1.0 - point.tau0, DB20)
    l_a_eq = -10.0 * np.log10(point.tau0) / 0.2
    fib = conditioned_state(ProtocolParams(l_a_km=l_a_eq, l_b_km=8.0), sr2, "gkp")
    fad = fading_scalars(residual_nodes(point, DB20), params)
    checks["point-mass fading == fiber"] = float(np.max(np.abs(fad.cm - fib.cm))) < 1e-9

    checks["r=0 recovery"] = abs(residual_variance(0.0, 0.129, DB20) - 0.129) / 0.129 < 1e-9
    # the kernel's three lattice cells against six, summed with scipy's ndtr
    from scipy.special import ndtr
    r, s2 = 0.46, 0.129
    var_w = s2 * np.cosh(2.0 * r) + DB20.syndrome_noise_variance
    phi = s2 * np.sinh(2.0 * r) / var_w
    n = np.arange(1, 7)
    six_cells = 2.0 * ELL**2 * np.sum((2 * n - 1) * ndtr(-(n - 0.5) * ELL / np.sqrt(var_w)))
    six = s2 * np.cosh(2.0 * r) - phi * phi * (var_w - six_cells)
    base = residual_variance(r, s2, DB20)
    checks["truncation doubling"] = abs(base - six) / base < 1e-9

    ok = all(checks.values())
    line = _report(10, ok, "; ".join(f"{k}: {'ok' if v else 'BAD'}"
                                     for k, v in checks.items()), t0)
    assert ok, line


def test_criterion_11_fading_means():
    t0 = time.time()
    details = []
    ok = True
    for aperture, target in ((0.1, 0.0182), (0.05, 0.1726)):
        cfg = load_config(reference_fading_config(aperture))
        w, _, sigma_r2 = residual_nodes(cfg.fading, cfg.ancilla)
        mean = float(np.sum(w * sigma_r2))
        rel = abs(mean - target) / target
        details.append(f"a_R={aperture}: mean={mean:.5f} target={target} rel={rel:.3%}")
        ok = ok and rel < 0.05
    line = _report(11, ok, "fitted reference configs; " + "; ".join(details), t0)
    assert ok, line
