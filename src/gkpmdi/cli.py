"""Command-line front end: residual / rate / fading sweeps and oracle validation.

Exit codes: 0 success, 1 validation failure, 2 configuration error.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .channels import ProtocolParams, awgn_variance_preamp
from .config import ConfigError, RunConfig, load_config
from .finite_size import UnphysicalWorstCaseError
from .gkp import ELL, GkpAncilla, optimize_squeezing, residual_variance, syndrome_reduce
from .mc import RngStream, mc_pe_coverage, mc_protocol_mutual_info, mc_residual_variance
from .security import asymptotic_rate, conditioned_scalars
from .sweeps import SCHEMA_VERSION, fading_rows, rate_rows, residual_rows

RESIDUAL_COLUMNS = ["schema_version", "la_km", "layers", "sigma2", "sigma_r2",
                    "sigma_be2", "sigma_lb2", "r_opt", "gkp_squeezing_db",
                    "attenuation_db_per_km", "thermal_photon_mean"]
RATE_COLUMNS = ["schema_version", "link_mode", "rate_kind", "la_km", "lb_km",
                "total_pulse", "rate_bits", "mutual_info_bits", "holevo_bits",
                "v1", "v2", "v3", "sigma_r2", "modulation_variance_a",
                "modulation_variance_b", "reconciliation_efficiency",
                "attenuation_db_per_km", "thermal_photon_mean",
                "gkp_squeezing_db", "qt_squeezing_db", "layers", "pe_signals",
                "digitalization", "ec_success_probability", "eps_correctness",
                "eps_smoothing", "eps_hashing", "eps_pe"]
FRONTIER_COLUMNS = ["schema_version", "link_mode", "rate_kind", "frontier_axis",
                    "max_secure_km", "la_km", "lb_km", "gkp_squeezing_db", "layers"]
FADING_COLUMNS = ["schema_version", "row_kind", "tau_a", "pdf_density",
                  "sigma_r2_of_tau", "mean_sigma_r2", "mean_tau", "xi", "lb_km",
                  "rate_bits", "receiver_aperture_m", "tau0", "gamma0", "r0_m",
                  "sigma_bw2_m2", "gkp_squeezing_db"]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_rows(rows: list[dict], columns: list[str], path: str | None,
               fmt: str, command: str) -> None:
    if fmt == "csv":
        out = sys.stdout if path is None else open(path, "w", newline="", encoding="utf-8")
        try:
            writer = csv.writer(out)
            writer.writerow(columns)
            for row in rows:
                writer.writerow([_fmt(row.get(c, "")) for c in columns])
        finally:
            if path is not None:
                out.close()
        return
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "rows": [{c: (float(row[c]) if isinstance(row.get(c), (float, np.floating))
                      else row.get(c, "")) for c in columns} for row in rows],
    }
    text = json.dumps(doc, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _load(args) -> RunConfig:
    return load_config(args.config)


def _destination(args, cfg: RunConfig) -> tuple[str | None, str]:
    """Output path and format: CLI flags override the config's [output] section."""
    path = args.output if args.output is not None else cfg.output_path
    fmt = args.format if args.format is not None else cfg.output_format
    return path, fmt


def cmd_residual(args) -> int:
    cfg = _load(args)
    path, fmt = _destination(args, cfg)
    write_rows(residual_rows(cfg), RESIDUAL_COLUMNS, path, fmt, "residual")
    return 0


def cmd_rate(args) -> int:
    cfg = _load(args)
    rows = rate_rows(cfg)
    columns = FRONTIER_COLUMNS if cfg.sweep.mode == "frontier" else RATE_COLUMNS
    if cfg.sweep.mode == "frontier" and rows[0]["max_secure_km"] is None:
        print(f"note: no secure point found along {cfg.sweep.axis}; "
              "max_secure_km is left empty", file=sys.stderr)
    path, fmt = _destination(args, cfg)
    write_rows(rows, columns, path, fmt, "rate")
    return 0


def cmd_fading(args) -> int:
    cfg = _load(args)
    if cfg.fading is None:
        raise ConfigError("fading command requires a [fading] section")
    path, fmt = _destination(args, cfg)
    write_rows(fading_rows(cfg), FADING_COLUMNS, path, fmt, "fading")
    return 0


def _validate_checks(seed: int, samples: int) -> list[dict]:
    """Oracle suite: each check compares an analytic value against its
    Monte Carlo estimate with a three-sigma band (or an exact property)."""
    checks = []
    if samples <= 0:
        return checks

    def add(name, value, band, ok, detail=""):
        checks.append({"name": name, "value": value, "band": band,
                       "status": "PASS" if ok else "FAIL", "detail": detail})

    anc = GkpAncilla(20.0)
    for i, (r, s2, ancilla) in enumerate([(0.5, 0.129, anc), (0.8, 0.045, anc),
                                          (0.46, 0.129, GkpAncilla(None))]):
        est = mc_residual_variance(r, s2, ancilla, samples, RngStream(seed, 10 + i))
        ref = residual_variance(r, s2, ancilla)
        band = 3.0 * est.stderr
        add(f"residual_mc_r{r}_s{s2}_{'ideal' if ancilla.ideal else 'finite'}",
            est.variance - ref, band, abs(est.variance - ref) <= band,
            f"analytic={ref:.6g} mc={est.variance:.6g}")

    params = ProtocolParams(l_a_km=1.0, l_b_km=10.0)
    s2 = awgn_variance_preamp(params.tau_a)
    _, sr2 = optimize_squeezing(s2, anc)
    est = mc_protocol_mutual_info(params, sr2, max(samples, 160), RngStream(seed, 20))
    ref = asymptotic_rate(params, sr2, "gkp").mutual_info
    band = max(3.0 * est.stderr, 0.01 * ref)
    add("protocol_mi_mc", est.mutual_info - ref, band,
        abs(est.mutual_info - ref) <= band, f"analytic={ref:.6g} mc={est.mutual_info:.6g}")
    add("key_relay_decorrelated", est.corr_key_relay, 0.01,
        est.corr_key_relay <= 0.01, "optimal displacement leaves no relay correlation")

    cm = conditioned_scalars(params, sr2, "gkp").cm
    n_trials = max(200, min(samples // 10, 20000))
    frac = mc_pe_coverage(cm, 10000, 1e-2, n_trials, RngStream(seed, 30))
    bound = 1e-2 + 3.0 * np.sqrt(1e-2 * (1 - 1e-2) / n_trials)
    add("pe_coverage", frac, bound, frac <= bound, f"trials={n_trials}")

    gen = RngStream(seed, 40).generator()
    w = gen.normal(0.0, 2.0, min(samples, 100000))
    t = syndrome_reduce(w)
    ok = bool(np.all(np.abs(t) <= ELL / 2.0 + 0.0))
    add("syndrome_interval", float(np.max(np.abs(t))), ELL / 2.0, ok)

    a = mc_residual_variance(0.5, 0.1, anc, min(samples, 100000), RngStream(seed, 50))
    b = mc_residual_variance(0.5, 0.1, anc, min(samples, 100000), RngStream(seed, 50))
    add("determinism", 0.0 if a == b else 1.0, 0.0, a == b,
        "identical stream reproduces identical estimates")
    return checks


def cmd_validate(args) -> int:
    checks = _validate_checks(args.seed, args.samples)
    lines = [f"{c['status']} {c['name']} value={c['value']:.6g} band={c['band']:.6g}"
             + (f" ({c['detail']})" if c["detail"] else "") for c in checks]
    if args.format == "json":
        text = json.dumps({"schema_version": SCHEMA_VERSION, "command": "validate",
                           "seed": args.seed, "samples": args.samples,
                           "checks": checks}, indent=2) + "\n"
    else:
        text = "\n".join(lines) + ("\n" if lines else "")
    if args.output is None:
        sys.stdout.write(text)
    else:
        Path(args.output).write_text(text, encoding="utf-8")
    return 0 if all(c["status"] == "PASS" for c in checks) else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="gkpmdi",
                                description="Relay-based CV-QKD security pipeline "
                                            "with bosonic error correction")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", type=str, default=None, help="INI run configuration")
        sp.add_argument("--output", type=str, default=None,
                        help="output path (overrides [output]; default stdout)")
        sp.add_argument("--format", choices=("csv", "json"), default=None)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--samples", type=int, default=1_000_000)
        sp.add_argument("--jobs", type=int, default=1,
                        help="accepted for compatibility and ignored: runs are serial")

    for name, fn, doc in [("residual", cmd_residual, "residual-error sweeps"),
                          ("rate", cmd_rate, "key-rate sweeps and frontiers"),
                          ("fading", cmd_fading, "free-space fading analysis"),
                          ("validate", cmd_validate, "Monte Carlo oracle suite")]:
        sp = sub.add_parser(name, help=doc)
        common(sp)
        sp.set_defaults(fn=fn)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        return args.fn(args)
    except (ConfigError, UnphysicalWorstCaseError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
