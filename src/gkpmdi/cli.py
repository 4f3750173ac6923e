"""Command-line front end: residual / rate / fading sweeps and oracle validation.

Exit codes: 0 success, 1 validation failure, 2 configuration error, 141
(128 + SIGPIPE, as a shell reports it) when the reader closes the output early.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import io
import itertools
import json
import os
import shutil
import sys
import tempfile
from collections.abc import Iterable

import numpy as np

from . import __version__
from .channels import ProtocolParams, awgn_variance_preamp
from .config import ConfigError, load_config
from .finite_size import UnphysicalWorstCaseError
from .gkp import ELL, GkpAncilla, optimize_squeezing, residual_variance, syndrome_reduce
from .mc import RngStream, mc_pe_coverage, mc_protocol_mutual_info, mc_residual_variance
from .security import asymptotic_rate, conditioned_scalars
from .sweeps import (FADING_COLUMNS, FRONTIER_COLUMNS, RATE_COLUMNS, RESIDUAL_COLUMNS,
                     SCHEMA_VERSION, fading_rows, rate_rows, residual_rows)


def _columns(block: dict, columns: list[str]) -> list:
    """One cell per column: an array column's elements as a list, otherwise
    the echoed value (a numpy float as a float; a column the block lacks is
    blank)."""
    cells = []
    for c in columns:
        value = block.get(c, "")
        cells.append(value.tolist() if isinstance(value, np.ndarray)
                     else float(value) if isinstance(value, np.floating) else value)
    return cells


def _csv_lines(block: dict, columns: list[str]):
    """A block's CSV lines from one template: csv.writer writes the echoed
    cells once (``%`` escaped, None blank) and each array column is a ``%r``
    slot filled per row.  Array columns hold numbers or bools, whose ``repr``
    is their ``str`` and never needs quoting."""
    cells = _columns(block, columns)
    arrays = [c for c in cells if isinstance(c, list)]
    template = io.StringIO()
    csv.writer(template).writerow(["%r" if isinstance(c, list) else
                                   c.replace("%", "%%") if isinstance(c, str) else c
                                   for c in cells])
    line = template.getvalue()
    return map(line.__mod__, zip(*arrays)) if arrays else [line % ()]


def _json_rows(block: dict, columns: list[str]):
    """A block's rows as ``json.dumps(row, indent=2)`` writes them at their
    depth in the document, from one template as in ``_csv_lines``: the
    echoed items are encoded once and each array column is a ``%s`` slot
    for the JSON text of its elements, numbers or bools with no comma."""
    def text(value):  # JSON text, escaped for the template
        return json.dumps(value).replace("%", "%%")

    cells = _columns(block, columns)
    template = "{\n      " + ",\n      ".join(
        f"{text(c)}: {'%s' if isinstance(v, list) else text(v)}"
        for c, v in zip(columns, cells)) + "\n    }"
    arrays = [json.dumps(v, separators=(",", ":"))[1:-1].split(",") if v else []
              for v in cells if isinstance(v, list)]
    return map(template.__mod__, zip(*arrays)) if arrays else [template % ()]


@contextlib.contextmanager
def _output(path: str | None, newline: str | None = None):
    """The output stream, which reaches ``path`` only if the block exits
    without an exception.  A temporary file beside ``path`` (a symlink's
    target), with the mode ``open`` gives, replaces it on success and is
    removed otherwise; standard output (None), a device or a pipe gets a
    spool copied to it on success.  Failing to open is a ConfigError."""
    try:
        # standard output, a device or a pipe; a directory fails to open here
        if path is None or os.path.exists(path) and not os.path.isfile(path):
            dest = (contextlib.nullcontext(sys.stdout) if path is None
                    else open(path, "w", newline=newline, encoding="utf-8"))
        else:
            dest, target = None, os.path.realpath(path)
            fd, temp = tempfile.mkstemp(dir=os.path.dirname(target),
                                        prefix=f".{os.path.basename(target)}.", suffix=".tmp")
    except OSError as exc:
        raise ConfigError(f"cannot write --output {path}: {exc.strerror or exc}") from exc
    if dest is not None:
        with dest as stream, tempfile.TemporaryFile("w+", newline="", encoding="utf-8") as spool:
            yield spool
            spool.seek(0)
            shutil.copyfileobj(spool, stream)
        return
    try:
        with open(fd, "w", newline=newline, encoding="utf-8") as out:
            os.umask(umask := os.umask(0))  # the umask has no getter
            os.fchmod(fd, 0o666 & ~umask)
            yield out
        os.replace(temp, target)
    except BaseException:
        os.unlink(temp)
        raise


def write_rows(blocks: Iterable[dict], columns: list[str], path: str | None,
               fmt: str, command: str) -> None:
    """Write row blocks (see :mod:`gkpmdi.sweeps`) as CSV or JSON to ``path``
    (standard output for None); a column a block lacks is a blank cell.  Each
    block is drawn after the previous one is written, so either format holds
    one block at a time, and a run that fails leaves no file (``_output``)."""
    with _output(path, newline="" if fmt == "csv" else None) as out:
        if fmt == "csv":
            csv.writer(out).writerow(columns)
            for block in blocks:
                out.writelines(_csv_lines(block, columns))
            return
        # json.dumps(doc, indent=2), one row at a time
        rows = itertools.chain.from_iterable(_json_rows(block, columns) for block in blocks)
        out.write(f'{{\n  "schema_version": {json.dumps(SCHEMA_VERSION)},\n'
                  f'  "command": {json.dumps(command)},\n  "rows": [')
        first = next(rows, None)
        if first is None:
            out.write("]\n}\n")
            return
        out.write("\n    " + first)
        out.writelines(",\n    " + row for row in rows)
        out.write("\n  ]\n}\n")


def cmd_residual(args) -> int:
    write_rows(residual_rows(load_config(args.config)), RESIDUAL_COLUMNS, args.output,
               args.format, "residual")
    return 0


def _noted(block: dict) -> dict:  # a frontier block, noted as it passes to the writer
    if block["unphysical_points"]:
        print(f"note: the frontier scan met {block['unphysical_points']} points whose "
              "worst-case state is unphysical; they count as not secure", file=sys.stderr)
    if block["max_secure_km"] is None:
        print(f"note: no secure point found along {block['frontier_axis']}; "
              "max_secure_km is left empty", file=sys.stderr)
    return block


def cmd_rate(args) -> int:
    cfg = load_config(args.config)
    frontier = cfg.sweep.mode == "frontier"
    write_rows(map(_noted, rate_rows(cfg)) if frontier else rate_rows(cfg),
               FRONTIER_COLUMNS if frontier else RATE_COLUMNS, args.output, args.format, "rate")
    return 0


def cmd_fading(args) -> int:
    write_rows(fading_rows(load_config(args.config)), FADING_COLUMNS, args.output,
               args.format, "fading")
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
    sc = conditioned_scalars(params, sr2, "gkp")
    est = mc_protocol_mutual_info(params, sr2, max(samples, 160), RngStream(seed, 20))
    ref = asymptotic_rate(sc, params.beta0).mutual_info
    band = max(3.0 * est.stderr, 0.01 * ref)
    add("protocol_mi_mc", est.mutual_info - ref, band,
        abs(est.mutual_info - ref) <= band, f"analytic={ref:.6g} mc={est.mutual_info:.6g}")
    add("key_relay_decorrelated", est.corr_key_relay, 0.01,
        est.corr_key_relay <= 0.01, "optimal displacement leaves no relay correlation")

    n_trials = max(200, min(samples // 10, 20000))
    frac = mc_pe_coverage(sc.cm, 10000, 1e-2, n_trials, RngStream(seed, 30))
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
    for name in ("seed", "samples"):
        if getattr(args, name) < 0:
            raise ConfigError(f"{name} must be a nonnegative integer")
    with _output(args.output) as out:
        checks = _validate_checks(args.seed, args.samples)
        if args.format == "json":
            out.write(json.dumps({"schema_version": SCHEMA_VERSION, "command": "validate",
                                  "seed": args.seed, "samples": args.samples,
                                  "checks": checks}, indent=2) + "\n")
        else:
            out.writelines(f"{c['status']} {c['name']} value={c['value']:.6g} band={c['band']:.6g}"
                           + (f" ({c['detail']})" if c["detail"] else "") + "\n" for c in checks)
    return 0 if all(c["status"] == "PASS" for c in checks) else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="gkpmdi",
                                description="Relay-based CV-QKD security pipeline "
                                            "with bosonic error correction")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--output", type=str, default=None,
                        help="output path (default stdout)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--jobs", type=int, default=1,
                        help="accepted for compatibility and ignored: runs are serial")

    for name, fn, doc in [("residual", cmd_residual, "residual-error sweeps"),
                          ("rate", cmd_rate, "key-rate sweeps and frontiers"),
                          ("fading", cmd_fading, "free-space fading analysis"),
                          ("validate", cmd_validate, "Monte Carlo oracle suite")]:
        sp = sub.add_parser(name, help=doc)
        common(sp)
        if name == "validate":
            sp.add_argument("--seed", type=int, default=0)
            sp.add_argument("--samples", type=int, default=1_000_000)
        else:
            sp.add_argument("--config", type=str, default=None, help="INI run configuration")
        sp.set_defaults(fn=fn)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a reader gone away shows here, not at interpreter exit
        return code
    except (ConfigError, UnphysicalWorstCaseError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        if args.output is None:  # interpreter exit flushes stdout: send that to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
