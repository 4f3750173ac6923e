"""The four benchmark workloads: their inputs, derived from a seed, and their
output checks against reference values recorded from the seed commit.

Every workload is one closed-loop gkpmdi CLI call with ``--jobs 1``:

- ``la_frontier``: ``rate`` frontier along la_km on fiber_default.ini.
  About 403 frontier probes each re-run ``optimize_squeezing``, so ``gkp``
  does nearly all the work.  The seed jitters lb_km in LB_RANGE.
- ``lb_grid``: ``rate`` grid along lb_km, 0.5 to 40 km at a 0.5 m step
  (79,000 composable CSV rows).  One cached optimization, so ``gkp`` is
  bypassed; the rate layer and the CSV writer do the work.  The seed jitters
  la_km in LA_RANGE.
- ``fading_a010``: ``fading`` on the shipped free_space_a010.ini, unchanged.
  The 512-node residual table drives ``gkp`` over a wide sigma^2 range.  The
  seed is unused: the fitted config is the input.
- ``validate``: ``validate --samples 1000000 --seed SEED``; the Monte Carlo
  oracles do the work.

The jitter ranges are narrow enough to leave every work count unchanged, so
counters from different seeds must agree exactly.  The default seed runs
the unjittered inputs and is checked against the recorded reference values;
other seeds are checked against invariants (row structure, monotonicity and
brackets recorded at the ends of the jitter range).
"""
from __future__ import annotations

import configparser
import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

NAMES = ("la_frontier", "lb_grid", "fading_a010", "validate")
SIZES = ("full", "smoke")
DEFAULT_SEED = 0

LB_RANGE = (9.5, 10.5)    # la_frontier: lb_km jitter, km
LA_RANGE = (0.95, 1.05)   # lb_grid: la_km jitter, km
DEFAULT_LB = 10.0
DEFAULT_LA = 1.0

GRID = {"full": (0.5, 40.0, 0.0005), "smoke": (0.5, 0.6, 0.0005)}
VALIDATE_SAMPLES = {"full": 1_000_000, "smoke": 100_000}

FRONTIER_RESOLUTION_KM = 0.01
# Relative/absolute float tolerance: leaves room for exact closed forms that
# move results at ~1e-11 while catching any real change of a number.
REL_TOL = 1e-7
ABS_TOL = 1e-10

REFERENCE_PATH = Path(__file__).with_name("reference.json")
FIBER_CONFIG = Path("src/gkpmdi/configs/fiber_default.ini")
FADING_CONFIG = Path("src/gkpmdi/configs/free_space_a010.ini")


@dataclass(frozen=True)
class Prepared:
    name: str
    size: str
    params: dict
    argv: list[str]
    output: Path


def inputs(name: str, seed: int) -> dict:
    """The workload parameters a seed selects."""
    rng = random.Random(seed)
    if name == "la_frontier":
        lb = DEFAULT_LB if seed == DEFAULT_SEED else round(rng.uniform(*LB_RANGE), 6)
        return {"lb_km": lb}
    if name == "lb_grid":
        la = DEFAULT_LA if seed == DEFAULT_SEED else round(rng.uniform(*LA_RANGE), 6)
        return {"la_km": la}
    if name == "validate":
        return {"seed": seed}
    return {}  # fading_a010: the shipped fitted config, seed unused


def _write_config(root: Path, path: Path, overrides: dict) -> None:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read(root / FIBER_CONFIG)
    for (section, key), value in overrides.items():
        parser[section][key] = repr(value) if isinstance(value, float) else str(value)
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)


def prepare(name: str, params: dict, size: str, root: Path, work: Path) -> Prepared:
    """Write the workload's input files under ``work``; return its CLI argv."""
    output = work / f"{name}.out"
    common = ["--output", str(output), "--jobs", "1"]
    if name == "la_frontier":
        cfg = work / f"{name}.ini"
        overrides = {("protocol", "lb_km"): params["lb_km"],
                     ("sweep", "axis"): "la_km", ("sweep", "mode"): "frontier"}
        if size == "smoke":  # preamp: no code to optimize, same frontier search
            overrides[("protocol", "link_mode")] = "preamp"
        _write_config(root, cfg, overrides)
        argv = ["rate", "--config", str(cfg)] + common
    elif name == "lb_grid":
        cfg = work / f"{name}.ini"
        start, stop, step = GRID[size]
        _write_config(root, cfg, {("protocol", "la_km"): params["la_km"],
                                  ("sweep", "axis"): "lb_km", ("sweep", "mode"): "grid",
                                  ("sweep", "start"): start, ("sweep", "stop"): stop,
                                  ("sweep", "step"): step})
        argv = ["rate", "--config", str(cfg), "--format", "csv"] + common
    elif name == "fading_a010":
        # no smaller shipped input exists: smoke runs it at full size
        argv = ["fading", "--config", str(root / FADING_CONFIG)] + common
    elif name == "validate":
        argv = ["validate", "--samples", str(VALIDATE_SAMPLES[size]),
                "--seed", str(params["seed"])] + common
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Prepared(name=name, size=size, params=params, argv=argv, output=output)


# -- checks ------------------------------------------------------------------

def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= max(REL_TOL * abs(ref), ABS_TOL)


def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check(prep: Prepared, exit_code: int, reference: dict) -> list[str]:
    """Problems with one run's output; empty when it is correct."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if not prep.output.exists():
        return ["no output file"]
    try:
        return _CHECKS[prep.name](prep, reference.get(prep.name, {}))
    except (KeyError, ValueError, IndexError) as exc:
        return [f"malformed output: {exc!r}"]


def _check_la_frontier(prep: Prepared, ref: dict) -> list[str]:
    rows = _rows(prep.output)
    if len(rows) != 1:
        return [f"expected 1 frontier row, got {len(rows)}"]
    row = rows[0]
    errors = []
    lb = prep.params["lb_km"]
    if row["frontier_axis"] != "la_km" or float(row["lb_km"]) != lb:
        errors.append(f"row echoes axis {row['frontier_axis']} lb {row['lb_km']}, want la_km {lb}")
    value = float(row["max_secure_km"])
    if not math.isfinite(value) or not 0.05 <= value <= 30.0:
        return errors + [f"frontier {value} outside the scan window"]
    if prep.size != "full":
        return errors
    res = FRONTIER_RESOLUTION_KM
    if lb == DEFAULT_LB and abs(value - ref["max_secure_km"]) > res:
        errors.append(f"frontier {value} differs from reference {ref['max_secure_km']}")
    # the frontier shrinks as lb grows: bracket by the range ends
    lo, hi = ref["bracket"]["at_lb_hi"] - res, ref["bracket"]["at_lb_lo"] + res
    if not lo <= value <= hi:
        errors.append(f"frontier {value} outside the jitter bracket [{lo}, {hi}]")
    return errors


def _check_lb_grid(prep: Prepared, ref: dict) -> list[str]:
    rows = _rows(prep.output)
    start, stop, step = GRID[prep.size]
    if len(rows) != ref["rows"][prep.size]:
        return [f"expected {ref['rows'][prep.size]} rows, got {len(rows)}"]
    errors = []
    la = prep.params["la_km"]
    lbs = [float(r["lb_km"]) for r in rows]
    rates = [float(r["rate_bits"]) for r in rows]
    # The seed commit drops the stop point (its accumulated step drifts past
    # stop), so the last row may sit one step short of it.
    if abs(lbs[0] - start) > 1e-9 or not stop - step - 1e-9 <= lbs[-1] <= stop + 1e-9 \
            or any(abs(b - a - step) > 1e-9 for a, b in zip(lbs, lbs[1:])):
        errors.append("lb_km column is not the configured grid")
    if any(float(r["la_km"]) != la or r["rate_kind"] != "composable" for r in rows):
        errors.append(f"rows do not all echo la_km {la} and a composable rate")
    if len({r["sigma_r2"] for r in rows}) != 1:
        errors.append("sigma_r2 differs between rows of one A link")
    # the rate never grows with the B-link distance
    bad = [i for i in range(1, len(rates))
           if rates[i] > rates[i - 1] + max(REL_TOL * abs(rates[i - 1]), ABS_TOL)]
    if bad:
        errors.append(f"rate_bits increases with lb_km at {len(bad)} rows (first lb {lbs[bad[0]]})")
    if prep.size != "full":
        return errors
    sigma = float(rows[0]["sigma_r2"])
    sampled = {round(lb, 6): i for i, lb in enumerate(lbs)}
    if la == DEFAULT_LA:
        if not _close(sigma, ref["default"]["sigma_r2"]):
            errors.append(f"sigma_r2 {sigma} != reference {ref['default']['sigma_r2']}")
        for lb, want in ref["default"]["rate_bits"].items():
            got = rates[sampled[round(float(lb), 6)]]
            if not _close(got, want):
                errors.append(f"rate_bits at lb {lb}: {got} != reference {want}")
    # sigma_r2 grows and the rate falls with la: bracket by the range ends
    lo_ref, hi_ref = ref["at_la_lo"], ref["at_la_hi"]
    if not lo_ref["sigma_r2"] - ABS_TOL <= sigma <= hi_ref["sigma_r2"] + ABS_TOL:
        errors.append(f"sigma_r2 {sigma} outside the jitter bracket")
    for lb, upper in lo_ref["rate_bits"].items():
        lower = hi_ref["rate_bits"][lb]
        got = rates[sampled[round(float(lb), 6)]]
        if not lower - ABS_TOL <= got <= upper + ABS_TOL:
            errors.append(f"rate_bits at lb {lb}: {got} outside [{lower}, {upper}]")
    return errors


def _check_fading(prep: Prepared, ref: dict) -> list[str]:
    rows = _rows(prep.output)
    errors = []
    by_kind: dict[str, list[dict]] = {}
    for r in rows:
        by_kind.setdefault(r["row_kind"], []).append(r)
    pdf, summary, rate = (by_kind.get(k, []) for k in ("pdf", "summary", "rate"))
    if len(pdf) != ref["pdf_rows"] or len(summary) != 1 or len(rate) != len(ref["rate_bits"]):
        return [f"row counts pdf {len(pdf)} summary {len(summary)} rate {len(rate)}"]
    taus = [float(r["tau_a"]) for r in pdf]
    if any(b <= a for a, b in zip(taus, taus[1:])) \
            or any(float(r["pdf_density"]) < 0 or float(r["sigma_r2_of_tau"]) <= 0 for r in pdf):
        errors.append("pdf rows are not an increasing tau grid with a density and sigma_r2")
    for key in ("mean_sigma_r2", "mean_tau", "xi"):
        got = float(summary[0][key])
        if not _close(got, ref[key]):
            errors.append(f"{key} {got} != reference {ref[key]}")
    for r in rate:
        lb = str(float(r["lb_km"]))
        want = ref["rate_bits"].get(lb)
        if want is None or not _close(float(r["rate_bits"]), want):
            errors.append(f"rate_bits at lb {lb}: {r['rate_bits']} != reference {want}")
    return errors


def _check_validate(prep: Prepared, ref: dict) -> list[str]:
    lines = prep.output.read_text(encoding="utf-8").splitlines()
    names = [ln.split()[1] if len(ln.split()) > 1 else "" for ln in lines]
    errors = []
    if names != ref["checks"]:
        errors.append(f"checks {names} != reference {ref['checks']}")
    failed = [ln for ln in lines if not ln.startswith("PASS ")]
    if failed:
        errors.append(f"{len(failed)} checks did not pass: {failed}")
    return errors


_CHECKS = {"la_frontier": _check_la_frontier, "lb_grid": _check_lb_grid,
           "fading_a010": _check_fading, "validate": _check_validate}
