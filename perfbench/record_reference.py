"""Record reference.json, the values the output checks compare against.

    python3 perfbench/record_reference.py

Runs every full-size workload through the CLI at its default inputs and, for
the jittered workloads, at both ends of the jitter range.  Re-record only
when a change is meant to alter the program's results, and say so.
"""
from __future__ import annotations

import csv
import json
import sys

import run
import workloads

LB_SAMPLES = (0.5, 1.0, 2.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 39.5)


def _output(name: str, params: dict, size: str = "full"):
    prep = workloads.prepare(name, params, size, run.ROOT, run.WORK)
    prep.output.unlink(missing_ok=True)
    result, _, stderr = run._spawn(prep.argv, False, "reference")
    if result is None or result["exit_code"] != 0:
        sys.exit(f"{name} {params} failed: {stderr}")
    return prep.output


def _rows(name: str, params: dict, size: str = "full") -> list[dict]:
    with open(_output(name, params, size), newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _grid(la: float) -> dict:
    rows = _rows("lb_grid", {"la_km": la})
    by_lb = {round(float(r["lb_km"]), 6): float(r["rate_bits"]) for r in rows}
    return {"sigma_r2": float(rows[0]["sigma_r2"]),
            "rate_bits": {str(lb): by_lb[lb] for lb in LB_SAMPLES}}


def main() -> None:
    run.WORK.mkdir(exist_ok=True)
    lo, hi = workloads.LB_RANGE
    frontier = {lb: float(_rows("la_frontier", {"lb_km": lb})[0]["max_secure_km"])
                for lb in (workloads.DEFAULT_LB, lo, hi)}
    lo_la, hi_la = workloads.LA_RANGE
    fading = _rows("fading_a010", {})
    summary = next(r for r in fading if r["row_kind"] == "summary")
    lines = _output("validate", {"seed": workloads.DEFAULT_SEED}).read_text().splitlines()
    reference = {
        "la_frontier": {"max_secure_km": frontier[workloads.DEFAULT_LB],
                        "bracket": {"lb_lo": lo, "at_lb_lo": frontier[lo],
                                    "lb_hi": hi, "at_lb_hi": frontier[hi]}},
        "lb_grid": {"rows": {size: len(_rows("lb_grid", {"la_km": workloads.DEFAULT_LA}, size))
                             for size in workloads.SIZES},
                    "default": _grid(workloads.DEFAULT_LA),
                    "la_lo": lo_la, "at_la_lo": _grid(lo_la),
                    "la_hi": hi_la, "at_la_hi": _grid(hi_la)},
        "fading_a010": {"pdf_rows": sum(r["row_kind"] == "pdf" for r in fading),
                        **{k: float(summary[k]) for k in ("mean_sigma_r2", "mean_tau", "xi")},
                        "rate_bits": {str(float(r["lb_km"])): float(r["rate_bits"])
                                      for r in fading if r["row_kind"] == "rate"}},
        "validate": {"checks": [ln.split()[1] for ln in lines],
                     "all_pass": all(ln.startswith("PASS ") for ln in lines)},
    }
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n",
                                        encoding="utf-8")


if __name__ == "__main__":
    main()
