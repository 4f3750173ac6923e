"""Self-tests of the benchmark, on its smoke-size inputs.

    python3 -m pytest perfbench -q
"""
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run
import workloads


def _bench(capsys, *args) -> dict:
    code = run.main(list(args) + ["--smoke"])
    out = capsys.readouterr().out.strip().splitlines()[-1]
    assert code == 0
    return json.loads(out)


def _metric(result, name):
    return result["metrics"][name]["value"]


def test_trace_reaches_aliases_and_counts(capsys):
    res = _bench(capsys, "--workload", "lb_grid", "--seed", "0", "--seconds", "1", "--trace", "1")
    assert res["correct"] and res["failed"] == 0 and res["attempted"] == 2
    # sweeps calls optimize_squeezing and rate functions through names it
    # imported with ``from .gkp import ...``: counts prove the aliases were rebound
    assert _metric(res, "gkp.optimize_squeezing.calls") == 1
    assert _metric(res, "gkp.evals_per_optimize") > 0
    assert _metric(res, "sweeps.rate_point.calls") == 201
    assert _metric(res, "security.conditioned_scalars.calls") > 0
    assert _metric(res, "sweeps.link_sigma_r2.hits") == 200
    assert _metric(res, "sweeps.link_sigma_r2.misses") == 1
    assert _metric(res, "cli.write_rows.bytes") > 0
    assert _metric(res, "trace.spans") > 0


def test_frontier_probe_counts(capsys):
    res = _bench(capsys, "--workload", "la_frontier", "--seed", "4", "--seconds", "1",
                 "--trace", "1")
    assert res["correct"]
    assert _metric(res, "sweeps.max_secure_distance.calls") == 1
    assert _metric(res, "sweeps.probes_per_frontier") > 0


def test_validate_sample_counts(capsys):
    res = _bench(capsys, "--workload", "validate", "--seed", "0", "--seconds", "1",
                 "--trace", "1")
    assert res["correct"]
    assert _metric(res, "mc.mc_residual_variance.samples") > 0
    assert _metric(res, "mc.mc_pe_coverage.pairs_per_s") > 0
    assert _metric(res, "layer.mc.self_s") > _metric(res, "layer.gkp.self_s")


def test_untraced_run_reports_end_to_end_metrics(capsys):
    res = _bench(capsys, "--workload", "lb_grid", "--seed", "7", "--seconds", "1", "--trace", "0")
    assert res["correct"] and res["attempted"] >= 1
    assert set(res["metrics"]) == {"wall_s", "cpu_s", "setup_s", "peak_rss_mb"}
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_corrupted_grid_output_is_caught(capsys, tmp_path):
    _bench(capsys, "--workload", "lb_grid", "--seed", "0", "--seconds", "1", "--trace", "0")
    prep = workloads.prepare("lb_grid", workloads.inputs("lb_grid", 0), "smoke",
                             run.ROOT, run.WORK)
    reference = workloads.load_reference()
    assert workloads.check(prep, 0, reference) == []
    lines = prep.output.read_text().splitlines()
    header = lines[0].split(",")
    col = header.index("rate_bits")
    cells = lines[100].split(",")
    cells[col] = repr(float(cells[col]) + 0.5)  # a rate that grows with lb_km
    corrupt = tmp_path / "corrupt.csv"
    corrupt.write_text("\n".join(lines[:100] + [",".join(cells)] + lines[101:]) + "\n")
    assert workloads.check(replace(prep, output=corrupt), 0, reference)
    corrupt.write_text("\n".join(lines[:-1]) + "\n")  # a row short
    assert workloads.check(replace(prep, output=corrupt), 0, reference)
    assert workloads.check(prep, 1, reference)  # nonzero exit


@pytest.mark.parametrize("frontier, ok", [(1.7905153508771932, True), (1.812, False),
                                          (float("nan"), False)])
def test_frontier_reference_check(tmp_path, frontier, ok):
    out = tmp_path / "frontier.csv"
    out.write_text("schema_version,link_mode,rate_kind,frontier_axis,max_secure_km,la_km,"
                   "lb_km,gkp_squeezing_db,layers\n"
                   f"1,gkp,composable,la_km,{frontier!r},,10.0,20.0,1\n")
    prep = workloads.Prepared("la_frontier", "full", {"lb_km": 10.0}, [], out)
    assert (workloads.check(prep, 0, workloads.load_reference()) == []) == ok


def test_validate_reference_check(tmp_path):
    reference = workloads.load_reference()
    out = tmp_path / "report.txt"
    prep = workloads.Prepared("validate", "full", {"seed": 0}, [], out)
    lines = [f"PASS {name} value=0 band=1" for name in reference["validate"]["checks"]]
    out.write_text("\n".join(lines) + "\n")
    assert workloads.check(prep, 0, reference) == []
    out.write_text("\n".join(lines[:-1] + ["FAIL determinism value=1 band=0"]) + "\n")
    assert workloads.check(prep, 0, reference)
    out.write_text("\n".join(lines[:-1]) + "\n")
    assert workloads.check(prep, 0, reference)


def test_seed_inputs_stay_in_range():
    for seed in range(1, 50):
        assert workloads.LB_RANGE[0] <= workloads.inputs("la_frontier", seed)["lb_km"] \
            <= workloads.LB_RANGE[1]
        assert workloads.LA_RANGE[0] <= workloads.inputs("lb_grid", seed)["la_km"] \
            <= workloads.LA_RANGE[1]
    assert workloads.inputs("la_frontier", 3) == workloads.inputs("la_frontier", 3)
    assert workloads.inputs("lb_grid", workloads.DEFAULT_SEED)["la_km"] == workloads.DEFAULT_LA


def test_refuses_a_tree_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(run.HERE, bench, ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "lb_grid",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
