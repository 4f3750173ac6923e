"""gkpmdi CLI benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) as fresh single-threaded processes,
one at a time, checks every output and prints one JSON line as the last
line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` repeats the workload until ``--seconds`` is spent (at least
once) and reports the medians of the end-to-end metrics.  ``--trace 1``
runs it once untraced and once with every public function of the traced
modules wrapped (tracer.py) and reports the per-layer metrics.  ``--smoke``
runs tiny inputs, for the benchmark's own tests.  See README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
STATE = WORK / "state.json"

# single-threaded BLAS, and one string-hash layout for every process
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "PYTHONHASHSEED": "0"}
SETUP_SAMPLES = 3        # import-only processes per run, besides the workload's own
MAX_INSTANCES = 64
CHILD_TIMEOUT_S = 170.0

# Exact work counters: two runs of one source tree must agree on every one.
COUNTERS = ("gkp.evals_per_optimize", "sweeps.probes_per_frontier",
            "sweeps.link_sigma_r2.hits", "sweeps.link_sigma_r2.misses",
            "fading.table_optimizations", "mc.mc_pe_coverage.pairs",
            "mc.mc_residual_variance.samples", "mc.mc_protocol_mutual_info.samples")
# Per-function metrics reported from the trace: name -> fields.
TRACED = {
    "config.load_config": ("total_s",),
    "gkp.optimize_squeezing": ("calls", "total_s", "self_s"),
    "gkp.residual_variance": ("calls", "total_s", "self_s"),
    "gkp.wrapped_moments": ("calls", "total_s", "self_s"),
    "sweeps.max_secure_distance": ("calls", "total_s", "self_s"),
    "sweeps.rate_point": ("calls", "total_s", "self_s"),
    "sweeps.rate_rows": ("total_s",),
    "security.asymptotic_rate": ("calls", "total_s", "self_s"),
    "security.conditioned_scalars": ("calls",),
    "finite_size.composable_rate": ("calls", "total_s", "self_s"),
    "fading.sigma_r2_of_tau": ("total_s",),
    "fading.xi_integral": ("calls", "total_s", "self_s"),
    "fading.average_composable_rate": ("calls", "total_s", "self_s"),
    "cli.write_rows": ("self_s",),
    "mc.mc_pe_coverage": ("total_s",),
    "mc.mc_residual_variance": ("total_s",),
    "mc.mc_protocol_mutual_info": ("total_s",),
}
LAYERS = ("config", "gkp", "security", "finite_size", "fading", "sweeps", "mc", "cli")


@dataclass
class Instance:
    setup_s: float
    import_s: float = 0.0
    exit_code: int = -1
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    sha256: str = ""
    errors: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    trace: dict | None = None


def _spawn(argv, trace: bool, tag: str) -> tuple[dict | None, float, str]:
    """Run child.py in a fresh interpreter; (result, setup_s, stderr)."""
    spec_path, result_path = WORK / f"{tag}.spec.json", WORK / f"{tag}.result.json"
    result_path.unlink(missing_ok=True)
    spec = {"src": str(SRC), "argv": argv, "trace": trace, "result": str(result_path),
            "spans": str(WORK / f"{tag}.spans.npz")}
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ, **CHILD_ENV)
    # gkpmdi comes from SRC only, and its bytecode is cached after the
    # warm-up process, as an installed package's is: set-up times imports,
    # not compilation
    for var in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX"):
        env.pop(var, None)
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(spec_path)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, 0.0, f"timed out after {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0 or not result_path.exists():
        return None, 0.0, f"harness exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    result = json.loads(result_path.read_text(encoding="utf-8"))
    return result, result["t_imported"] - t_spawn, proc.stderr


def setup_sample() -> float | None:
    result, setup_s, _ = _spawn(None, False, "setup")
    return setup_s if result is not None else None


def run_instance(prep: workloads.Prepared, reference: dict, verdicts: dict,
                 trace: bool = False) -> Instance:
    """One fresh-process run of ``prep``, its output checked.

    ``verdicts`` maps (exit code, output sha256) to the check's result, so an
    output byte-identical to one already checked is not parsed again.
    """
    prep.output.unlink(missing_ok=True)
    result, setup_s, stderr = _spawn(prep.argv, trace, "trace" if trace else "run")
    if result is None:
        return Instance(setup_s=setup_s, errors=[stderr])
    inst = Instance(setup_s=setup_s, import_s=result["import_s"],
                    exit_code=result["exit_code"], wall_s=result["wall_s"],
                    cpu_s=result["cpu_s"], peak_rss_mb=result["peak_rss_mb"],
                    trace=result.get("trace"))
    inst.counters = {f"sweeps.link_sigma_r2.{k}": v for k, v in result["link_sigma_r2"].items()}
    if prep.output.exists():
        inst.sha256 = hashlib.sha256(prep.output.read_bytes()).hexdigest()
    key = (inst.exit_code, inst.sha256)
    if key not in verdicts:
        verdicts[key] = workloads.check(prep, inst.exit_code, reference)
    inst.errors = list(verdicts[key])
    if inst.exit_code != 0 and stderr.strip():
        inst.errors.append(stderr.strip()[-2000:])
    return inst


# -- per-layer metrics ---------------------------------------------------------

def layer_metrics(traced: Instance, untraced: Instance) -> tuple[dict, dict, list[str]]:
    """(per-layer metrics, exact counters, accounting problems) of a traced run."""
    tr = traced.trace
    funcs, work, edges = tr["functions"], tr["work"], tr["edges"]
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    m = {}

    def put(name, value, unit):
        m[name] = {"value": float(value), "unit": unit}

    put("setup.import_s", untraced.import_s, "s")
    for name, fields in TRACED.items():
        stats = funcs.get(name, zero)
        for f in fields:
            put(f"{name}.{f}", stats[f], "count" if f == "calls" else "s")
    n_opt = funcs.get("gkp.optimize_squeezing", zero)["calls"]
    n_front = funcs.get("sweeps.max_secure_distance", zero)["calls"]
    put("gkp.evals_per_optimize", edges["evals_under_optimize"] / n_opt if n_opt else 0, "count")
    put("sweeps.probes_per_frontier",
        edges["probes_under_frontier"] / n_front if n_front else 0, "count")
    for k, v in traced.counters.items():
        put(k, v, "count")
    put("fading.table_optimizations", edges["optimize_under_fading"], "count")
    put("cli.write_rows.bytes", work.get("cli.write_rows.bytes", 0.0), "B")
    for name, unit in (("mc.mc_pe_coverage", "pairs"), ("mc.mc_residual_variance", "samples"),
                       ("mc.mc_protocol_mutual_info", "samples")):
        amount = work.get(f"{name}.{unit}", 0.0)
        put(f"{name}.{unit}", amount, "count")
        busy = funcs.get(name, zero)["total_s"]
        put(f"{name}.{unit}_per_s", amount / busy if busy else 0.0, "1/s")
    layer_self = {layer: sum(s["self_s"] for n, s in funcs.items() if n.startswith(layer + "."))
                  for layer in LAYERS}
    for layer, value in layer_self.items():
        put(f"layer.{layer}.self_s", value, "s")
    unwrapped = traced.wall_s - tr["root_covered_s"]
    put("trace.unwrapped_s", unwrapped, "s")
    put("trace.wall_s", traced.wall_s, "s")
    put("trace.overhead_s", traced.wall_s - untraced.wall_s, "s")
    put("trace.spans", tr["spans"], "count")

    problems = []
    if tr["rebound"] == 0 or not funcs:
        problems.append("tracer wrapped nothing")
    accounted = sum(layer_self.values()) + unwrapped
    if abs(accounted - traced.wall_s) > 1e-6 * max(1.0, traced.wall_s):
        problems.append(f"self times + unwrapped = {accounted} s, traced wall = {traced.wall_s} s")
    counters = {k: m[k]["value"] for k in COUNTERS}
    counters.update({f"{n}.calls": s["calls"] for n, s in funcs.items()})
    return m, counters, problems


# -- repeatability across runs of one source tree ------------------------------

def tree_hash() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def compare_with_state(key: str, seed_key: str, counters: dict, sha: str) -> list[str]:
    """Check counters and output digest against earlier runs of this tree, then record them."""
    state = json.loads(STATE.read_text(encoding="utf-8")) if STATE.exists() else {}
    problems = []
    old = state.get(key, {})
    for name, value in counters.items():
        if name in old and old[name] != value:
            problems.append(f"counter {name} = {value}, an earlier run of this tree had {old[name]}")
    old.update(counters)
    state[key] = old
    if sha:
        old_sha = state.setdefault(seed_key, sha)
        if old_sha != sha:
            problems.append(f"output sha256 {sha} differs from an earlier run's {old_sha}")
    tmp = STATE.with_suffix(".tmp")
    tmp.write_text(json.dumps(state, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, STATE)
    return problems


# -- environment ---------------------------------------------------------------

def _git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def environment() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "missing"

    return {"git_sha": _git_sha(), "src_tree_sha256": tree_hash(),
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "child_env": CHILD_ENV,
            "loadavg_start": os.getloadavg(), "machine": platform.machine()}


# -- driver ----------------------------------------------------------------------

def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs for self-tests")
    args = p.parse_args(argv)

    if not (SRC / "gkpmdi" / "cli.py").is_file():
        print(f"benchmark: no gkpmdi sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    env = environment()
    size = "smoke" if args.smoke else "full"
    reference = workloads.load_reference()
    prep = workloads.prepare(args.workload, workloads.inputs(args.workload, args.seed),
                             size, ROOT, WORK)

    if setup_sample() is None:  # warm-up: byte-compiles a fresh checkout; not timed
        print("benchmark: gkpmdi cannot be imported", file=sys.stderr)
        return 2
    setups = [s for s in (setup_sample() for _ in range(SETUP_SAMPLES)) if s is not None]

    problems = []
    verdicts = {}
    if args.trace:
        untraced = run_instance(prep, reference, verdicts)
        traced = run_instance(prep, reference, verdicts, trace=True)
        instances = [untraced, traced]
        if traced.sha256 != untraced.sha256:
            problems.append("traced output differs from untraced output")
    else:
        instances = []
        t_begin = time.perf_counter()
        while len(instances) < MAX_INSTANCES:
            instances.append(run_instance(prep, reference, verdicts))
            elapsed = time.perf_counter() - t_begin
            if elapsed + elapsed / len(instances) > args.seconds:
                break
    good = [i for i in instances if not i.errors]
    failed = len(instances) - len(good)
    shas = {i.sha256 for i in instances}
    if len(shas) > 1:
        problems.append(f"runs of one input produced {len(shas)} different outputs")
    hits = {json.dumps(i.counters, sort_keys=True) for i in good}
    if len(hits) > 1:
        problems.append(f"link_sigma_r2 cache counts differ between runs: {sorted(hits)}")

    metrics, counters = {}, {}
    if args.trace:
        if traced in good and traced.trace is not None:
            metrics, counters, trace_problems = layer_metrics(traced, untraced)
            problems += trace_problems
            metrics["failed_frac"] = {"value": failed / len(instances), "unit": "ratio"}
    elif good:
        counters = good[0].counters
        setups += [i.setup_s for i in instances if i.setup_s > 0]
        for name, unit in (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB")):
            metrics[name] = {"value": statistics.median(getattr(i, name) for i in good),
                             "unit": unit}
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    if good:
        key = f"{env['src_tree_sha256']}/{args.workload}/{size}"
        problems += compare_with_state(key, f"{key}/seed{args.seed}", counters, good[0].sha256)

    for n, inst in enumerate(instances):
        for err in inst.errors:
            print(f"benchmark: {args.workload} run {n}: {err}", file=sys.stderr)
    for prob in problems:
        print(f"benchmark: {args.workload}: {prob}", file=sys.stderr)
    record = {"workload": args.workload, "seed": args.seed, "size": size, "trace": args.trace,
              "inputs": prep.params, "argv": prep.argv, "environment": env,
              "output_sha256": [i.sha256 for i in instances],
              "setup_samples_s": setups, "problems": problems,
              "instances": [{k: v for k, v in vars(i).items() if k != "trace"}
                            for i in instances],
              "trace_functions": (traced.trace or {}).get("functions") if args.trace else None,
              "metrics": metrics}
    with open(WORK / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({"correct": bool(metrics) and failed == 0 and not problems,
                      "attempted": len(instances), "failed": failed, "metrics": metrics}))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
