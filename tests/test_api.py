import ast
import inspect
import math
import re
import sys
from pathlib import Path

import pytest

import gkpmdi

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(gkpmdi.__file__).resolve().parent


def test_public_surface_resolves_and_readme_snippet_runs():
    assert len(set(gkpmdi.__all__)) == len(gkpmdi.__all__)
    readme = README.read_text(encoding="utf-8")
    for name in gkpmdi.__all__:
        assert hasattr(gkpmdi, name), name
        assert re.search(rf"`{name}`", readme), f"README does not name {name}"
    section = readme.split(
        "## Reproducing the headline numbers", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(snippet, namespace)
    assert math.isfinite(namespace["rate"]) and namespace["rate"] > 0.0


def test_benchmark_contract():
    # perfbench (child.py, tracer.py) reads these names from the package: a
    # simplification that drops one breaks the benchmark, not a unit test
    import gkpmdi.cli

    for short in ("config", "gkp", "security", "finite_size", "fading", "sweeps", "mc", "cli"):
        assert f"gkpmdi.{short}" in sys.modules, short
    info = gkpmdi.sweeps.link_sigma_r2.cache_info()
    assert isinstance(info.hits, int) and isinstance(info.misses, int)
    # a scalar-la fiber rate_point reads its A link through the cache, so a
    # repeat on one config is a hit: perfbench's hit and miss counts keep their meaning
    cfg = gkpmdi.config.RunConfig()
    for lb in (10.0, 12.0):
        gkpmdi.sweeps.rate_point(cfg, cfg.protocol.l_a_km, lb)
    after = gkpmdi.sweeps.link_sigma_r2.cache_info()
    assert after.hits + after.misses == info.hits + info.misses + 2
    assert after.hits >= info.hits + 1
    assert "path" in inspect.signature(gkpmdi.cli.write_rows).parameters
    mc = gkpmdi.mc
    assert {"n_trials", "m_pe"} <= set(inspect.signature(mc.mc_pe_coverage).parameters)
    for fn in (mc.mc_residual_variance, mc.mc_protocol_mutual_info):
        assert "n_samples" in inspect.signature(fn).parameters, fn.__name__
    assert callable(gkpmdi.cli.main)


def test_rate_layers_import_no_private_security_names():
    # one rate route: sweeps and finite_size reach the rate functionals
    # through the public names of security only
    for module in ("sweeps", "finite_size"):
        tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "security":
                private = [a.name for a in node.names if a.name.startswith("_")]
                assert not private, (module, private)


def _callers(module: str) -> dict[str, set[str]]:
    """Each name called in the src module ``module``, mapped to the functions
    (or ``<lambda>``, ``<module>``) whose bodies call it."""
    callers = {}

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            scope = getattr(node, "name", "<lambda>")
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            callers.setdefault(name, set()).add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8")), "<module>")
    return callers


def _callers_in_src(name: str) -> set[tuple[str, str]]:
    """(module, function) of every call of ``name`` in the package."""
    return {(path.stem, scope) for path in SRC.glob("*.py")
            for scope in _callers(path.stem).get(name, ())}


def test_rate_functions_called_only_in_rate_point():
    # one rate route: every A link, fiber or [fading], becomes rate columns
    # in sweeps.rate_point, and fading_rows reaches the rates through it
    callers = _callers("sweeps")
    assert callers["asymptotic_rate"] == callers["composable_rate"] == {"rate_point"}
    assert "fading_rows" in callers["rate_point"]


def test_conditioned_scalars_have_one_production_route():
    # one A-link node set: link_scalars forms the conditioned scalars of
    # every link, and only the finite-size worst case builds a state of its own
    assert _callers_in_src("ConditionedScalars") == {("security", "link_scalars"),
                                                     ("finite_size", "_worst_case")}
    assert _callers_in_src("link_scalars") == {("sweeps", "rate_point"),
                                               ("cli", "_validate_checks")}


def test_params_level_rate_calls_fail():
    # the rate functions take conditioned scalars: an old-style call with
    # link parameters raises instead of computing a number
    p = gkpmdi.ProtocolParams()
    with pytest.raises(TypeError):
        gkpmdi.asymptotic_rate(p, 0.02, "gkp")
    with pytest.raises(TypeError):
        gkpmdi.composable_rate(p, 0.02, gkpmdi.FiniteSizeParams(), "gkp")


def test_residual_parts_have_one_production_route():
    # Var(w) and the gain come from gkp._gain, and E[D^2] from
    # gkp._shift_terms, for the public entry points and the optimizer alike
    assert _callers_in_src("_gain") == {("gkp", "effective_estimator_gain"),
                                        ("gkp", "residual_variance"), ("gkp", "_log_slope_ratio")}
    assert _callers_in_src("_shift_terms") == {("gkp", "residual_variance"),
                                               ("gkp", "_log_slope_ratio")}
    defined = {node.name for path in SRC.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.FunctionDef)}
    assert "lattice_shift_variance" not in defined
