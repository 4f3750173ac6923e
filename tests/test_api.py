import inspect
import math
import re
import sys
from pathlib import Path

import gkpmdi

README = Path(__file__).resolve().parents[1] / "README.md"


def test_public_surface_resolves_and_readme_snippet_runs():
    assert len(set(gkpmdi.__all__)) == len(gkpmdi.__all__)
    for name in gkpmdi.__all__:
        assert hasattr(gkpmdi, name), name
    section = README.read_text(encoding="utf-8").split(
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
    assert "path" in inspect.signature(gkpmdi.cli.write_rows).parameters
    mc = gkpmdi.mc
    assert {"n_trials", "m_pe"} <= set(inspect.signature(mc.mc_pe_coverage).parameters)
    for fn in (mc.mc_residual_variance, mc.mc_protocol_mutual_info):
        assert "n_samples" in inspect.signature(fn).parameters, fn.__name__
    assert callable(gkpmdi.cli.main)
