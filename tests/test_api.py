import math
import re
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
