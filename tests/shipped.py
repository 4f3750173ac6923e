"""Paths of the run configurations shipped under ``src/gkpmdi/configs``."""
from pathlib import Path

CONFIGS = Path(__file__).parent.parent / "src" / "gkpmdi" / "configs"
FIBER_DEFAULT = CONFIGS / "fiber_default.ini"


def reference_fading_config(aperture_m: float) -> Path:
    """The free-space config whose fading law was fitted for a receiver
    aperture of ``aperture_m`` (0.1 or 0.05 m)."""
    return CONFIGS / {0.1: "free_space_a010.ini", 0.05: "free_space_a005.ini"}[aperture_m]
