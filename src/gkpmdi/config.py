"""Run configuration: INI files whose sections mirror the parameter tables.

``_KEYS`` is the file format: every accepted key, the object keyword it sets
and its cast.  A key the file leaves out keeps that keyword's default, stated
once on the object; a section or key not in the table is a ConfigError, and
so is a key that cannot act beside the others the file gives.  ``SWEEPS``
is the one table of the axes each command sweeps per mode (a frontier's
with their initial scan windows, km), checked by ``SweepSpec.require``.
"""
from __future__ import annotations

import configparser
import math
from collections import defaultdict
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

from .channels import ProtocolParams, fiber_transmittance
from .fading import FadingConfig
from .finite_size import FiniteSizeParams
from .gkp import IDEAL, GkpAncilla

LINK_MODES = ("direct", "preamp", "gkp", "qt")
SWEEPS = {"rate": {"grid": ("lb_km", "la_km", "total_pulse"),
                   "frontier": {"lb_km": (0.05, 1200.0), "la_km": (0.05, 30.0)}},
          "residual": {"grid": ("la_km", "layers")}, "fading": {"grid": ("lb_km",)}}
MAX_GRID_POINTS = 1_000_000
# shot-noise units: below, phi - 1 is lost to rounding; far above, the rate
# arithmetic overflows
MODULATION_RANGE = (1e-9, 1e9)


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration (CLI exit code 2)."""


@dataclass(frozen=True)
class SweepSpec:
    axis: str = "lb_km"
    start: float = 1.0
    stop: float = 10.0
    step: float = 1.0
    mode: str = "grid"

    def __post_init__(self):
        for key in ("start", "stop", "step"):
            if not math.isfinite(getattr(self, key)):
                raise ConfigError(f"sweep {key} must be finite, got {getattr(self, key)!r}")
        if self.step <= 0:
            raise ConfigError("sweep step must be > 0")
        if self.stop < self.start:
            raise ConfigError(f"sweep stop = {self.stop!r} is below start = {self.start!r}")
        if self.axis in ("la_km", "lb_km") and self.start < 0:
            raise ConfigError(f"sweep start = {self.start!r}: {self.axis} must be >= 0")
        if self.axis == "total_pulse" and self.start < 1:
            raise ConfigError(f"sweep start = {self.start!r}: total_pulse must be >= 1")
        # floor((stop - start) / step) + 1 points; the quotient may overflow to inf
        if self.mode == "grid" and (self.stop - self.start) / self.step >= MAX_GRID_POINTS:
            raise ConfigError(f"sweep step = {self.step!r} gives more than {MAX_GRID_POINTS:,} "
                              f"grid points from start = {self.start!r} to stop = {self.stop!r}")

    def values(self) -> Iterator[float]:
        x = self.start
        # half-step slack keeps the endpoint when start/stop/step are round
        while x <= self.stop + 0.5 * self.step:
            if (value := round(x, 12)) <= self.stop + 1e-12:
                yield value
            x += self.step

    def require(self, command: str) -> None:
        """Raise a ConfigError unless ``command`` sweeps this axis in this mode."""
        if self.axis not in (modes := SWEEPS[command]).get(self.mode, ()):
            runs = "; ".join(f"{mode} mode sweeps {', '.join(axes)}"
                             for mode, axes in modes.items())
            raise ConfigError(f"{command} does not sweep axis = {self.axis} in mode = "
                              f"{self.mode}: {runs}")


@dataclass(frozen=True)
class RunConfig:
    protocol: ProtocolParams = field(default_factory=ProtocolParams)
    link_mode: str = "gkp"
    ancilla: GkpAncilla = field(default_factory=lambda: GkpAncilla(20.0))
    layers: int = 1
    qt_squeezing_db: float = 20.0
    finite_size: FiniteSizeParams | None = field(default_factory=FiniteSizeParams)
    fading: FadingConfig | None = None
    sweep: SweepSpec = field(default_factory=SweepSpec)

    def __post_init__(self):
        if self.link_mode not in LINK_MODES:
            raise ConfigError(f"unknown link_mode {self.link_mode!r}")
        if not any(self.sweep.axis in axes for modes in SWEEPS.values()
                   for axes in modes.values()):
            raise ConfigError(f"unknown sweep axis {self.sweep.axis!r}")
        if not any(self.sweep.mode in modes for modes in SWEEPS.values()):
            raise ConfigError(f"unknown sweep mode {self.sweep.mode!r}")
        if self.sweep.axis == "total_pulse" and self.finite_size is None:
            raise ConfigError("total_pulse sweep requires a [finite_size] section")
        if self.layers < 1:
            raise ConfigError("layers must be >= 1")
        if not 0.0 <= self.qt_squeezing_db < math.inf:
            raise ConfigError(f"qt_squeezing_db = {self.qt_squeezing_db!r}: "
                              "must be finite and >= 0")
        if self.layers > 1 and self.link_mode != "gkp":
            raise ConfigError("concatenation layers require link_mode = gkp")
        if self.fading is not None and (self.link_mode != "gkp" or self.layers != 1):
            raise ConfigError("fading models a single-layer gkp link")
        p, (lo, hi) = self.protocol, MODULATION_RANGE
        if not (lo <= p.sigma2_a <= hi and lo <= p.sigma2_b <= hi):
            raise ConfigError(f"modulation_variance must be in [{lo:g}, {hi:g}] for both users "
                              f"(0 correlates nothing), got _a = {p.sigma2_a!r} and _b = "
                              f"{p.sigma2_b!r}")
        if self.fading is None:  # a fiber A link: its longest length must not underflow
            key, l_a = (("stop", self.sweep.stop) if self.sweep.axis == "la_km"
                        else ("la_km", p.l_a_km))
            if fiber_transmittance(l_a, p.alpha0_db_per_km) == 0.0:
                raise ConfigError(f"{key} = {l_a!r} km: the A-link transmittance underflows to 0")
        if self.protocol.n_bar > 0.0 and (self.link_mode == "qt" or self.layers > 1
                                           or self.fading is not None
                                           or self.sweep.axis == "layers"):
            raise ConfigError("thermal_photon_mean > 0 is modelled only on single-layer "
                              "direct, preamp and gkp fiber links")


# (section, key) -> (object the key configures, its keyword, cast of the raw
# value).  The keyword of modulation_variance and ancilla is the key itself:
# load_config resolves those two after the table.
_KEYS = {
    ("protocol", "modulation_variance"): (ProtocolParams, "modulation_variance", float),
    ("protocol", "modulation_variance_a"): (ProtocolParams, "sigma2_a", float),
    ("protocol", "modulation_variance_b"): (ProtocolParams, "sigma2_b", float),
    ("protocol", "la_km"): (ProtocolParams, "l_a_km", float),
    ("protocol", "lb_km"): (ProtocolParams, "l_b_km", float),
    ("protocol", "thermal_photon_mean"): (ProtocolParams, "n_bar", float),
    ("protocol", "reconciliation_efficiency"): (ProtocolParams, "beta0", float),
    ("protocol", "attenuation_db_per_km"): (ProtocolParams, "alpha0_db_per_km", float),
    ("protocol", "link_mode"): (RunConfig, "link_mode", str.lower),
    ("code", "ancilla"): (GkpAncilla, "ancilla", str.lower),
    ("code", "gkp_squeezing_db"): (GkpAncilla, "squeezing_db", float),
    ("code", "layers"): (RunConfig, "layers", int),
    ("code", "qt_squeezing_db"): (RunConfig, "qt_squeezing_db", float),
    ("finite_size", "total_pulse"): (FiniteSizeParams, "n_total", float),
    ("finite_size", "pe_signals"): (FiniteSizeParams, "m_pe", float),
    ("finite_size", "digitalization"): (FiniteSizeParams, "d", int),
    ("finite_size", "ec_success_probability"): (FiniteSizeParams, "p_ec", float),
    ("finite_size", "eps_correctness"): (FiniteSizeParams, "eps_cor", float),
    ("finite_size", "eps_smoothing"): (FiniteSizeParams, "eps_s", float),
    ("finite_size", "eps_hashing"): (FiniteSizeParams, "eps_h", float),
    ("finite_size", "eps_pe"): (FiniteSizeParams, "eps_pe", float),
    ("fading", "tau0"): (FadingConfig, "tau0", float),
    ("fading", "gamma0"): (FadingConfig, "gamma0", float),
    ("fading", "r0_m"): (FadingConfig, "r0_m", float),
    ("fading", "sigma_bw2_m2"): (FadingConfig, "sigma_bw2_m2", float),
    ("sweep", "axis"): (SweepSpec, "axis", str.lower),
    ("sweep", "start"): (SweepSpec, "start", float),
    ("sweep", "stop"): (SweepSpec, "stop", float),
    ("sweep", "step"): (SweepSpec, "step", float),
    ("sweep", "mode"): (SweepSpec, "mode", str.lower),
}
_SECTIONS = {section for section, _ in _KEYS}


def _build(make, kw: dict, keys: dict):
    """``make(**kw[make])``, a ValueError reported with the keys behind it."""
    try:
        return make(**kw[make])
    except ValueError as exc:
        raise ConfigError(f"{exc} (from {', '.join(keys[make])})") from exc


def load_config(path: str | Path | None) -> RunConfig:
    """Parse an INI run configuration against ``_KEYS``; a key the file
    leaves out keeps its object's default."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    if path is not None and not Path(path).exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        parser.read([] if path is None else path)
    except configparser.Error as exc:
        # configparser's message spans lines; a config error is one line
        raise ConfigError(f"cannot parse config: {' '.join(str(exc).split())}") from exc

    if parser.defaults():  # configparser would copy [DEFAULT] into every section
        raise ConfigError("unknown section [DEFAULT]")
    kw, keys = defaultdict(dict), defaultdict(list)
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            if (section, key) not in _KEYS:
                raise ConfigError(f"unknown key {key} in [{section}]")
            make, name, cast = _KEYS[section, key]
            try:
                kw[make][name] = cast(raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key}: {raw!r}") from exc
            keys[make].append(key)
    run = kw[RunConfig]

    if "modulation_variance" in kw[ProtocolParams]:  # sets both; the _a/_b keys override it
        both = kw[ProtocolParams].pop("modulation_variance")
        kw[ProtocolParams] = {"sigma2_a": both, "sigma2_b": both, **kw[ProtocolParams]}
    run["protocol"] = _build(ProtocolParams, kw, keys)

    kind = kw[GkpAncilla].pop("ancilla", None)
    if kind not in (None, "finite", "ideal"):
        raise ConfigError(f"bad value for ancilla: {kind!r} (finite | ideal)")
    if kind == "ideal":
        if kw[GkpAncilla]:
            raise ConfigError("gkp_squeezing_db does nothing with ancilla = ideal: "
                              "drop one of the two keys")
        run["ancilla"] = IDEAL
    elif kw[GkpAncilla]:
        run["ancilla"] = _build(GkpAncilla, kw, keys)

    run["finite_size"] = (_build(FiniteSizeParams, kw, keys)  # no section: asymptotic rates
                          if parser.has_section("finite_size") else None)

    if parser.has_section("fading"):
        missing = [key for key in ("tau0", "gamma0", "r0_m") if key not in kw[FadingConfig]]
        if missing:
            raise ConfigError(f"[fading] section is missing {', '.join(missing)}")
        run["fading"] = _build(FadingConfig, kw, keys)

    run["sweep"] = SweepSpec(**kw[SweepSpec])
    cfg = RunConfig(**run)
    if "qt_squeezing_db" in run and cfg.link_mode != "qt":
        raise ConfigError("qt_squeezing_db acts only with link_mode = qt")
    if "la_km" in keys[ProtocolParams] and cfg.fading is not None:
        raise ConfigError("la_km does not act on a [fading] link: the fading law, "
                          "not a fiber length, sets its A link")
    return cfg
