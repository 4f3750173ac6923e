"""Run configuration: INI-style files with sections mirroring the parameter tables."""
from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

from .channels import ProtocolParams
from .fading import FadingConfig, pointing_wander_variance
from .finite_size import FiniteSizeParams
from .gkp import GkpAncilla

LINK_MODES = ("direct", "preamp", "gkp", "qt")
SWEEP_AXES = ("lb_km", "la_km", "total_pulse", "layers")
SWEEP_MODES = ("grid", "frontier")


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration (CLI exit code 2)."""


@dataclass(frozen=True)
class SweepSpec:
    axis: str = "lb_km"
    start: float = 1.0
    stop: float = 10.0
    step: float = 1.0
    mode: str = "grid"

    def values(self) -> list[float]:
        if self.step <= 0:
            raise ConfigError("sweep step must be > 0")
        out = []
        x = self.start
        # half-step slack keeps the endpoint when start/stop/step are round
        while x <= self.stop + 0.5 * self.step:
            out.append(round(x, 12))
            x += self.step
        return [v for v in out if v <= self.stop + 1e-12]


@dataclass(frozen=True)
class RunConfig:
    scenario: str = "fiber"
    protocol: ProtocolParams = field(default_factory=ProtocolParams)
    link_mode: str = "gkp"
    ancilla: GkpAncilla = field(default_factory=lambda: GkpAncilla(20.0))
    layers: int = 1
    qt_squeezing_db: float = 20.0
    finite_size: FiniteSizeParams | None = field(default_factory=FiniteSizeParams)
    fading: FadingConfig | None = None
    sweep: SweepSpec = field(default_factory=SweepSpec)
    output_path: str | None = None  # CLI flags override these
    output_format: str = "csv"

    def __post_init__(self):
        if self.output_format not in ("csv", "json"):
            raise ConfigError(f"unknown output format {self.output_format!r}")
        if self.scenario not in ("fiber", "free_space"):
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        if self.link_mode not in LINK_MODES:
            raise ConfigError(f"unknown link_mode {self.link_mode!r}")
        if self.scenario == "free_space" and self.fading is None:
            raise ConfigError("free_space scenario requires a [fading] section")
        if self.sweep.axis not in SWEEP_AXES:
            raise ConfigError(f"unknown sweep axis {self.sweep.axis!r}")
        if self.sweep.mode not in SWEEP_MODES:
            raise ConfigError(f"unknown sweep mode {self.sweep.mode!r}")
        if self.sweep.axis == "total_pulse" and self.finite_size is None:
            raise ConfigError("total_pulse sweep requires a [finite_size] section")
        if self.layers < 1:
            raise ConfigError("layers must be >= 1")
        if self.layers > 1 and self.link_mode != "gkp":
            raise ConfigError("concatenation layers require link_mode = gkp")
        if self.protocol.n_bar > 0.0 and (self.link_mode == "qt" or self.layers > 1
                                           or self.fading is not None
                                           or self.sweep.axis == "layers"):
            raise ConfigError("thermal_photon_mean > 0 is modelled only on single-layer "
                              "direct, preamp and gkp fiber links")


def _get(section, key, cast, default):
    if section is None or key not in section:
        return default
    raw = section[key]
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc


def load_config(path: str | Path | None) -> RunConfig:
    """Parse an INI run configuration; missing keys fall back to the
    reference defaults."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            parser.read(path)
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config: {exc}") from exc

    prot = parser["protocol"] if parser.has_section("protocol") else None
    sigma2 = _get(prot, "modulation_variance", float, 20.0)
    try:
        protocol = ProtocolParams(
            sigma2_a=_get(prot, "modulation_variance_a", float, sigma2),
            sigma2_b=_get(prot, "modulation_variance_b", float, sigma2),
            l_a_km=_get(prot, "la_km", float, 1.0),
            l_b_km=_get(prot, "lb_km", float, 10.0),
            n_bar=_get(prot, "thermal_photon_mean", float, 0.0),
            beta0=_get(prot, "reconciliation_efficiency", float, 1.0),
            alpha0_db_per_km=_get(prot, "attenuation_db_per_km", float, 0.2),
            wavelength_nm=_get(prot, "signal_wavelength_nm", float, 1550.0),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    link_mode = _get(prot, "link_mode", str, "gkp").strip().lower()

    code = parser["code"] if parser.has_section("code") else None
    anc_raw = _get(code, "ancilla", str, "finite").strip().lower()
    if anc_raw == "ideal":
        ancilla = GkpAncilla(None)
    else:
        try:
            ancilla = GkpAncilla(_get(code, "gkp_squeezing_db", float, 20.0))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    layers = _get(code, "layers", int, 1)
    qt_db = _get(code, "qt_squeezing_db", float, 20.0)

    fs = None
    if parser.has_section("finite_size"):
        sec = parser["finite_size"]
        n_total = _get(sec, "total_pulse", float, 1e8)
        m_pe = _get(sec, "pe_signals", float, None)
        if m_pe is None:
            m_pe = _get(sec, "pe_fraction", float, 0.1) * n_total
        try:
            fs = FiniteSizeParams(
                n_total=n_total,
                m_pe=m_pe,
                d=_get(sec, "digitalization", int, 32),
                p_ec=_get(sec, "ec_success_probability", float, 0.9),
                eps_cor=_get(sec, "eps_correctness", float, 1e-10),
                eps_s=_get(sec, "eps_smoothing", float, 1e-10),
                eps_h=_get(sec, "eps_hashing", float, 1e-10),
                eps_pe=_get(sec, "eps_pe", float, 1e-10),
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    fading = None
    scenario = "fiber"
    if parser.has_section("fading"):
        scenario = "free_space"
        sec = parser["fading"]
        l_km = _get(sec, "link_length_km", float, 1.0)
        pointing = _get(sec, "pointing_error_urad", float, 1.0)
        sbw2 = _get(sec, "sigma_bw2_m2", float, None)
        if sbw2 is None:
            sbw2 = pointing_wander_variance(l_km, pointing)
        for key in ("tau0", "gamma0", "r0_m"):
            if key not in sec:
                raise ConfigError(f"[fading] section is missing {key}")
        try:
            fading = FadingConfig(
                tau0=float(sec["tau0"]),
                gamma0=float(sec["gamma0"]),
                r0_m=float(sec["r0_m"]),
                sigma_bw2_m2=sbw2,
                a_r_m=_get(sec, "receiver_aperture_m", float, 0.1),
                w0_m=_get(sec, "beam_waist_m", float, 0.05),
                l_a_km=l_km,
                pointing_urad=pointing,
                wavelength_nm=_get(sec, "signal_wavelength_nm", float, 800.0),
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    sw = parser["sweep"] if parser.has_section("sweep") else None
    sweep = SweepSpec(
        axis=_get(sw, "axis", str, "lb_km").strip().lower(),
        start=_get(sw, "start", float, 1.0),
        stop=_get(sw, "stop", float, 10.0),
        step=_get(sw, "step", float, 1.0),
        mode=_get(sw, "mode", str, "grid").strip().lower(),
    )

    out = parser["output"] if parser.has_section("output") else None
    out_path = _get(out, "path", str, None)
    out_format = _get(out, "format", str, "csv").strip().lower()

    try:
        return RunConfig(scenario=scenario, protocol=protocol, link_mode=link_mode,
                         ancilla=ancilla, layers=layers, qt_squeezing_db=qt_db,
                         finite_size=fs, fading=fading, sweep=sweep,
                         output_path=out_path, output_format=out_format)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def reference_fading_config(aperture_m: float) -> Path:
    """Path of a shipped fitted free-space reference configuration."""
    name = {0.1: "free_space_a010.ini", 0.05: "free_space_a005.ini"}.get(aperture_m)
    if name is None:
        raise ConfigError(f"no shipped reference config for aperture {aperture_m} m")
    return Path(__file__).parent / "configs" / name
