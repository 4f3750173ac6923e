"""The run-configuration key table: every accepted key acts on the loaded
config, and any other section, key or value exits 2 with a named cause."""
from pathlib import Path

import pytest

from gkpmdi.cli import main
from gkpmdi.config import _KEYS, RunConfig, load_config

# the keys a [fading] section must carry
FADING_BASE = {"tau0": "0.9", "gamma0": "1.2", "r0_m": "0.02"}

# for every key in the table: a valid value that differs from the one a file
# without the key gets
VALUES = {
    ("protocol", "modulation_variance"): "15",
    ("protocol", "modulation_variance_a"): "15",
    ("protocol", "modulation_variance_b"): "15",
    ("protocol", "la_km"): "2",
    ("protocol", "lb_km"): "5",
    ("protocol", "thermal_photon_mean"): "0.5",
    ("protocol", "reconciliation_efficiency"): "0.95",
    ("protocol", "attenuation_db_per_km"): "0.16",
    ("protocol", "link_mode"): "preamp",
    ("code", "ancilla"): "ideal",
    ("code", "gkp_squeezing_db"): "15",
    ("code", "layers"): "2",
    ("code", "qt_squeezing_db"): "15",
    ("finite_size", "total_pulse"): "1e9",
    ("finite_size", "pe_signals"): "1e6",
    ("finite_size", "pe_fraction"): "0.2",
    ("finite_size", "digitalization"): "16",
    ("finite_size", "ec_success_probability"): "0.8",
    ("finite_size", "eps_correctness"): "1e-9",
    ("finite_size", "eps_smoothing"): "1e-9",
    ("finite_size", "eps_hashing"): "1e-9",
    ("finite_size", "eps_pe"): "1e-9",
    ("fading", "tau0"): "0.8",
    ("fading", "gamma0"): "1.5",
    ("fading", "r0_m"): "0.03",
    ("fading", "sigma_bw2_m2"): "4e-6",
    ("fading", "receiver_aperture_m"): "0.05",
    ("fading", "link_length_km"): "2",
    ("fading", "pointing_error_urad"): "2",
    ("sweep", "axis"): "la_km",
    ("sweep", "start"): "2",
    ("sweep", "stop"): "20",
    ("sweep", "step"): "0.5",
    ("sweep", "mode"): "frontier",
    ("output", "path"): "rows.csv",
    ("output", "format"): "json",
}


def write_text(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def write(tmp_path, sections, name="run.ini"):
    return write_text(tmp_path, "".join(
        f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for section, keys in sections.items()), name)


def test_defaults_are_the_dataclass_defaults():
    assert load_config(None) == RunConfig(finite_size=None)


@pytest.mark.parametrize("section,key", list(_KEYS))
def test_every_key_acts(tmp_path, section, key):
    base = {section: dict(FADING_BASE) if section == "fading" else {}}
    if key == "qt_squeezing_db":  # acts only on a qt link
        base["protocol"] = {"link_mode": "qt"}
    without = load_config(write(tmp_path, base, "without.ini"))
    if section not in ("finite_size", "fading") and key != "qt_squeezing_db":
        assert without == load_config(None)  # an empty section changes nothing
    with_key = load_config(write(tmp_path, {**base, section: {**base[section],
                                                              key: VALUES[section, key]}}))
    assert with_key != without


@pytest.mark.parametrize("sections,named", [
    ({"protocol": {"link_mod": "direct"}, "code": {"layer": "3", "gkp_squeezing": "30"},
      "finite_sise": {"total_pulse": "1e8"}}, ["link_mod"]),
    ({"code": {"gkp_squeezing": "30"}}, ["gkp_squeezing"]),
    ({"finite_sise": {}}, ["finite_sise"]),
    ({"DEFAULT": {"la_km": "2"}}, ["DEFAULT"]),
    ({"code": {"ancilla": "bogus"}}, ["ancilla", "bogus"]),
    ({"code": {"layers": "two"}}, ["layers"]),
    ({"finite_size": {"pe_signals": "1e6", "pe_fraction": "0.1"}}, ["pe_signals", "pe_fraction"]),
    ({"fading": {**FADING_BASE, "sigma_bw2_m2": "1e-6", "link_length_km": "1"}},
     ["sigma_bw2_m2", "link_length_km"]),
    ({"fading": {"tau0": "0.9", "gamma0": "1.2"}}, ["r0_m"]),
    ({"code": {"gkp_squeezing_db": "-5"}}, ["gkp_squeezing_db"]),
    ({"fading": {**FADING_BASE, "pointing_error_urad": "-1"}}, ["pointing_error_urad"]),
    # keys that could not act beside the others given
    ({"code": {"ancilla": "ideal", "gkp_squeezing_db": "20"}}, ["ancilla", "gkp_squeezing_db"]),
    ({"code": {"qt_squeezing_db": "15"}}, ["qt_squeezing_db", "link_mode"]),
    ({"protocol": {"link_mode": "preamp"}, "code": {"qt_squeezing_db": "15"}},
     ["qt_squeezing_db", "link_mode"]),
])
def test_bad_config_exits_2_naming_the_cause(tmp_path, capsys, sections, named):
    assert main(["rate", "--config", write(tmp_path, sections)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    for word in named:
        assert word in err, (word, err)


def test_readme_block_lists_every_key_and_loads(tmp_path):
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Run configuration", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
    for section, key in _KEYS:
        assert f"[{section}]" in block and key in block, (section, key)
    cfg = load_config(write_text(tmp_path, block))
    assert cfg.fading is not None and cfg.finite_size is not None


def test_values_are_taken_literally(tmp_path):
    # no %-interpolation: a percent sign in a path is part of the path
    cfg = load_config(write(tmp_path, {"output": {"path": "rate_100%.csv"}}))
    assert cfg.output_path == "rate_100%.csv"
