"""The run-configuration key table: every accepted key acts on the loaded
config and on a computed output cell, and any other section, key or value
exits 2 with a named cause."""
import contextlib
import csv
import io
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gkpmdi.cli import main
from gkpmdi.config import _KEYS, ConfigError, RunConfig, SweepSpec, load_config
from gkpmdi.sweeps import _echo, frontier

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
    ("sweep", "axis"): "la_km",
    ("sweep", "start"): "2",
    ("sweep", "stop"): "20",
    ("sweep", "step"): "0.5",
    ("sweep", "mode"): "frontier",
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


# keys that act only beside another: the sections their base config adds
NEEDS = {"qt_squeezing_db": {"protocol": {"link_mode": "qt"}},  # only a qt link reads it
         "lb_km": {"sweep": {"axis": "la_km"}}}  # an lb_km sweep sets lb_km itself


def _computed_cells(tmp_path, command, config):
    """The rows ``command`` writes for ``config``, without the echoed cells."""
    out = tmp_path / f"{command}.json"
    assert main([command, "--config", config, "--output", str(out), "--format", "json"]) == 0
    echoed = set(_echo(load_config(config)))
    return [{c: v for c, v in row.items() if c not in echoed}
            for row in json.loads(out.read_text())["rows"]]


@pytest.mark.parametrize("section,key", list(_KEYS))
def test_every_key_acts(tmp_path, section, key):
    base = {section: dict(FADING_BASE) if section == "fading" else {}, **NEEDS.get(key, {})}
    without = write(tmp_path, base, "without.ini")
    if section not in ("finite_size", "fading") and key not in NEEDS:
        assert load_config(without) == load_config(None)  # an empty section changes nothing
    with_key = write(tmp_path, {**base, section: {**base[section], key: VALUES[section, key]}})
    assert load_config(with_key) != load_config(without)
    # the key moves a computed cell, not only its own echo
    command = "fading" if section == "fading" else "rate"
    assert (_computed_cells(tmp_path, command, with_key)
            != _computed_cells(tmp_path, command, without))
    # an echoed cell names the key that sets it
    assert set(_echo(load_config(with_key))) - {"schema_version"} <= {k for _, k in _KEYS}


@pytest.mark.parametrize("sections,named", [
    ({"protocol": {"link_mod": "direct"}, "code": {"layer": "3", "gkp_squeezing": "30"},
      "finite_sise": {"total_pulse": "1e8"}}, ["link_mod"]),
    ({"code": {"gkp_squeezing": "30"}}, ["gkp_squeezing"]),
    ({"finite_sise": {}}, ["finite_sise"]),
    ({"DEFAULT": {"la_km": "2"}}, ["DEFAULT"]),
    ({"code": {"ancilla": "bogus"}}, ["ancilla", "bogus"]),
    ({"code": {"layers": "two"}}, ["layers"]),
    # a second spelling of a setting, or a key that would act on nothing
    ({"finite_size": {"pe_fraction": "0.1"}}, ["unknown key", "pe_fraction"]),
    ({"fading": {**FADING_BASE, "link_length_km": "1"}}, ["unknown key", "link_length_km"]),
    ({"fading": {**FADING_BASE, "pointing_error_urad": "1"}},
     ["unknown key", "pointing_error_urad"]),
    ({"fading": {**FADING_BASE, "receiver_aperture_m": "0.1"}},
     ["unknown key", "receiver_aperture_m"]),
    ({"output": {"path": "rows.csv"}}, ["unknown section", "[output]"]),
    ({"output": {"format": "json"}}, ["unknown section", "[output]"]),
    ({"fading": {"tau0": "0.9", "gamma0": "1.2"}}, ["r0_m"]),
    ({"code": {"gkp_squeezing_db": "-5"}}, ["gkp_squeezing_db"]),
    # keys that could not act beside the others given
    ({"code": {"ancilla": "ideal", "gkp_squeezing_db": "20"}}, ["ancilla", "gkp_squeezing_db"]),
    ({"code": {"qt_squeezing_db": "15"}}, ["qt_squeezing_db", "link_mode"]),
    ({"protocol": {"link_mode": "preamp"}, "code": {"qt_squeezing_db": "15"}},
     ["qt_squeezing_db", "link_mode"]),
    ({"protocol": {"la_km": "1.0"}, "fading": FADING_BASE}, ["la_km", "[fading]"]),
    # values the config-space property found ending in a traceback or a nan row
    ({"protocol": {"thermal_photon_mean": "nan"}}, ["thermal_photon_mean"]),
    ({"protocol": {"modulation_variance": "1e300"}}, ["modulation_variance"]),
    ({"protocol": {"modulation_variance_b": "1e-300"}}, ["modulation_variance"]),
    ({"protocol": {"lb_km": "inf"}}, ["lb_km"]),
    ({"code": {"gkp_squeezing_db": "nan"}}, ["gkp_squeezing_db"]),
    ({"protocol": {"link_mode": "qt"}, "code": {"qt_squeezing_db": "-1"}}, ["qt_squeezing_db"]),
    ({"fading": {**FADING_BASE, "r0_m": "1e300"}}, ["r0_m"]),
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
    # no %-interpolation: a percent sign is part of the value, which is then
    # judged as given
    with pytest.raises(ConfigError, match="bad value for ancilla: '100%'"):
        load_config(write(tmp_path, {"code": {"ancilla": "100%"}}))


# for every key in the table: (typical and boundary raw values, invalid
# ones).  The sweep values give grids of at most 161 points below the size
# cap, or far more points than the cap allows.
DRAWN = {
    ("protocol", "modulation_variance"): (["20", "1e-6"], ["0", "-1", "nan", "x"]),
    ("protocol", "modulation_variance_a"): (["5", "1e4"], ["0", "inf"]),
    ("protocol", "modulation_variance_b"): (["5", "1e-3"], ["-2"]),
    ("protocol", "la_km"): (["1", "0", "4.5", "300"], ["20000", "-1", "nan"]),
    ("protocol", "lb_km"): (["10", "0", "1000", "1e6"], ["-1", "inf"]),
    ("protocol", "thermal_photon_mean"): (["0", "0.1", "10"], ["-0.1", "nan"]),
    ("protocol", "reconciliation_efficiency"): (["0.95", "1", "1e-9"], ["0", "1.1"]),
    ("protocol", "attenuation_db_per_km"): (["0.2", "0", "5"], ["-0.2", "inf"]),
    ("protocol", "link_mode"): (["gkp", "direct", "preamp", "qt", "GKP"], ["warp"]),
    ("code", "ancilla"): (["finite", "ideal"], ["bogus"]),
    ("code", "gkp_squeezing_db"): (["20", "1e-3", "60"], ["0", "-5", "nan"]),
    ("code", "layers"): (["1", "3", "50"], ["0", "1.5"]),
    ("code", "qt_squeezing_db"): (["20", "0", "60"], ["-1", "nan"]),
    ("finite_size", "total_pulse"): (["1e8", "1e12", "100", "1"], ["0", "-1", "inf", "nan"]),
    ("finite_size", "pe_signals"): (["1e7", "1", "1e8"], ["0", "nan"]),
    ("finite_size", "digitalization"): (["32", "2", "1024"], ["3", "0", "x"]),
    ("finite_size", "ec_success_probability"): (["0.9", "1", "1e-9"], ["0", "1.5"]),
    ("finite_size", "eps_correctness"): (["1e-10", "0.5", "1e-300"], ["0", "1"]),
    ("finite_size", "eps_smoothing"): (["1e-10", "0.5", "1e-300"], ["0", "1"]),
    ("finite_size", "eps_hashing"): (["1e-10", "0.5", "1e-300"], ["0", "1"]),
    ("finite_size", "eps_pe"): (["1e-10", "0.5", "1e-300"], ["0", "1"]),
    ("fading", "tau0"): (["0.99", "1", "1e-6"], ["0", "1.5", "nan"]),
    ("fading", "gamma0"): (["1.2", "1e-3", "50"], ["0", "-1"]),
    ("fading", "r0_m"): (["0.022", "1e-6", "10"], ["0", "-1"]),
    ("fading", "sigma_bw2_m2"): (["1e-6", "1e-30", "1"], ["0", "-1"]),
    ("sweep", "axis"): (["lb_km", "la_km", "total_pulse", "layers"], ["nonsense"]),
    ("sweep", "start"): (["0", "1", "5", "1e8"], ["-1", "nan"]),
    ("sweep", "stop"): (["3", "40", "2e9"], ["inf"]),
    ("sweep", "step"): (["0.25", "1", "7", "1e8"], ["0", "-1", "nan"]),
    ("sweep", "mode"): (["grid", "frontier", "FRONTIER"], ["spiral"]),
}


def _assignments(invalid: bool):
    """A subset of the keys, each with a drawn value; invalid values only
    when ``invalid``."""
    return st.lists(st.sampled_from(sorted(DRAWN)).flatmap(lambda key: st.tuples(
        st.just(key), st.sampled_from(DRAWN[key][0] + (DRAWN[key][1] if invalid else [])))),
        max_size=8, unique_by=lambda assignment: assignment[0])


def _data_rows(path: Path) -> list[dict]:
    text = path.read_text()
    if text.startswith("{"):
        return json.loads(text)["rows"]
    return list(csv.DictReader(io.StringIO(text)))


def test_drawn_values_cover_the_key_table():
    assert set(DRAWN) == set(_KEYS)


@settings(max_examples=200)
@given(st.booleans().flatmap(_assignments), st.booleans(), st.booleans(),
       st.sampled_from([None, "la_km", "layers"]))
def test_every_loadable_config_runs_or_exits_2(tmp_path_factory, assignments, finite, fading,
                                               axis):
    # any subset of keys: each command writes rows (or the empty-frontier
    # note) or exits 2 with one config error line; an exception escaping
    # main fails the test.  The residual axes are drawn apart, so that
    # residual sweeps run often enough
    sections = {"finite_size": {}} if finite else {}
    if fading:
        sections["fading"] = dict(FADING_BASE)
    if axis is not None:
        sections["sweep"] = {"axis": axis}
    for (section, key), value in assignments:
        sections.setdefault(section, {})[key] = value
    tmp = tmp_path_factory.mktemp("space")
    config = write(tmp, sections)
    for command in ("rate", "residual", "fading"):
        out = tmp / f"{command}.out"
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = main([command, "--config", config, "--output", str(out)])
        err = err.getvalue()
        if code == 2:
            assert err.startswith("config error: ") and err.count("\n") == 1, err
            assert not out.exists()
            continue
        assert code == 0, (command, code, err)
        rows = _data_rows(out)
        assert rows, command
        assert all(line.startswith("note: ") for line in err.splitlines()), err
        if rows[0].get("frontier_axis") and rows[0]["max_secure_km"] in ("", None):
            past_scan = frontier(load_config(config), rows[0]["frontier_axis"])[0] == math.inf
            assert ("stays secure up to the end of the scan" if past_scan
                    else "no secure point found") in err
        out.unlink()


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: SweepSpec.values accumulates the step "
                                       "and drops the endpoint of a long grid")
def test_long_grid_keeps_its_endpoint():
    values = list(SweepSpec(axis="lb_km", start=0.5, stop=40.0, step=0.0005).values())
    assert (len(values), values[-1]) == (79_001, 40.0)
