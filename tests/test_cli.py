import csv
import errno
import itertools
import json
import os
import stat
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gkpmdi.cli import main, write_rows
from gkpmdi.config import SWEEPS, ConfigError, load_config
from gkpmdi.sweeps import (FADING_COLUMNS, FRONTIER_COLUMNS, RATE_COLUMNS, _echo, fading_rows,
                           rate_rows, residual_rows)
from shipped import FIBER_DEFAULT, reference_fading_config

FIBER_INI = """
[protocol]
modulation_variance = 20
la_km = 1.0
lb_km = 8.0
link_mode = gkp

[code]
ancilla = finite
gkp_squeezing_db = 20

[finite_size]
total_pulse = 1e8

[sweep]
axis = lb_km
start = 6
stop = 10
step = 2
mode = grid
"""

RESIDUAL_INI = """
[protocol]
link_mode = gkp

[code]
gkp_squeezing_db = 20

[sweep]
axis = la_km
start = 1
stop = 3
step = 1
mode = grid
"""


def write(tmp_path, text, name="run.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def rows_of(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_residual_csv(tmp_path):
    cfg = write(tmp_path, RESIDUAL_INI)
    out = str(tmp_path / "res.csv")
    assert main(["residual", "--config", cfg, "--output", out]) == 0
    rows = rows_of(out)
    assert len(rows) == 3
    assert rows[0]["schema_version"] == "2"
    assert float(rows[0]["la_km"]) == 1.0
    for row in rows:
        assert float(row["sigma_r2"]) < float(row["sigma2"])
        assert float(row["sigma_lb2"]) < float(row["sigma_r2"])


def test_residual_layer_sweep(tmp_path):
    ini = """
[protocol]
la_km = 3.0
link_mode = gkp

[code]
gkp_squeezing_db = 20

[sweep]
axis = layers
start = 1
stop = 6
step = 1
"""
    cfg = write(tmp_path, ini)
    out = str(tmp_path / "layers.csv")
    assert main(["residual", "--config", cfg, "--output", out]) == 0
    rows = rows_of(out)
    assert [int(r["layers"]) for r in rows] == [1, 2, 3, 4, 5, 6]
    vals = [float(r["sigma_r2"]) for r in rows]
    assert min(range(6), key=lambda i: vals[i]) == 3  # optimum at four layers


def test_rate_grid_csv_and_determinism(tmp_path):
    cfg = write(tmp_path, FIBER_INI)
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["rate", "--config", cfg, "--output", out1]) == 0
    assert main(["rate", "--config", cfg, "--output", out2]) == 0
    assert Path(out1).read_bytes() == Path(out2).read_bytes()
    rows = rows_of(out1)
    assert [float(r["lb_km"]) for r in rows] == [6.0, 8.0, 10.0]
    assert all(r["rate_kind"] == "composable" for r in rows)
    rates = [float(r["rate_bits"]) for r in rows]
    assert rates[0] > rates[1] > rates[2]


def test_rate_grid_jobs_match_serial(tmp_path):
    cfg = write(tmp_path, FIBER_INI)
    out1, out2 = str(tmp_path / "s.csv"), str(tmp_path / "p.csv")
    assert main(["rate", "--config", cfg, "--output", out1, "--jobs", "1"]) == 0
    assert main(["rate", "--config", cfg, "--output", out2, "--jobs", "2"]) == 0
    assert Path(out1).read_bytes() == Path(out2).read_bytes()


def test_json_outputs_validate_against_schema(tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((Path(__file__).parent.parent / "src" / "gkpmdi" / "schemas"
                         / "output.schema.json").read_text())
    fading = reference_fading_config(0.1).read_text()
    runs = [("rate", FIBER_INI, 3),
            ("rate", FIBER_INI.replace("mode = grid", "mode = frontier"), 1),
            ("residual", RESIDUAL_INI, 3),
            ("residual", RESIDUAL_INI.replace("axis = la_km", "axis = layers"), 3),
            ("fading", fading, 1000 + 1 + 21), ("rate", fading, 21)]
    for command, ini, n_rows in runs:
        cfg = write(tmp_path, ini)
        out = str(tmp_path / "out.json")
        assert main([command, "--config", cfg, "--output", out, "--format", "json"]) == 0
        doc = json.loads(Path(out).read_text())
        jsonschema.validate(doc, schema)
        assert doc["schema_version"] == schema["properties"]["schema_version"]["const"]
        assert doc["command"] == command
        assert len(doc["rows"]) == n_rows, (command, ini)


def test_rate_frontier_mode(tmp_path):
    ini = FIBER_INI.replace("mode = grid", "mode = frontier")
    cfg = write(tmp_path, ini)
    out = str(tmp_path / "front.csv")
    assert main(["rate", "--config", cfg, "--output", out]) == 0
    rows = rows_of(out)
    assert len(rows) == 1
    assert 15.0 < float(rows[0]["max_secure_km"]) < 20.0


def test_rate_frontier_asymptotic_baseline(tmp_path):
    ini = """
[protocol]
la_km = 0.0
link_mode = direct

[sweep]
axis = lb_km
mode = frontier
"""
    cfg = write(tmp_path, ini)
    out = str(tmp_path / "asy.csv")
    assert main(["rate", "--config", cfg, "--output", out]) == 0
    rows = rows_of(out)
    assert rows[0]["rate_kind"] == "asymptotic"
    assert abs(float(rows[0]["max_secure_km"]) - 852.0) <= 5.0


@pytest.mark.parametrize("link_mode", ["direct", "preamp", "gkp"])
@pytest.mark.parametrize("modulation", ["20", "10000", "1e6", "1e9"])
def test_rate_runs_on_nearly_pure_states(tmp_path, link_mode, modulation):
    # a lossless A link at large modulation: the conditioned state is nearly
    # pure, and pure at la = lb = 0, where chi = 0 (modulation 1e4 once
    # raised "symplectic eigenvalue 0.9999999962747097 < 1" here)
    ini = (f"[protocol]\nmodulation_variance = {modulation}\nla_km = 0\nlink_mode = {link_mode}\n"
           "\n[sweep]\naxis = lb_km\nstart = 0\nstop = 1\nstep = 0.5\n")
    out = str(tmp_path / "pure.csv")
    assert main(["rate", "--config", write(tmp_path, ini), "--output", out]) == 0
    rows = rows_of(out)
    assert [float(r["lb_km"]) for r in rows] == [0.0, 0.5, 1.0]
    assert abs(float(rows[0]["holevo_bits"])) <= 1e-12


def test_rate_frontier_without_secure_point_writes_null(tmp_path, capsys):
    jsonschema = pytest.importorskip("jsonschema")
    ini = "[protocol]\nla_km = 40.0\nlink_mode = direct\n\n[sweep]\naxis = lb_km\nmode = frontier\n"
    cfg = write(tmp_path, ini)
    out_json, out_csv = tmp_path / "none.json", str(tmp_path / "none.csv")
    assert main(["rate", "--config", cfg, "--output", str(out_json), "--format", "json"]) == 0
    assert "no secure point" in capsys.readouterr().err

    def reject(name):
        raise ValueError(f"non-JSON constant {name}")

    doc = json.loads(out_json.read_text(), parse_constant=reject)
    assert doc["rows"][0]["max_secure_km"] is None
    schema = json.loads((Path(__file__).parent.parent / "src" / "gkpmdi" / "schemas"
                         / "output.schema.json").read_text())
    jsonschema.validate(doc, schema)
    assert main(["rate", "--config", cfg, "--output", out_csv]) == 0
    assert rows_of(out_csv)[0]["max_secure_km"] == ""


@pytest.mark.parametrize("axis, attenuation", [
    ("lb_km", "0"), ("la_km", "0"), ("la_km", "0.0001")])
def test_frontier_secure_past_the_scan_says_so(tmp_path, capsys, axis, attenuation):
    # over (nearly) lossless fiber the rate is still secure at the end of the
    # last scan window: the cell stays empty and the note must not claim that
    # no point is secure
    ini = (f"[protocol]\nattenuation_db_per_km = {attenuation}\n\n"
           f"[sweep]\naxis = {axis}\nmode = frontier\n")
    out = tmp_path / "front.csv"
    assert main(["rate", "--config", write(tmp_path, ini), "--output", str(out)]) == 0
    (row,) = rows_of(out)
    assert row["frontier_axis"] == axis and row["max_secure_km"] == ""
    assert capsys.readouterr().err == (f"note: the rate along {axis} stays secure up to the end "
                                       "of the scan; max_secure_km is left empty\n")


_MATRIX_RANGES = {"lb_km": "start = 2\nstop = 4\nstep = 1",
                  "la_km": "start = 0.5\nstop = 1.5\nstep = 0.5",
                  "total_pulse": "start = 1e8\nstop = 3e8\nstep = 1e8",
                  "layers": "start = 1\nstop = 3\nstep = 1"}


@pytest.mark.parametrize("command", sorted(SWEEPS))
@pytest.mark.parametrize("shipped", ["fiber_default", "free_space_a010"])
def test_every_command_runs_the_sweeps_its_table_lists(tmp_path, capsys, shipped, command):
    # each (axis, mode) on a shipped config: a sweep that config.SWEEPS lists
    # for the command writes rows unless a link rule of the command rejects
    # the config (residual models gkp over fiber, fading needs a [fading]
    # link, la_km does not act on one); anything else exits 2 on one line
    # and leaves no file
    fading = shipped != "fiber_default"
    text = (reference_fading_config(0.1) if fading else FIBER_DEFAULT).read_text()
    sweep = text[:text.index("[sweep]")]
    link_rule = command == "residual" and fading or command == "fading" and not fading
    ran = []
    for axis, mode in itertools.product(_MATRIX_RANGES, ("grid", "frontier")):
        ini = f"{sweep}[sweep]\naxis = {axis}\n{_MATRIX_RANGES[axis]}\nmode = {mode}\n"
        out = tmp_path / f"{axis}-{mode}.csv"
        code = main([command, "--config", write(tmp_path, ini), "--output", str(out)])
        err = capsys.readouterr().err
        listed = axis in SWEEPS[command].get(mode, ())
        if listed and not link_rule and not (fading and axis == "la_km"):
            assert code == 0 and rows_of(out), (axis, mode, err)
            ran.append((axis, mode))
            continue
        assert code == 2 and err.startswith("config error: ") and err.count("\n") == 1, err
        assert not out.exists()
        if not listed and not link_rule:
            assert f"{command} does not sweep axis = {axis} in mode = {mode}: " in err
    assert len(ran) == {("fiber_default", "rate"): 5, ("fiber_default", "residual"): 2,
                        ("free_space_a010", "rate"): 3,
                        ("free_space_a010", "fading"): 1}.get((shipped, command), 0)


def test_rate_grid_rejects_layers_axis(tmp_path, capsys):
    ini = FIBER_INI.replace("axis = lb_km", "axis = layers").replace(
        "start = 6", "start = 1").replace("stop = 10", "stop = 3").replace("step = 2", "step = 1")
    cfg = write(tmp_path, ini)
    assert main(["rate", "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        "config error: rate does not sweep axis = layers in mode = grid: grid mode sweeps "
        "lb_km, la_km, total_pulse; frontier mode sweeps lb_km, la_km\n")


def test_rate_with_unphysical_worst_case_is_a_config_error(tmp_path, capsys):
    # 100 pulses leave a 10-signal estimation block: the worst-case state is unphysical
    cfg = write(tmp_path, FIBER_INI.replace("total_pulse = 1e8", "total_pulse = 100"))
    assert main(["rate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "m_pe = 10" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_residual_rejects_settings_it_does_not_model(tmp_path, capsys):
    rejected = [
        (RESIDUAL_INI.replace("link_mode = gkp", "link_mode = qt"),
         "residual sweeps model the gkp link"),
        (RESIDUAL_INI.replace("link_mode = gkp", "link_mode = direct"),
         "residual sweeps model the gkp link"),
        (RESIDUAL_INI.replace("gkp_squeezing_db = 20", "gkp_squeezing_db = 20\nlayers = 3"),
         "use axis = layers for concatenation"),
        (RESIDUAL_INI.replace("mode = grid", "mode = frontier"),
         "residual does not sweep axis = la_km in mode = frontier: "
         "grid mode sweeps la_km, layers"),
        (reference_fading_config(0.1).read_text().replace("axis = lb_km", "axis = la_km"),
         "residual sweeps model the gkp link over fiber"),
        # a thermal background pushes the 3 km link's noise past 1, where the
        # capacity floor is undefined (it was a traceback)
        (RESIDUAL_INI.replace("link_mode = gkp", "link_mode = gkp\nthermal_photon_mean = 10"),
         "the A-link noise sigma2 reaches"),
    ]
    for ini, message in rejected:
        assert main(["residual", "--config", write(tmp_path, ini)]) == 2, message
        err = capsys.readouterr().err
        assert f"config error: {message}" in err and "Traceback" not in err


def test_residual_layer_sweep_rejects_non_integer_and_zero_layers(tmp_path, capsys):
    layers_ini = RESIDUAL_INI.replace("axis = la_km", "axis = layers")
    for start, step in (("1", "0.5"), ("0", "1")):
        ini = layers_ini.replace("start = 1", f"start = {start}").replace("step = 1", f"step = {step}")
        out = tmp_path / "layers.csv"
        assert main(["residual", "--config", write(tmp_path, ini), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert "a layers sweep takes integer values >= 1" in err and "Traceback" not in err
        assert not out.exists()


def test_fading_rejects_links_it_does_not_model(tmp_path, capsys):
    # the fading layer corrects one gkp segment; other links would echo a
    # setting that does not act on the rows
    shipped = reference_fading_config(0.1).read_text()
    rejected = [shipped.replace("link_mode = gkp", f"link_mode = {mode}")
                for mode in ("direct", "preamp", "qt")]
    rejected.append(shipped.replace("layers = 1", "layers = 3"))
    for ini in rejected:
        assert ini != shipped
        assert main(["fading", "--config", write(tmp_path, ini)]) == 2
        assert "fading models a single-layer gkp link" in capsys.readouterr().err


def test_fading_rejects_sweeps_it_does_not_run(tmp_path, capsys):
    # the rate rows are an lb_km grid: another axis or frontier mode would
    # write the density and summary rows and drop the sweep without a word
    shipped = reference_fading_config(0.1).read_text()
    rejected = [(shipped.replace("axis = lb_km", f"axis = {axis}"), f"axis = {axis}")
                for axis in ("la_km", "total_pulse", "layers")]
    rejected.append((shipped.replace("mode = grid", "mode = frontier"), "mode = frontier"))
    for ini, key in rejected:
        out = tmp_path / "fading.csv"
        assert main(["fading", "--config", write(tmp_path, ini), "--output", str(out)]) == 2, key
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and key in err and "Traceback" not in err
        assert not out.exists()


def test_thermal_photon_mean_rejected_where_unmodelled(tmp_path, capsys):
    def hot(ini):
        return ini.replace("thermal_photon_mean = 0\n", "").replace(
            "[protocol]", "[protocol]\nthermal_photon_mean = 0.05")

    rejected = [
        ("rate", FIBER_INI.replace("link_mode = gkp", "link_mode = qt")),
        ("rate", FIBER_INI.replace("gkp_squeezing_db = 20", "gkp_squeezing_db = 20\nlayers = 3")),
        ("residual", RESIDUAL_INI.replace("axis = la_km", "axis = layers")),
        ("fading", reference_fading_config(0.1).read_text()),
    ]
    for command, ini in rejected:
        assert main([command, "--config", write(tmp_path, hot(ini))]) == 2, command
        assert "thermal_photon_mean" in capsys.readouterr().err
    # single-layer gkp models the thermal background: it runs and the value acts
    out0, out1 = str(tmp_path / "n0.csv"), str(tmp_path / "n1.csv")
    assert main(["rate", "--config", write(tmp_path, FIBER_INI), "--output", out0]) == 0
    assert main(["rate", "--config", write(tmp_path, hot(FIBER_INI)), "--output", out1]) == 0
    assert float(rows_of(out1)[0]["sigma_r2"]) > float(rows_of(out0)[0]["sigma_r2"])


LA_AXIS = {"axis = lb_km": "axis = la_km"}
PULSE_AXIS = {"axis = lb_km": "axis = total_pulse", "stop = 20": "stop = 1e9",
              "step = 1\n": "step = 1e8\n"}


@pytest.mark.parametrize("command, edits, key", [
    pytest.param("rate", {"stop = 20": "stop = inf"}, "stop", id="stop-inf"),
    pytest.param("rate", {"step = 1\n": "step = nan\n"}, "step", id="step-nan"),
    pytest.param("rate", {"start = 2": "start = -inf"}, "start", id="start-minus-inf"),
    pytest.param("rate", {"start = 2": "start = 30", "stop = 20": "stop = 2"}, "stop",
                 id="reversed-sweep"),
    pytest.param("rate", {"start = 2": "start = -2"}, "start", id="negative-lb-start"),
    pytest.param("residual", {**LA_AXIS, "start = 2": "start = -1"}, "start",
                 id="negative-la-start"),
    pytest.param("rate", {**PULSE_AXIS, "start = 2": "start = -1"}, "start",
                 id="negative-pulse-start"),
    pytest.param("rate", {"la_km = 1.0": "la_km = 20000"}, "la_km", id="la-key-underflow"),
    pytest.param("rate", {**LA_AXIS, "stop = 20": "stop = 20000"}, "stop",
                 id="la-sweep-underflow"),
    pytest.param("residual", {**LA_AXIS, "stop = 20": "stop = 20000"}, "stop",
                 id="residual-la-sweep-underflow"),
    pytest.param("rate", {"modulation_variance = 20": "modulation_variance = 0"},
                 "modulation_variance", id="zero-modulation"),
    pytest.param("rate", {"attenuation_db_per_km = 0.2": "attenuation_db_per_km = -0.2"},
                 "attenuation_db_per_km", id="negative-attenuation"),
    pytest.param("rate", {"attenuation_db_per_km = 0.2": "attenuation_db_per_km = nan"},
                 "attenuation_db_per_km", id="attenuation-nan"),
    pytest.param("rate", {"start = 2": "start = 0", "stop = 20": "stop = 1e6",
                          "step = 1\n": "step = 1e-6\n"}, "step", id="grid-over-cap"),
    pytest.param("rate", {**PULSE_AXIS, "start = 2": "start = 1e-300"}, "start",
                 id="pulse-start-below-one"),
    pytest.param("rate", {"step = 1\n": "step = 0\n"}, "step", id="step-zero"),
    pytest.param("rate", {"step = 1\n": "step = -1\n"}, "step", id="step-negative"),
    pytest.param("rate", {"layers = 1": "layers = 0"}, "layers", id="layers-zero"),
    pytest.param("rate", {"layers = 1": "layers = 2", "link_mode = gkp": "link_mode = direct"},
                 "layers", id="layers-on-direct-link"),
])
def test_config_values_exit_2_naming_the_key(tmp_path, capsys, monkeypatch, command, edits, key):
    # each was a traceback, a silent header-only file (step = nan, stop below
    # start), an endless or 10^12-point sweep or a message blaming another
    # key; no probe may reach the sweep loop
    monkeypatch.setattr("gkpmdi.config.SweepSpec.values", lambda self: pytest.fail("sweep ran"))
    ini = FIBER_DEFAULT.read_text()
    for old, new in edits.items():
        assert old in ini
        ini = ini.replace(old, new)
    out = tmp_path / "out.csv"
    assert main([command, "--config", write(tmp_path, ini), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert key in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("text", [
    pytest.param("[protocol]\nlink_mode = gkp\nnot a key line\n", id="unparsable-line"),
    pytest.param("[sweep]\naxis = lb_km\n\n[sweep]\nstart = 1\n", id="duplicate-section"),
])
def test_config_parse_faults_exit_2_on_one_line(tmp_path, capsys, text):
    # configparser's own message spans lines; the config error does not
    assert main(["rate", "--config", write(tmp_path, text)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot parse config: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


def test_bad_config_exit_code(tmp_path):
    cfg = write(tmp_path, "[protocol]\nlink_mode = warp\n")
    assert main(["rate", "--config", cfg]) == 2
    assert main(["rate", "--config", str(tmp_path / "missing.ini")]) == 2
    cfg2 = write(tmp_path, FIBER_INI.replace("axis = lb_km", "axis = nonsense"), "bad.ini")
    assert main(["rate", "--config", cfg2]) == 2


def test_fading_command(tmp_path):
    cfg = str(reference_fading_config(0.1))
    out = str(tmp_path / "fad.csv")
    assert main(["fading", "--config", cfg, "--output", out]) == 0
    rows = rows_of(out)
    kinds = {r["row_kind"] for r in rows}
    assert kinds == {"pdf", "summary", "rate"}
    summary = [r for r in rows if r["row_kind"] == "summary"][0]
    assert abs(float(summary["mean_sigma_r2"]) - 0.0182) / 0.0182 < 0.05
    # trapezoid integral of the emitted density columns
    pdf_rows = sorted((r for r in rows if r["row_kind"] == "pdf"),
                      key=lambda r: float(r["tau_a"]))
    taus = [float(r["tau_a"]) for r in pdf_rows]
    dens = [float(r["pdf_density"]) for r in pdf_rows]
    import numpy as np

    total = np.trapezoid(dens, taus)
    assert abs(total - 1.0) < 1e-4


def test_fading_density_finite_where_it_diverges_at_tau0(tmp_path):
    # gamma0 > 2: the density diverges (integrably) at tau0, so the pdf rows
    # stop one grid step short of it and JSON output stays standard
    ini = reference_fading_config(0.1).read_text()
    for key, value in (("tau0", "0.9"), ("gamma0", "3"), ("r0_m", "0.02")):
        ini = "\n".join(f"{key} = {value}" if line.startswith(f"{key} =") else line
                        for line in ini.splitlines())
    cfg = write(tmp_path, ini)
    out_csv, out_json = str(tmp_path / "fad.csv"), tmp_path / "fad.json"
    assert main(["fading", "--config", cfg, "--output", out_csv]) == 0
    dens = [float(r["pdf_density"]) for r in rows_of(out_csv) if r["row_kind"] == "pdf"]
    taus = [float(r["tau_a"]) for r in rows_of(out_csv) if r["row_kind"] == "pdf"]
    assert np.all(np.isfinite(dens)) and max(taus) < 0.9

    def reject(name):
        raise ValueError(f"non-JSON constant {name}")

    assert main(["fading", "--config", cfg, "--output", str(out_json), "--format", "json"]) == 0
    rows = json.loads(out_json.read_text(), parse_constant=reject)["rows"]
    assert all(np.isfinite(r["pdf_density"]) for r in rows if r["row_kind"] == "pdf")


def _without_finite_size(ini):
    return "\n\n".join(b for b in ini.split("\n\n") if not b.startswith("[finite_size]"))


@pytest.mark.parametrize("finite", [True, False], ids=["composable", "asymptotic"])
@pytest.mark.parametrize("aperture", [0.1, 0.05])
def test_rate_on_fading_config_matches_fading_rate_rows(tmp_path, aperture, finite):
    # one rate route: `rate` on a [fading] config and the fading command's
    # rate rows are the same rate_point block; without [finite_size] both
    # write asymptotic rows (the fading command used to write none)
    ini = reference_fading_config(aperture).read_text()
    cfg = write(tmp_path, ini if finite else _without_finite_size(ini))
    fad, rate = tmp_path / "fading.csv", tmp_path / "rate.csv"
    assert main(["fading", "--config", cfg, "--output", str(fad)]) == 0
    assert main(["rate", "--config", cfg, "--output", str(rate)]) == 0
    fading, rows = rows_of(fad), rows_of(rate)
    summary = [r for r in fading if r["row_kind"] == "summary"]
    fading_rate = [r for r in fading if r["row_kind"] == "rate"]
    assert len(rows) == len(fading_rate) > 0
    assert [(r["lb_km"], r["rate_bits"]) for r in rows] == \
        [(r["lb_km"], r["rate_bits"]) for r in fading_rate]
    kind = "composable" if finite else "asymptotic"
    assert {r["rate_kind"] for r in rows} == {r["rate_kind"] for r in fading_rate} == {kind}
    assert {r["rate_kind"] for r in fading if r["row_kind"] != "rate"} == {""}
    # la_km does not act on a fading link; sigma_r2 is the mean residual
    assert {r["la_km"] for r in rows} == {""}
    assert {r["sigma_r2"] for r in rows} == {summary[0]["mean_sigma_r2"]}


@pytest.mark.parametrize("aperture, finite, km", [
    (0.1, True, 21.37), (0.1, False, 35.07), (0.05, False, 0.19), (0.05, True, None)])
def test_rate_frontier_on_fading_config(tmp_path, capsys, aperture, finite, km):
    ini = reference_fading_config(aperture).read_text().replace("mode = grid", "mode = frontier")
    cfg = write(tmp_path, ini if finite else _without_finite_size(ini))
    out = tmp_path / "front.csv"
    assert main(["rate", "--config", cfg, "--output", str(out)]) == 0
    (row,) = rows_of(out)
    assert row["frontier_axis"] == "lb_km" and row["la_km"] == ""
    assert row["rate_kind"] == ("composable" if finite else "asymptotic")
    err = capsys.readouterr().err
    if km is None:
        assert row["max_secure_km"] == "" and "no secure point found along lb_km" in err
    else:
        assert abs(float(row["max_secure_km"]) - km) <= 0.01 and err == ""


def test_rate_on_fading_config_rejects_la_km_axis(tmp_path, capsys):
    shipped = reference_fading_config(0.1).read_text().replace("axis = lb_km", "axis = la_km")
    for mode in ("grid", "frontier"):
        ini = shipped.replace("mode = grid", f"mode = {mode}")
        assert main(["rate", "--config", write(tmp_path, ini)]) == 2, mode
        err = capsys.readouterr().err
        assert err.startswith("config error: axis = la_km") and "Traceback" not in err


def test_fading_nodes_built_once_per_run(tmp_path, monkeypatch):
    # one optimize_squeezing call per run: the node residuals of a rate grid
    # or frontier, and in `fading` those nodes together with the density rows
    import gkpmdi.fading
    import gkpmdi.sweeps

    calls = []
    optimize = gkpmdi.fading.optimize_squeezing
    for module in (gkpmdi.fading, gkpmdi.sweeps):
        monkeypatch.setattr(module, "optimize_squeezing",
                            lambda *args: calls.append(args) or optimize(*args))
    shipped = reference_fading_config(0.1).read_text()
    for command, ini in (("rate", shipped), ("fading", shipped),
                         ("rate", shipped.replace("mode = grid", "mode = frontier"))):
        calls.clear()
        out = str(tmp_path / "out.csv")
        assert main([command, "--config", write(tmp_path, ini), "--output", out]) == 0
        assert len(calls) == 1, (command, len(calls))


def test_fading_requires_fading_section(tmp_path):
    cfg = write(tmp_path, FIBER_INI)
    assert main(["fading", "--config", cfg]) == 2


def test_validate_zero_budget(tmp_path, capsys):
    assert main(["validate", "--samples", "0"]) == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("samples", [10_000, 1_000])
def test_validate_relay_band_shrinks_with_the_budget(tmp_path, samples):
    # the relay correlation's band is three standard errors, 3/sqrt(n), and
    # never below 0.01; at 1e4 samples a fixed 0.01 fails seed 0 (0.0114)
    out = str(tmp_path / "v.json")
    assert main(["validate", "--samples", str(samples), "--seed", "0",
                 "--format", "json", "--output", out]) == 0
    checks = {c["name"]: c for c in json.loads(Path(out).read_text())["checks"]}
    relay = checks["key_relay_decorrelated"]
    assert relay["band"] == max(0.01, 3.0 / np.sqrt(samples))
    assert relay["status"] == "PASS"


@pytest.mark.parametrize("samples", [1, 1_000])
def test_validate_residual_checks_floor_their_budget(tmp_path, samples):
    # a one-sample variance is 0 +- 0, so below 10^4 samples the residual
    # checks draw 10^4: their rows are those of --samples 10000, and the
    # detail says the floor applied (--samples 1 --seed 0 failed without it)
    def residual_checks(n):
        out = tmp_path / f"v{n}.json"
        assert main(["validate", "--samples", str(n), "--seed", "0",
                     "--format", "json", "--output", str(out)]) == 0
        return [c for c in json.loads(out.read_text())["checks"]
                if c["name"].startswith("residual_mc_")]

    floored, full = residual_checks(samples), residual_checks(10_000)
    assert len(floored) == 3
    for a, b in zip(floored, full):
        assert a["detail"] == b["detail"] + ", floored to 10000 samples"
        assert {**a, "detail": ""} == {**b, "detail": ""}
        assert a["status"] == "PASS"


def test_validate_small_budget_passes_and_is_deterministic(tmp_path):
    out1, out2 = str(tmp_path / "v1.txt"), str(tmp_path / "v2.txt")
    assert main(["validate", "--samples", "40000", "--seed", "3",
                 "--output", out1]) == 0
    assert main(["validate", "--samples", "40000", "--seed", "3",
                 "--output", out2]) == 0
    assert Path(out1).read_bytes() == Path(out2).read_bytes()
    text = Path(out1).read_text()
    assert "PASS" in text and "FAIL" not in text


@pytest.mark.parametrize("samples", [1, 1_000, 40_000])
@pytest.mark.parametrize("seed", [0, 5])
def test_validate_oracle_values_are_the_serial_calls(tmp_path, seed, samples):
    # the mutual-information oracle runs beside the residual oracles: every
    # check still reads its own stream, so each value equals a direct serial
    # call with that stream, bit for bit (JSON floats round-trip exactly)
    from gkpmdi.channels import ProtocolParams, awgn_variance_preamp
    from gkpmdi.gkp import GkpAncilla, optimize_squeezing, residual_variance
    from gkpmdi.mc import RngStream, mc_protocol_mutual_info, mc_residual_variance
    from gkpmdi.security import asymptotic_rate, fiber_link, link_scalars

    out = tmp_path / "v.json"
    assert main(["validate", "--samples", str(samples), "--seed", str(seed),
                 "--format", "json", "--output", str(out)]) in (0, 1)
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    anc = GkpAncilla(20.0)
    for i, (r, s2, ancilla) in enumerate([(0.5, 0.129, anc), (0.8, 0.045, anc),
                                          (0.46, 0.129, GkpAncilla(None))]):
        est = mc_residual_variance(r, s2, ancilla, max(samples, 10_000),
                                   RngStream(seed, 10 + i))
        check = checks[f"residual_mc_r{r}_s{s2}_{'ideal' if ancilla.ideal else 'finite'}"]
        assert check["value"] == est.variance - residual_variance(r, s2, ancilla)
        assert check["band"] == 3.0 * est.stderr
    params = ProtocolParams(l_a_km=1.0, l_b_km=10.0)
    _, sr2 = optimize_squeezing(awgn_variance_preamp(params.tau_a), anc)
    est = mc_protocol_mutual_info(params, sr2, max(samples, 160), RngStream(seed, 20))
    sc = link_scalars(fiber_link(params, sr2, "gkp"), params)
    ref = asymptotic_rate(sc, params.beta0).mutual_info
    assert checks["protocol_mi_mc"]["value"] == est.mutual_info - ref
    assert checks["protocol_mi_mc"]["band"] == max(3.0 * est.stderr, 0.01 * ref)
    assert checks["key_relay_decorrelated"]["value"] == est.corr_key_relay


@pytest.mark.parametrize("error", [RuntimeError("oracle failed"), MemoryError()],
                         ids=["RuntimeError", "MemoryError"])
def test_validate_mutual_info_error_reaches_the_caller(tmp_path, monkeypatch, error):
    # the mutual-information oracle's thread hands its exception, the same
    # object, to the caller once the residual oracles are done; the run
    # leaves no output and no temporary file, and no thread behind it
    import gkpmdi.cli

    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(gkpmdi.cli, "mc_protocol_mutual_info", fail)
    before = set(threading.enumerate())
    with pytest.raises(type(error)) as raised:
        main(["validate", "--samples", "1000", "--output", str(tmp_path / "v.csv")])
    assert raised.value is error
    assert list(tmp_path.iterdir()) == []
    assert set(threading.enumerate()) <= before


@pytest.mark.parametrize("argv", [["rate", "--config", str(FIBER_DEFAULT)],
                                  ["rate", "--config", str(FIBER_DEFAULT), "--format", "json"],
                                  ["validate", "--samples", "1000"]],
                         ids=["rate-csv", "rate-json", "validate"])
def test_unwritable_output_exits_2_naming_the_path(tmp_path, capsys, argv):
    # --output is the only way to name a destination: a path that cannot be
    # opened is one config error line (exit 2, not a traceback, and for
    # validate not the exit 1 of a failed check)
    dest = str(tmp_path / "missing" / "rows.csv")
    assert main(argv + ["--output", dest]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1, captured.err
    assert captured.err.startswith("config error: cannot write --output ") and dest in captured.err
    assert main(argv + ["--output", str(tmp_path)]) == 2  # a directory
    assert str(tmp_path) in capsys.readouterr().err


def test_unwritable_output_is_rejected_before_any_work(tmp_path, capsys, monkeypatch):
    # the output's temporary file is created before any row or check is
    # computed, and creating it is the writability check: a run with a bad
    # destination computes nothing and creates nothing
    import gkpmdi.cli

    def refuse(*args, **kwargs):
        raise AssertionError("work started before the output opened")

    def refuse_rows(*args, **kwargs):  # refuses when its first block is drawn
        yield refuse()

    monkeypatch.setattr(gkpmdi.cli, "rate_rows", refuse_rows)
    monkeypatch.setattr(gkpmdi.cli, "_validate_checks", refuse)
    (tmp_path / "file.txt").write_text("a file, not a directory")
    locked = tmp_path / "locked"
    locked.mkdir()
    (locked / "old.csv").write_text("old")
    mkstemp = tempfile.mkstemp  # root may write anywhere: stand in a read-only directory

    def locked_mkstemp(*args, dir=None, **kwargs):
        if os.path.realpath(dir) == os.path.realpath(locked):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
        return mkstemp(*args, dir=dir, **kwargs)

    monkeypatch.setattr(tempfile, "mkstemp", locked_mkstemp)
    before = {p: p.read_bytes() if p.is_file() else None for p in tmp_path.rglob("*")}
    reasons = {tmp_path: "Is a directory",
               tmp_path / "missing" / "rows.csv": "No such file or directory",
               tmp_path / "file.txt" / "rows.csv": "Not a directory",
               locked / "new.csv": "Permission denied",
               locked / "old.csv": "Permission denied"}
    for argv in (["rate", "--config", str(FIBER_DEFAULT)], ["validate"]):
        for dest, reason in reasons.items():
            assert main(argv + ["--output", str(dest)]) == 2, (argv, dest)
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"config error: cannot write --output {dest}: {reason}\n"
    assert {p: p.read_bytes() if p.is_file() else None for p in tmp_path.rglob("*")} == before


def test_config_error_wins_over_a_bad_output(tmp_path, capsys):
    # the config loads before the output opens
    cfg = write(tmp_path, FIBER_INI.replace("step = 2", "step = -2"))
    assert main(["rate", "--config", cfg, "--output", str(tmp_path / "missing" / "x.csv")]) == 2
    assert capsys.readouterr().err == "config error: sweep step must be > 0\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_error_in_a_later_block_leaves_no_output(tmp_path, capsys, monkeypatch, fmt):
    # a noiseless A link: from lb_km = 310 the worst-case state is unphysical,
    # in the fourth block of 8 rows.  The rows go to a temporary file beside
    # --output that exists before the first block is computed, and neither it
    # nor a partial output is left; an existing output keeps its bytes
    import gkpmdi.sweeps

    monkeypatch.setattr(gkpmdi.sweeps, "_GRID_BLOCK", 8)
    temporaries = []
    rate_point = gkpmdi.sweeps.rate_point
    monkeypatch.setattr(gkpmdi.sweeps, "rate_point", lambda *args, **kwargs: temporaries.append(
        len(list(tmp_path.glob(f".grid.{fmt}.*.tmp")))) or rate_point(*args, **kwargs))
    ini = _with_sweep(FIBER_DEFAULT.read_text().replace("la_km = 1.0", "la_km = 0.0"),
                      "lb_km", 0, 400, 10)
    cfg = write(tmp_path, ini)
    out = tmp_path / f"grid.{fmt}"
    argv = ["rate", "--config", cfg, "--format", fmt]
    assert main(argv + ["--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: worst-case state is unphysical")
    assert temporaries == [1, 1, 1, 1]
    out.write_text("old")
    assert main(argv + ["--output", str(out)]) == 2
    assert main(argv) == 2  # standard output
    assert capsys.readouterr().out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"grid.{fmt}", "run.ini"]
    assert out.read_text() == "old"


def test_new_output_gets_the_mode_open_gives(tmp_path):
    new, ref = tmp_path / "new.txt", tmp_path / "ref.txt"
    umask = os.umask(0o027)
    try:
        assert main(["validate", "--samples", "0", "--output", str(new)]) == 0
        open(ref, "w").close()
    finally:
        os.umask(umask)
    assert stat.S_IMODE(new.stat().st_mode) == stat.S_IMODE(ref.stat().st_mode) == 0o640


def test_output_replaces_a_file_and_writes_through_a_symlink(tmp_path):
    cfg = write(tmp_path, FIBER_INI)
    fresh = tmp_path / "fresh.csv"
    assert main(["rate", "--config", cfg, "--output", str(fresh)]) == 0
    old = tmp_path / "old.csv"  # read-only: replaced, since its directory is writable
    old.write_text("old rows")
    old.chmod(0o444)
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("old rows")
    link.symlink_to(target)
    for dest in (old, link):
        assert main(["rate", "--config", cfg, "--output", str(dest)]) == 0
    assert old.read_bytes() == target.read_bytes() == fresh.read_bytes()
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "fresh.csv", "link.csv", "old.csv", "run.ini", "target.csv"]


def test_output_to_a_pipe_is_spooled_not_replaced(tmp_path, capsys):
    # a pipe, like /dev/null or a terminal, cannot be replaced by a renamed
    # file: it is opened at once and gets the rows on success, nothing on failure
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    bad = write(tmp_path, FIBER_INI.replace("total_pulse = 1e8", "total_pulse = 100"))
    for argv, code in ((["validate", "--samples", "0", "--format", "json"], 0),
                       (["rate", "--config", bad], 2)):
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert main(argv + ["--output", str(fifo)]) == code
        reader.join(timeout=10)
        assert stat.S_ISFIFO(fifo.stat().st_mode) and len(received) == 1
        assert received[0] == (b"" if code else json.dumps(
            {"schema_version": "2", "command": "validate", "seed": 0, "samples": 0,
             "checks": []}, indent=2).encode() + b"\n")
    assert capsys.readouterr().out == ""


def test_negative_seed_rejected():
    assert main(["validate", "--samples", "0", "--seed", "-1"]) == 2


def test_negative_samples_rejected(capsys):
    for samples in ("-1", "-5"):
        assert main(["validate", "--samples", samples]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error: samples must be a nonnegative integer" in captured.err


def test_total_pulse_sweep_keeps_pe_fraction(tmp_path):
    # pe_signals sets the count at the configured total_pulse; a block-size
    # sweep keeps its fraction of the block
    ini = """
[protocol]
la_km = 3.0
lb_km = 5.0
link_mode = gkp

[code]
gkp_squeezing_db = 20

[finite_size]
total_pulse = 1e8
pe_signals = 1e7

[sweep]
axis = total_pulse
start = 1e8
stop = 2e9
step = 1.9e9
"""
    cfg = write(tmp_path, ini, "n.ini")
    out = str(tmp_path / "n.csv")
    assert main(["rate", "--config", cfg, "--output", out]) == 0
    rows = rows_of(out)
    assert len(rows) == 2
    assert [float(r["pe_signals"]) for r in rows] == [1e7, 2e8]
    assert float(rows[0]["rate_bits"]) <= 0.0 < float(rows[1]["rate_bits"])


def test_load_config_defaults():
    cfg = load_config(None)
    assert cfg.protocol.sigma2_a == 20.0
    assert cfg.link_mode == "gkp"
    assert cfg.finite_size is None  # no section, asymptotic
    with pytest.raises(ConfigError):
        load_config("/nonexistent/path.ini")


def test_shipped_configs_parse():
    for aperture in (0.1, 0.05):
        cfg = load_config(reference_fading_config(aperture))
        assert cfg.fading is not None
        assert cfg.ancilla.squeezing_db == 25.0


def test_zero_length_gkp_link(tmp_path):
    # a lossless A link carries no noise: the code has nothing to correct
    ini = FIBER_INI.replace("la_km = 1.0", "la_km = 0.0")
    grid = ini.replace("axis = lb_km", "axis = la_km").replace("start = 6", "start = 0") \
        .replace("stop = 10", "stop = 1").replace("step = 2", "step = 0.5")
    out = str(tmp_path / "la.csv")
    assert main(["rate", "--config", write(tmp_path, grid), "--output", out]) == 0
    rows = rows_of(out)
    assert [float(r["la_km"]) for r in rows] == [0.0, 0.5, 1.0]
    assert float(rows[0]["sigma_r2"]) == 0.0 < float(rows[1]["sigma_r2"])
    assert float(rows[0]["rate_bits"]) > float(rows[1]["rate_bits"]) > 0.0
    # asymptotic lb frontier: the corrected lossless link is the direct one (852 km)
    front = str(tmp_path / "front.csv")
    frontier = ini.replace("mode = grid", "mode = frontier").replace(
        "[finite_size]\ntotal_pulse = 1e8\n", "")
    assert main(["rate", "--config", write(tmp_path, frontier), "--output", front]) == 0
    assert abs(float(rows_of(front)[0]["max_secure_km"]) - 852.0) <= 5.0
    res = str(tmp_path / "res.csv")
    residual = RESIDUAL_INI.replace("start = 1", "start = 0")
    assert main(["residual", "--config", write(tmp_path, residual), "--output", res]) == 0
    first = rows_of(res)[0]
    assert float(first["sigma2"]) == float(first["sigma_r2"]) == float(first["r_opt"]) == 0.0


def test_unphysical_element_of_a_block_sweep_is_a_config_error(tmp_path, capsys):
    ini = FIBER_INI.replace("axis = lb_km", "axis = total_pulse").replace(
        "start = 6", "start = 100").replace("stop = 10", "stop = 1e9").replace(
        "step = 2", "step = 5e8")
    assert main(["rate", "--config", write(tmp_path, ini)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "m_pe = 10 " in err and "Traceback" not in err


def test_flags_only_where_they_act(tmp_path, capsys):
    for argv in (["rate", "--seed", "3"], ["residual", "--samples", "10"],
                 ["validate", "--config", "x"], ["validate", "--samples", "0", "--config", "x"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err
    # every command keeps --jobs, --output and --format
    out = str(tmp_path / "v.json")
    assert main(["validate", "--samples", "0", "--jobs", "1", "--output", out,
                 "--format", "json"]) == 0


def _reference_write_rows(rows, columns, path, fmt, command):
    """The per-cell writer the columnar one replaced: one dict per row."""
    def cell(value):
        if value is None:
            return ""
        if isinstance(value, (float, np.floating)):
            return repr(float(value))
        return str(value)

    if fmt == "csv":
        with open(path, "w", newline="", encoding="utf-8") as out:
            writer = csv.writer(out)
            writer.writerow(columns)
            for row in rows:
                writer.writerow([cell(row.get(c, "")) for c in columns])
        return
    doc = {
        "schema_version": "2",
        "command": command,
        "rows": [{c: (float(row[c]) if isinstance(row.get(c), (float, np.floating))
                      else row.get(c, "")) for c in columns} for row in rows],
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _as_rows(blocks):
    rows = []
    for block in blocks:
        arrays = {k: v.tolist() for k, v in block.items() if isinstance(v, np.ndarray)}
        n = len(next(iter(arrays.values()))) if arrays else 1
        rows += [{k: arrays[k][i] if k in arrays else v for k, v in block.items()}
                 for i in range(n)]
    return rows


def test_columnar_writer_matches_per_cell_writer(tmp_path, capsys):
    columns = ["kind", "x", "y", "count", "note", "maybe", "absent", "tiny"]
    block_sets = {
        "mixed": [
            {"kind": "grid", "x": np.linspace(0.1, 3.0, 7), "y": np.geomspace(1e-12, 7.0, 7),
             "count": np.arange(1, 8), "note": "echo", "maybe": None, "tiny": 5e-324},
            {"kind": "summary", "x": 0.5, "y": np.float64(-2.5), "count": 3, "note": "a,b"},
            {"kind": "empty", "x": np.array([]), "y": np.array([])},
            {"kind": "edge", "x": np.array([0.0, -0.0, 1e300]), "count": np.array([0, -1, 2])},
        ],
        "awkward_text": [
            {"kind": '100% "quoted", text\nover lines', "x": np.array([np.nan, np.inf, -np.inf]),
             "count": np.array([True, False, True]), "note": "%s %r %%", "maybe": "x\ry"},
            {"kind": "%", "note": '"', "maybe": ",", "tiny": "\n"},  # no array columns
        ],
        "zero_rows": [{"kind": "grid", "x": np.array([]), "count": np.array([], dtype=int)}],
        "no_blocks": [],
    }
    for name, blocks in block_sets.items():
        for fmt in ("csv", "json"):
            new, ref = tmp_path / f"{name}.{fmt}", tmp_path / f"{name}.ref.{fmt}"
            write_rows(blocks, columns, str(new), fmt, "rate")
            _reference_write_rows(_as_rows(blocks), columns, str(ref), fmt, "rate")
            assert new.read_bytes() == ref.read_bytes(), (name, fmt)
            capsys.readouterr()
            write_rows(blocks, columns, None, fmt, "rate")  # standard output
            assert capsys.readouterr().out.encode() == ref.read_bytes(), (name, fmt, "stdout")


@pytest.mark.parametrize("link", ["gkp", "qt"])
def test_rate_grid_csv_bytes_match_per_cell_writer(tmp_path, link):
    # gkp: finite ancilla, blank qt_squeezing_db; qt: ideal ancilla, blank gkp_squeezing_db
    ini = FIBER_INI.replace("stop = 10", "stop = 8").replace("step = 2", "step = 0.001")
    if link == "qt":
        ini = ini.replace("link_mode = gkp", "link_mode = qt").replace(
            "ancilla = finite", "ancilla = ideal").replace("gkp_squeezing_db = 20\n", "")
    cfg = write(tmp_path, ini)
    out, ref = tmp_path / "grid.csv", tmp_path / "ref.csv"
    assert main(["rate", "--config", cfg, "--output", str(out)]) == 0
    rows = _as_rows(rate_rows(load_config(cfg)))
    assert len(rows) == 2001
    _reference_write_rows(rows, RATE_COLUMNS, str(ref), "csv", "rate")
    assert out.read_bytes() == ref.read_bytes()
    blank = "qt_squeezing_db" if link == "gkp" else "gkp_squeezing_db"
    assert {r[blank] for r in rows_of(out)} == {""}


def test_composable_frontier_at_zero_length_a_link(tmp_path, capsys):
    frontier = FIBER_DEFAULT.read_text().replace("mode = grid", "mode = frontier")
    values, notes = {}, {}
    for la in ("0.0", "0.3"):
        out = str(tmp_path / f"front{la}.csv")
        cfg = write(tmp_path, frontier.replace("la_km = 1.0", f"la_km = {la}"))
        assert main(["rate", "--config", cfg, "--output", out]) == 0, la
        values[la] = float(rows_of(out)[0]["max_secure_km"])
        notes[la] = capsys.readouterr().err
    # far past the edge the worst-case state is unphysical: not secure, and noted
    assert np.isfinite(values["0.0"]) and values["0.0"] > values["0.3"]
    assert "unphysical" in notes["0.0"] and "Traceback" not in notes["0.0"]
    assert round(values["0.3"], 4) == 25.4866 and notes["0.3"] == ""
    # a rate grid still rejects an unphysical point
    grid = frontier.replace("mode = frontier", "mode = grid").replace(
        "total_pulse = 1e8", "total_pulse = 100")
    assert main(["rate", "--config", write(tmp_path, grid)]) == 2
    assert capsys.readouterr().err.startswith("config error: worst-case state is unphysical")


@pytest.mark.parametrize("link", ["direct", "preamp", "gkp", "qt"])
def test_squeezing_echo_only_where_a_code_acts(tmp_path, link):
    ini = FIBER_INI.replace("link_mode = gkp", f"link_mode = {link}")
    for mode in ("grid", "frontier"):
        out = tmp_path / f"{mode}.csv"
        cfg = write(tmp_path, ini.replace("mode = grid", f"mode = {mode}"))
        assert main(["rate", "--config", cfg, "--output", str(out)]) == 0
        echoed = {r["gkp_squeezing_db"] for r in rows_of(out)}
        assert echoed == ({""} if link in ("direct", "preamp") else {"20.0"}), mode


@pytest.mark.parametrize("command,ini", [
    ("rate", FIBER_DEFAULT.read_text().replace("axis = lb_km", "axis = la_km")
     .replace("mode = grid", "mode = frontier")),
    ("fading", reference_fading_config(0.1).read_text()),
    ("rate", reference_fading_config(0.1).read_text()),
], ids=["la_frontier", "fading_a010", "rate_a010"])
def test_cli_frontier_run_loads_no_scipy(tmp_path, command, ini):
    # scipy is a test dependency only, and numpy.polynomial only the tests'
    # oracle for the fading rule: neither the import nor a run may load them
    out = tmp_path / "out.csv"
    argv = [command, "--config", write(tmp_path, ini), "--output", str(out)]
    script = ("import sys, gkpmdi.cli\n"
              f"assert gkpmdi.cli.main({argv!r}) == 0\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
              "             or m.split('.')[:2] == ['numpy', 'polynomial']))\n")
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    rows = rows_of(out)
    assert rows and all(np.isfinite(float(r.get("max_secure_km", 0.0))) for r in rows)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_reader_closing_the_output_early_exits_141_quietly(tmp_path, fmt):
    # as under `gkpmdi rate ... | head -1`: no traceback and no "Exception
    # ignored" line, and 128 + SIGPIPE as a shell reports it, not exit 1
    cfg = write(tmp_path, _with_sweep(FIBER_DEFAULT.read_text(), "lb_km", 0.5, 10.5, 0.001))
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.Popen([sys.executable, "-m", "gkpmdi.cli", "rate", "--config", cfg,
                             "--format", fmt], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        assert proc.stdout.readline()
        proc.stdout.close()  # megabytes of rows are still to come
        assert proc.wait(timeout=120) == 141
    finally:
        proc.kill()
        proc.wait()
    assert proc.stderr.read() == b""
    proc.stderr.close()


_SHIPPED = {"fiber": FIBER_DEFAULT, "a010": reference_fading_config(0.1),
            "a005": reference_fading_config(0.05)}


def _cell(value):
    """A JSON value as its CSV cell: null and "" blank, floats by repr."""
    return "" if value is None else repr(value) if isinstance(value, float) else str(value)


def _without_section(text, name):
    """A config's text with its ``[name]`` section left out."""
    start = text.index(f"[{name}]")
    return text[:start] + text[text.index("[", start + 1):]


@pytest.mark.parametrize("config", ["direct", "preamp", "gkp", "qt", "asymptotic", "a010",
                                    "a005"])
def test_frontier_row_echoes_the_settings_of_its_rate_rows(tmp_path, config):
    # every rate-grid, frontier and fading row, in CSV and JSON, echoes each
    # setting of _echo(cfg) as _echo gives it, and the header is
    # schema_version, the command's per-row head, then _echo's keys, whatever
    # sections the config has: a frontier row and a rate row echo the same cells
    if config in ("a010", "a005"):
        ini = _SHIPPED[config].read_text()
    elif config == "asymptotic":
        ini = _without_section(FIBER_DEFAULT.read_text(), "finite_size")
    else:
        ini = FIBER_DEFAULT.read_text().replace("link_mode = gkp", f"link_mode = {config}")
    runs = [("rate", ini, RATE_COLUMNS),
            ("rate", ini.replace("mode = grid", "mode = frontier"), FRONTIER_COLUMNS)]
    if config in ("a010", "a005"):
        runs.append(("fading", ini, FADING_COLUMNS))
    law = ["tau0", "gamma0", "r0_m", "sigma_bw2_m2"]
    for command, text, header in runs:
        cfg = write(tmp_path, text)
        echo = {c: _cell(v) for c, v in _echo(load_config(cfg)).items()}
        head = header[1:len(header) - len(echo) + 1]
        assert header == ["schema_version", *head, *list(echo)[1:]]
        assert list(echo)[0] == "schema_version" and len(header) == len(set(header))
        assert {echo[c] == "" for c in law} == {config not in ("a010", "a005")}
        assert (echo["eps_pe"] == "") == (config == "asymptotic")
        out_csv, out_json = tmp_path / "out.csv", tmp_path / "out.json"
        assert main([command, "--config", cfg, "--output", str(out_csv)]) == 0
        assert main([command, "--config", cfg, "--output", str(out_json), "--format", "json"]) == 0
        with open(out_csv, newline="") as fh:
            assert next(csv.reader(fh)) == header, (command, head)
        rows = rows_of(out_csv) + [{c: _cell(v) for c, v in record.items()}
                                   for record in json.loads(out_json.read_text())["rows"]]
        assert len(rows) > 1
        for row in rows:
            assert list(row) == header
            assert {c: row[c] for c in echo} == echo, (command, head)


@pytest.mark.parametrize("config", ["fiber", "a010", "a005"])
def test_csv_and_json_rows_agree_on_shipped_configs(tmp_path, config):
    # the two formats write the same cells from one column pass
    shipped = _SHIPPED[config].read_text()
    runs = [("rate", shipped), ("rate", shipped.replace("mode = grid", "mode = frontier"))]
    if config == "fiber":
        runs.append(("residual", shipped.replace("axis = lb_km", "axis = la_km")))
    else:
        runs.append(("fading", shipped))
    for command, ini in runs:
        cfg = write(tmp_path, ini)
        out_csv, out_json = tmp_path / "out.csv", tmp_path / "out.json"
        assert main([command, "--config", cfg, "--output", str(out_csv)]) == 0
        assert main([command, "--config", cfg, "--output", str(out_json), "--format", "json"]) == 0
        rows, doc = rows_of(out_csv), json.loads(out_json.read_text())
        assert doc["command"] == command and len(doc["rows"]) == len(rows) > 0
        for row, record in zip(rows, doc["rows"]):
            assert list(record) == list(row)
            assert row == {c: _cell(v) for c, v in record.items()}, (command, row)


def _with_sweep(text, axis, start, stop, step):
    """A config's text with its closing [sweep] section replaced by a grid."""
    return text[:text.index("[sweep]")] + (f"[sweep]\naxis = {axis}\nstart = {start}\n"
                                           f"stop = {stop}\nstep = {step}\nmode = grid\n")


_BLOCK_RUNS = {  # 23 grid rows each: blocks of 7 leave a partial last block
    "rate-lb_km": ("rate", "fiber", ("lb_km", 2, 24, 1)),
    "rate-la_km": ("rate", "fiber", ("la_km", 0.5, 11.5, 0.5)),
    "rate-total_pulse": ("rate", "fiber", ("total_pulse", 1e8, 2.3e9, 1e8)),
    "rate-a010": ("rate", "a010", ("lb_km", 5, 27, 1)),
    "fading-a010": ("fading", "a010", ("lb_km", 5, 27, 1)),
    "residual-la_km": ("residual", "fiber", ("la_km", 0.5, 11.5, 0.5)),
    "residual-layers": ("residual", "fiber", ("layers", 1, 23, 1)),
}


@pytest.mark.parametrize("run", list(_BLOCK_RUNS))
def test_block_boundaries_do_not_show_in_outputs(tmp_path, monkeypatch, run):
    # a grid is computed in blocks of at most _GRID_BLOCK rows; where they
    # split changes no byte of either format
    import gkpmdi.sweeps

    command, config, sweep = _BLOCK_RUNS[run]
    cfg = write(tmp_path, _with_sweep(_SHIPPED[config].read_text(), *sweep))
    rows_fn = {"rate": rate_rows, "fading": fading_rows, "residual": residual_rows}[command]
    n = len(list(load_config(cfg).sweep.values()))
    assert n == 23
    outputs = {"csv": set(), "json": set()}
    for size in (1, 7, 4096):
        monkeypatch.setattr(gkpmdi.sweeps, "_GRID_BLOCK", size)
        pdf_and_summary = 2 if command == "fading" else 0
        assert len(list(rows_fn(load_config(cfg)))) == pdf_and_summary + -(-n // size), size
        for fmt, seen in outputs.items():
            out = tmp_path / f"out.{fmt}"
            assert main([command, "--config", cfg, "--output", str(out), "--format", fmt]) == 0
            seen.add(out.read_bytes())
    assert {fmt: len(seen) for fmt, seen in outputs.items()} == {"csv": 1, "json": 1}


_GRID_PEAK_MIB = 8  # traced peak of a 40,001-row grid run, either format


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_grid_run_memory_does_not_grow_with_the_grid(tmp_path, fmt):
    # computed and written one block at a time, a 40,001-row rate grid peaks
    # at about 1.3 MiB (CSV) and 3.3 MiB (JSON) of traced memory; evaluated and
    # written whole, it took 11 MiB and 250 MiB
    cfg = write(tmp_path, _with_sweep(FIBER_DEFAULT.read_text(), "lb_km", 0.5, 20.5, 0.0005))
    out = tmp_path / f"grid.{fmt}"
    tracemalloc.start()
    try:
        assert main(["rate", "--config", cfg, "--output", str(out), "--format", fmt]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = out.read_bytes().count(b"\n") - 1 if fmt == "csv" else \
        out.read_bytes().count(b'"lb_km": ')
    assert rows == 40001
    assert peak < _GRID_PEAK_MIB * 2**20, f"{peak / 2**20:.1f} MiB"


def test_grid_run_peak_does_not_grow_from_10001_to_40001_rows(tmp_path):
    # each block is written before the next is computed: a CSV grid four
    # times as long peaks at the same traced memory, about 1.3 MiB (computed
    # whole before the output opened, it peaked 1.6 MiB higher)
    peaks = {}
    for rows, stop in ((10001, 5.5), (40001, 20.5)):
        cfg = write(tmp_path, _with_sweep(FIBER_DEFAULT.read_text(), "lb_km", 0.5, stop, 0.0005))
        out = tmp_path / "grid.csv"
        tracemalloc.start()
        try:
            assert main(["rate", "--config", cfg, "--output", str(out)]) == 0
            peaks[rows] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.read_bytes().count(b"\n") - 1 == rows
    assert peaks[40001] - peaks[10001] <= 0.5 * 2**20, peaks
