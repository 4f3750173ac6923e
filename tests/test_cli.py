import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gkpmdi.cli import RATE_COLUMNS, main, write_rows
from gkpmdi.config import ConfigError, load_config, reference_fading_config
from gkpmdi.sweeps import rate_rows

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
    assert rows[0]["schema_version"] == "1"
    assert float(rows[0]["la_km"]) == 1.0
    for row in rows:
        assert float(row["sigma_r2"]) < float(row["sigma_be2"])
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


def test_rate_json_validates_against_schema(tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    cfg = write(tmp_path, FIBER_INI)
    out = str(tmp_path / "rate.json")
    assert main(["rate", "--config", cfg, "--output", out, "--format", "json"]) == 0
    doc = json.loads(Path(out).read_text())
    schema = json.loads((Path(__file__).parent.parent / "src" / "gkpmdi" / "schemas"
                         / "output.schema.json").read_text())
    jsonschema.validate(doc, schema)
    assert doc["command"] == "rate"
    assert len(doc["rows"]) == 3


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


def test_rate_grid_rejects_layers_axis(tmp_path, capsys):
    ini = FIBER_INI.replace("axis = lb_km", "axis = layers").replace(
        "start = 6", "start = 1").replace("stop = 10", "stop = 3").replace("step = 2", "step = 1")
    cfg = write(tmp_path, ini)
    assert main(["rate", "--config", cfg]) == 2
    assert "rate sweeps support axes lb_km, la_km and total_pulse" in capsys.readouterr().err


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
    ]
    for ini, message in rejected:
        assert main(["residual", "--config", write(tmp_path, ini)]) == 2, message
        assert message in capsys.readouterr().err


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


def test_empty_sweep_header_only(tmp_path):
    ini = FIBER_INI.replace("start = 6", "start = 12").replace("stop = 10", "stop = 11")
    cfg = write(tmp_path, ini)
    out = str(tmp_path / "empty.csv")
    assert main(["rate", "--config", cfg, "--output", out]) == 0
    lines = Path(out).read_text().strip().splitlines()
    assert len(lines) == 1  # header only


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


def test_fading_requires_fading_section(tmp_path):
    cfg = write(tmp_path, FIBER_INI)
    assert main(["fading", "--config", cfg]) == 2


def test_validate_zero_budget(tmp_path, capsys):
    assert main(["validate", "--samples", "0"]) == 0
    assert capsys.readouterr().out == ""


def test_validate_small_budget_passes_and_is_deterministic(tmp_path):
    out1, out2 = str(tmp_path / "v1.txt"), str(tmp_path / "v2.txt")
    assert main(["validate", "--samples", "40000", "--seed", "3",
                 "--output", out1]) == 0
    assert main(["validate", "--samples", "40000", "--seed", "3",
                 "--output", out2]) == 0
    assert Path(out1).read_bytes() == Path(out2).read_bytes()
    text = Path(out1).read_text()
    assert "PASS" in text and "FAIL" not in text


def test_output_section_and_flag_override(tmp_path):
    dest = tmp_path / "from_config.csv"
    ini = FIBER_INI + f"\n[output]\npath = {dest}\nformat = csv\n"
    cfg = write(tmp_path, ini, "out.ini")
    assert main(["rate", "--config", cfg]) == 0
    assert dest.exists()
    override = tmp_path / "override.json"
    assert main(["rate", "--config", cfg, "--output", str(override),
                 "--format", "json"]) == 0
    assert json.loads(override.read_text())["command"] == "rate"


def test_negative_seed_rejected():
    assert main(["validate", "--samples", "0", "--seed", "-1"]) == 2


def test_total_pulse_sweep_keeps_pe_fraction(tmp_path):
    ini = """
[protocol]
la_km = 3.0
lb_km = 5.0
link_mode = gkp

[code]
gkp_squeezing_db = 20

[finite_size]
total_pulse = 1e8
pe_fraction = 0.1

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
        assert cfg.scenario == "free_space"
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
        "schema_version": "1",
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
            "ancilla = finite", "ancilla = ideal")
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
    fiber = Path(__file__).parent.parent / "src" / "gkpmdi" / "configs" / "fiber_default.ini"
    frontier = fiber.read_text().replace("mode = grid", "mode = frontier")
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


def test_cli_frontier_run_loads_no_scipy(tmp_path):
    # scipy is a test dependency only: neither the import nor a run may load it
    fiber = Path(__file__).parent.parent / "src" / "gkpmdi" / "configs" / "fiber_default.ini"
    cfg = write(tmp_path, fiber.read_text().replace("axis = lb_km", "axis = la_km")
                .replace("mode = grid", "mode = frontier"))
    out = tmp_path / "front.csv"
    argv = ["rate", "--config", cfg, "--output", str(out)]
    script = ("import sys, gkpmdi.cli\n"
              f"assert gkpmdi.cli.main({argv!r}) == 0\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    assert np.isfinite(float(rows_of(out)[0]["max_secure_km"]))
