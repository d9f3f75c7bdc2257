import json
import math
import pathlib
import re
import subprocess
import sys
import warnings
from xml.etree import ElementTree

import numpy as np
import pytest

import modent
from conftest import traced_peak
from modent import cli
from modent.cli import UsageError, main, parse_config, render_config, run
from modent.plotting import heatmap, line_chart

SVG = "{http://www.w3.org/2000/svg}"


# ---------------------------------------------------------------------------
# parsing and validation
# ---------------------------------------------------------------------------

def test_parse_table1_flags():
    cfg = parse_config(["table1", "--n", "50"])
    assert cfg == {"experiment": "table1", "parameters": {"n": 50},
                   "output": {"format": "table", "path": None, "plot": None}}


def test_parse_fermion_sweep_flags():
    cfg = parse_config(["fermion-sweep", "--pairs", "2", "--grid", "64", "--refine", "3",
                        "--format", "csv", "--out", "s.csv"])
    assert cfg["experiment"] == "fermion-sweep"
    assert cfg["parameters"] == {"pairs": 2, "grid": 64, "refine": 3}
    assert cfg["output"]["format"] == "csv"
    assert cfg["output"]["path"] == "s.csv"


def test_parse_rejects_out_of_range_gamma():
    with pytest.raises(UsageError, match=r"gamma out of range \[0.0,1.0\]"):
        parse_config(["bell", "--gamma", "1.5"])


def test_parse_requires_mandatory_parameter():
    with pytest.raises(UsageError, match="requires parameter 'gamma'"):
        parse_config(["bell"])


def test_parse_rejects_unknown_flag():
    with pytest.raises(SystemExit) as exc:
        parse_config(["bell", "--gamma", "0.5", "--bogus", "1"])
    assert exc.value.code == 2


def test_a_flag_is_not_taken_for_a_value(capsys):
    # "--beta" is no number, so it is not attached to --alpha as its value
    with pytest.raises(SystemExit) as exc:
        main(["rotate", "--alpha", "--beta", "0.5"])
    assert exc.value.code == 2
    assert "--alpha: expected one argument" in capsys.readouterr().err


def test_parse_normalizes_amplitudes():
    cfg = parse_config(["rotate", "--alpha", "3", "--beta", "4"])
    a, b = cfg["parameters"]["alpha"], cfg["parameters"]["beta"]
    assert abs(a - 0.6) < 1e-12 and abs(b - 0.8) < 1e-12


def test_parse_rejects_zero_amplitudes():
    with pytest.raises(UsageError, match="cannot both be zero"):
        parse_config(["rotate", "--alpha", "0", "--beta", "0"])


def test_negative_numbers_in_scientific_notation_are_values(capsys):
    # argparse alone reads -1e-1 as an option and exits 2 ("expected one argument")
    assert main(["rotate", "--alpha=-1e-1", "--beta", "1"]) == 0
    expected = capsys.readouterr().out
    assert main(["rotate", "--alpha", "-1e-1", "--beta", "1"]) == 0
    assert capsys.readouterr().out == expected
    assert main(["coherent-rotation", "--eta", "-1e3", "--cutoff", "5"]) == 2
    assert "eta must be >= 0" in capsys.readouterr().err


def test_negative_first_entry_of_a_comma_list_reaches_the_validator(capsys):
    # argparse alone reads -4,8 as an option and exits 2 ("expected one argument")
    assert main(["rotate-sweep", "--n-list", "-4,8"]) == 2
    assert "each n_list entry must be an integer in [1,1048576], got -4" in capsys.readouterr().err
    with pytest.raises(UsageError, match=r"got -4\b"):
        parse_config(["rotate-sweep", "--n-list", "8,-4"])


def test_parse_n_list():
    cfg = parse_config(["rotate-sweep", "--n-list", "4,8,16"])
    assert cfg["parameters"]["n_list"] == [4, 8, 16]
    with pytest.raises(UsageError, match="n_list"):
        parse_config(["rotate-sweep", "--n-list", "4,zebra"])


def test_plot_only_for_series_experiments():
    with pytest.raises(UsageError, match="--plot"):
        parse_config(["bell", "--gamma", "0.5", "--plot", "x.svg"])
    with pytest.raises(UsageError, match=".svg"):
        parse_config(["rotate-sweep", "--plot", "x.png"])


def test_round_trip_through_rendered_config():
    for argv in (["table1", "--n", "5"],
                 ["bell", "--gamma", "0.25", "--format", "json"],
                 ["rotate-sweep", "--n-list", "4,8", "--alpha", "0.3", "--beta", "0.7"],
                 ["fermion-sweep", "--pairs", "1", "--grid", "16", "--refine", "2",
                  "--plot", "p.svg", "--format", "csv"],
                 ["coherent-rotation", "--eta", "2.5"]):
        cfg = parse_config(argv)
        assert parse_config(config_text=render_config(cfg)) == cfg


def test_config_file_unknown_keys_rejected():
    doc = json.dumps({"experiment": "bell", "parameters": {"gamma": 0.5}, "extra": 1})
    with pytest.raises(UsageError, match="unknown config key"):
        parse_config(config_text=doc)
    doc = json.dumps({"experiment": "bell", "parameters": {"gamma": 0.5, "zeta": 1}})
    with pytest.raises(UsageError, match="unknown parameter"):
        parse_config(config_text=doc)


def test_flags_override_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "experiment": "bell",
        "parameters": {"gamma": 0.25},
        "output": {"format": "json"},
    }))
    cfg = parse_config(["bell", "--config", str(path), "--gamma", "0.75"])
    assert cfg["parameters"]["gamma"] == 0.75
    assert cfg["output"]["format"] == "json"


@pytest.mark.parametrize("argv, doc, message", [
    pytest.param(["rotate", "--alpha", "inf"], None, "alpha must be finite, got inf",
                 id="alpha inf"),
    pytest.param(["fermion-sweep", "--pairs", "3", "--plot", "x.svg"], None,
                 "plotting supports pairs in {1, 2}", id="fermion-sweep pairs 3 plot"),
    pytest.param([], {"experiment": "rotate-sweep", "parameters": {"n_list": 5}},
                 "n_list must be a non-empty list of integers, got 5", id="n_list not a list"),
    pytest.param([], {"experiment": "teleport"}, "unknown experiment 'teleport'",
                 id="unknown experiment"),
    pytest.param([], {"experiment": "bell", "parameters": {"gamma": 0.5},
                      "output": {"format": "xml"}},
                 "format must be one of ('table', 'csv', 'json'), got 'xml'", id="bad format"),
    pytest.param([], {"experiment": "bell", "parameters": {"gamma": 0.5},
                      "output": {"format": ""}},
                 "format must be one of ('table', 'csv', 'json'), got ''", id="empty format"),
    # the coupling time pi/(4 eta) overflows below 4.4e-309, and the largest
    # phase sqrt(cutoff) pi/(4 eta) below 1.954e-308 at the automatic cutoff
    # 20, and below 4.870e-306 at the largest cutoff
    pytest.param(["coherent-rotation", "--eta", "1e-320"], None,
                 "eta must be 0 or large enough that the largest phase sqrt(20) pi/(4 eta) "
                 "is finite, got 1e-320", id="eta 1e-320"),
    pytest.param(["coherent-rotation", "--eta", "4.37e-309"], None,
                 "eta must be 0 or large enough that the largest phase sqrt(20) pi/(4 eta) "
                 "is finite, got 4.37e-309", id="eta 4.37e-309"),
    pytest.param([], "{not json", "config file is not valid JSON", id="not JSON"),
    pytest.param([], [1, 2], "config document must be a JSON object", id="not an object"),
    pytest.param([], {"experiment": "bell", "parameters": [0.5]},
                 "config 'parameters' must be an object", id="parameters not an object"),
    pytest.param([], {"experiment": "bell", "output": "csv"},
                 "config 'output' must be an object", id="output not an object"),
    pytest.param([], {"experiment": "bell", "output": {"file": "x"}},
                 "unknown output key(s): ['file']", id="unknown output key"),
    pytest.param([], {"parameters": {"gamma": 0.5}}, "no experiment given", id="no experiment"),
    # an empty path names no file; it is refused, not read as stdout
    pytest.param(["rotate", "--out", ""], None, "--out (output.path) must name a file, got ''",
                 id="empty --out"),
    pytest.param([], {"experiment": "rotate", "output": {"path": ""}},
                 "--out (output.path) must name a file, got ''", id="empty output.path"),
    pytest.param(["rotate-sweep", "--plot", ""], None, "plot path must end in .svg, got ''",
                 id="empty --plot"),
    # a config number is a JSON number, as a config integer already was
    pytest.param([], {"experiment": "bell", "parameters": {"gamma": "0.5"}},
                 "gamma must be a number, got '0.5'", id="string gamma"),
    pytest.param([], {"experiment": "rotate", "parameters": {"alpha": "-1e-1"}},
                 "alpha must be a number, got '-1e-1'", id="string alpha"),
    # integers past the float range, and past int()'s default digit limit
    pytest.param([], {"experiment": "bell", "parameters": {"gamma": 10 ** 400}},
                 "gamma out of range [0.0,1.0], got 1000", id="gamma 10**400"),
    pytest.param([], {"experiment": "coherent-rotation", "parameters": {"eta": -10 ** 400}},
                 "eta must be finite, got -1000", id="eta -10**400"),
    pytest.param([], '{"experiment": "bell", "parameters": {"gamma": 1' + "0" * 5000 + "}}",
                 "config file is not valid JSON", id="gamma of 5001 digits"),
])
def test_refusals_are_usage_errors(argv, doc, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    text = doc if doc is None or isinstance(doc, str) else json.dumps(doc)
    with pytest.raises(UsageError, match=re.escape(message)):
        parse_config(argv, config_text=text)
    if text is not None:
        (tmp_path / "cfg.json").write_text(text)
        argv = ["--config", "cfg.json"] + argv
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == (["cfg.json"] if text else [])


def test_config_experiment_conflict():
    doc = json.dumps({"experiment": "bell", "parameters": {"gamma": 0.5}})
    with pytest.raises(UsageError, match="conflicts"):
        parse_config(["table1"], config_text=doc)


def test_missing_config_file_is_usage_error():
    assert main(["bell", "--config", "/nonexistent/cfg.json"]) == 2


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------

def test_bell_table_output(capsys):
    assert main(["bell", "--gamma", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "M = 1.25" in out
    assert "violated = true" in out


def test_table1_marks_undefined_cell(capsys):
    assert main(["table1", "--n", "1"]) == 0
    out = capsys.readouterr().out
    assert "massless fermions" in out
    row = [line for line in out.splitlines() if line.startswith("massless fermions")][0]
    assert "-" in row.split("massless fermions")[1]


def test_rotate_sweep_csv_shows_inverse_scaling(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["rotate-sweep", "--n-list", "8,16,32", "--format", "csv",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n_ancillas,infidelity"
    rows = [line.split(",") for line in lines[1:]]
    errs = {float(n): float(e) for n, e in rows}
    assert abs(errs[8.0] / (2 * errs[16.0]) - 1) < 0.1
    assert abs(errs[16.0] / (2 * errs[32.0]) - 1) < 0.1


def test_json_output_schema(tmp_path):
    out = tmp_path / "res.json"
    assert main(["collective-check", "--n", "2", "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["name"] == "collective-check"
    assert doc["params"]["n"] == 2
    assert abs(doc["scalars"]["fidelity_gain"]) < 1e-10


def test_json_emission_refuses_a_type_without_a_json_form():
    # a numpy integer or a complex number was written as its text, "3" and
    # "(1+2j)": a string where a number belongs
    for value in (np.int64(3), 1 + 2j):
        with pytest.raises(TypeError, match="not JSON serializable"):
            cli._emit_json({"scalars": {"c": value}})
    assert json.loads(cli._emit_json({"scalars": {"n": 3, "x": np.float64(0.1), "b": True}})) == {
        "scalars": {"b": True, "n": 3, "x": 0.1}}


def test_svg_plots(tmp_path):
    line = tmp_path / "line.svg"
    assert main(["rotate-sweep", "--n-list", "4,8,16", "--plot", str(line)]) == 0
    text = line.read_text()
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")

    heat = tmp_path / "heat.svg"
    assert main(["fermion-sweep", "--pairs", "2", "--grid", "9", "--refine", "0",
                 "--plot", str(heat), "--format", "csv", "--out", str(tmp_path / "g.csv")]) == 0
    text = heat.read_text()
    assert text.startswith("<svg") and "rect" in text


def test_one_point_line_chart_is_valid_and_deterministic(tmp_path):
    # a single n widens the x range by 1/2 on each side, so the one marker sits mid-frame
    svgs = []
    for tag in ("a", "b"):
        path = tmp_path / f"{tag}.svg"
        assert main(["rotate-sweep", "--n-list", "4", "--format", "csv",
                     "--out", str(tmp_path / f"{tag}.csv"), "--plot", str(path)]) == 0
        svgs.append(path.read_bytes())
    assert svgs[0] == svgs[1]
    root = ElementTree.fromstring(svgs[0])
    assert root.tag == SVG + "svg"
    (marker,) = root.iter(SVG + "circle")
    assert (marker.get("cx"), marker.get("cy")) == ("340", "212.5")
    coords = [float(v) for el in root.iter() for k, v in el.attrib.items()
              if k in ("x", "y", "x1", "y1", "x2", "y2", "cx", "cy")]
    assert coords and all(map(math.isfinite, coords))


def test_heatmap_of_constant_values():
    # an empty value range is widened to one unit, so every cell takes the low colour
    rows = [(x, y, 0.25) for x in (0.0, 1.0) for y in (0.0, 1.0)]
    text = heatmap(rows, "theta_1", "theta_2", "flat")
    assert heatmap(rows, "theta_1", "theta_2", "flat") == text
    root = ElementTree.fromstring(text)
    cells = [r for r in root.iter(SVG + "rect") if r.get("fill") not in ("white", "none")]
    assert [c.get("fill") for c in cells] == ["#0000ff"] * 4
    assert "0.25 .. 1.25" in text


def test_heatmap_leaves_a_missing_cell_blank():
    rows = [(x, y, x + y) for x in (0.0, 1.0) for y in (0.0, 1.0) if (x, y) != (1.0, 0.0)]
    root = ElementTree.fromstring(heatmap(rows, "theta_1", "theta_2", "gap"))
    cells = [r for r in root.iter(SVG + "rect") if r.get("fill") not in ("white", "none")]
    # the cells run by x, then y: (0, 0), (0, 1) and (1, 1)
    assert [c.get("fill") for c in cells] == ["#0000ff", "#805080", "#ff0000"]


@pytest.mark.parametrize("chart", [line_chart, heatmap])
def test_charts_refuse_no_data(chart):
    with pytest.raises(ValueError, match="at least one"):
        chart([], "x", "y", "empty")


def test_out_and_plot_naming_one_file_is_refused(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv in (["--out", "x.svg", "--plot", "x.svg"],
                 ["--out", "./x.svg", "--plot", str(tmp_path / "x.svg")]):
        with pytest.raises(UsageError, match="same file"):
            parse_config(["rotate-sweep", "--format", "csv"] + argv)
    doc = json.dumps({"experiment": "rotate-sweep",
                      "output": {"format": "csv", "path": "x.svg", "plot": "sub/../x.svg"}})
    with pytest.raises(UsageError, match="same file"):
        parse_config(config_text=doc)
    assert main(["rotate-sweep", "--format", "csv", "--out", "x.svg", "--plot", "x.svg"]) == 2
    assert "same file" in capsys.readouterr().err
    assert not (tmp_path / "x.svg").exists()


def test_failed_open_leaves_existing_file_intact(tmp_path, monkeypatch, capsys):
    # e.g. a read-only file in a writable directory
    out = tmp_path / "res.txt"
    out.write_text("earlier result\n")

    def refuse(*args, **kwargs):
        raise PermissionError(13, "Permission denied", str(out))
    monkeypatch.setattr("modent.cli.open", refuse, raising=False)
    assert main(["bell", "--gamma", "0.5", "--out", str(out)]) == 1
    assert "PermissionError" in capsys.readouterr().err
    assert out.read_text() == "earlier result\n"


def test_failed_write_removes_partial_file(tmp_path, monkeypatch, capsys):
    out = tmp_path / "res.txt"
    real_open = open

    class WritesHalf:
        def __init__(self, *args, **kwargs):
            self.fh = real_open(*args, **kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[:len(text) // 2])
            self.fh.flush()
            assert out.stat().st_size > 0
            raise OSError(28, "No space left on device")
    monkeypatch.setattr("modent.cli.open", WritesHalf, raising=False)
    assert main(["bell", "--gamma", "0.5", "--out", str(out)]) == 1
    assert "No space left on device" in capsys.readouterr().err
    assert not out.exists()


def test_absorption_and_coherent_rotation_run(capsys):
    assert main(["absorption"]) == 0
    assert main(["coherent-rotation", "--eta", "3", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert "key,value" in out


def test_coherent_rotation_large_eta_keeps_inverse_square_scaling(capsys):
    # |eta|^2 = 900 overflowed the coherent amplitudes when built as a running product
    scaled = {}
    for eta in (20, 30):
        assert main(["coherent-rotation", "--eta", str(eta), "--format", "json"]) == 0
        scaled[eta] = json.loads(capsys.readouterr().out)["scalars"]["infidelity"] * eta ** 2
    assert abs(scaled[30] / scaled[20] - 1) < 0.05


@pytest.mark.parametrize("argv", [
    pytest.param(["--eta", "4", "--cutoff", "2"], id="eta 4 cutoff 2"),
    # |eta|^2 overflows the float range: refused by name, not by OverflowError
    pytest.param(["--eta", "1e200", "--cutoff", "5"], id="eta 1e200 cutoff 5"),
])
def test_computation_failure_exit_code(argv, capsys):
    # valid flags, but the cutoff truncates too much of the coherent state
    assert main(["coherent-rotation"] + argv) == 1
    assert "truncation weight" in capsys.readouterr().err


@pytest.mark.parametrize("eta", ["1e-310", "1e-320"])
def test_non_finite_result_is_a_computation_failure(eta, capsys):
    # pi / (4 eta) overflows to inf; this printed fidelity 0 and exited 0 when
    # NaN slipped through the checks, then named the NaN norm it led to.  The
    # library refuses such an eta by name, before any RuntimeWarning; the CLI
    # refuses it before it runs anything
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=f"eta {float(eta)!r} is too small"):
            modent.coherent_field_rotation(1.0, 0.0, float(eta))
    assert main(["coherent-rotation", "--eta", eta, "--format", "csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("eta must be 0 or large enough that the largest phase sqrt(20) pi/(4 eta) is finite"
            in captured.err)


def test_coherent_rotation_runs_at_the_smallest_eta(capsys):
    # the largest phase, sqrt(cutoff) pi/(4 eta), stays finite at the floor,
    # at the automatic cutoff 20 and at the largest one, and overflows one
    # float below it, where the CLI refuses the eta as the library does
    for cutoff, floor in ((None, 1.9538414523618775e-308),
                          (cli.MAX_COHERENT_CUTOFF, 4.870427478486644e-306)):
        flags = [] if cutoff is None else ["--cutoff", str(cutoff)]
        assert main(["coherent-rotation", "--eta", repr(floor), "--format", "csv"] + flags) == 0
        assert "fidelity," in capsys.readouterr().out
        below = math.nextafter(floor, 0.0)
        with pytest.raises(ValueError, match="is too small"):
            modent.coherent_field_rotation(1.0, 0.0, below, cutoff)
        assert main(["coherent-rotation", "--eta", repr(below)] + flags) == 2
        assert f"sqrt({cutoff or 20}) pi/(4 eta) is finite" in capsys.readouterr().err


def test_coherent_rotation_eta_100_keeps_inverse_square_scaling(capsys):
    # eta = 100 (cutoff 10820) was refused by the dense-size guard
    scaled = {}
    for eta in (20, 100):
        assert main(["coherent-rotation", "--eta", str(eta), "--format", "json"]) == 0
        scaled[eta] = json.loads(capsys.readouterr().out)["scalars"]["infidelity"] * eta ** 2
    assert abs(scaled[100] / scaled[20] - 1) < 0.05


def test_run_config_from_file_only(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "experiment": "bell",
        "parameters": {"gamma": 0.5},
        "output": {"format": "table", "path": None, "plot": None},
    }))
    assert main(["--config", str(path)]) == 0
    assert "M = 1.25" in capsys.readouterr().out


def test_determinism_byte_identical_outputs(tmp_path):
    paths = []
    for tag in ("a", "b"):
        csv = tmp_path / f"{tag}.csv"
        js = tmp_path / f"{tag}.json"
        assert main(["rotate-sweep", "--n-list", "4,8,16,32", "--format", "csv",
                     "--out", str(csv)]) == 0
        assert main(["fermion-sweep", "--pairs", "1", "--grid", "16", "--refine", "2",
                     "--format", "json", "--out", str(js)]) == 0
        paths.append((csv.read_bytes(), js.read_bytes()))
    assert paths[0] == paths[1]


def test_console_entry_point_runs():
    # run from the directory holding the imported package, so the child finds
    # it also when only pytest's pythonpath setting put it on sys.path
    proc = subprocess.run([sys.executable, "-m", "modent.cli", "bell", "--gamma", "0.5"],
                          capture_output=True, text=True,
                          cwd=pathlib.Path(modent.__file__).parents[1])
    assert proc.returncode == 0
    assert "M = 1.25" in proc.stdout


def test_run_rejects_unvalidated_config(tmp_path):
    # a plot path for an experiment without a chart is refused before anything is written
    out, plot = tmp_path / "out.txt", tmp_path / "bell.svg"
    cfg = {"experiment": "bell", "parameters": {"gamma": 0.5},
           "output": {"format": "table", "path": str(out), "plot": str(plot)}}
    with pytest.raises(UsageError, match="'bell' produces no plot"):
        run(cfg)
    assert not out.exists() and not plot.exists()
    cfg["output"]["plot"] = None
    assert run(cfg) == 0
    assert "M = 1.25" in out.read_text()


# ---------------------------------------------------------------------------
# config-file and amplitude regressions
# ---------------------------------------------------------------------------

def test_top_level_config_survives_subcommand(tmp_path, capsys):
    # the subcommand's own --config default used to overwrite the top-level one
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": "bell", "parameters": {"gamma": 0.5}}))
    assert parse_config(["--config", str(path), "bell"])["parameters"] == {"gamma": 0.5}
    assert main(["--config", str(path), "bell"]) == 0
    assert "M = 1.25" in capsys.readouterr().out


@pytest.mark.parametrize("doc", [
    {"experiment": ["bell"], "parameters": {"gamma": 0.5}},
    {"experiment": "bell", "parameters": {"gamma": 0.5}, "output": {"path": 7}},
    {"experiment": "rotate-sweep", "output": {"plot": 7}},
])
def test_config_rejects_non_string_names(doc, tmp_path, capsys):
    with pytest.raises(UsageError, match="must be a string or null"):
        parse_config(config_text=json.dumps(doc))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["--config", str(path)]) == 2
    assert "must be a string or null" in capsys.readouterr().err


@pytest.mark.parametrize("experiment, key, value", [
    ("bell", "gamma", True),
    ("rotate", "alpha", False),
])
def test_config_rejects_boolean_numbers(experiment, key, value, tmp_path, capsys):
    # float() reads true/false as 1.0/0.0; a JSON boolean is not a number here
    doc = json.dumps({"experiment": experiment, "parameters": {key: value}})
    message = f"{key} must be a number, got {value!r}"
    with pytest.raises(UsageError, match=message):
        parse_config(config_text=doc)
    path = tmp_path / "cfg.json"
    path.write_text(doc)
    assert main(["--config", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_config_null_output_paths_still_allowed():
    doc = json.dumps({"experiment": None, "output": {"path": None, "plot": None}})
    assert parse_config(["bell", "--gamma", "0.5"], config_text=doc)["output"]["path"] is None


def test_normalization_survives_overflow_and_underflow():
    p = parse_config(["rotate", "--alpha", "1e308", "--beta", "1e308"])["parameters"]
    assert p["alpha"] == p["beta"] and abs(p["alpha"] - math.sqrt(0.5)) < 1e-15
    p = parse_config(["rotate", "--alpha", "1e-200", "--beta", "0"])["parameters"]
    assert (p["alpha"], p["beta"]) == (1.0, 0.0)


@pytest.mark.parametrize("tiny", ["5e-324", "1e-320"])
def test_normalization_of_subnormal_amplitudes(tiny):
    # hypot of two subnormals rounds to a few bits, so a/hypot(a, b) missed 1/sqrt(2)
    p = parse_config(["rotate", "--alpha", tiny, "--beta", tiny])["parameters"]
    assert p["alpha"] == p["beta"] and abs(p["alpha"] - math.sqrt(0.5)) < 1e-15
    assert main(["rotate", "--n", "2", "--alpha", tiny, "--beta", tiny]) == 0


# ---------------------------------------------------------------------------
# size guards (parse_config only: a missing guard must not run the experiment)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv, message", [
    (["collective-check", "--n", "17"], r"n must be an integer in \[1,16\], got 17"),
    (["coherent-rotation", "--eta", "1110.8"], r"eta must be in \[0,1110\.787\]"),
    (["coherent-rotation", "--eta", "1e300"], r"eta must be in \[0,1110\.787\]"),
    (["coherent-rotation", "--eta", "3000"], r"eta must be in \[0,1110\.787\]"),
    (["coherent-rotation", "--eta", "4", "--cutoff", "1242756"],
     r"cutoff must be an integer in \[1,1242755\], got 1242756"),
    (["fermion-sweep", "--pairs", "2", "--grid", "464"], r"grid\*\*pairs must be <= 214748 rows"),
    (["fermion-sweep", "--pairs", "1000000000"], r"grid\*\*pairs must be <= 214748 rows"),
    (["rotate", "--n", "1048577"], r"n must be an integer in \[1,1048576\], got 1048577"),
    (["rotate-sweep", "--n-list", "4,1048577"],
     r"each n_list entry must be an integer in \[1,1048576\], got 1048577"),
    (["table1", "--n", "1048577"], r"n must be an integer in \[1,1048576\], got 1048577"),
    (["fermion-sweep", "--pairs", "4", "--grid", "22"], r"grid\*\*pairs must be <= 214748 rows"),
    (["fermion-sweep", "--pairs", "6", "--grid", "8"], r"grid\*\*pairs must be <= 214748 rows"),
    (["fermion-sweep", "--pairs", "4", "--grid", "32"], r"grid\*\*pairs must be <= 214748 rows"),
    (["fermion-sweep", "--pairs", "2", "--grid", "1024"], r"grid\*\*pairs must be <= 214748 rows"),
])
def test_size_guards_refuse_before_running(argv, message):
    with pytest.raises(UsageError, match=message):
        parse_config(argv)


@pytest.mark.parametrize("argv", [
    ["collective-check", "--n", "16"],
    ["coherent-rotation", "--eta", "1110"],
    ["coherent-rotation", "--eta", "100", "--cutoff", "1242755"],
    ["fermion-sweep", "--pairs", "2", "--grid", "463"],
    ["fermion-sweep", "--pairs", "4", "--grid", "21"],
    ["coherent-rotation", "--eta", "100"],
    ["coherent-rotation", "--eta", "41.3"],
    ["rotate", "--n", "1048576"],
    ["rotate-sweep", "--n-list", "4,1048576"],
    ["table1", "--n", "1048576"],
    ["fermion-sweep", "--pairs", "1", "--grid", "214748"],
    ["fermion-sweep", "--pairs", "5", "--grid", "11"],
])
def test_size_guards_accept_the_budget_edge(argv):
    parse_config(argv)


def test_printed_eta_bound_is_accepted():
    # the bound is printed rounded down, so feeding it back is within budget
    with pytest.raises(UsageError) as refused:
        parse_config(["coherent-rotation", "--eta", "3000"])
    bound = re.search(r"eta must be in \[0,([^\]]+)\]", str(refused.value)).group(1)
    assert parse_config(["coherent-rotation", "--eta", bound])["parameters"]["eta"] == float(bound)


def test_memory_budget_rates_hold_the_traced_peak(tmp_path):
    # each rate times the size is the run's estimate: never below its traced
    # peak, nor above it by more than a quarter, so the derived bounds are
    # the largest sizes whose runs stay within the budget
    runs = [(cli.BYTES_PER_COLLECTIVE_STATE * 2 ** (n + 1), modent.simultaneous_coupling_check,
             (n, 0.6, 0.8)) for n in range(9, 14)]
    runs += [(cli.BYTES_PER_COHERENT_LEVEL * (cutoff + 1), modent.coherent_field_rotation,
              (0.6, 0.8, 20.0, cutoff)) for cutoff in (580, 4000, 2 ** 17)]
    for estimate, f, args in runs:
        peak = traced_peak(f, *args)
        assert peak <= estimate <= 1.25 * peak, (f.__name__, args, peak, estimate)
    # fermion-sweep: one rate per row for every format and width, the rows
    # as printed to a file.  It covers the widest row, JSON at 4 pairs, within
    # a quarter, and holds the narrower rows and the other formats
    out = str(tmp_path / "sweep.out")
    per_row = []
    for pairs, grid, fmt in ((1, 2 ** 14, "table"), (1, 2 ** 14, "csv"), (1, 2 ** 14, "json"),
                             (2, 2 ** 7, "json"), (4, 11, "json")):
        argv = ["fermion-sweep", "--pairs", str(pairs), "--grid", str(grid), "--refine", "0",
                "--format", fmt, "--out", out]
        per_row.append(traced_peak(main, argv) / grid ** pairs)
    assert max(per_row) <= cli.BYTES_PER_SWEEP_ROW <= 1.25 * max(per_row), per_row
    assert per_row[-1] == max(per_row)
    rate, n = cli.BYTES_PER_COLLECTIVE_STATE, cli.MAX_COLLECTIVE_N
    assert rate * 2 ** (n + 1) <= cli.MEMORY_BUDGET < rate * 2 ** (n + 2)
    rate, cutoff = cli.BYTES_PER_COHERENT_LEVEL, cli.MAX_COHERENT_CUTOFF
    assert rate * (cutoff + 1) <= cli.MEMORY_BUDGET < rate * (cutoff + 2)
    rate, rows = cli.BYTES_PER_SWEEP_ROW, cli.MAX_SWEEP_ROWS
    assert rate * rows <= cli.MEMORY_BUDGET < rate * (rows + 1)
    assert (n, cutoff, rows) == (16, 1242755, 214748)


def test_runs_at_the_derived_edges(capsys):
    # collective-check at n = 16 (d = 131072, about 135 MiB traced), and
    # coherent-rotation at the printed eta bound, whose automatic cutoff is
    # the largest: eta^2 infidelity at (1, 0) tends to a constant, 0.0203630
    assert main(["collective-check", "--n", "16", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["scalars"]["trace_distance"] <= 1e-10
    with pytest.raises(UsageError) as refused:
        parse_config(["coherent-rotation", "--eta", "3000"])
    bound = re.search(r"eta must be in \[0,([^\]]+)\]", str(refused.value)).group(1)
    assert main(["coherent-rotation", "--eta", bound, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["params"]["cutoff"] == cli.MAX_COHERENT_CUTOFF
    assert abs(float(bound) ** 2 * doc["scalars"]["infidelity"] - 0.0203630) < 1e-6


def test_size_guard_exit_code(monkeypatch, capsys):
    def must_not_run(*args, **kwargs):
        raise AssertionError("the guard let the experiment run")
    monkeypatch.setattr("modent.cli.simultaneous_coupling_check", must_not_run)
    monkeypatch.setattr("modent.cli.coherent_field_rotation", must_not_run)
    for argv, message in ((["collective-check", "--n", "30"], "n must be an integer in [1,16]"),
                          (["collective-check", "--n", "17"], "n must be an integer in [1,16]"),
                          (["coherent-rotation", "--eta", "1110.8"], "eta must be in [0,1110.787]"),
                          (["coherent-rotation", "--eta", "1e-308"], "sqrt(20) pi/(4 eta)")):
        assert main(argv) == 2
        assert message in capsys.readouterr().err
