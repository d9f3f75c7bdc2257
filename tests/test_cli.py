import json
import math
import pathlib
import subprocess
import sys
import warnings

import pytest

import modent
from modent.cli import RunConfig, UsageError, main, parse_config, render_config, run


# ---------------------------------------------------------------------------
# parsing and validation
# ---------------------------------------------------------------------------

def test_parse_table1_flags():
    cfg = parse_config(["table1", "--n", "50"])
    assert cfg == RunConfig("table1", {"n": 50}, "table", None, None)


def test_parse_fermion_sweep_flags():
    cfg = parse_config(["fermion-sweep", "--pairs", "2", "--grid", "64", "--refine", "3",
                        "--format", "csv", "--out", "s.csv"])
    assert cfg.experiment == "fermion-sweep"
    assert cfg.parameters == {"pairs": 2, "grid": 64, "refine": 3}
    assert cfg.format == "csv"
    assert cfg.out == "s.csv"


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


def test_parse_normalizes_amplitudes():
    cfg = parse_config(["rotate", "--alpha", "3", "--beta", "4"])
    a, b = cfg.parameters["alpha"], cfg.parameters["beta"]
    assert abs(a - 0.6) < 1e-12 and abs(b - 0.8) < 1e-12


def test_parse_rejects_zero_amplitudes():
    with pytest.raises(UsageError, match="cannot both be zero"):
        parse_config(["rotate", "--alpha", "0", "--beta", "0"])


def test_parse_n_list():
    cfg = parse_config(["rotate-sweep", "--n-list", "4,8,16"])
    assert cfg.parameters["n_list"] == [4, 8, 16]
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
    assert cfg.parameters["gamma"] == 0.75
    assert cfg.format == "json"


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


def test_computation_failure_exit_code(capsys):
    # valid flags, but the cutoff truncates too much of the coherent state
    assert main(["coherent-rotation", "--eta", "4", "--cutoff", "2"]) == 1
    assert "truncation weight" in capsys.readouterr().err


@pytest.mark.parametrize("eta", ["1e-310", "1e-320"])
def test_non_finite_result_is_a_computation_failure(eta, capsys):
    # pi / (4 eta) overflows to inf; this printed fidelity 0 and exited 0 when
    # NaN slipped through the checks, then named the NaN norm it led to
    with warnings.catch_warnings():
        warnings.simplefilter("always", RuntimeWarning)
        assert main(["coherent-rotation", "--eta", eta, "--format", "csv"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "evolution time inf is not finite" in captured.err
    assert "RuntimeWarning" not in captured.err


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


def test_run_rejects_unvalidated_config():
    cfg = RunConfig("bell", {"gamma": 0.5}, "table", None, None)
    assert run(cfg) == 0


# ---------------------------------------------------------------------------
# config-file and amplitude regressions
# ---------------------------------------------------------------------------

def test_top_level_config_survives_subcommand(tmp_path, capsys):
    # the subcommand's own --config default used to overwrite the top-level one
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": "bell", "parameters": {"gamma": 0.5}}))
    assert parse_config(["--config", str(path), "bell"]).parameters == {"gamma": 0.5}
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


def test_config_null_output_paths_still_allowed():
    doc = json.dumps({"experiment": None, "output": {"path": None, "plot": None}})
    assert parse_config(["bell", "--gamma", "0.5"], config_text=doc).out is None


def test_normalization_survives_overflow_and_underflow():
    p = parse_config(["rotate", "--alpha", "1e308", "--beta", "1e308"]).parameters
    assert p["alpha"] == p["beta"] and abs(p["alpha"] - math.sqrt(0.5)) < 1e-15
    p = parse_config(["rotate", "--alpha", "1e-200", "--beta", "0"]).parameters
    assert (p["alpha"], p["beta"]) == (1.0, 0.0)


@pytest.mark.parametrize("tiny", ["5e-324", "1e-320"])
def test_normalization_of_subnormal_amplitudes(tiny):
    # hypot of two subnormals rounds to a few bits, so a/hypot(a, b) missed 1/sqrt(2)
    p = parse_config(["rotate", "--alpha", tiny, "--beta", tiny]).parameters
    assert p["alpha"] == p["beta"] and abs(p["alpha"] - math.sqrt(0.5)) < 1e-15
    assert main(["rotate", "--n", "2", "--alpha", tiny, "--beta", tiny]) == 0


# ---------------------------------------------------------------------------
# size guards (parse_config only: a missing guard must not run the experiment)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv, message", [
    (["collective-check", "--n", "12"], r"n must be an integer in \[1,11\], got 12"),
    (["coherent-rotation", "--eta", "358.1"], r"eta must be in \[0,358\.032\]"),
    (["coherent-rotation", "--eta", "1e300"], r"eta must be in \[0,358\.032\]"),
    (["coherent-rotation", "--eta", "1000"], r"eta must be in \[0,358\.032\]"),
    (["coherent-rotation", "--eta", "4", "--cutoff", "131072"],
     r"cutoff must be an integer in \[1,131071\], got 131072"),
    (["fermion-sweep", "--pairs", "4", "--grid", "33"], r"grid\*\*pairs must be <= 1048576"),
    (["fermion-sweep", "--pairs", "1000000000"], r"grid\*\*pairs must be <= 1048576"),
])
def test_size_guards_refuse_before_running(argv, message):
    with pytest.raises(UsageError, match=message):
        parse_config(argv)


@pytest.mark.parametrize("argv", [
    ["collective-check", "--n", "11"],
    ["coherent-rotation", "--eta", "358"],
    ["coherent-rotation", "--eta", "100", "--cutoff", "131071"],
    ["fermion-sweep", "--pairs", "4", "--grid", "32"],
    ["fermion-sweep", "--pairs", "2", "--grid", "1024"],
    ["coherent-rotation", "--eta", "100"],
    ["coherent-rotation", "--eta", "41.3"],
])
def test_size_guards_accept_the_budget_edge(argv):
    parse_config(argv)


def test_size_guard_exit_code(monkeypatch, capsys):
    def must_not_run(*args, **kwargs):
        raise AssertionError("the guard let the experiment run")
    monkeypatch.setattr("modent.cli.simultaneous_coupling_check", must_not_run)
    assert main(["collective-check", "--n", "30"]) == 2
    assert "n must be an integer in [1,11]" in capsys.readouterr().err
