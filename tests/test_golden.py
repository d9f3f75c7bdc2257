"""CLI outputs pinned byte for byte against files in ``tests/golden/``.

The files were captured once from the README examples (fermion-sweep at a
smaller grid) and must not be re-recorded to absorb a change: a refactor that
moves a byte either fixes the cause or names the byte and its reason in
CHANGES.md.  The only values compared loosely are the three rounding-noise
scalars, which must stay below 1e-12 in magnitude.
"""

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import modent
from modent.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

COMMANDS = {
    "table1": ["table1", "--n", "50"],
    "bell": ["bell", "--gamma", "0.5"],
    "absorption": ["absorption"],
    "rotate": ["rotate", "--n", "16", "--alpha", "0.8", "--beta", "0.6"],
    "rotate-sweep": ["rotate-sweep", "--n-list", "4,8,16,32,64"],
    "collective-check": ["collective-check", "--n", "4"],
    # (alpha, beta) off the poles: the one-ancilla fidelity shows whether the
    # target amplitudes are renormalized before the collision
    "collective-check-amplitudes": ["collective-check", "--n", "3", "--alpha", "0.999924701839",
                                    "--beta", "0.0122715382857"],
    "fermion-sweep": ["fermion-sweep", "--pairs", "2", "--grid", "16", "--refine", "2"],
    "fermion-sweep-3pair": ["fermion-sweep", "--pairs", "3", "--grid", "8", "--refine", "1"],
    "coherent-rotation": ["coherent-rotation", "--eta", "8"],
    # a general input, (alpha, beta) = (0.6, -0.8), off the golden eta
    "coherent-rotation-amplitudes": ["coherent-rotation", "--eta", "19.8", "--alpha", "0.6",
                                     "--beta", "-0.8"],
}
PLOTS = {
    "rotate-sweep": COMMANDS["rotate-sweep"],
    "fermion-sweep": COMMANDS["fermion-sweep"],
    "fermion-sweep-1pair": ["fermion-sweep", "--pairs", "1", "--grid", "16", "--refine", "2"],
}
EXTENSIONS = {"table": "txt", "csv": "csv", "json": "json"}

_NOISE = re.compile(
    r'^(\s*"?(?:trace_distance|fidelity_gain|flying_occupation)"?(?: = |,|: ))([^,\s]+)(,?)$',
    re.MULTILINE)


def _mask_noise(text: str) -> str:
    def check(match):
        assert abs(float(match.group(2))) < 1e-12, match.group(0)
        return match.group(1) + "<noise>" + match.group(3)
    return _NOISE.sub(check, text)


@pytest.mark.parametrize("fmt", sorted(EXTENSIONS))
@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_matches_golden(name, fmt, capsys):
    assert main(COMMANDS[name] + ["--format", fmt]) == 0
    got = capsys.readouterr().out
    want = (GOLDEN_DIR / f"{name}.{EXTENSIONS[fmt]}").read_bytes().decode("utf-8")
    assert _mask_noise(got) == _mask_noise(want)


@pytest.mark.parametrize("name", sorted(PLOTS))
def test_plot_matches_golden(name, tmp_path):
    svg = tmp_path / "plot.svg"
    assert main(PLOTS[name] + ["--out", str(tmp_path / "out.txt"), "--plot", str(svg)]) == 0
    assert svg.read_bytes() == (GOLDEN_DIR / f"{name}.svg").read_bytes()


# A child process that refuses every scipy import, then runs each command and
# prints {key: [exit status, stdout]} as JSON.
_WITHOUT_SCIPY = """
import contextlib, io, json, sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, BlockScipy())
from modent.cli import main

results = {}
for key, argv in json.loads(sys.argv[1]).items():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(argv)
    results[key] = [status, out.getvalue()]
print(json.dumps(results))
"""


def test_commands_run_without_scipy(tmp_path):
    # numpy is modent's only runtime dependency.  Each run is keyed by the
    # golden file it must reproduce: a command's stdout, a chart's SVG (its
    # table goes to --out), and the config-file route to rotate.csv.
    runs = {f"{name}.{ext}": argv + ["--format", fmt]
            for name, argv in COMMANDS.items() for fmt, ext in EXTENSIONS.items()}
    runs.update({f"{name}.svg": argv + ["--out", str(tmp_path / f"{name}.out"),
                                         "--plot", str(tmp_path / f"{name}.svg")]
                 for name, argv in PLOTS.items()})
    config = tmp_path / "rotate.json"
    config.write_text(json.dumps({"experiment": "rotate",
                                  "parameters": {"n": 16, "alpha": 0.8, "beta": 0.6},
                                  "output": {"format": "csv"}}))
    runs["rotate.csv --config"] = ["--config", str(config)]
    # run from the directory holding the imported package, so the child finds
    # it also when only pytest's pythonpath setting put it on sys.path
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, json.dumps(runs)],
                          capture_output=True, text=True,
                          cwd=Path(modent.__file__).parents[1])
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    assert sorted(results) == sorted(runs)
    for key, (status, got) in results.items():
        assert status == 0, key
        if key.endswith(".svg"):
            got = (tmp_path / key).read_bytes().decode("utf-8")
        want = (GOLDEN_DIR / key.split()[0]).read_bytes().decode("utf-8")
        assert _mask_noise(got) == _mask_noise(want), key


def test_modent_imports_numpy_and_the_standard_library_alone():
    # the child above blocks scipy only; every import a module of the package
    # states is relative, numpy or a module of the standard library
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    modules = sorted(Path(modent.__file__).parent.glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, (path.name, name)


def test_every_golden_file_has_a_run():
    runs = {f"{name}.{ext}" for name in COMMANDS for ext in EXTENSIONS.values()}
    runs |= {f"{name}.svg" for name in PLOTS}
    assert sorted(p.name for p in GOLDEN_DIR.iterdir()) == sorted(runs)
