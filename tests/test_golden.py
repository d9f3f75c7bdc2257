"""CLI outputs pinned byte for byte against files in ``tests/golden/``.

The files were captured once from the README examples (fermion-sweep at a
smaller grid) and must not be re-recorded to absorb a change: a refactor that
moves a byte either fixes the cause or names the byte and its reason in
CHANGES.md.  The only values compared loosely are the three rounding-noise
scalars, which must stay below 1e-12 in magnitude.
"""

import re
from pathlib import Path

import pytest

from modent.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

COMMANDS = {
    "table1": ["table1", "--n", "50"],
    "bell": ["bell", "--gamma", "0.5"],
    "absorption": ["absorption"],
    "rotate": ["rotate", "--n", "16", "--alpha", "0.8", "--beta", "0.6"],
    "rotate-sweep": ["rotate-sweep", "--n-list", "4,8,16,32,64"],
    "collective-check": ["collective-check", "--n", "4"],
    "fermion-sweep": ["fermion-sweep", "--pairs", "2", "--grid", "16", "--refine", "2"],
    "fermion-sweep-3pair": ["fermion-sweep", "--pairs", "3", "--grid", "8", "--refine", "1"],
    "coherent-rotation": ["coherent-rotation", "--eta", "8"],
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
