"""The experiment registry is the one source of the CLI; the README must match it."""

import re
import shlex
from pathlib import Path

import pytest

from modent.cli import EXPERIMENTS, parse_config

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def _readme_parameter_table() -> dict:
    """experiment -> [(parameter, default text)] from the README's table."""
    table = {}
    for line in README.splitlines():
        m = re.match(r"\|\s*`([\w-]+)`\s*\|(.*)\|\s*$", line)
        if m:
            table[m.group(1)] = re.findall(r"`(\w+)` \(([^)]*)\)", m.group(2))
    return table


def _default_text(param) -> str:
    if param.required:
        return "required"
    if param.default is None:
        return "auto"
    if isinstance(param.default, list):
        return "[" + ",".join(str(v) for v in param.default) + "]"
    return str(param.default)


def test_readme_parameter_table_matches_registry():
    expected = {name: [(p.name, _default_text(p)) for p in entry.params]
                for name, entry in EXPERIMENTS.items()}
    assert _readme_parameter_table() == expected


def _readme_commands():
    for line in README.splitlines():
        if line.startswith("modent "):
            yield shlex.split(line.split("#", 1)[0])[1:]


@pytest.mark.parametrize("argv", list(_readme_commands()), ids=" ".join)
def test_readme_command_parses(argv):
    assert parse_config(argv)["experiment"] == argv[0]


def test_readme_lists_commands():
    assert {argv[0] for argv in _readme_commands()} == set(EXPERIMENTS)


def test_parser_built_once_does_not_leak_values():
    parse_config(["rotate", "--alpha", "0.3"])
    assert parse_config(["rotate"])["parameters"]["alpha"] == 1.0
    first = parse_config(["rotate", "--n", "5", "--alpha", "0.3", "--beta", "0.4"])
    assert first["parameters"]["n"] == 5 and abs(first["parameters"]["alpha"] - 0.6) < 1e-15
    assert parse_config(["rotate"])["parameters"] == {"n": 1, "alpha": 1.0, "beta": 0.0}
    parse_config(["rotate-sweep"])["parameters"]["n_list"].append(128)
    assert parse_config(["rotate-sweep"])["parameters"]["n_list"] == [4, 8, 16, 32, 64]


def test_readme_library_example_prints_its_comments(capsys):
    """Run the README's Python example; each printed value must match the
    number in its comment, to the comment's last digit when marked "~"."""
    (code,) = re.findall(r"```python\n(.*?)```", README, flags=re.S)
    expected = re.findall(r"print\(.*#\s*(~?)([0-9.]+)", code)
    exec(code, {})
    printed = [float(line) for line in capsys.readouterr().out.split()]
    assert len(printed) == len(expected) == 2
    for value, (approx, text) in zip(printed, expected):
        tol = 0.5 * 10.0 ** -len(text.partition(".")[2]) if approx else 1e-12
        assert abs(value - float(text)) <= tol, (value, text)
