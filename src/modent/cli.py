"""Command-line front end: run experiments, emit tables, CSV, JSON, and SVG plots.

Each experiment is declared once, as an entry of ``EXPERIMENTS``: its help
line, its parameters (flag type, validator with bounds, default or
required), a run function that fills the output payload, an optional
cross-parameter check, and an optional plot function.  The argparse
subcommands, config validation, execution and plotting are derived from
those entries.

A run is one config document, the README's JSON schema
``{"experiment", "parameters", "output": {"format", "path", "plot"}}``:
``parse_config`` overlays the flags on the config file's document and
returns it validated, with every default filled in; ``run`` executes it, and
``render_config`` dumps it.

Numeric output is formatted to 12 significant digits and runs are
deterministic: identical configs produce byte-identical CSV/JSON.
Exit codes: 0 success, 2 usage/validation error (including sizes beyond the
memory guards ``MAX_COLLECTIVE_N``, ``MAX_COHERENT_CUTOFF`` and
``MAX_SWEEP_ROWS``, derived from the one ``MEMORY_BUDGET``, and ancilla
counts beyond the accuracy bound ``protocols.MAX_ANCILLAS``), 1 computation
failure.
"""

from __future__ import annotations

import argparse
import copy
import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable

from .entanglement import chsh_violated, concurrence, horodecki_m, target_pair_density
from .hilbert import NORM_TOL, default_coherent_cutoff
from .plotting import heatmap, line_chart
from .protocols import (
    MAX_ANCILLAS,
    coherent_field_rotation,
    massless_absorption,
    optimize_angles,
    sequential_rotation,
    simultaneous_coupling_check,
    table1_summary,
)


class UsageError(Exception):
    """Bad flags, bad config file, or out-of-range parameter values."""


def _fmt12(x) -> str:
    return format(float(x), ".12g")


# One memory budget for the runs whose size a flag sets.  Each guarded size
# is the largest whose estimate, a rate times the count the run's arrays
# scale with, stays within the budget; each rate is the traced peak
# (tracemalloc) per unit, rounded up, and a test checks it against the peak.
# - collective-check: per basis state of the target and n modes, d =
#   2^(n + 1): the Krylov basis and work buffer of 30 vectors each, and a
#   few vectors and index arrays of length d.  1081-1212 B from n = 16 down
#   to 9, where the fixed costs weigh most.
# - coherent-rotation: per level of the field's ladder, cutoff + 1 of them:
#   the couplings and the amplitudes the closed-form propagation turns.
#   184-205 B from cutoff 580 to 10^6.
# - fermion-sweep: per grid row, grid^pairs of them: the rows as Python
#   floats and their printed text.  JSON is the largest format, and a row's
#   cost grows with its pairs + 1 columns: 553, 709, 860, 1049 and 1196 B at
#   pairs 1 to 5; six pairs at the smallest grid, 8^6 rows, are over the
#   budget, so the widest row admitted has five.
MEMORY_BUDGET = 2 ** 28                             # bytes
BYTES_PER_COLLECTIVE_STATE = 1250
BYTES_PER_COHERENT_LEVEL = 216
BYTES_PER_SWEEP_ROW = 1250
MAX_COLLECTIVE_N = (MEMORY_BUDGET // BYTES_PER_COLLECTIVE_STATE).bit_length() - 2
MAX_COHERENT_CUTOFF = MEMORY_BUDGET // BYTES_PER_COHERENT_LEVEL - 1
MAX_SWEEP_ROWS = MEMORY_BUDGET // BYTES_PER_SWEEP_ROW


# ---------------------------------------------------------------------------
# parameter validators: (key, value) -> validated value, or UsageError
# ---------------------------------------------------------------------------

def _int_range(lo, hi=None):
    bounds = f">= {lo}" if hi is None else f"in [{lo},{hi}]"

    def check(key, val):
        if (not isinstance(val, int) or isinstance(val, bool) or val < lo
                or (hi is not None and val > hi)):
            raise UsageError(f"{key} must be an integer {bounds}, got {val!r}")
        return val
    return check


def _number(key, val) -> float:
    # a JSON number only: not a string, and not true/false, which are Python ints
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise UsageError(f"{key} must be a number, got {val!r}")
    if isinstance(val, int) and abs(val) > sys.float_info.max:
        return math.inf if val > 0 else -math.inf   # float() overflows; callers refuse inf
    return float(val)


def _float_range(lo, hi):
    def check(key, val):
        v = _number(key, val)
        if not (lo <= v <= hi) or not math.isfinite(v):
            raise UsageError(f"{key} out of range [{lo},{hi}], got {val!r}")
        return v
    return check


def _float_any(key, val):
    v = _number(key, val)
    if not math.isfinite(v):
        raise UsageError(f"{key} must be finite, got {val!r}")
    return v


def _float_nonneg(key, val):
    v = _float_any(key, val)
    if v < 0:
        raise UsageError(f"{key} must be >= 0, got {val!r}")
    return v


def _int_list(lo, hi):
    entry = _int_range(lo, hi)

    def check(key, val):
        if isinstance(val, str):
            parts = [p for p in val.split(",") if p.strip()]
            try:
                val = [int(p) for p in parts]
            except ValueError:
                raise UsageError(f"{key} must be a comma list of integers, got {val!r}") from None
        if not isinstance(val, list) or not val:
            raise UsageError(f"{key} must be a non-empty list of integers, got {val!r}")
        return [entry(f"each {key} entry", v) for v in val]
    return check


# ---------------------------------------------------------------------------
# the experiment registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Param:
    """One parameter; its flag is ``--`` + name with ``_`` written as ``-``."""
    name: str
    flag_type: Callable | None  # argparse type; None keeps the flag's string
    check: Callable             # validator with the accepted range
    default: object = None      # None without ``required``: the run picks it
    required: bool = False
    metavar: str | None = None


@dataclass(frozen=True)
class Experiment:
    """One subcommand: everything the CLI knows about an experiment."""
    help: str
    params: tuple
    run: Callable                   # (params, payload) -> None; fills the payload
    check: Callable | None = None   # (params, plot) -> None; cross-parameter bounds
    plot: Callable | None = None    # payload -> SVG text; None: no --plot


def _amplitudes(alpha=1.0, beta=0.0):
    return (Param("alpha", float, _float_any, alpha), Param("beta", float, _float_any, beta))


def _run_table1(p, payload):
    rows, payload["scalars"] = table1_summary(p["n"])
    payload["table"] = {"columns": ["particle_type", "concurrence", "max_repetitions"],
                        "rows": rows}


def _run_rotate(p, payload):
    payload["scalars"] = sequential_rotation(p["alpha"], p["beta"], p["n"])


def _run_rotate_sweep(p, payload):
    payload["series"] = [(float(n), sequential_rotation(p["alpha"], p["beta"], n)["infidelity"])
                         for n in p["n_list"]]
    payload["series_columns"] = ["n_ancillas", "infidelity"]


def _plot_rotate_sweep(payload):
    cols = payload["series_columns"]
    return line_chart(payload["series"], cols[0], cols[1], "infidelity vs ancilla count")


def _run_collective_check(p, payload):
    payload["scalars"] = simultaneous_coupling_check(p["n"], p["alpha"], p["beta"])


def _run_fermion_sweep(p, payload):
    best_t, best_c, grid = optimize_angles(p["pairs"], p["grid"], p["refine"])
    payload["scalars"]["best_concurrence"] = best_c
    for i, t in enumerate(best_t, start=1):
        payload["scalars"][f"best_theta_{i}"] = t
    payload["series"] = grid
    payload["series_columns"] = [f"theta_{i}" for i in range(1, p["pairs"] + 1)] + ["concurrence"]


def _check_fermion_sweep(p, plot):
    if plot is not None and p["pairs"] > 2:
        raise UsageError("plotting supports pairs in {1, 2}")
    # grid >= 8, so pairs > 20 is over the budget; testing it first keeps grid**pairs cheap
    if p["pairs"] > 20 or p["grid"] ** p["pairs"] > MAX_SWEEP_ROWS:
        raise UsageError(f"grid**pairs must be <= {MAX_SWEEP_ROWS} rows, "
                         f"got grid {p['grid']}, pairs {p['pairs']}")


def _plot_fermion_sweep(payload):
    series, cols = payload["series"], payload["series_columns"]
    if len(cols) == 2:
        return line_chart(series, cols[0], cols[1], "concurrence vs mixing angle")
    return heatmap(series, cols[0], cols[1], "concurrence over the angle grid")


def _run_bell(p, payload):
    rho = target_pair_density(p["gamma"])
    payload["scalars"]["M"] = horodecki_m(rho)
    payload["scalars"]["concurrence"] = concurrence(rho)
    payload["flags"]["violated"] = chsh_violated(rho)


def _run_absorption(p, payload):
    payload["scalars"] = massless_absorption()[1]


def _run_coherent_rotation(p, payload):
    payload["scalars"] = coherent_field_rotation(p["alpha"], p["beta"], p["eta"], p["cutoff"])


def _check_coherent_rotation(p, plot):
    if p["cutoff"] is None:
        # eta above MAX_COHERENT_CUTOFF is refused anyway; min() keeps eta**2 finite
        p["cutoff"] = default_coherent_cutoff(min(p["eta"], MAX_COHERENT_CUTOFF))
        if p["cutoff"] > MAX_COHERENT_CUTOFF:
            # eta**2 + 8 eta + 20 <= cutoff, rounded down so the printed bound passes
            eta_max = math.floor(1e3 * (math.sqrt(MAX_COHERENT_CUTOFF - 4) - 4)) / 1e3
            raise UsageError(f"eta must be in [0,{eta_max}] when cutoff is automatic "
                             f"(cutoff <= {MAX_COHERENT_CUTOFF}), got {p['eta']!r}")
    # coherent_field_rotation's own test, run before it builds the mode
    if p["eta"] > 0 and not math.isfinite(math.sqrt(p["cutoff"]) * (math.pi / (4.0 * p["eta"]))):
        raise UsageError(f"eta must be 0 or large enough that the largest phase "
                         f"sqrt({p['cutoff']}) pi/(4 eta) is finite, got {p['eta']!r}")


EXPERIMENTS = {
    "table1": Experiment(
        "summary concurrence table for all four particle classes",
        (Param("n", int, _int_range(1, MAX_ANCILLAS), 1),), _run_table1),
    "rotate": Experiment(
        "sequential ancilla rotation fidelity",
        (Param("n", int, _int_range(1, MAX_ANCILLAS), 1), *_amplitudes()), _run_rotate),
    "rotate-sweep": Experiment(
        "infidelity versus ancilla count",
        (Param("n_list", None, _int_list(1, MAX_ANCILLAS), [4, 8, 16, 32, 64], metavar="N1,N2,..."),
         *_amplitudes(0.8, 0.6)),
        _run_rotate_sweep, plot=_plot_rotate_sweep),
    "collective-check": Experiment(
        "simultaneous coupling versus the collective mode",
        (Param("n", int, _int_range(1, MAX_COLLECTIVE_N), 2), *_amplitudes()),
        _run_collective_check),
    "fermion-sweep": Experiment(
        "mixing-angle grid search for the pair protocol",
        (Param("pairs", int, _int_range(1), 2), Param("grid", int, _int_range(8), 64),
         Param("refine", int, _int_range(0), 3)),
        _run_fermion_sweep, check=_check_fermion_sweep, plot=_plot_fermion_sweep),
    "bell": Experiment(
        "CHSH criterion for the two-target state",
        (Param("gamma", float, _float_range(0.0, 1.0), required=True),), _run_bell),
    "absorption": Experiment(
        "full absorption of a delocalized flying boson", (), _run_absorption),
    "coherent-rotation": Experiment(
        "rotation driven by a truncated coherent mode",
        (Param("eta", float, _float_nonneg, required=True),
         Param("cutoff", int, _int_range(1, MAX_COHERENT_CUTOFF)), *_amplitudes()),
        _run_coherent_rotation, check=_check_coherent_rotation),
}

_FORMATS = ("table", "csv", "json")


def _entry(experiment) -> Experiment:
    if experiment not in EXPERIMENTS:
        raise UsageError(f"unknown experiment {experiment!r}; choose one of "
                         f"{sorted(EXPERIMENTS)}")
    return EXPERIMENTS[experiment]


def _normalize_amplitudes(params: dict):
    if "alpha" not in params:
        return
    a, b = params["alpha"], params["beta"]
    # an exact power-of-two rescale first, so subnormal inputs keep their ratio
    e = math.frexp(max(abs(a), abs(b)))[1]
    sa, sb = math.ldexp(a, -e), math.ldexp(b, -e)
    n = math.hypot(sa, sb)
    if n == 0:
        raise UsageError("alpha and beta cannot both be zero")
    if abs(a * a + b * b - 1.0) > NORM_TOL:
        params["alpha"], params["beta"] = sa / n, sb / n


def _validate(config: dict) -> dict:
    experiment, raw_params, output = config["experiment"], config["parameters"], config["output"]
    entry = _entry(experiment)
    names = sorted(p.name for p in entry.params)
    unknown = set(raw_params) - set(names)
    if unknown:
        raise UsageError(f"unknown parameter(s) for {experiment}: {sorted(unknown)}; "
                         f"accepted: {names}")
    params = {}
    for p in entry.params:
        if raw_params.get(p.name) is not None:
            params[p.name] = p.check(p.name, raw_params[p.name])
        elif p.required:
            raise UsageError(f"{experiment} requires parameter {p.name!r}")
        else:
            params[p.name] = copy.copy(p.default)   # callers may mutate a list
    _normalize_amplitudes(params)
    fmt, out, plot = output.get("format"), output.get("path"), output.get("plot")
    if fmt is None:
        fmt = "table"
    if fmt not in _FORMATS:
        raise UsageError(f"format must be one of {_FORMATS}, got {fmt!r}")
    if out == "":
        raise UsageError("--out (output.path) must name a file, got ''")
    if plot is not None:
        if entry.plot is None:
            series = sorted(name for name, e in EXPERIMENTS.items() if e.plot)
            raise UsageError(f"--plot is only available for series experiments {series}")
        if not plot.endswith(".svg"):
            raise UsageError(f"plot path must end in .svg, got {plot!r}")
        if out is not None and os.path.realpath(out) == os.path.realpath(plot):
            raise UsageError(f"--out and --plot name the same file {plot!r}")
    if entry.check is not None:
        entry.check(params, plot)
    return {"experiment": experiment, "parameters": params,
            "output": {"format": fmt, "path": out, "plot": plot}}


# ---------------------------------------------------------------------------
# argv + config-file parsing
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree generated from ``EXPERIMENTS``; built once per process."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=_FORMATS, default=None)
    common.add_argument("--out", dest="path", default=None, metavar="PATH")
    common.add_argument("--plot", default=None, metavar="PATH.svg")
    # SUPPRESS: a subcommand without --config keeps the top-level value
    common.add_argument("--config", default=argparse.SUPPRESS, metavar="PATH.json")

    parser = argparse.ArgumentParser(
        prog="modent",
        description="Mode-entanglement detection experiments at desk scale.")
    parser.add_argument("--config", default=None, metavar="PATH.json")
    sub = parser.add_subparsers(dest="experiment")
    for name, entry in EXPERIMENTS.items():
        p = sub.add_parser(name, parents=[common], help=entry.help)
        for param in entry.params:
            p.add_argument("--" + param.name.replace("_", "-"), dest=param.name,
                           type=param.flag_type, default=None, metavar=param.metavar)
    return parser


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _attach_negative_numbers(argv) -> list:
    """``--flag -1e-3`` written as ``--flag=-1e-3``, and ``--flag -4,8`` as
    ``--flag=-4,8``.  argparse reads a token that starts with '-' as an option
    unless it looks like -N or -N.N, so negative numbers in scientific
    notation, and comma lists that start with a negative number, would not
    reach the validators.  A token is attached when each of its comma parts
    is a number."""
    out = []
    for token in argv:
        if (out and out[-1].startswith("--") and len(out[-1]) > 2 and "=" not in out[-1]
                and token.startswith("-") and all(map(_is_number, token.split(",")))):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


_CONFIG_KEYS = {"experiment", "parameters", "output"}
_OUTPUT_KEYS = {"format", "path", "plot"}


def _check_optional_str(where: str, val):
    if val is not None and not isinstance(val, str):
        raise UsageError(f"config {where!r} must be a string or null, got {val!r}")


def _load_config_document(text: str) -> dict:
    try:
        doc = json.loads(text)
    except ValueError as exc:   # also an integer longer than int()'s digit limit
        raise UsageError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise UsageError("config document must be a JSON object")
    unknown = set(doc) - _CONFIG_KEYS
    if unknown:
        raise UsageError(f"unknown config key(s): {sorted(unknown)}; accepted: "
                         f"{sorted(_CONFIG_KEYS)}")
    _check_optional_str("experiment", doc.get("experiment"))
    params = doc.get("parameters", {})
    if not isinstance(params, dict):
        raise UsageError("config 'parameters' must be an object")
    output = doc.get("output", {})
    if not isinstance(output, dict):
        raise UsageError("config 'output' must be an object")
    bad = set(output) - _OUTPUT_KEYS
    if bad:
        raise UsageError(f"unknown output key(s): {sorted(bad)}; accepted: "
                         f"{sorted(_OUTPUT_KEYS)}")
    _check_optional_str("output.path", output.get("path"))
    _check_optional_str("output.plot", output.get("plot"))
    return doc


def parse_config(argv=None, config_text: str | None = None) -> dict:
    """The validated config document of a run, from argv flags and/or a JSON
    config document: ``{"experiment", "parameters", "output": {"format",
    "path", "plot"}}`` with every default filled in.

    Flags override config-file values.  Raises UsageError (exit status 2 in
    main) on unknown keys, missing required parameters, or out-of-range values.
    """
    ns = None
    if argv is not None:
        ns = _build_parser().parse_args(_attach_negative_numbers(argv))
        if config_text is None and ns.config is not None:
            try:
                with open(ns.config, "r", encoding="utf-8") as fh:
                    config_text = fh.read()
            except OSError as exc:
                raise UsageError(f"cannot read config file: {exc}") from None

    doc = _load_config_document(config_text) if config_text is not None else {}
    config = {"experiment": None, "parameters": {}, "output": {}, **doc}

    if ns is not None and ns.experiment is not None:
        if config["experiment"] not in (None, ns.experiment):
            raise UsageError(f"config experiment {config['experiment']!r} conflicts with "
                             f"subcommand {ns.experiment!r}")
        config["experiment"] = ns.experiment
        flags = {k: v for k, v in vars(ns).items() if v is not None}
        names = [p.name for p in EXPERIMENTS[ns.experiment].params]
        config["parameters"].update((k, flags[k]) for k in names if k in flags)
        config["output"].update((k, flags[k]) for k in ("format", "path", "plot") if k in flags)

    if config["experiment"] is None:
        raise UsageError("no experiment given: pass a subcommand or a config file")
    return _validate(config)


def render_config(config: dict) -> str:
    """The JSON text of a config document (parse_config round-trips it)."""
    return json.dumps(config, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def _json_clean(obj):
    """``obj`` with its floats at 12 significant digits; any other value is
    left for json.dumps, which raises TypeError on a type JSON has no form
    for (a numpy integer, a complex number) rather than print it as text."""
    if isinstance(obj, dict):
        return {k: _json_clean(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_json_clean(v) for v in obj]
    if isinstance(obj, float):
        return float(_fmt12(obj))
    return obj


def _emit_json(payload: dict) -> str:
    doc = {k: v for k, v in payload.items() if v not in (None, {},)}
    return json.dumps(_json_clean(doc), indent=2, sort_keys=True) + "\n"


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return _fmt12(v)
    return str(v)


def _emit_csv(payload: dict) -> str:
    lines = []
    if payload["series"] is not None:
        lines.append(",".join(payload["series_columns"]))
        for row in payload["series"]:
            lines.append(",".join(_csv_cell(float(v)) for v in row))
    elif payload["table"] is not None:
        lines.append(",".join(payload["table"]["columns"]))
        for row in payload["table"]["rows"]:
            lines.append(",".join(_csv_cell(v) for v in row))
    else:
        lines.append("key,value")
        for k in sorted(payload["scalars"]):
            lines.append(f"{k},{_csv_cell(payload['scalars'][k])}")
        for k in sorted(payload["flags"]):
            lines.append(f"{k},{_csv_cell(payload['flags'][k])}")
    return "\n".join(lines) + "\n"


def _emit_table(payload: dict) -> str:
    lines = [f"experiment: {payload['name']}"]
    for k in sorted(payload["params"]):
        lines.append(f"{k} = {_csv_cell(payload['params'][k])}")
    if payload["params"]:
        lines.append("")
    for k in sorted(payload["scalars"]):
        lines.append(f"{k} = {_fmt12(payload['scalars'][k])}")
    for k in sorted(payload["flags"]):
        lines.append(f"{k} = {_csv_cell(payload['flags'][k])}")
    if payload["table"] is not None:
        cols = payload["table"]["columns"]
        rows = [[(_csv_cell(v) or "-") for v in row] for row in payload["table"]["rows"]]
        widths = [max(len(c), *(len(r[i]) for r in rows)) for i, c in enumerate(cols)]
        lines.append("")
        lines.append("  ".join(c.ljust(w) for c, w in zip(cols, widths)))
        for r in rows:
            lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
    if payload["series"] is not None:
        lines.append("")
        cols = payload["series_columns"]
        lines.append("  ".join(c.rjust(16) for c in cols))
        for row in payload["series"]:
            lines.append("  ".join(_fmt12(v).rjust(16) for v in row))
    return "\n".join(lines) + "\n"


def _write_file(path: str, text: str):
    # a failed open leaves the path as it was; only a partial write is removed,
    # and never a device node or other non-regular file
    fh = open(path, "w", encoding="utf-8", newline="")
    try:
        with fh:
            fh.write(text)
    except BaseException:
        if os.path.isfile(path):
            try:
                os.unlink(path)
            except OSError:
                pass
        raise


def run(config: dict) -> int:
    """Execute a validated config document and emit its artifacts; returns the exit status."""
    experiment, params, output = config["experiment"], config["parameters"], config["output"]
    entry = _entry(experiment)
    if output["plot"] and entry.plot is None:
        raise UsageError(f"experiment {experiment!r} produces no plot")
    payload = {"name": experiment, "params": dict(params), "scalars": {},
               "flags": {}, "series": None, "series_columns": None, "table": None}
    entry.run(params, payload)
    if output["format"] == "json":
        text = _emit_json(payload)
    elif output["format"] == "csv":
        text = _emit_csv(payload)
    else:
        text = _emit_table(payload)
    plot_text = entry.plot(payload) if output["plot"] else None

    if output["path"]:
        _write_file(output["path"], text)
    else:
        sys.stdout.write(text)
    if output["plot"]:
        _write_file(output["plot"], plot_text)
    return 0


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        return run(parse_config(argv))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
