"""Command-line front end: run experiments, emit tables, CSV, JSON, and SVG plots.

Each experiment is declared once, as an entry of ``EXPERIMENTS``: its help
line, its parameters (flag type, validator with bounds, default or
required), a run function that fills the output payload, an optional
cross-parameter check, and an optional plot function.  The argparse
subcommands, config validation, execution and plotting are derived from
those entries.

Numeric output is formatted to 12 significant digits and runs are
deterministic: identical configs produce byte-identical CSV/JSON.
Exit codes: 0 success, 2 usage/validation error (including sizes whose dense
arrays would exceed ``MAX_DENSE_DIM``), 1 computation failure.
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
from .hilbert import default_coherent_cutoff
from .plotting import heatmap, line_chart
from .protocols import (
    RotationProtocolParams,
    coherent_field_rotation,
    massless_absorption,
    optimize_angles,
    sequential_rotation,
    simultaneous_coupling_check,
    table1_summary,
)


class UsageError(Exception):
    """Bad flags, bad config file, or out-of-range parameter values."""


@dataclass(frozen=True)
class RunConfig:
    experiment: str
    parameters: dict
    format: str = "table"
    out: str | None = None
    plot: str | None = None


def _fmt12(x) -> str:
    return format(float(x), ".12g")


# Memory budget: the largest dense dimension d an accepted run may build;
# one complex d x d array then takes 16 * 4096**2 bytes = 256 MiB.
MAX_DENSE_DIM = 4096
MAX_COLLECTIVE_N = MAX_DENSE_DIM.bit_length() - 2   # d = 2**(n+1)
MAX_COHERENT_CUTOFF = MAX_DENSE_DIM // 2 - 1        # d = 2 * (cutoff + 1)
MAX_SWEEP_ROWS = 2 ** 20                            # grid**pairs rows held in memory


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


def _float_range(lo, hi):
    def check(key, val):
        try:
            v = float(val)
        except (TypeError, ValueError):
            raise UsageError(f"{key} must be a number, got {val!r}") from None
        if not (lo <= v <= hi) or not math.isfinite(v):
            raise UsageError(f"{key} out of range [{lo},{hi}], got {val!r}")
        return v
    return check


def _float_any(key, val):
    try:
        v = float(val)
    except (TypeError, ValueError):
        raise UsageError(f"{key} must be a number, got {val!r}") from None
    if not math.isfinite(v):
        raise UsageError(f"{key} must be finite, got {val!r}")
    return v


def _float_nonneg(key, val):
    v = _float_any(key, val)
    if v < 0:
        raise UsageError(f"{key} must be >= 0, got {val!r}")
    return v


def _int_list_min(minimum):
    def check(key, val):
        if isinstance(val, str):
            parts = [p for p in val.split(",") if p.strip()]
            try:
                val = [int(p) for p in parts]
            except ValueError:
                raise UsageError(f"{key} must be a comma list of integers, got {val!r}") from None
        if not isinstance(val, list) or not val:
            raise UsageError(f"{key} must be a non-empty list of integers, got {val!r}")
        out = []
        for v in val:
            if not isinstance(v, int) or isinstance(v, bool) or v < minimum:
                raise UsageError(f"{key} entries must be integers >= {minimum}, got {v!r}")
            out.append(v)
        return out
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
    rows = table1_summary(p["n"])
    payload["table"] = {
        "columns": ["particle_type", "concurrence", "max_repetitions"],
        "rows": [[r.particle_type, r.concurrence, r.repetitions] for r in rows],
    }
    for r in rows:
        prefix = r.particle_type.replace(" ", "_")
        for k, v in r.details.items():
            payload["scalars"][f"{prefix}_{k}"] = float(v)


def _run_rotate(p, payload):
    res = sequential_rotation(RotationProtocolParams(p["alpha"], p["beta"], p["n"]))
    payload["scalars"] = dict(res.scalars)


def _run_rotate_sweep(p, payload):
    series = []
    for n in p["n_list"]:
        res = sequential_rotation(RotationProtocolParams(p["alpha"], p["beta"], n))
        series.append((float(n), res.scalars["infidelity"]))
    payload["series"] = series
    payload["series_columns"] = ["n_ancillas", "infidelity"]


def _plot_rotate_sweep(payload):
    cols = payload["series_columns"]
    return line_chart(payload["series"], cols[0], cols[1], "infidelity vs ancilla count")


def _run_collective_check(p, payload):
    res = simultaneous_coupling_check(p["n"], p["alpha"], p["beta"])
    payload["scalars"] = dict(res.scalars)


def _run_fermion_sweep(p, payload):
    best_t, best_c, grid = optimize_angles(p["pairs"], p["grid"], p["refine"])
    payload["scalars"]["best_concurrence"] = best_c
    for i, t in enumerate(best_t, start=1):
        payload["scalars"][f"best_theta_{i}"] = t
    payload["series"] = [tuple(row) for row in grid]
    payload["series_columns"] = [f"theta_{i}" for i in range(1, p["pairs"] + 1)] + ["concurrence"]


def _check_fermion_sweep(p, plot):
    # grid >= 8, so pairs > 20 is over the budget; testing it first keeps grid**pairs cheap
    if p["pairs"] > 20 or p["grid"] ** p["pairs"] > MAX_SWEEP_ROWS:
        raise UsageError(f"grid**pairs must be <= {MAX_SWEEP_ROWS} rows, "
                         f"got grid {p['grid']}, pairs {p['pairs']}")
    if plot is not None and p["pairs"] > 2:
        raise UsageError("plotting supports pairs in {1, 2}")


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
    _, res = massless_absorption()
    payload["scalars"] = dict(res.scalars)


def _run_coherent_rotation(p, payload):
    res = coherent_field_rotation(p["alpha"], p["beta"], p["eta"], p["cutoff"])
    payload["scalars"] = dict(res.scalars)
    payload["params"]["cutoff"] = res.params["cutoff"]


def _check_coherent_rotation(p, plot):
    # eta above MAX_COHERENT_CUTOFF is out of bounds anyway; min() keeps eta**2 finite
    if (p["cutoff"] is None
            and default_coherent_cutoff(min(p["eta"], MAX_COHERENT_CUTOFF)) > MAX_COHERENT_CUTOFF):
        eta_max = math.sqrt(MAX_COHERENT_CUTOFF - 4) - 4   # eta**2 + 8 eta + 20 <= cutoff
        raise UsageError(f"eta must be in [0,{eta_max:.6g}] when cutoff is automatic "
                         f"(cutoff <= {MAX_COHERENT_CUTOFF}), got {p['eta']!r}")


EXPERIMENTS = {
    "table1": Experiment(
        "summary concurrence table for all four particle classes",
        (Param("n", int, _int_range(1), 1),), _run_table1),
    "rotate": Experiment(
        "sequential ancilla rotation fidelity",
        (Param("n", int, _int_range(1), 1), *_amplitudes()), _run_rotate),
    "rotate-sweep": Experiment(
        "infidelity versus ancilla count",
        (Param("n_list", None, _int_list_min(1), [4, 8, 16, 32, 64], metavar="N1,N2,..."),
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
    if abs(a * a + b * b - 1.0) > 1e-12:
        params["alpha"], params["beta"] = sa / n, sb / n


def _validate(experiment: str, raw_params: dict, fmt: str, out, plot) -> RunConfig:
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
    if fmt not in _FORMATS:
        raise UsageError(f"format must be one of {_FORMATS}, got {fmt!r}")
    if plot is not None:
        if entry.plot is None:
            series = sorted(name for name, e in EXPERIMENTS.items() if e.plot)
            raise UsageError(f"--plot is only available for series experiments {series}")
        if not plot.endswith(".svg"):
            raise UsageError(f"plot path must end in .svg, got {plot!r}")
    if entry.check is not None:
        entry.check(params, plot)
    return RunConfig(experiment=experiment, parameters=params, format=fmt, out=out, plot=plot)


# ---------------------------------------------------------------------------
# argv + config-file parsing
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree generated from ``EXPERIMENTS``; built once per process."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=_FORMATS, default=None)
    common.add_argument("--out", default=None, metavar="PATH")
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


_CONFIG_KEYS = {"experiment", "parameters", "output"}
_OUTPUT_KEYS = {"format", "path", "plot"}


def _check_optional_str(where: str, val):
    if val is not None and not isinstance(val, str):
        raise UsageError(f"config {where!r} must be a string or null, got {val!r}")


def _load_config_document(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
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


def parse_config(argv=None, config_text: str | None = None) -> RunConfig:
    """Build a validated RunConfig from argv flags and/or a JSON config document.

    Flags override config-file values.  Raises UsageError (exit status 2 in
    main) on unknown keys, missing required parameters, or out-of-range values.
    """
    experiment = None
    raw_params: dict = {}
    fmt = None
    out = None
    plot = None

    ns = None
    if argv is not None:
        ns = _build_parser().parse_args(argv)
        if config_text is None and ns.config is not None:
            try:
                with open(ns.config, "r", encoding="utf-8") as fh:
                    config_text = fh.read()
            except OSError as exc:
                raise UsageError(f"cannot read config file: {exc}") from None

    if config_text is not None:
        doc = _load_config_document(config_text)
        experiment = doc.get("experiment")
        raw_params.update(doc.get("parameters", {}))
        output = doc.get("output", {})
        fmt = output.get("format", fmt)
        out = output.get("path", out)
        plot = output.get("plot", plot)

    if ns is not None and ns.experiment is not None:
        if experiment is not None and experiment != ns.experiment:
            raise UsageError(f"config experiment {experiment!r} conflicts with "
                             f"subcommand {ns.experiment!r}")
        experiment = ns.experiment
        for param in EXPERIMENTS[experiment].params:
            val = getattr(ns, param.name)
            if val is not None:
                raw_params[param.name] = val
        if ns.format is not None:
            fmt = ns.format
        if ns.out is not None:
            out = ns.out
        if ns.plot is not None:
            plot = ns.plot

    if experiment is None:
        raise UsageError("no experiment given: pass a subcommand or a config file")
    return _validate(experiment, raw_params, fmt or "table", out, plot)


def render_config(config: RunConfig) -> str:
    """JSON config document equivalent to ``config`` (parse_config round-trips it)."""
    doc = {
        "experiment": config.experiment,
        "parameters": dict(config.parameters),
        "output": {"format": config.format, "path": config.out, "plot": config.plot},
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def _json_clean(obj):
    if isinstance(obj, dict):
        return {k: _json_clean(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_json_clean(v) for v in obj]
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return float(_fmt12(obj))
    return str(obj)


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
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except BaseException:
        try:
            os.unlink(path)
        except OSError:
            pass
        raise


def run(config: RunConfig) -> int:
    """Execute a validated config and emit its artifacts; returns the exit status."""
    entry = _entry(config.experiment)
    if config.plot and entry.plot is None:
        raise UsageError(f"experiment {config.experiment!r} produces no plot")
    payload = {"name": config.experiment, "params": dict(config.parameters), "scalars": {},
               "flags": {}, "series": None, "series_columns": None, "table": None}
    entry.run(config.parameters, payload)
    if config.format == "json":
        text = _emit_json(payload)
    elif config.format == "csv":
        text = _emit_csv(payload)
    else:
        text = _emit_table(payload)
    plot_text = entry.plot(payload) if config.plot else None

    if config.out:
        _write_file(config.out, text)
    else:
        sys.stdout.write(text)
    if config.plot:
        _write_file(config.plot, plot_text)
    return 0


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        config = parse_config(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
