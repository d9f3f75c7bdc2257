"""Correctness gate for one benchmark operation.

An operation passes when it exits 0, its output parses in the requested
format, every closed form that applies holds, and every value it prints
matches the output recorded in ``reference.json`` within ``RTOL``/``ATOL``.
Values are compared one by one rather than byte by byte, so last-bit drift
in the 12-digit output is accepted.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET

from workloads import CLOSED_FORM_ONLY

# Outputs carry 12 significant digits; a reordered sum may move the last one.
RTOL = 1e-9
ATOL = 1e-9
# Closed-form identities that hold to rounding.
CLOSED_TOL = 1e-9
TRACE_DISTANCE_MAX = 1e-10
TRUNCATION_MAX = 1e-8


def _close(x, r) -> bool:
    return abs(x - r) <= ATOL + RTOL * abs(r)


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# parsing: every format becomes {scalars, flags, params, series, table}
# ---------------------------------------------------------------------------

def _empty():
    return {"scalars": {}, "flags": {}, "params": {}, "series": None, "table": None}


def parse_json(text: str) -> dict:
    doc = json.loads(text)
    out = _empty()
    out["scalars"] = {k: float(v) for k, v in doc.get("scalars", {}).items()}
    out["flags"] = dict(doc.get("flags", {}))
    out["params"] = {k: float(v) for k, v in doc.get("params", {}).items()
                     if isinstance(v, (int, float)) and not isinstance(v, bool)}
    if "series" in doc:
        out["series"] = [[float(v) for v in row] for row in doc["series"]]
    if "table" in doc:
        out["table"] = [[r[0], None if r[1] is None else float(r[1]), r[2]]
                        for r in doc["table"]["rows"]]
    return out


def parse_csv(text: str) -> dict:
    lines = text.split("\n")
    if lines[-1] != "":
        raise ValueError("CSV output does not end in a newline")
    header, rows = lines[0], [ln.split(",") for ln in lines[1:-1]]
    out = _empty()
    if header == "key,value":
        for key, val in rows:
            if val in ("true", "false"):
                out["flags"][key] = val == "true"
            else:
                out["scalars"][key] = float(val)
    elif header == "particle_type,concurrence,max_repetitions":
        out["table"] = [[p, float(c) if c else None, r] for p, c, r in rows]
    else:
        width = len(header.split(","))
        if any(len(r) != width for r in rows):
            raise ValueError("ragged CSV series")
        out["series"] = [[float(v) for v in r] for r in rows]
    return out


def parse_table(text: str) -> dict:
    """Text table: ``key = value`` lines (parameters and scalars together,
    kept under ``scalars``), then an optional table or series block."""
    lines = text.rstrip("\n").split("\n")
    if not lines[0].startswith("experiment: "):
        raise ValueError("table output lacks its experiment line")
    out = _empty()
    block = None
    for line in lines[1:]:
        if not line.strip():
            continue
        if " = " in line and block is None:
            key, val = line.split(" = ", 1)
            if val in ("true", "false"):
                out["flags"][key] = val == "true"
            elif _number(val) is not None:
                out["scalars"][key] = float(val)
        elif line.startswith("particle_type"):
            block, out["table"] = "table", []
        elif block == "table":
            ptype, conc, reps = line.rstrip().rsplit(None, 2)
            ptype = " ".join(ptype.split())
            out["table"].append([ptype, None if conc == "-" else float(conc), reps])
        elif block is None and all(_number(tok) is None for tok in line.split()):
            block, out["series"] = "series", []
        elif block == "series":
            out["series"].append([float(v) for v in line.split()])
        else:
            raise ValueError(f"unexpected table line {line!r}")
    return out


PARSERS = {"json": parse_json, "csv": parse_csv, "table": parse_table}


# ---------------------------------------------------------------------------
# comparison against the recorded reference
# ---------------------------------------------------------------------------

def _compare_map(name, got: dict, ref: dict, problems: list):
    if set(got) != set(ref):
        problems.append(f"{name} keys {sorted(got)} != reference {sorted(ref)}")
        return
    for k, r in ref.items():
        g = got[k]
        ok = g == r if isinstance(r, bool) else _close(g, r)
        if not ok:
            problems.append(f"{name}.{k} = {g!r}, reference {r!r}")


def _compare_rows(name, got, ref, problems: list):
    if got is None or len(got) != len(ref):
        problems.append(f"{name}: {0 if got is None else len(got)} rows, reference {len(ref)}")
        return
    for i, (g_row, r_row) in enumerate(zip(got, ref)):
        for g, r in zip(g_row, r_row):
            if isinstance(r, str) or r is None or g is None:
                ok = g == r
            else:
                ok = _close(g, r)
            if not ok:
                problems.append(f"{name}[{i}] = {g_row!r}, reference {r_row!r}")
                break


def compare_reference(parsed: dict, ref: dict, fmt: str) -> list:
    """Problems with ``parsed`` against a recorded JSON output, of which
    empty sections were not stored."""
    ref = dict(_empty(), **ref)
    problems = []
    if fmt == "csv":
        if ref["series"] is not None:
            _compare_rows("series", parsed["series"], ref["series"], problems)
        elif ref["table"] is not None:
            _compare_rows("table", parsed["table"], ref["table"], problems)
        else:
            _compare_map("scalars", parsed["scalars"], ref["scalars"], problems)
            _compare_map("flags", parsed["flags"], ref["flags"], problems)
        return problems
    scalars = ref["scalars"]
    if fmt == "table":
        scalars = dict(ref["params"], **ref["scalars"])
    else:
        _compare_map("params", parsed["params"], ref["params"], problems)
    _compare_map("scalars", parsed["scalars"], scalars, problems)
    _compare_map("flags", parsed["flags"], ref["flags"], problems)
    for section in ("series", "table"):
        if ref[section] is None:
            if parsed[section] is not None:
                problems.append(f"unexpected {section}")
        else:
            _compare_rows(section, parsed[section], ref[section], problems)
    return problems


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def _flag_value(params: list, flag: str):
    return params[params.index(flag) + 1]


def closed_form(params: list, parsed: dict) -> list:
    """Identities the paper fixes exactly, checked on every operation."""
    command, s = params[0], parsed["scalars"]
    problems = []

    def near(name, value, want, tol=CLOSED_TOL):
        if value is None or not abs(value - want) <= tol:
            problems.append(f"{name} = {value!r}, closed form {want!r}")

    if command == "collective-check":
        if not s.get("trace_distance", math.inf) <= TRACE_DISTANCE_MAX:
            problems.append(f"trace_distance {s.get('trace_distance')!r} > {TRACE_DISTANCE_MAX}")
        near("overlap", s.get("overlap"), 1.0)
        near("fidelity_gain", s.get("fidelity_gain"), 0.0)
    elif command == "bell":
        gamma = float(_flag_value(params, "--gamma"))
        near("M", s.get("M"), 1.0 + gamma * gamma)
        near("concurrence", s.get("concurrence"), gamma)
        if parsed["flags"].get("violated") != (gamma > 0):
            problems.append(f"violated = {parsed['flags'].get('violated')!r} at gamma {gamma}")
    elif command == "absorption":
        near("concurrence", s.get("concurrence"), 1.0)
        near("transfer_overlap", s.get("transfer_overlap"), 1.0)
        near("flying_occupation", s.get("flying_occupation"), 0.0)
    elif command in ("rotate", "coherent-rotation"):
        near("fidelity + infidelity", s.get("fidelity", math.nan) + s.get("infidelity", math.nan),
             1.0)
        if command == "coherent-rotation" and not s.get("truncation_weight", 1.0) <= TRUNCATION_MAX:
            problems.append(f"truncation_weight {s.get('truncation_weight')!r}")
    elif command == "table1":
        n = int(_flag_value(params, "--n"))
        rows = {r[0]: r for r in parsed["table"] or []}
        want = {"massless bosons": (1.0, "inf"), "massive bosons": (1.0 - 1.0 / (2 * n), "inf"),
                "massless fermions": (None, "inf"), "massive fermions": (0.5, str(n))}
        for ptype, (conc, reps) in want.items():
            row = rows.get(ptype)
            if row is None or row[2] != reps:
                problems.append(f"table1 row {ptype!r} = {row!r}")
            elif conc is None:
                if row[1] is not None:
                    problems.append(f"{ptype} concurrence should be asymptotic, got {row[1]!r}")
            else:
                near(f"{ptype} concurrence", row[1], conc)
    elif command == "rotate-sweep":
        want = [float(v) for v in _flag_value(params, "--n-list").split(",")]
        if [row[0] for row in parsed["series"] or []] != want:
            problems.append("rotate-sweep series does not follow --n-list")
    return problems


def check_svg(path: str) -> list:
    """Problems with a plot file: it must parse as an SVG document."""
    try:
        root = ET.parse(path).getroot()
    except (OSError, ET.ParseError) as exc:
        return [f"plot {path}: {exc}"]
    if root.tag != "{http://www.w3.org/2000/svg}svg":
        return [f"plot {path}: root element is {root.tag}"]
    return []


def check_output(op, text: str, reference: dict) -> list:
    """All problems with one operation's primary output (and plot)."""
    params = op.key.split(" ")
    try:
        parsed = PARSERS[op.fmt](text)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unparseable {op.fmt} output: {exc!r}"]
    problems = closed_form(params, parsed)
    ref = reference.get(op.key)
    if params[0] not in CLOSED_FORM_ONLY:
        if ref is None:
            problems.append(f"no reference for {op.key!r}")
        else:
            problems += compare_reference(parsed, ref, op.fmt)
    if op.plot:
        problems += check_svg(op.plot)
    return problems
