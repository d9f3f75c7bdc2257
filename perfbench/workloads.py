"""Seeded operation streams for the three benchmark workloads.

Every operation is one argv for ``modent.cli.main``.  Its computation is drawn
from a fixed pool per command whose outputs were recorded in
``reference.json`` (see ``record_reference.py``); the seed only chooses the
order in which pool entries are visited and the output decoration (format,
``--out``, ``--plot``).  Pools are visited without replacement and reshuffled
when used up.  Every pool with parameters holds more entries than a run
visits, so a computation repeats within a run only for ``absorption``, which
takes no parameters.  argv is unique within a run all the same: a repeat gets
an ``--out`` path carrying the operation index.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass

# A fourth workload, fermion-sweep --pairs 2 over a grid near 64, was left
# out: its single-threaded operations varied by up to 0.39 (IQR/median of
# op_s.p50 over ten seeds) on a shared 2-CPU host, beyond the 0.25 bound.
WORKLOADS = ("collective", "coherent", "readme")

# Number of leading operations over which the traced run computes its counts
# (``*.calls``, ``*.out_bytes``, ``*.max_dim``); one to two seconds of work
# each at the seed commit.
COUNT_WINDOW = {"collective": 1, "coherent": 2, "readme": 64}

# Fresh interpreters per run whose median is setup_s.  readme's set-up is
# almost all import time (~0.4 s), which varied by +-20% between consecutive
# samples, so it takes more of them.
SETUP_SAMPLES = {"collective": 7, "coherent": 7, "readme": 15}

# BLAS threads per workload, at most nproc.  readme's arrays are small: with
# two OpenBLAS threads its operations took the same wall time as with one but
# twice the CPU, the second thread only spinning, and their times then
# depended on when the second CPU was free.  None means nproc.
BLAS_THREADS = {"collective": None, "coherent": None, "readme": 1}

COLLECTIVE_N = 9
PROBE_ARGV = ["coherent-rotation", "--eta", "30", "--format", "json"]

_FORMATS = ("table", "csv", "json")
_EXT = {"table": "txt", "csv": "csv", "json": "json"}


def _g(x: float) -> str:
    return format(x, ".12g")


def _angles(count: int):
    """Real (alpha, beta) on the unit circle, uniform in angle: the Haar
    measure restricted to the real amplitudes the CLI accepts."""
    out = []
    for j in range(count):
        phi = 2.0 * math.pi * (j + 0.5) / count
        out.append(["--alpha", _g(math.cos(phi)), "--beta", _g(math.sin(phi))])
    return out


def _pools():
    """command -> list of parameter argv (without output flags).  The first
    entry of a workload's warm-up pool is its warm-up and is never visited."""
    sweeps = []
    for base in range(1, 17):
        for length in range(3, 6):
            sweeps.append(["--n-list", ",".join(str(base << k) for k in range(length))])
    return {
        "collective": [["collective-check", "--n", str(COLLECTIVE_N)] + ab
                       for ab in _angles(64)],
        "coherent": [["coherent-rotation", "--eta", f"{19.75 + 0.005 * k:.3f}"]
                     for k in range(101)],
        "table1": [["table1", "--n", str(n)] for n in range(1, 769)],
        "bell": [["bell", "--gamma", f"{k / 1000:.3f}"] for k in range(1001)],
        "absorption": [["absorption"]],
        "rotate": [["rotate", "--n", str(n)] + ab for n in range(1, 65) for ab in _angles(12)],
        "rotate-sweep": [["rotate-sweep"] + s + ab for s in sweeps for ab in _angles(16)],
        "collective-small": [["collective-check", "--n", str(n)] + ab
                             for n in (3, 4, 5) for ab in _angles(256)],
        "coherent-small": [["coherent-rotation", "--eta", f"{4 + 6 * k / 800:.4f}"]
                           for k in range(801)],
    }


POOLS = _pools()

# readme visits these pools in a seeded order, every command once per block.
README_POOLS = ("table1", "bell", "absorption", "rotate", "rotate-sweep",
                "collective-small", "coherent-small")

# Commands whose outputs are fully fixed by a closed form; they have no
# recorded reference.
CLOSED_FORM_ONLY = ("bell",)


def reference_keys():
    """Compute key of every recorded reference output."""
    for pool in POOLS.values():
        for params in pool:
            if params[0] not in CLOSED_FORM_ONLY:
                yield compute_key(params)


def compute_key(params) -> str:
    return " ".join(params)


@dataclass(frozen=True)
class Op:
    index: int
    argv: tuple
    key: str          # parameter argv joined; keys reference.json
    fmt: str
    out: str | None
    plot: str | None


class _Shuffled:
    """Endless walk over a pool: a seeded permutation, reshuffled when used up."""

    def __init__(self, pool, rng):
        self.pool, self.rng, self.order = pool, rng, []

    def next(self):
        if not self.order:
            self.order = list(range(len(self.pool)))
            self.rng.shuffle(self.order)
        return self.pool[self.order.pop()]


# Pool whose first entry is the workload's warm-up operation.
WARMUP_POOL = {"collective": "collective", "coherent": "coherent", "readme": "table1"}


def warmup_op(workload: str, tmp: str) -> Op:
    """Fixed first operation of a workload; independent of the seed."""
    return _decorate(-1, POOLS[WARMUP_POOL[workload]][0], "json", tmp, out=True)


def _decorate(index, params, fmt, tmp, out=False, plot=False) -> Op:
    argv = list(params) + ["--format", fmt]
    out_path = plot_path = None
    if out:
        out_path = os.path.join(tmp, f"op{index}.{_EXT[fmt]}")
        argv += ["--out", out_path]
    if plot:
        plot_path = os.path.join(tmp, f"op{index}.svg")
        argv += ["--plot", plot_path]
    return Op(index, tuple(argv), compute_key(params), fmt, out_path, plot_path)


def _choices(workload: str, rng):
    """Endless (parameter argv, format, --out?, --plot?) for ``workload``."""
    def walk(name):
        pool = POOLS[name]
        return _Shuffled(pool[1:] if name == WARMUP_POOL[workload] else pool, rng)

    if workload != "readme":
        entries = walk(workload)
        while True:
            yield entries.next(), "json", False, False
    walks = {name: walk(name) for name in README_POOLS}
    visits = dict.fromkeys(README_POOLS, 0)
    while True:
        block = list(README_POOLS)
        rng.shuffle(block)
        for name in block:
            k = visits[name]
            visits[name] += 1
            yield (walks[name].next(), _FORMATS[k % 3], k % 4 == 3,
                   name == "rotate-sweep" and k % 2 == 1)


def operations(workload: str, seed: int, tmp: str):
    """Endless seeded stream of operations for ``workload``; no argv repeats."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    seen = set()
    choices = _choices(workload, random.Random(f"{workload}:{seed}"))
    for index, (params, fmt, out, plot) in enumerate(choices):
        op = _decorate(index, params, fmt, tmp, out=out, plot=plot)
        if op.argv in seen:
            op = _decorate(index, params, fmt, tmp, out=True, plot=plot)
        seen.add(op.argv)
        yield op


def dense_working_set(workload: str, reference: dict) -> dict:
    """Bytes of the largest dense array an operation of the workload builds,
    the d x d complex Hamiltonian."""
    def ham(dim):
        return {"dim": int(dim), "bytes": 16 * int(dim) ** 2}

    def coherent(pool):
        cut = max(reference[compute_key(p)]["params"]["cutoff"] for p in POOLS[pool])
        return ham(2 * (cut + 1))

    if workload == "collective":
        return ham(2 ** (COLLECTIVE_N + 1))
    if workload == "coherent":
        return coherent("coherent")
    return max(ham(2 ** 6), coherent("coherent-small"), key=lambda d: d["bytes"])
