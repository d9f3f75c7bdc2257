"""Per-layer spans recorded from outside the program.

The layers are modent's modules.  Every public function or class that one
modent module imports from another is replaced, in the importing module's
namespace, by a wrapper that records a span (operation id, name, start, end,
parent span).  Calls inside one module are not spans, so a span's children
always belong to other layers, and a layer's self time is its spans'
duration minus the time their children cover.  ``cli.main`` is wrapped at the
benchmark's own call site.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("hilbert", "dynamics", "entanglement", "protocols", "cli", "plotting")
BUILD = ("dynamics.jc_hamiltonian", "dynamics.collective_jc_hamiltonian")
PROPAGATE = ("dynamics.propagator", "dynamics.evolve")
_SIZED = ("hilbert", "dynamics")  # layers whose returned arrays are measured


class _ClassProxy:
    """Stands in for a class in a caller's namespace: calls are traced
    constructions; isinstance, equality and attributes see the real class."""

    def __init__(self, cls, construct):
        self._cls, self._construct = cls, construct

    def __call__(self, *args, **kwargs):
        return self._construct(*args, **kwargs)

    def __instancecheck__(self, obj):
        return isinstance(obj, self._cls)

    def __subclasscheck__(self, sub):
        return issubclass(sub, self._cls)

    def __getattr__(self, name):
        return getattr(self._cls, name)

    def __eq__(self, other):
        return other is self._cls or other is self

    def __hash__(self):
        return hash(self._cls)


def _arrays(obj, top=True):
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, tuple):
        if top:
            for item in obj:
                yield from _arrays(item, False)
    elif hasattr(obj, "__dict__"):
        for val in vars(obj).values():
            if isinstance(val, np.ndarray):
                yield val


class Tracer:
    def __init__(self):
        self.op = -1
        self.spans = []
        self._stack = []
        self._covered = []
        self.calls = Counter()  # by span name
        self.name_s = defaultdict(float)
        self.errors = Counter()
        self.self_s = defaultdict(float)
        self.out_bytes = Counter()
        self.max_dim = Counter()
        self.svg_bytes = 0
        self.cli_out_bytes = 0
        self._patches = []
        for caller in LAYERS:
            mod = importlib.import_module(f"modent.{caller}")
            for attr, obj in list(vars(mod).items()):
                home = getattr(obj, "__module__", None) or ""
                layer = home.rpartition(".")[2]
                if (attr.startswith("_") or not callable(obj) or not home.startswith("modent.")
                        or layer == caller or layer not in LAYERS):
                    continue
                traced = self.wrap(obj, layer)
                if isinstance(obj, type):
                    traced = _ClassProxy(obj, traced)
                self._patches.append((mod, attr, obj, traced))

    def install(self):
        for mod, attr, _, traced in self._patches:
            setattr(mod, attr, traced)

    def uninstall(self):
        for mod, attr, orig, _ in self._patches:
            setattr(mod, attr, orig)

    def wrap(self, fn, layer):
        name = f"{layer}.{fn.__name__}"
        spans, stack, covered = self.spans, self._stack, self._covered
        calls, self_s, name_s = self.calls, self.self_s, self.name_s
        sized = layer in _SIZED
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            covered.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[layer] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self_s[layer] += dur - covered.pop()
                if covered:
                    covered[-1] += dur
                spans[idx] = (self.op, name, start, end, parent)
                calls[name] += 1
                name_s[name] += dur
            if sized:
                for arr in _arrays(result):
                    self.out_bytes[layer] += arr.nbytes
                    self.max_dim[layer] = max(self.max_dim[layer], max(arr.shape, default=0))
            elif layer == "plotting" and isinstance(result, str):
                self.svg_bytes += len(result.encode())
            return result

        functools.update_wrapper(traced, fn)
        return traced

    def layer_calls(self, layer: str) -> int:
        return sum(n for name, n in self.calls.items() if name.startswith(layer + "."))

    def counts(self) -> dict:
        """Computed counts so far; identical for identical operations."""
        out = {f"{layer}.calls": self.layer_calls(layer) for layer in LAYERS}
        for layer in _SIZED:
            out[f"{layer}.out_bytes"] = self.out_bytes[layer]
            out[f"{layer}.max_dim"] = self.max_dim[layer]
        out["entanglement.concurrence.calls"] = self.calls["entanglement.concurrence"]
        out["cli.out_bytes"] = self.cli_out_bytes
        out["plotting.svg_bytes"] = self.svg_bytes
        return out

    def timings(self, n_ops: int, wall_s: float, overhead_frac: float) -> dict:
        """Per-operation times over ``n_ops`` traced operations, and error counts."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer] / n_ops
            out[f"{layer}.errors"] = self.errors[layer]
        out["dynamics.build_s"] = sum(self.name_s[k] for k in BUILD) / n_ops
        out["dynamics.propagate_s"] = sum(self.name_s[k] for k in PROPAGATE) / n_ops
        calls = self.layer_calls("entanglement")
        out["entanglement.us_per_call"] = (
            1e6 * self.self_s["entanglement"] / calls if calls else 0.0)
        out["trace.wall_s"] = wall_s
        out["trace.overhead_frac"] = overhead_frac
        out["trace.unattributed_frac"] = 1.0 - sum(self.self_s.values()) / n_ops / wall_s
        return out

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tspan\tparent\tname\tstart\tend\n")
            for idx, (op, name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{op}\t{idx}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")
