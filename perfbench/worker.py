"""One child process of the benchmark; prints one JSON object as its last line.

Modes:
  setup   import modent.cli and run the warm-up operation; report the time.
  timed   setup, then run operations for --seconds with tracing off.
  trace   setup, then run the count window traced, then alternate traced and
          untraced operations for --seconds.
  counts  setup, then run the count window traced and report its counts only.

Started by ``run.py``.  modent is imported from the checkout's ``src``
directory and nowhere else.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
from collections import Counter

from checks import check_output
from workloads import COUNT_WINDOW, PROBE_ARGV, operations, warmup_op

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def import_cli():
    sys.path.insert(0, SRC)
    import modent.cli
    if not os.path.abspath(modent.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"modent was imported from {modent.cli.__file__}, not {SRC}")
    return modent.cli


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)["ops"]


def call(main, argv):
    """Run ``main(argv)`` in process; returns (exit code, stdout, stderr, wall s, cpu s)."""
    out, err = io.StringIO(), io.StringIO()
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(argv))
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a crash is a failed operation, not a failed run
        rc = f"raised {exc!r}"
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    return rc, out.getvalue(), err.getvalue(), wall, cpu


def check(op, rc, stdout, stderr, reference):
    """(problems, primary output bytes); removes the operation's files."""
    if rc != 0:
        problems = [f"exit {rc}: {stderr.strip()[-300:]}"]
        text = ""
    elif op.out:
        try:
            with open(op.out, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            text = ""
            problems = [f"output file: {exc}"]
        else:
            problems = [] if not stdout else ["stdout not empty with --out"]
            problems += check_output(op, text, reference)
    else:
        text = stdout
        problems = check_output(op, text, reference)
    for path in (op.out, op.plot):
        if path and os.path.exists(path):
            os.unlink(path)
    return problems, len(text.encode())


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.computed = Counter()  # compute key -> operations that ran it

    def add(self, op, problems):
        self.attempted += 1
        self.computed[op.key] += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append({"argv": list(op.argv), "problems": problems[:3]})

    def repeats(self) -> dict:
        """Operations, by command, whose computation already ran in this process."""
        out = Counter()
        for key, n in self.computed.items():
            out[key.split(" ")[0]] += n - 1
        return {command: n for command, n in sorted(out.items()) if n}

    def as_dict(self):
        return {"attempted": self.attempted, "failed": self.failed, "problems": self.problems,
                "repeats": self.repeats()}


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def machine_record():
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError, AttributeError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "timed", "trace", "counts"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    t0 = time.perf_counter()
    cli = import_cli()
    warm = warmup_op(args.workload, args.tmp)
    rc, stdout, stderr, _, _ = call(cli.main, warm.argv)
    setup_s = time.perf_counter() - t0
    reference = load_reference()
    tally = Tally()
    tally.add(warm, check(warm, rc, stdout, stderr, reference)[0])
    result = {"setup_s": setup_s}

    if args.probe:
        rc, _, stderr, _, _ = call(cli.main, PROBE_ARGV)
        result["probe"] = {"argv": PROBE_ARGV, "exit": rc,
                           "stderr": stderr.strip().splitlines()[-1:] or None}
        result["machine"] = machine_record()

    ops = operations(args.workload, args.seed, args.tmp)
    if args.mode == "timed":
        walls, cpus = [], []
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < args.seconds:
            op = next(ops)
            rc, stdout, stderr, wall, cpu = call(cli.main, op.argv)
            walls.append(wall)
            cpus.append(cpu)
            tally.add(op, check(op, rc, stdout, stderr, reference)[0])
        result.update(op_wall_s=walls, op_cpu_s=cpus,
                      peak_rss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)

    elif args.mode in ("trace", "counts"):
        from tracing import Tracer
        tracer = Tracer()
        traced_main = tracer.wrap(cli.main, "cli")

        def traced_op():
            op = next(ops)
            tracer.op = op.index
            tracer.install()
            try:
                rc, stdout, stderr, wall, _ = call(traced_main, op.argv)
            finally:
                tracer.uninstall()
            problems, out_bytes = check(op, rc, stdout, stderr, reference)
            tracer.cli_out_bytes += out_bytes
            tally.add(op, problems)
            return wall

        window = [traced_op() for _ in range(COUNT_WINDOW[args.workload])]
        result["counts"] = tracer.counts()
        if args.mode == "trace":
            traced, untraced = [], []
            start = time.perf_counter()
            while time.perf_counter() - start < args.seconds or not traced or not untraced:
                if len(traced) <= len(untraced):
                    traced.append(traced_op())
                else:
                    op = next(ops)
                    rc, stdout, stderr, wall, _ = call(cli.main, op.argv)
                    untraced.append(wall)
                    tally.add(op, check(op, rc, stdout, stderr, reference)[0])
            result["traced_ops"] = n = len(window) + len(traced)
            result["untraced_ops"] = len(untraced)
            result["metrics"] = tracer.timings(
                n, (sum(window) + sum(traced)) / n,
                (sum(traced) / len(traced)) / (sum(untraced) / len(untraced)) - 1)
            if args.spans:
                tracer.write(args.spans)

    result.update(tally.as_dict())
    print(json.dumps(result))


if __name__ == "__main__":
    main()
