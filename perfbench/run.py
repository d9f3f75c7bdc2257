"""modent benchmark: closed-loop CLI workloads with end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; modent is imported from its ``src``.  One
client runs one operation at a time: each operation is an in-process
``modent.cli.main(argv)`` call whose argv the seed generates
(``workloads.py``), and every output is checked (``checks.py``).

``--trace 0`` prints the ``end_to_end`` metrics of ``BENCHMARK.json``.
``SETUP_SAMPLES`` fresh interpreters each import ``modent.cli`` and run the
workload's warm-up operation (``setup_s`` is their median); the middle one of
them then runs operations for ``--seconds`` with tracing off, so the set-up
samples come from both ends of the run.  Each metric is over that run:
``op_s.p50`` and ``cpu_s_per_op`` are medians per operation, ``ops_per_s``
is operations per second of time spent inside ``main`` (the client checks
outputs between operations; that time is not counted), ``peak_rss_mb`` is
that process's ``ru_maxrss``.

``--trace 1`` prints the ``per_layer`` metrics, from spans recorded around
calls between modent's modules (``tracing.py``).  Counts (``*.calls``,
``*.out_bytes``, ``*.max_dim``, ``*.svg_bytes``) are computed over the first
``COUNT_WINDOW`` operations and must come out identical in a second process
with the same seed, or the run is marked incorrect.  Times are per traced
operation; ``trace.overhead_frac`` compares alternating traced and untraced
operations.  The spans are written to ``.perfbench/``.

Before the last line, which is the result object, the run prints its
provenance and details (sample counts, ``op_s.p90`` where at least 100
operations ran, the failure fraction, the operations whose computation already
ran in the same process, and the ``coherent-rotation --eta 30`` probe, which
is reported and never gated on).
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from workloads import BLAS_THREADS, SETUP_SAMPLES, WORKLOADS, dense_working_set

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
# Wall time a run may take beyond --seconds: the set-up samples, the probe,
# the traced count windows and the last operation that started in time.
TIME_MARGIN_S = 100.0
P90_MIN_SAMPLES = 100


def fail(msg: str):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(workload: str) -> dict:
    """Environment of the workers: BLAS threads capped at the CPUs we may use
    and at the workload's own limit."""
    env = dict(os.environ)
    cap = min(nproc(), BLAS_THREADS[workload] or nproc())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        cur = env.get(var, "")
        env[var] = str(min(int(cur), cap) if cur.isdigit() and int(cur) > 0 else cap)
    return env


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "modent")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def git_commit():
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except OSError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def cpu_caches() -> dict:
    base = "/sys/devices/system/cpu/cpu0/cache"
    out = {}
    try:
        for index in sorted(os.listdir(base)):
            def read(name):
                with open(os.path.join(base, index, name), encoding="utf-8") as fh:
                    return fh.read().strip()
            if index.startswith("index") and read("type") != "Instruction":
                out[f"L{read('level')}"] = read("size")
    except OSError:
        pass
    return out


class Runner:
    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + args.seconds + TIME_MARGIN_S
        self.env = child_env(args.workload)
        self.tmp = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")

    def child(self, mode: str, *extra) -> dict:
        a = self.args
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
               "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
               "--tmp", self.tmp, *extra]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            fail("time budget used up")
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            fail(f"{mode} worker did not finish within the time budget")
        if proc.returncode != 0:
            fail(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def end_to_end(self):
        samples = SETUP_SAMPLES[self.args.workload]
        before = samples // 2
        children = [self.child("setup", "--probe")]
        children += [self.child("setup") for _ in range(before - 1)]
        timed = self.child("timed")
        children.append(timed)
        children += [self.child("setup") for _ in range(samples - before - 1)]
        walls, cpus = timed["op_wall_s"], timed["op_cpu_s"]
        values = {
            "setup_s": statistics.median(c["setup_s"] for c in children),
            "op_s.p50": statistics.median(walls),
            "ops_per_s": len(walls) / sum(walls),
            "cpu_s_per_op": statistics.median(cpus),
            "peak_rss_mb": timed["peak_rss_kib"] / 1024.0,
        }
        detail = {"op_samples": len(walls), "setup_samples": len(children),
                  "repeated_computations": timed["repeats"]}
        if len(walls) >= P90_MIN_SAMPLES:
            detail["op_s.p90"] = statistics.quantiles(walls, n=10)[-1]
        return values, children, detail, True

    def per_layer(self):
        spans = os.path.join(OUT_DIR, f"trace-{self.args.workload}.tsv")
        traced = self.child("trace", "--probe", "--spans", spans)
        again = self.child("counts")
        repeat = traced["counts"] == again["counts"]
        values = dict(traced["metrics"], **traced["counts"])
        detail = {"traced_ops": traced["traced_ops"], "untraced_ops": traced["untraced_ops"],
                  "counts_repeat": repeat, "spans": os.path.relpath(spans, ROOT),
                  "repeated_computations": traced["repeats"]}
        if not repeat:
            detail["counts_second_run"] = again["counts"]
        return values, [traced, again], detail, repeat

    def run(self):
        a = self.args
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
            reference = json.load(fh)["ops"]
        os.makedirs(self.tmp)
        try:
            values, children, detail, repeat = self.per_layer() if a.trace else self.end_to_end()
        finally:
            shutil.rmtree(self.tmp, ignore_errors=True)

        attempted = sum(c["attempted"] for c in children)
        failed = sum(c["failed"] for c in children)
        detail["fail_frac"] = failed / attempted
        detail["probe"] = children[0]["probe"]
        problems = [p for c in children for p in c["problems"]]
        if problems:
            detail["problems"] = problems[:5]
        provenance = {
            "workload": a.workload, "seed": a.seed, "seconds": a.seconds,
            "commit": git_commit(), "source_sha256": source_digest(),
            "nproc": nproc(), "blas_threads_requested": int(self.env["OPENBLAS_NUM_THREADS"]),
            **children[0]["machine"],
            "cpu_cache": cpu_caches(),
            "dense_working_set": dense_working_set(a.workload, reference),
            "clients": 1, "loop": "closed",
        }
        metrics = {}
        for m in spec["per_layer" if a.trace else "end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print("provenance " + json.dumps(provenance, sort_keys=True))
        print("detail " + json.dumps(detail, sort_keys=True))
        print(json.dumps({"correct": failed == 0 and repeat, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    for path in (os.path.join(SRC, "modent", "cli.py"), os.path.join(ROOT, "BENCHMARK.json"),
                 os.path.join(HERE, "reference.json")):
        if not os.path.isfile(path):
            fail(f"{path} is missing; run from the root of a modent checkout")
    Runner(args).run()


if __name__ == "__main__":
    main()
