"""Record the reference outputs that ``checks.py`` compares against.

    python3 perfbench/record_reference.py

Runs every pool entry of ``workloads.POOLS`` once through ``modent.cli.main``
(from the checkout's ``src``) and writes ``perfbench/reference.json``.  The
file is recorded once, from the commit that introduced the benchmark, and is
not meant to be re-recorded by a change that claims the outputs stay the same.
It takes a few minutes: the 64 ``collective-check --n 9`` entries dominate.
"""

import json
import os
import sys
import tempfile

from checks import parse_json
from run import source_digest
from worker import HERE, call, import_cli
from workloads import reference_keys


def main():
    cli = import_cli()
    ops = {}
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        for key in reversed(list(reference_keys())):  # slow pools last
            argv = key.split(" ") + ["--format", "json", "--out", out]
            rc, _, stderr, _, _ = call(cli.main, argv)
            if rc != 0:
                sys.exit(f"{key}: exit {rc}: {stderr}")
            with open(out, encoding="utf-8") as fh:
                text = fh.read()
            ops[key] = {k: v for k, v in parse_json(text).items() if v}
            print(f"{len(ops):5d} {key}", file=sys.stderr, flush=True)
    doc = {"source_sha256": source_digest(), "ops": ops}
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        fh.write("{\n" + f'"source_sha256": {json.dumps(doc["source_sha256"])},\n"ops": {{\n')
        fh.write(",\n".join(f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                            for k, v in sorted(ops.items())))
        fh.write("\n}}\n")


if __name__ == "__main__":
    main()
