#!/usr/bin/env python3
"""Record the outputs the benchmark checks against: perfbench/expected.json.

    python3 perfbench/record.py [workload ...]

Runs every entry of each workload's input pool once, in the pinned
environment of run.py, and stores its summarized output (SHA-256 digests of
sample_sum values and CLI stdout, floats for everything else) or the type of
the exception it raised.  Recorded exceptions are the baseline failures: a
run still counts them as failed ops, but does not call the run incorrect.
Re-record only at a commit whose outputs are known to be right.
"""

import json
import sys

import run
from probe import set_up
from workloads import WORKLOADS, Context


def record(names) -> dict:
    out = {}
    for name in names:
        set_up(name)
        ctx = Context()
        for op in WORKLOADS[name].pool(ctx):
            try:
                result = op.run()
            except Exception as exc:  # recorded as a baseline failure
                out[op.key] = {"error": type(exc).__name__, "message": str(exc)}
                print(f"{op.key}: raised {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            problem = op.check(result) if op.check else None
            if problem is not None:
                raise SystemExit(f"{op.key}: refusing to record a failing output: {problem}")
            out[op.key] = op.summarize(result)
    return out


def main(argv) -> int:
    names = argv or list(WORKLOADS)
    path = run.HERE / "expected.json"
    expected = json.loads(path.read_text()) if path.exists() else {}
    expected.update(record(names))
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"{len(expected)} recorded outputs in {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
