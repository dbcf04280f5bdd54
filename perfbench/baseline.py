#!/usr/bin/env python3
"""Run every workload ten times and summarize, optionally into baseline.json.

    python3 perfbench/baseline.py [--write]

Each run is a fresh ``run.py`` process of ``run_seconds`` (BENCHMARK.json)
with its own seed, 1 to 10.  For every end-to-end metric it prints the
median and the quartile spread (q3 - q1) / median, with quartiles as
``statistics.quantiles(values, n=4)`` gives them, next to the bound.  If
baseline.json already holds a batch, it also prints how far this batch's
medians lie from the first batch's, as (new - first) / first.

``--write`` appends this batch to baseline.json, and stores the machine
description, the line count of src/ and the baseline failures with their
recorded causes beside the batches.  Delete the file to start over.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def machine() -> dict:
    info = {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "caches": {},
        "python": platform.python_version(),
        "thread_env": {v: "1" for v in ("STABLE_STEIN_THREADS", "OMP_NUM_THREADS",
                                         "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            info["cpu_model"] = line.split(":", 1)[1].strip()
            break
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = (index / "level").read_text().strip()
        kind = (index / "type").read_text().strip()
        info["caches"][f"L{level} {kind}"] = (index / "size").read_text().strip()
    import numpy
    import scipy

    info["numpy"] = numpy.__version__
    info["scipy"] = scipy.__version__
    return info


def one_run(workload, seed, seconds) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results, bounds) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / statistics.median(values),
                     "bound": bounds[name], "values": values}
    return out


def failure_causes(workload) -> dict:
    """Recorded baseline failures of a workload's input pool: op key ->
    exception type and message."""
    sys.path.insert(0, str(HERE))
    import run  # noqa: F401  (pins the environment, puts src/ on the path)
    from probe import set_up
    from workloads import WORKLOADS, Context

    set_up(workload)
    expected = json.loads((HERE / "expected.json").read_text())
    keys = [op.key for op in WORKLOADS[workload].pool(Context())]
    return {k: f"{expected[k]['error']}: {expected[k]['message']}"
            for k in keys if "error" in expected.get(k, {})}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--write", action="store_true",
                    help="append this batch to perfbench/baseline.json")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    path = HERE / "baseline.json"
    batches = json.loads(path.read_text())["batches"] if path.exists() else []
    first = batches[0]["workloads"] if batches else None
    batch = {"started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()), "workloads": {}}
    if first:
        batch["median_change_vs_first"] = {}
    for w in bench["workloads"]:
        name = w["name"]
        results = [one_run(name, seed, bench["run_seconds"]) for seed in SEEDS]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        summary = batch["workloads"][name] = {
            "seeds": list(SEEDS),
            "all_correct": all(r["correct"] for r in results),
            "ops_attempted": attempted,
            "ops_failed_ratio": failed / attempted,
            "metrics": summarize(results, bounds),
        }
        print(f"{name}: correct {summary['all_correct']}  ops {attempted}  "
              f"failed ratio {failed / attempted:.4f}")
        changes = {}
        for metric, s in summary["metrics"].items():
            line = (f"  {metric:12s} median {s['median']:.6g}  spread {s['spread']:.4f}  "
                    f"bound {s['bound']}")
            if s["spread"] >= s["bound"] / 3:
                line += "  (spread >= bound/3)"
            if first:
                old = first[name]["metrics"][metric]["median"]
                changes[metric] = (s["median"] - old) / old
                line += f"  vs first batch {changes[metric]:+.4f}"
                if abs(changes[metric]) >= s["bound"]:
                    line += "  (change >= bound)"
            print(line)
        if first:
            batch["median_change_vs_first"][name] = changes
        sys.stdout.flush()
    if args.write:
        sys.path.insert(0, str(HERE))
        import run

        doc = {"machine": machine(), "src.lines": run.src_lines(),
               "run_seconds": bench["run_seconds"],
               "baseline_failures": {w["name"]: failure_causes(w["name"])
                                     for w in bench["workloads"]},
               "batches": batches + [batch]}
        path.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
