#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload library --seed 1 --seconds 60 --trace 0

Runs whole rounds of the workload's operations (closed loop, one client,
one thread) while they fit in ``--seconds``, checks every output, and
prints a readable summary followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` alternates untraced and traced rounds on the same inputs and
reports the per-layer metrics from the traced ones (spans are written to
``perfbench/out/spans-<workload>.jsonl``); the two must give identical
outputs.  See perfbench/README.md for the workloads and metrics.
"""

import os

# Pinned before numpy is imported anywhere in this process or its children.
for _var in ("STABLE_STEIN_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
             "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from probe import set_up  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Context, compare  # noqa: E402

SETUP_PROBES_BEFORE = 2  # fresh interpreters timed before the rounds; one more after each

# Metric names and units come from BENCHMARK.json, so the two cannot drift apart.
with open(ROOT / "BENCHMARK.json") as _fh:
    _CONTRACT = json.load(_fh)
END_TO_END = {m["name"]: m["unit"] for m in _CONTRACT["end_to_end"]}  # --trace 0
PER_LAYER = {m["name"]: m["unit"] for m in _CONTRACT["per_layer"]}    # --trace 1, per traced round


def measure_setup(workload: str, repeats: int) -> list:
    """Times from spawning a fresh interpreter to the workload being ready
    (import + lazy set-up), one per child."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "probe.py"), workload],
                              stdout=subprocess.PIPE, env=env, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe for {workload} failed (exit {proc.returncode})")
        times.append(t1 - t0)
    return times


class Runner:
    """Runs rounds, times each op, and checks outputs after each round."""

    def __init__(self, ctx, expected, tracer=None):
        self.ctx = ctx
        self.expected = expected
        self.tracer = tracer
        self.latencies = []     # untraced ops only
        self.best = {}          # slot -> fastest untraced op seen in it
        self.slots = None       # slot -> ops per round
        self.attempted = 0
        self.failed = 0
        self.problems = {}      # message -> count; failures that make the run incorrect
        self.known = {}         # key -> count; failures recorded at the baseline
        self._op_id = 0

    def run_round(self, ops, traced=False):
        """Returns (round wall seconds, fingerprints of the outputs)."""
        results = []
        slots = {}
        for op in ops:
            slots[op.slot] = slots.get(op.slot, 0) + 1
        if self.slots is None:
            self.slots = slots
        elif slots != self.slots:
            raise RuntimeError("rounds of one workload must fill the same slots")
        tracer = self.tracer if traced else None
        self.ctx.traced = traced
        if tracer:
            tracer.install()
        try:
            t_round = time.perf_counter()
            for op in ops:
                if tracer:
                    tracer.op_id = self._op_id
                self._op_id += 1
                t0 = time.perf_counter()
                try:
                    out, err = op.run(), None
                except Exception as exc:  # an op that raises is counted, not propagated
                    out, err = None, exc
                t1 = time.perf_counter()
                if not traced:
                    self.latencies.append(t1 - t0)
                    self.best[op.slot] = min(self.best.get(op.slot, math.inf), t1 - t0)
                results.append((op, out, err))
            wall = time.perf_counter() - t_round
        finally:
            if tracer:
                tracer.uninstall()
            self.ctx.traced = False

        fingerprints = []
        for op, out, err in results:
            self.attempted += 1
            want = self.expected.get(op.key) if op.key else None
            if err is not None:
                fingerprints.append(("error", type(err).__name__))
                self.failed += 1
                if want is not None and want.get("error") == type(err).__name__:
                    self.known[op.key] = self.known.get(op.key, 0) + 1
                else:
                    self.record_problem(
                        f"{op.key or 'op'} raised {type(err).__name__}: {err}")
                continue
            got = op.summarize(out)
            fingerprints.append(json.dumps(got, sort_keys=True))
            problem = op.check(out) if op.check else None
            if problem is None and op.key:
                if want is None:
                    problem = "no recorded output"
                elif "error" not in want:      # a recorded failure that now succeeds passes
                    problem = compare(got, want)
            if problem is not None:
                self.failed += 1
                self.record_problem(f"{op.key or 'op'}: {problem}")
        return wall, fingerprints

    def record_problem(self, message):
        self.problems[message] = self.problems.get(message, 0) + 1

    def best_round(self) -> float:
        """A round's time with each slot at its fastest: interference from
        other tenants of the host only ever adds time."""
        return sum(count * self.best[slot] for slot, count in self.slots.items())


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def per_layer_metrics(tracer, ctx, traced_rounds, walls_u, walls_t, draws_u):
    agg = tracer.totals()
    k = max(traced_rounds, 1)

    def get(name, field):
        return agg.get(name, {}).get(field, 0) / k

    vals = dict.fromkeys(PER_LAYER, 0.0)
    for name in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if field in ("calls", "s", "self_s"):
            vals[name] = get(layer, field)
        elif field == "draws" or field == "points":
            vals[name] = get(layer, "count")
    vals["density.QuantileTable.build_s"] = get("density.QuantileTable.build", "s")
    logical = agg.get("sampling.sample_sum", {}).get("count", 0)
    vals["sampling.sample_sum.draws_per_logical"] = (
        agg["_draws_in_sample_sum"] / logical if logical else 0.0)
    reps = agg.get("sampling.empirical_w1", {}).get("count", 0)
    vals["sampling.empirical_w1.points_per_replicate"] = (
        agg["_points_in_empirical_w1"] / reps if reps else 0.0)
    vals["density.quantile_table.misses"] = agg["_quantile_table_misses"] / k
    vals["kernels.convergence_errors"] = tracer.convergence_errors / k
    timings = ctx.cli_timings     # one per traced CLI call
    if timings:
        for field in ("import_s", "main_s", "stdout_bytes"):
            vals[f"cli.{field}"] = statistics.mean(t[field] for t in timings)
        vals["cli.spawn_s"] = statistics.mean(t["process_s"] - t["import_s"] - t["main_s"]
                                              for t in timings)
    vals["draws_per_s"] = draws_u / sum(walls_u)
    vals["trace.overhead_ratio"] = sum(walls_t) / sum(walls_u)
    vals["src.lines"] = src_lines()
    return vals


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "stable_stein").is_dir():
        print(f"error: no stable_stein sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    with open(HERE / "expected.json") as fh:
        expected = json.load(fh)

    setup_times = [] if args.trace else measure_setup(args.workload, SETUP_PROBES_BEFORE)
    set_up(args.workload)
    ctx = Context()
    tracer = Tracer() if args.trace else None
    runner = Runner(ctx, expected, tracer)
    rng = random.Random(f"{args.workload}:{args.seed}")
    rounds = workload.rounds(ctx, rng)

    walls_u, walls_t, draws_u = [], [], 0
    start = time.perf_counter()
    elapsed = 0.0
    # Whole rounds keep the op mix fixed; a round starts only if it is
    # expected to end before the deadline, so a run never overruns by much.
    while not walls_u or elapsed + elapsed / len(walls_u) <= args.seconds:
        ops = next(rounds)
        if not args.trace:
            walls_u.append(runner.run_round(ops)[0])
            # probes spread over the run sample the host's load at many moments
            setup_times += measure_setup(args.workload, 1)
        else:
            # same inputs untraced and traced, alternating which goes first
            order = (False, True) if len(walls_u) % 2 == 0 else (True, False)
            prints = {}
            for traced in order:
                wall, prints[traced] = runner.run_round(ops, traced=traced)
                (walls_t if traced else walls_u).append(wall)
            if prints[False] != prints[True]:
                runner.failed += 1
                runner.record_problem("traced and untraced outputs differ")
        draws_u += sum(op.draws for op in ops)
        elapsed = time.perf_counter() - start

    if args.workload == "cli_cold":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if args.trace:
        values = per_layer_metrics(tracer, ctx, len(walls_t), walls_u, walls_t, draws_u)
        units = PER_LAYER
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}.jsonl")
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": runner.best_round(),
            "peak_rss_mb": rss_kb / 1024.0,
        }
        units = END_TO_END

    correct = not runner.problems
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {len(walls_u)}  ops_attempted {runner.attempted}  "
          f"ops_failed {runner.failed}  "
          f"ops_failed_ratio {runner.failed / runner.attempted:.4f}  "
          f"draws_per_s {draws_u / sum(walls_u):.6g}")
    if not args.trace:
        print(f"  round_median_s {statistics.median(walls_u):.6g} s over {len(walls_u)} rounds")
    if len(runner.latencies) >= 100:
        lat = runner.latencies
        print(f"  op_p50_s {statistics.median(lat):.6g} s  "
              f"op_p90_s {statistics.quantiles(lat, n=10)[-1]:.6g} s  over {len(lat)} ops")
    for key, count in sorted(runner.known.items()):
        print(f"  baseline failure x{count}: {key} ({expected[key]['error']})")
    for message, count in sorted(runner.problems.items()):
        print(f"  FAILED x{count}: {message}")
    for name, unit in units.items():
        print(f"  {name:48s} {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
