"""Tests of the benchmark itself (not collected by the repository suite).

    python3 -m pytest -q perfbench
"""

import json
import random
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins the thread environment, puts src/ on the path)
from probe import set_up  # noqa: E402
from workloads import WORKLOADS, Context, Op  # noqa: E402


def _bench(*args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def ctx():
    for name in WORKLOADS:
        set_up(name)
    return Context()


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_emitted_with_unit_for_any_seed(trace, kind):
    contract = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = {m["name"]: m["unit"] for m in contract[kind]}
    results = [_bench("--workload", "library", "--seed", str(seed),
                      "--seconds", "0", "--trace", str(trace)) for seed in (2, 3)]
    for res in results:
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] is True and res["attempted"] >= 1
        assert list(res["metrics"]) == list(names)
        for name, metric in res["metrics"].items():
            assert metric == {"value": metric["value"], "unit": names[name]}
            assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_changes_inputs_and_every_input_is_recorded(ctx, name):
    expected = json.loads((HERE / "expected.json").read_text())
    seen = []
    slots = set()
    for seed in (1, 2):
        rounds = WORKLOADS[name].rounds(ctx, random.Random(f"{name}:{seed}"))
        batch = [next(rounds) for _ in range(3)]
        slots.update(tuple(sorted(Counter(op.slot for op in ops).items())) for ops in batch)
        ops = [op for ops in batch for op in ops]
        assert all(op.key is None or op.key in expected for op in ops)
        seen.append([op.key for op in ops])
    assert len(slots) == 1      # every round fills the same slots
    assert seen[0] != seen[1]
    same = WORKLOADS[name].rounds(ctx, random.Random(f"{name}:1"))
    assert [op.key for _ in range(3) for op in next(same)] == seen[0]


def test_raising_op_is_counted_not_propagated(ctx):
    def boom():
        raise ZeroDivisionError("boom")

    ok = Op(None, lambda: 1.0, lambda v: {"values": [v]})
    runner = run.Runner(ctx, expected={})
    runner.run_round([ok, Op(None, boom, lambda v: {}), ok])
    assert runner.attempted == 3 and runner.failed == 1
    assert any("ZeroDivisionError" in message for message in runner.problems)


def test_wall_time_takes_the_fastest_op_of_each_slot(ctx):
    runner = run.Runner(ctx, expected={})
    ops = [Op(None, lambda: 0.0, lambda v: {"values": [v]}, slot=s) for s in "aab"]
    runner.run_round(ops)
    runner.run_round(ops)
    assert runner.best_round() == 2 * runner.best["a"] + runner.best["b"]
    assert runner.best["a"] == min(runner.latencies[i] for i in (0, 1, 3, 4))
    with pytest.raises(RuntimeError):
        runner.run_round(ops[:2])


def test_recorded_failure_counts_but_keeps_run_correct(ctx):
    def fails():
        raise ZeroDivisionError("known")

    runner = run.Runner(ctx, expected={"k": {"error": "ZeroDivisionError"}})
    runner.run_round([Op("k", fails, lambda v: {})])
    assert runner.failed == 1 and not runner.problems and runner.known == {"k": 1}


def test_mismatch_counts_as_failed_op(ctx):
    runner = run.Runner(ctx, expected={"k": {"values": [1.0]}})
    runner.run_round([Op("k", lambda: 2.0, lambda v: {"values": [v]})])
    assert runner.failed == 1 and runner.problems


def test_traced_and_untraced_outputs_are_identical(ctx):
    smp, den = ctx.smp, ctx.den
    ops = [
        Op(None, lambda: smp.sample_sum(ctx.ker.HallTransform(a=0.3, b=0.24, c=0.2, alpha=1.5),
                                        300, 120, 5).values,
           lambda v: {"values": [float(x) for x in v]}),
        Op(None, lambda: den.quantile(den.StableLaw(1.5), 0.8), lambda v: {"values": [v]}),
        Op(None, lambda: ctx.bnd.optimize_gamma(ctx.ker.Pareto(1.5), 1.5, 1000, "auto"),
           lambda v: {"values": list(v)}),
    ]
    runner = run.Runner(ctx, expected={}, tracer=run.Tracer())
    _, untraced = runner.run_round(ops)
    _, traced = runner.run_round(ops, traced=True)
    assert traced == untraced and runner.failed == 0
    names = {span[0] for span in runner.tracer.spans}
    assert {"sampling.sample_sum", "kernels.HallTransform.sample", "sampling.substream",
            "density.quantile", "bounds.optimize_gamma", "bounds.bound_main"} <= names
    # uninstalled: the modules hold the original functions again
    assert not hasattr(smp.sample_sum, "__wrapped__")
    assert "sample" not in vars(ctx.ker.Pareto)


def test_fails_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        shutil.copy(f, bench)
    shutil.copy(HERE / "expected.json", bench)
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "library",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
