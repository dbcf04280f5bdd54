"""The benchmark's recorded outputs, checked in process.

``perfbench/expected.json`` records the SHA-256 of the stdout and the exit
code of every ``cli_cold`` command, and the SHA-256 of the first batch of
every ``mc_rate_fit`` op: ``sample_sum(Pareto(1.5), 100, 30000, seed)``, its
sorted values as float64 bytes.  A change that moves one bit of them fails
here, not only in a benchmark run.  It also records the analytic values of
the ``library`` workload's ``BoundsAnalytic`` pool (tables, figure, bound
assemblies, discrepancy quadrature, heat-kernel margins, quantile tables),
compared within the benchmark's relative tolerance, and the exception type
of each recorded failure.  The recording and ``perfbench/workloads.py`` are
read, never written.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from stable_stein import cli
from stable_stein.kernels import Pareto
from stable_stein.sampling import sample_sum

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
RECORDED = json.loads((PERFBENCH / "expected.json").read_text())
CLI_KEYS = sorted(k for k in RECORDED if k.startswith("cli/"))
FIT_KEYS = sorted(k for k in RECORDED if k.startswith("mc_rate_fit/seed="))


def _workloads():
    """perfbench/workloads.py as a module, without putting perfbench on sys.path."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()
ANALYTIC = {op.key: op for op in WORKLOADS.BoundsAnalytic().pool(WORKLOADS.Context())}


def test_recording_covers_both_workloads():
    assert len(CLI_KEYS) == 29 and len(FIT_KEYS) == 6


@pytest.mark.parametrize("key", CLI_KEYS)
def test_cli_stdout_and_exit_code(key, capsys, monkeypatch):
    monkeypatch.delenv("STABLE_STEIN_THREADS", raising=False)
    code = cli.main(key[len("cli/"):].split())
    out = capsys.readouterr().out.encode()
    assert (hashlib.sha256(out).hexdigest(), float(code)) == \
        (RECORDED[key]["sha256"], RECORDED[key]["values"][0])


@pytest.mark.parametrize("key", FIT_KEYS)
def test_rate_fit_first_batch(key):
    seed = int(key.rsplit("=", 1)[1])
    values = sample_sum(Pareto(1.5), 100, 30_000, seed).values
    digest = hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64).tobytes())
    assert digest.hexdigest() == RECORDED[key]["sha256"]


def test_analytic_pool_is_recorded():
    assert len(ANALYTIC) == 89 and set(ANALYTIC) <= set(RECORDED)


@pytest.mark.parametrize("key", sorted(ANALYTIC))
def test_analytic_value(key):
    op, want = ANALYTIC[key], RECORDED[key]
    if "error" in want:
        with pytest.raises(Exception) as info:
            op.run()
        assert type(info.value).__name__ == want["error"]
        return
    out = op.run()
    assert op.check is None or op.check(out) is None
    assert WORKLOADS.compare(op.summarize(out), want) is None
