"""The benchmark's bit-exact outputs, checked in process.

``perfbench/expected.json`` records the SHA-256 of the stdout and the exit
code of every ``cli_cold`` command, and the SHA-256 of the first batch of
every ``mc_rate_fit`` op: ``sample_sum(Pareto(1.5), 100, 30000, seed)``, its
sorted values as float64 bytes.  A change that moves one bit of them fails
here, not only in a benchmark run.  The recording is read, never written.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from stable_stein import cli
from stable_stein.kernels import Pareto
from stable_stein.sampling import sample_sum

RECORDED = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "expected.json").read_text())
CLI_KEYS = sorted(k for k in RECORDED if k.startswith("cli/"))
FIT_KEYS = sorted(k for k in RECORDED if k.startswith("mc_rate_fit/seed="))


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
