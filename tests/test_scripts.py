"""Smoke runs of the scripts under scripts/.

Each script runs in a fresh interpreter against this checkout's package, so
an import the package moves or renames fails here rather than only when
someone next runs the script.
"""

import csv
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, cwd=cwd, check=True)


def test_reproduce_tables_writes_every_table(tmp_path):
    outdir = tmp_path / "tables"
    run_script("reproduce_tables.py", "--outdir", str(outdir), cwd=tmp_path)
    rows = {}
    for path in sorted(outdir.iterdir()):
        with open(path, newline="") as fh:
            rows[path.name] = list(csv.reader(fh))
    assert {name: len(r) for name, r in rows.items()} == {
        "table1.csv": 2,
        "table2.csv": 10,
        "table3.csv": 10,
        "table3_delta_report.csv": 82,
        "figure1.csv": 100,
    }
    assert rows["figure1.csv"][0][0] == "alpha"
    assert all(len(r) == 5 for r in rows["figure1.csv"])


def test_rate_experiment_small_grid(tmp_path):
    grid = ["10", "20", "40", "80"]
    r = run_script("rate_experiment.py", "--m", "1000", "--n-grid", ",".join(grid),
                   cwd=tmp_path)
    lines = r.stdout.splitlines()
    assert lines[0] == "n,m,estimator,w1,std_error,bias_floor,bound_total,seed"
    rows = [line.split(",") for line in lines[1:]]
    assert [row[0] for row in rows] == [n for n in grid for _ in range(3)]
    assert {row[2] for row in rows} == {"one_sample_quantile", "two_sample", "bias_corrected"}
    assert "fitted slope" in r.stderr
