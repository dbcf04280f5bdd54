"""Set-up probe: a fresh interpreter that gets one workload ready, then says so.

    python3 perfbench/probe.py <workload>

Imports what the workload's user imports and runs the lazy set-up that the
workload needs (the per-alpha quantile tables of the Monte-Carlo
estimators), then prints ``ready``.  The parent times spawn -> ``ready``.
"""

import sys
from pathlib import Path

# workload -> (module a user imports, alphas whose quantile table is built)
SETUP = {
    "library": ("stable_stein", (1.5,)),
    "cli_cold": ("stable_stein.cli", ()),
}


def set_up(workload: str) -> None:
    module, alphas = SETUP[workload]
    __import__(module)
    quantile_table = sys.modules["stable_stein.density"].quantile_table
    for alpha in alphas:
        quantile_table(alpha)


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    set_up(sys.argv[1])
    print("ready", flush=True)
