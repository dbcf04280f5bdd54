"""Traced stand-in for ``python3 -m stable_stein.cli``.

    python3 perfbench/cli_child.py <cli arguments>

Runs the same ``main`` with the same stdout, and adds one last stderr line
``PERFBENCH_TIMING {"import_s": ..., "main_s": ...}`` so the parent can
split a cold start into interpreter spawn, import and the command itself.
"""

import json
import sys
import time
from pathlib import Path

if __name__ == "__main__":
    t0 = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import stable_stein.cli  # noqa: E402

    t1 = time.perf_counter()
    rc = sys.modules["stable_stein.cli"].main(sys.argv[1:])
    sys.stdout.flush()
    t2 = time.perf_counter()
    print("PERFBENCH_TIMING " + json.dumps({"import_s": t1 - t0, "main_s": t2 - t1}),
          file=sys.stderr)
    sys.exit(rc)
