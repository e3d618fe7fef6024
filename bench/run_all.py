"""Run the whole benchmark: the checks' self-test, then every workload
untraced (end-to-end metrics) and traced (per-layer metrics), with seed 1
and the run length that ``BENCHMARK.json`` sets.

    python3 bench/run_all.py

Prints each run's report as it finishes and exits nonzero if the
self-test or any run failed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
SEED = 1


def main() -> int:
    config = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    seconds = str(config["run_seconds"])
    runs = [[sys.executable, str(BENCH / "selftest.py")]]
    for trace in (0, 1):
        runs += [[sys.executable, str(BENCH / "run.py"), "--workload", name,
                  "--seed", str(SEED), "--seconds", seconds,
                  "--trace", str(trace)] for name in WORKLOADS]
    failed = []
    for cmd in runs:
        label = " ".join(cmd[1:]).replace(str(BENCH) + "/", "")
        print(f"== {label}", flush=True)
        if subprocess.run(cmd).returncode != 0:
            failed.append(label)
    print("all passed" if not failed else f"FAILED: {failed}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
