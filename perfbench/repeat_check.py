"""Check that every count-derived metric repeats exactly for one seed.

Runs each workload twice per mode with the same seed, each in its own
fresh interpreter, and compares the count-derived metrics of the two
runs bit for bit: ``wal_bytes_per_msg`` from the untraced run and the
per-layer counts (``*.calls_per_msg``, ``*.records_per_msg``,
``*.forces_per_msg``, ``hit_ratio`` and the others in
``layers.COUNT_METRICS``) from the traced run.  Exits 1 if any run
fails its checks or any count differs.

Usage (from the root of a checkout)::

    python3 perfbench/repeat_check.py [--seed N]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from layers import COUNT_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_COUNTS = ["wal_bytes_per_msg"]


def run(workload: str, seed: int, trace: int) -> dict:
    """One benchmark run, the shortest it can be; returns its result."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, check=False)
    lines = completed.stdout.splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(f"{workload} (trace {trace}) failed:\n"
                         f"{completed.stderr}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    differing = 0
    for workload in WORKLOADS:
        for trace, names in ((0, END_TO_END_COUNTS), (1, COUNT_METRICS)):
            first, second = (run(workload, args.seed, trace)
                             for _ in range(2))
            for name in names:
                a = first["metrics"][name]["value"]
                b = second["metrics"][name]["value"]
                same = a == b
                differing += not same
                print(f"{workload:17s} {name:36s} {a!r:>22} "
                      f"{'==' if same else '!='} {b!r}")
    print("all counts repeat" if not differing
          else f"{differing} counts differ between runs")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
