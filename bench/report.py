"""Run every workload untraced and traced, each in its own process, and print
every metric with its unit and sample counts.

    python3 bench/report.py [--seed N] [--seconds S]

A separate process per run keeps peak RSS to the one workload it ran.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    args = parser.parse_args()
    all_correct = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [
                    sys.executable,
                    str(HERE / "run.py"),
                    f"--workload={workload}",
                    f"--seed={args.seed}",
                    f"--seconds={args.seconds}",
                    f"--trace={trace}",
                ],
                capture_output=True,
                text=True,
                timeout=600,
            )
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                all_correct = False
                continue
            print("\n".join(lines[:-1]))
            all_correct &= json.loads(lines[-1])["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
