"""Run every workload untraced and traced, and print all metrics.

Usage (from the repository root)::

    python3 perfbench/report.py [--seed 0] [--seconds 30]

For each workload this prints the nine end-to-end metrics (trace 0) and
the per-layer metrics (trace 1), each by name with its unit, followed by
every failure with its label and documented reason, and any failed
check.  Exits non-zero if a run fails or reports ``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("cold_setup", "repeated_solve", "evolving")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    args = p.parse_args(argv)
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, check=False,
            )
            lines = proc.stdout.rstrip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                print(f"  RUN FAILED (exit {proc.returncode}): "
                      f"{proc.stderr.strip()[-500:]}")
                status = 1
                continue
            print(f"  correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']}\n")
            if proc.returncode or not result["correct"]:
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
