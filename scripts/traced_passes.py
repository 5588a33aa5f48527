"""Traced benchmark passes stay correct: CI's check of `perfbench/run.py`.

Run from anywhere:

    python3 scripts/traced_passes.py

For each workload it runs one `perfbench/run.py` pass at seed 0 with
`--seconds 1`, first with `--trace 1`, then with `--trace 0`. run.py exits 0
even when a check fails, so a pass is read from the last line of its stdout:
the JSON result must hold `correct` true and `failed` 0. The tracer raises
KeyError if a name it patches has gone, and the untraced pass after a traced
one of the same seed has its outputs checked against the traced ones byte
for byte by run.py's ledger. At the first pass that fails, it prints the
last 20 lines of that pass's stdout and exits 1.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("bundled_iso", "refine_ladder", "oracle_post")


def passed(stdout: str) -> bool:
    """The pass rule on one run's stdout: its last line (trailing newlines
    dropped) is a JSON object with `correct` true and `failed` 0."""
    try:
        result = json.loads(stdout.rstrip("\n").split("\n")[-1])
        return result["correct"] is True and result["failed"] == 0
    except (ValueError, TypeError, KeyError):
        return False


def main() -> int:
    for workload in WORKLOADS:
        for trace in ("1", "0"):
            stdout = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
                 "--seconds", "1", "--trace", trace],
                cwd=ROOT, stdout=subprocess.PIPE, text=True).stdout
            if not passed(stdout):
                print("\n".join(stdout.rstrip("\n").split("\n")[-20:]))
                print(f"{workload}: pass with --trace {trace} not correct")
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
