"""Check a reference tree that `scripts/reference_runs.py` wrote.

Run from the repository root:

    PYTHONPATH=src python3 scripts/check_tree.py TREE

Of the 1,000 seed-1 fuzz configs, every one must exit 0, 2 or 3 under run
(0 or 2 under eval) without a traceback, and every exit 2 (a mesher
refusal) must name its puncture. TREE's convergence_fuzz.txt must hold 300
lines, each refused or converged; the step totals are printed, not
bounded. The crowded runs' fields, read back from their artifacts, must
pass the sampled INV check. Prints the exit splits, the convergence totals
and the INV summaries, and exits 1 with every failure listed when a check
fails.
"""

import re
import sys
from collections import Counter
from pathlib import Path

import cavelast as cv
from cavelast import cli

EXIT_CODES = {"run": ("0", "2", "3"), "eval": ("0", "2")}
CONVERGENCE_LINES = 300


def check(tree: Path) -> list:
    """Print the tree's summary lines; return its failures, one string each."""
    bad = []
    for command, allowed in EXIT_CODES.items():
        split = Counter()
        for k in range(1000):
            d = tree / "fuzz" / command / str(k)
            code, err = (d / "exit_code.txt").read_text().strip(), (d / "stderr.txt").read_text()
            split[code] += 1
            if code not in allowed or "Traceback" in err or (
                    code == "2" and not re.search(r"puncture \d+", err)):
                bad.append(f"{command} config {k}: exit {code}\n{err}")
        print(f"{command} exit split:", dict(sorted(split.items())))
    lines = (tree / "convergence_fuzz.txt").read_text().splitlines()
    steps = [int(m[1]) for m in (re.match(r"config \d+: \w+ after (\d+) steps", s) for s in lines) if m]
    failed = [s for s in lines if not re.match(r"config \d+: (refused|converged after)", s)]
    bad += failed
    if len(lines) != CONVERGENCE_LINES:
        bad.append(f"convergence_fuzz.txt: {len(lines)} lines, not {CONVERGENCE_LINES}")
    print(f"{len(steps)} runs ({len(failed)} not converged), {sum(s.endswith(': refused') for s in lines)} "
          f"refused; {sum(steps)} steps, {sum(n > 100 for n in steps)} runs over 100 steps")
    for c in ("two_close", "near_rim"):
        _, y = cli._load_run(tree / "runs" / c)
        rep = cv.check_inv(y)
        print(c, rep.summary())
        if not rep.passed:
            bad.append(f"{c}: check_inv did not pass")
    return bad


if __name__ == "__main__":
    sys.exit("\n".join(check(Path(sys.argv[1]))) or None)
