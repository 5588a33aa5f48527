"""List every number that moved between two artifact trees.

Run from anywhere:

    python3 scripts/digit_diff.py A B

Walks the directories A and B and compares the files at the same relative
paths. Prints one line per moved number in a numeric text file (one whose
lines read the same in A and B once their numbers are taken out), as

    path:row:column  value_in_A -> value_in_B  rel r

with row the 1-based line of the file and column the 1-based place of the
number on that line (for a table, its column), and r = |b - a| / max(|a|, |b|)
(0 where both are 0, nan where either is nan). Then one summary line per
such file (the count of moved numbers, the rows they sit in, the largest
relative change), the files that differ otherwise (binary, or changed text
between the numbers), the files in one tree only, and the count of
identical files. Exits 0 when the trees are identical, 1 when they are not;
a reader that closes the pipe early ends it by SIGPIPE, without a traceback.
"""

import argparse
import math
import re
import signal
import sys
from pathlib import Path

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\b(?:nan|inf)\b")


def _split(line):
    """(text between the numbers, numbers) of one line."""
    return NUMBER.split(line), NUMBER.findall(line)


def _rel(a, b):
    x, y = float(a), float(b)
    scale = max(abs(x), abs(y))
    return 0.0 if scale == 0.0 else abs(y - x) / scale


def moved_numbers(text_a, text_b):
    """[(row, column, a, b)] of the numbers that differ between two texts, or
    None when the texts differ other than in their numbers."""
    lines_a, lines_b = text_a.splitlines(), text_b.splitlines()
    if len(lines_a) != len(lines_b):
        return None
    moved = []
    for row, (la, lb) in enumerate(zip(lines_a, lines_b), start=1):
        if la == lb:
            continue
        (words_a, nums_a), (words_b, nums_b) = _split(la), _split(lb)
        if words_a != words_b:
            return None
        moved += [(row, col, a, b)
                  for col, (a, b) in enumerate(zip(nums_a, nums_b), start=1) if a != b]
    return moved


def _text(path):
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        return None


def digit_diff(a: Path, b: Path) -> bool:
    """Print the report of trees a and b; True when they are identical."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    identical, summaries, differ = 0, [], []
    for rel in sorted(files_a & files_b):
        bytes_a, bytes_b = (a / rel).read_bytes(), (b / rel).read_bytes()
        if bytes_a == bytes_b:
            identical += 1
            continue
        text_a, text_b = _text(a / rel), _text(b / rel)
        moved = None if text_a is None or text_b is None else moved_numbers(text_a, text_b)
        if not moved:  # binary, changed text, or only a line ending changed
            differ.append(rel)
            continue
        changes = [_rel(x, y) for _, _, x, y in moved]
        for (row, col, x, y), r in zip(moved, changes):
            print(f"{rel}:{row}:{col}  {x} -> {y}  rel {r:.1e}")
        worst = math.nan if any(map(math.isnan, changes)) else max(changes)
        rows = len({row for row, *_ in moved})
        summaries.append(f"{rel}: {len(moved)} numbers moved in {rows} of "
                         f"{len(text_a.splitlines())} rows, largest relative change {worst:.1e}")
    for line in summaries:
        print(line)
    for rel in differ:
        print(f"{rel}: differs")
    for name, only in (("A", files_a - files_b), ("B", files_b - files_a)):
        for rel in sorted(only):
            print(f"{rel}: only in {name}")
    print(f"{identical} identical files")
    return not (summaries or differ or files_a ^ files_b)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="first tree")
    parser.add_argument("b", type=Path, help="second tree")
    args = parser.parse_args(argv)
    for tree in (args.a, args.b):
        if not tree.is_dir():
            parser.error(f"{tree} is not a directory")
    return 0 if digit_diff(args.a, args.b) else 1


if __name__ == "__main__":
    # a reader that closes the pipe early (`| head`) ends the script quietly,
    # by SIGPIPE, as it ends the shell's own tools
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())
