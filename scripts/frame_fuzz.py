"""The Frame fuzz: the solver must not see a relabelling or a mirror image.

Run from the repository root:

    PYTHONPATH=src python3 scripts/frame_fuzz.py

Prints the OpenBLAS kernel first, since a frame change may depend on it.
Then it solves each of the first 300 seed-1 fuzz configs with
max_iters = 1500 that the mesher and the solver accept in the three frames
of `corpus.frames`: on its mesh, relabelled (rng 5) and mirrored by
x -> -x. The data are mirror-symmetric, so no frame may change the status,
any cavity's open/closed verdict, or the final energy by more than 2e-10
relative. Prints one line per frame change and one per config with its step
counts and gaps, and exits 1 when any frame changed.
"""

import dataclasses
import sys

import numpy as np

import corpus
from blas_core import openblas_core
from cavelast.exceptions import CavelastError

ENERGY_GAP = 2e-10


def main():
    print("OpenBLAS core:", openblas_core())
    rng = np.random.default_rng(1)
    configs = [corpus.fuzz_config(rng) for _ in range(300)]
    runs = refused = bad = 0
    for k, cfg in enumerate(configs):
        try:
            original, *others = corpus.frames(dataclasses.replace(cfg, max_iters=1500))
        except CavelastError:
            refused += 1
            continue
        runs += 1
        for f in others:
            if f.status != original.status or f.open != original.open or f.energy_gap > ENERGY_GAP:
                bad += 1
                print(f"config {k} {f.name}: status {original.status} -> {f.status}, open "
                      f"{original.open} -> {f.open}, energy gap {f.energy_gap:.2e}")
        print(f"config {k}: steps {'/'.join(str(f.steps) for f in (original, *others))}, "
              f"energy gap {' / '.join(f'{f.energy_gap:.1e}' for f in others)}, "
              f"position gap {' / '.join(f'{f.position_gap:.1e}' for f in others)}")
    print(f"{runs} runs, {refused} refused, {bad} frame changes")
    return bad > 0


if __name__ == "__main__":
    sys.exit(main())
