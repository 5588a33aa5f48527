"""Write the reference artifacts of one checkout into one tree.

Run from anywhere:

    python3 scripts/reference_runs.py OUT [--root CHECKOUT]

CHECKOUT (default: the checkout this script is in) is the source tree whose
code runs, so the script of one commit can drive another commit's code, for
example a `git worktree` of a parent. Two trees written from two checkouts
compare with `scripts/digit_diff.py A B`. OUT must not exist yet. It gets:

- runs/: every artifact of the bundled runs (`--emit svg,raster,inverse`),
  of `eval eval_identity`, of the iso scenario at h = 0.08 / 0.05 / 0.035 with
  `inv_every = 0` (the benchmark's ladder), of the iso scenario with
  `[run] delta = 0.005` (`--emit inverse`), and of two crowded-puncture
  configs;
- fuzz/run/K and fuzz/eval/K: the exit code, stderr and `summary.txt` of the
  K-th of the 1,000 seed-1 `corpus.fuzz_config` configs under `run` and
  `eval`, all in this interpreter; a config whose `cli.main` raises gets the
  exit code `raised` and the traceback as its stderr;
- convergence_fuzz.txt: the status, Newton steps and final energy of the
  first 300 of those configs at `max_iters = 1500` through `cli.compute`;
- golden/: the CSVs of `scripts/make_golden.py --out`;
- demos/: the stdout of each demo, run in demos/, so their `demo_out` lands
  there too.

The ladder and delta configs are the bundled iso scenario changed through
CHECKOUT's `cavelast.cli.ScenarioConfig`, and the fuzz configs come from
CHECKOUT's `scripts/corpus.py`, which calls that checkout's `cavelast.cli`.
Each run starts in OUT with relative paths, so no file holds OUT's name.
The bytes depend on the OpenBLAS kernel, so pin `OPENBLAS_CORETYPE` when
two machines or two kernels are compared. `scripts/check_tree.py OUT`
checks the fuzz exit codes, the convergence statuses and the crowded
fields' INV check of a tree. A CLI run that exits other than 0 or 3, a
failed golden sweep or a failed demo stops this script.
"""

import argparse
import contextlib
import dataclasses
import io
import os
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

CROWDED = {
    # two punctures 0.02 apart, and one puncture near the outer circle
    "two_close": "[domain]\nshape = disk\nradius = 1.0\nh = 0.1\n"
                 "punctures = -0.11 0.0 0.1; 0.11 0.0 0.1\n",
    "near_rim": "[domain]\nshape = disk\nradius = 1.0\nh = 0.15\n"
                "punctures = -0.39 0.55 0.236\n",
}
LADDER = (0.08, 0.05, 0.035)


def cli_runs(root: Path, out: Path):
    """The bundled, ladder, fine-raster and crowded runs, one process each."""
    from cavelast.cli import ScenarioConfig

    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    iso = ScenarioConfig.from_ini(root / "src/cavelast/scenarios/radial_iso_lambda1.5.ini")
    configs = out / "configs"
    configs.mkdir()
    for h in LADDER:
        text = dataclasses.replace(iso, h=h, inv_every=0).to_ini()
        (configs / f"ladder_{h}.ini").write_text(text)
    (configs / "iso_delta0.005.ini").write_text(dataclasses.replace(iso, delta=0.005).to_ini())
    for name, text in CROWDED.items():
        (configs / f"{name}.ini").write_text(text)

    every = ["--emit", "svg,raster,inverse"]
    runs = [("run", "radial_iso_lambda1.5", every), ("run", "radial_ell_lambda1.5", every),
            ("eval", "eval_identity", [])]
    runs += [("run", f"configs/ladder_{h}.ini", []) for h in LADDER]
    runs += [("run", "configs/iso_delta0.005.ini", ["--emit", "inverse"])]
    runs += [("run", f"configs/{name}.ini", []) for name in CROWDED]
    for command, scenario, extra in runs:
        dest = f"runs/{Path(scenario).name.removesuffix('.ini')}"
        code = subprocess.run([sys.executable, "-m", "cavelast", command, scenario,
                               "--out", dest, *extra], cwd=out, env=env,
                              stdout=subprocess.DEVNULL).returncode
        if code not in (0, 3):
            raise SystemExit(f"{command} {scenario} exited {code}")
    shutil.rmtree(configs)


def fuzz():
    """Exit code, stderr and summary.txt of each seed-1 fuzz config under run
    and eval, and the convergence fuzz, in this interpreter, from the tree's
    root."""
    import numpy as np
    import corpus
    from cavelast import cli
    from cavelast.exceptions import ConfigurationError

    rng = np.random.default_rng(1)
    configs = [corpus.fuzz_config(rng) for _ in range(1000)]
    tmp = Path("fuzz_work")  # a fixed name, as stderr may quote a path
    tmp.mkdir()
    try:
        for k, cfg in enumerate(configs):
            (tmp / f"{k}.ini").write_text(cfg.to_ini())
        for command in ("run", "eval"):
            for k in range(len(configs)):
                dest = Path("fuzz", command, str(k))
                dest.mkdir(parents=True)
                err = io.StringIO()
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                    try:
                        code = cli.main([command, str(tmp / f"{k}.ini"), "--out", str(tmp / "run")])
                    except Exception:
                        code = "raised"
                        traceback.print_exc(file=err)
                (dest / "exit_code.txt").write_text(f"{code}\n")
                (dest / "stderr.txt").write_text(err.getvalue())
                summary = tmp / "run" / "summary.txt"
                if summary.exists():
                    shutil.copyfile(summary, dest / "summary.txt")
                shutil.rmtree(tmp / "run", ignore_errors=True)
    finally:
        shutil.rmtree(tmp)

    lines = []
    for k, cfg in enumerate(configs[:300]):
        try:
            record = cli.compute(dataclasses.replace(cfg, max_iters=1500))
        except ConfigurationError:
            lines.append(f"config {k}: refused")
            continue
        log = record.log
        lines.append(f"config {k}: {log.status} after {len(log.records) - 1} steps, "
                     f"total {log.records[-1]['energy']!r}")
    Path("convergence_fuzz.txt").write_text("\n".join(lines) + "\n")


def golden_and_demos(root: Path, out: Path):
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    subprocess.run([sys.executable, str(root / "scripts/make_golden.py"), "--out", "golden"],
                   cwd=out, env=env, stdout=subprocess.DEVNULL, check=True)
    demos = out / "demos"
    demos.mkdir()
    for demo in sorted((root / "demos").glob("*.py")):
        with open(demos / f"{demo.stem}.stdout", "w") as fh:
            subprocess.run([sys.executable, str(demo)], cwd=demos, env=env, stdout=fh,
                           check=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="directory to create for the tree")
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout whose src/, scripts/make_golden.py and demos/ run")
    args = parser.parse_args(argv)
    root, out = args.root.resolve(), args.out.resolve()
    try:
        out.mkdir(parents=True)
    except FileExistsError:
        raise SystemExit(f"{out} already exists; give a new directory") from None
    # the configs and the fuzz import cavelast from CHECKOUT, and its corpus,
    # which uses that cavelast
    sys.path[:0] = [str(root / "src"), str(root / "scripts")]
    cli_runs(root, out)
    golden_and_demos(root, out)
    os.chdir(out)
    fuzz()


if __name__ == "__main__":
    main()
