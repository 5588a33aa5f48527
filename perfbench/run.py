"""cavelast benchmark: one workload per invocation, closed loop, one caller.

    python3 perfbench/run.py --workload bundled_iso --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from `src/`.
`--trace 0` runs passes of the workload until the next one would overrun
`--seconds` (at least one) and prints the end-to-end metrics, with times
rescaled to a nominal host speed by `calibrate.py`; `--trace 1` runs one
traced pass and prints the per-layer metrics, in raw seconds. The last line of
stdout is the JSON result. Artifacts go to a temporary directory under
`.perfbench_work/`, which also keeps the span dump of traced runs and a
ledger of earlier results of the same sources (see README.md).
"""

import os
import time

START = time.perf_counter()

# Pin BLAS/OpenMP pools before numpy is imported anywhere in this process;
# set later (as `cavelast run --threads` does) they have no effect.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
SETUP_PROBES = 5
# counts a traced run must repeat exactly for the same sources and seed
REPEATED_COUNTS = (
    "degree.check_inv_calls", "variation.gate_calls", "variation.iterations",
    "geometry.locate_calls", "geometry.locate_points", "variation.battery_calls",
    "material.energy_calls", "material.stress_calls", "energy.total_energy_calls",
    "radial.solves", "inverse.cells", "degree.raster_cells",
)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("bundled_iso", "refine_ladder", "oracle_post"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def _source_files():
    files = sorted((SRC / "cavelast").rglob("*"))
    return [f for f in files + sorted(BENCH.glob("*.py"))
            if f.is_file() and "__pycache__" not in f.parts]


def _fingerprint() -> str:
    h = hashlib.sha256()
    for f in _source_files():
        h.update(f.relative_to(ROOT).as_posix().encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def _commit() -> str:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown: not a git checkout"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = git / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return f"unknown: unresolved {ref[5:]}"


class Ledger:
    """Results of earlier runs of the same sources in this checkout.

    Keyed by workload and seed, it holds the status, iteration count and
    artifact hashes of every operation, and the counts of traced runs. A
    later run with the same seed, traced or not, must reproduce the outputs
    byte for byte and the counts exactly.
    """

    def __init__(self, path: Path, fingerprint: str):
        self.path = path
        data = json.loads(path.read_text()) if path.is_file() else {}
        if data.get("fingerprint") != fingerprint:
            data = {"fingerprint": fingerprint, "outputs": {}, "counts": {}}
        self.data = data

    def compare(self, table, key, got) -> list:
        want = self.data[table].setdefault(key, got)
        return [f"{k}: {got[k]} differs from an earlier run's {want.get(k)}"
                for k in got if want.get(k) != got[k]]

    def save(self):
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, indent=1))
        os.replace(tmp, self.path)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "cavelast" / "__init__.py").is_file():
        print(f"perfbench: no cavelast package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    import calibrate
    import tracing
    import workloads

    import_s = time.perf_counter() - START
    setup_probe = calibrate.Sampler()
    for _ in range(SETUP_PROBES):
        setup_probe.sample()
    prepare_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = workloads.prepare(args.workload, args.seed)
        prepare_s.append(time.perf_counter() - t0)
        setup_probe.sample()
    raw_setup_s = import_s + statistics.median(prepare_s)
    setup_s = raw_setup_s * setup_probe.speed()
    WORK.mkdir(exist_ok=True)
    fingerprint = _fingerprint()
    ledger = Ledger(WORK / "ledger.json", fingerprint)
    problems = []

    def one_pass(tmp, k, tracer=None, sampler=None):
        clock = workloads.Clock(tracer, sampler)
        out = Path(tmp) / f"pass{k}"
        out.mkdir()
        ops = workloads.run_pass(inputs, clock, out)
        shutil.rmtree(out)
        for op in ops:
            for p in op.problems:
                problems.append(f"{op.name}: {p}")
            got = {"status": op.status, "iterations": op.iterations, **op.hashes}
            for p in ledger.compare("outputs", f"{args.workload}/{args.seed}/{op.name}", got):
                problems.append(f"{op.name}: {p}")
        return clock.wall, ops

    passes = []
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        if args.trace:
            tracer = tracing.Tracer()
            with tracer.installed():
                wall, ops = one_pass(tmp, 0, tracer)
            passes.append((wall, wall, ops))
            layers = tracing.layer_metrics(tracer, wall, ops)
            counts = {k: layers[k][0] for k in REPEATED_COUNTS}
            problems += ledger.compare("counts", f"{args.workload}/{args.seed}", counts)
            spans_file = WORK / f"spans-{args.workload}-seed{args.seed}.json"
            tracer.dump(spans_file)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        else:
            start = time.perf_counter()
            with calibrate.Sampler() as sampler:
                while True:
                    t0 = time.perf_counter()
                    first = len(sampler.samples)
                    wall, ops = one_pass(tmp, len(passes), sampler=sampler)
                    passes.append((wall, wall * sampler.speed(first), ops))
                    now = time.perf_counter()
                    if now + (now - t0) > start + args.seconds:
                        break
                probes = len(sampler.samples)
            spans_file = None
    ledger.save()

    ops = [op for _, _, pass_ops in passes for op in pass_ops]
    for op in ops:
        print(f"op {op.name}: {op.status}; energy_gap {op.energy_gap}, "
              f"radius_gap {op.radius_gap}, battery_rel {op.battery_rel}, "
              f"jump_gap/delta {op.jump_gap}, iterations {op.iterations}")
    for p in problems:
        print(f"CHECK FAILED {p}")
    failed = sum(op.failed for op in ops)
    if not args.trace:
        def worst(attr):
            return max(getattr(op, attr) for op in ops if getattr(op, attr) is not None)
        metrics = {
            "norm_wall_s": (statistics.median(norm for _, norm, _ in passes), "s"),
            "setup_s": (setup_s, "s"),
            "ok_frac": (1.0 - failed / len(ops), "ratio"),
            "energy_gap_rel": (worst("energy_gap"), "ratio"),
            "radius_gap_rel": (worst("radius_gap"), "ratio"),
            "battery_residual_rel": (worst("battery_rel"), "ratio"),
            "jump_gap_over_delta": (worst("jump_gap"), "delta"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print("provenance " + json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "passes": len(passes),
        "raw_wall_s": [round(wall, 4) for wall, _, _ in passes],
        "host_speed": [round(norm / wall, 4) for wall, norm, _ in passes],
        "probes": None if args.trace else probes,
        "raw_setup_s": round(raw_setup_s, 4),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "commit": _commit(),
        "source_sha256": fingerprint, "spans": str(spans_file) if spans_file else None,
        "threads": {v: os.environ[v] for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }))
    print(json.dumps({"correct": not problems, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
