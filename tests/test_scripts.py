"""The committed programs CI runs: the tree checker, the OpenBLAS probe, the
reference-tree writer's refusals and the traced benchmark check's pass rule."""

import os
import shutil

import pytest

import check_tree
import traced_passes
from conftest import SCRIPTS, run_python

PUNCTURE_REFUSAL = ("configuration error: puncture 0 at (0.85, 0) with rho 0.05 is too "
                    "close to the domain boundary for [domain] h = 0.1\n")


class TestCheckTree:
    @pytest.fixture(scope="class")
    def tree(self, tmp_path_factory, iso_run):
        """A tree shaped as scripts/reference_runs.py writes it, that passes:
        1,000 fuzz configs under run and eval with every allowed exit code,
        300 convergence lines and the iso run as both crowded runs."""
        tree = tmp_path_factory.mktemp("tree")
        for command, codes in (("run", "023"), ("eval", "02")):
            for k in range(1000):
                d = tree / "fuzz" / command / str(k)
                d.mkdir(parents=True)
                code = codes[k % len(codes)]
                (d / "exit_code.txt").write_text(f"{code}\n")
                (d / "stderr.txt").write_text(PUNCTURE_REFUSAL if code == "2" else "")
        (tree / "convergence_fuzz.txt").write_text("".join(
            f"config {k}: refused\n" if k % 2 else
            f"config {k}: converged after {k % 150} steps, total 1.5\n" for k in range(300)))
        for name in ("two_close", "near_rim"):
            shutil.copytree(iso_run[1], tree / "runs" / name)
        return tree

    def test_passes_on_a_good_tree(self, tree):
        proc = run_python(str(SCRIPTS / "check_tree.py"), str(tree))
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[:3] == ["run exit split: {'0': 334, '2': 333, '3': 333}",
                             "eval exit split: {'0': 500, '2': 500}",
                             "150 runs (0 not converged), 150 refused; 11100 steps, "
                             "48 runs over 100 steps"]
        assert [line.split()[:2] for line in lines[3:]] == [["two_close", "PASS:"],
                                                            ["near_rim", "PASS:"]]

    @pytest.mark.parametrize("config,name,text,named", [
        ("run/5", "exit_code.txt", "1\n", "run config 5: exit 1"),
        ("eval/9", "stderr.txt", "configuration error: [domain] h = 0.1\n",
         "eval config 9: exit 2"),
        ("run/8", "stderr.txt", "Traceback (most recent call last):\n",
         "run config 8: exit 3"),
    ], ids=["bad_exit_code", "refusal_names_no_puncture", "traceback"])
    def test_fails_on_a_planted_fault(self, tree, capsys, config, name, text, named):
        path = tree / "fuzz" / config / name
        good = path.read_text()
        path.write_text(text)
        try:
            bad = check_tree.check(tree)
        finally:
            path.write_text(good)
        capsys.readouterr()
        assert len(bad) == 1 and bad[0].startswith(named)


class TestBlasCore:
    def test_haswell_pin_is_the_kernel(self):
        # CI's Haswell steps rely on OPENBLAS_CORETYPE choosing the kernel,
        # of scipy's OpenBLAS and of numpy's alike
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        default = run_python(str(SCRIPTS / "blas_core.py"), env=env)
        assert default.returncode == 0, default.stderr
        lines = default.stdout.splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("numpy SIMD: ")
        assert lines[2].startswith("numpy OpenBLAS core: ")
        pinned = run_python(str(SCRIPTS / "blas_core.py"), env=dict(env, OPENBLAS_CORETYPE="Haswell"))
        assert pinned.returncode == 0, pinned.stderr
        for k, name in ((0, "OpenBLAS core"), (2, "numpy OpenBLAS core")):
            if lines[k] == f"{name}: unknown":
                continue  # another BLAS is linked
            assert pinned.stdout.splitlines()[k] == f"{name}: Haswell"


class TestReferenceRuns:
    def test_existing_out_is_refused_in_one_line(self, tmp_path):
        proc = run_python(str(SCRIPTS / "reference_runs.py"), str(tmp_path))
        assert proc.returncode == 1
        assert proc.stderr == f"{tmp_path.resolve()} already exists; give a new directory\n"
        assert list(tmp_path.iterdir()) == []


class TestTracedPasses:
    @pytest.mark.parametrize("stdout,ok", [
        ('provenance {"sources": "x"}\n{"correct": true, "attempted": 3, "failed": 0}\n', True),
        ('{"correct": true, "failed": 0}\n\n\n', True),
        ('{"correct": false, "attempted": 3, "failed": 0}\n', False),
        ('{"correct": true, "attempted": 3, "failed": 1}\n', False),
        ('{"correct": 1, "failed": 0}\n', False),
        ('{"correct": true, "failed": 0}\nTraceback (most recent call last):\n', False),
        ('{"failed": 0}\n', False),
        ("[true, 0]\n", False),
        ("", False),
    ], ids=["correct", "trailing_newlines", "incorrect", "a_failed_op", "correct_not_true",
            "json_not_last", "no_correct_key", "not_an_object", "no_output"])
    def test_pass_rule_reads_the_last_line(self, stdout, ok):
        assert traced_passes.passed(stdout) is ok
