"""Smoke tests: every example script must run cleanly end to end.

Regression guard for the cwd bug: each example is launched from a *tmp
directory* with ``PYTHONPATH`` stripped from the environment, so the only
way the script can find ``repro`` is its own ``sys.path`` bootstrap
(derived from ``__file__``).  Before the bootstrap existed, any example run
outside the repo root died with ``ModuleNotFoundError: No module named
'repro'``.
"""

import os
import subprocess
import sys
from pathlib import Path


EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, *args: str, cwd, timeout: int = 300):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True, text=True, timeout=timeout, cwd=cwd, env=env,
    )


class TestExamples:
    def test_quickstart(self, tmp_path):
        proc = run_example("quickstart.py", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "100.00% pass" in proc.stdout
        assert "certainty" in proc.stdout

    def test_write_a_test(self, tmp_path):
        proc = run_example("write_a_test.py", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "certainty pc = 100.0%" in proc.stdout
        assert "FAIL [wrong_value]" in proc.stdout

    def test_spec_ambiguities(self, tmp_path):
        proc = run_example("spec_ambiguities.py", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "num_gangs(4): each element incremented 4 time(s)" in proc.stdout
        assert "acc_device_cuda" in proc.stdout

    def test_titan_production(self, tmp_path):
        proc = run_example("titan_production.py", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "FLAGGED" in proc.stdout
        assert "bad CUDA-stack rollout" in proc.stdout

    def test_compiler_evolution(self, tmp_path):
        proc = run_example("compiler_evolution.py", "cray", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "CRAY — c" in proc.stdout or "CRAY" in proc.stdout
        assert "features still failing" in proc.stdout

    def test_validate_vendor(self, tmp_path):
        proc = run_example("validate_vendor.py", "caps", "3.2.3",
                           cwd=tmp_path, timeout=420)
        assert proc.returncode == 0, proc.stderr
        assert "99.0% pass" in proc.stdout
        # reports land relative to the launch cwd, not the repo
        assert (tmp_path / "reports" / "caps-3.2.3-c.html").exists()
        assert (tmp_path / "reports" / "caps-3.2.3-fortran-bugs.txt").exists()
