"""Smoke tests: each experiment script runs to completion on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("name,args", [
    ("run_discriminant_suite.py", ["--max-n", "3"]),
    ("run_levy_experiments.py", ["--paths", "200"]),
])
def test_script_prints_its_report(name, args, tmp_path):
    proc = run_script(name, args, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_invariance_script_writes_both_families(tmp_path):
    prefix = tmp_path / "inv"
    proc = run_script("run_invariance_decay.py", ["--sizes", "4,8", "--trials", "500", "--out-prefix", str(prefix)],
                      tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    for family in ("offdiag", "star"):
        lines = (tmp_path / f"inv_{family}.csv").read_text().splitlines()
        assert lines[0].startswith("# family=") and len(lines) == 4  # comment, header, n = 4 and 8
