"""Smoke runs of the quick demos: each must run to completion as a script,
so a renamed or moved public name breaks a test rather than a demo."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cslr

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", [
    "cli_workflow",
    "dirac_recovery_from_half_samples",
    "inner_solver_comparison",
    "lifted_matrix_anatomy",
])
def test_demo_runs(tmp_path, name):
    src = str(Path(cslr.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path,
               TMPDIR=str(tmp_path))
    run = subprocess.run([sys.executable, str(DEMOS / f"{name}.py")], cwd=tmp_path,
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stdout.strip()
    assert not list(tmp_path.glob("cslr-demo-*"))
