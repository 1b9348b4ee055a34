"""Every demo script runs to completion against the package under test."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pdcurate

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 8


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_0(demo, tmp_path):
    env = {key: value for key, value in os.environ.items() if not key.startswith("CURATE_")}
    env["PYTHONPATH"] = str(Path(pdcurate.__file__).parents[1])
    env["TMPDIR"] = str(tmp_path)  # the demos write their files under a fresh temp directory
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
