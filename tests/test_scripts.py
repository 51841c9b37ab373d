"""Smoke tests: each sweep in scripts/ runs, exits 0 and prints a known row."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args, line",
    [
        (
            "horn_census.py", ["--dim-cap", "2"],
            "poset1                False True   False (2,0):1/0 (2,1):0/0 (2,2):1/0",
        ),
        (
            "duskin_growth.py", ["--dim-cap", "3"],
            "two_group_c3             levels [1, 1, 3, 27]  closed form [1, 1, 3, 27]"
            "  inner 2-horn fillers {3: 1}",
        ),
        (
            "descent_sweep.py", ["--max-points", "3", "--max-parts", "2"],
            "(2, 1)         c2        2       1       4  1/4          1/4",
        ),
    ],
)
def test_script_runs_and_prints_a_known_row(script, args, line):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout.splitlines(), proc.stdout
