"""Smoke tests: each sweep in scripts/ runs, exits 0 and prints a known row."""

import os
import pathlib
import re
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
    assert line in _run(script, args).splitlines()


def _run(script, args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_nerve_scaling_prints_counts_time_and_peak():
    # the times and peak vary from run to run; the counts and JSON sizes do not
    rows = _run("nerve_scaling.py", ["--dim-cap", "3"]).splitlines()
    assert len(rows) == 22 + 7
    assert re.fullmatch(r"bs3 +levels \[1, 6, 36, 216\]  generators \[1, 5, 25, 125\]"
                        r"  \d+\.\d{4} s  \d+\.\d MB  json 20247 B  \d+\.\d{4} s", rows[14]), rows
    # the Duskin nerves of the 2-categories follow the categories' nerves
    assert re.fullmatch(r"two_group_c3 +levels \[1, 1, 3, 27\]  generators \[1, 0, 2, 20\]"
                        r"  \d+\.\d{4} s  \d+\.\d MB  json 5392 B  \d+\.\d{4} s", rows[25]), rows
    [row] = _run("nerve_scaling.py", ["--dim-cap", "4", "--category", "poset3"]).splitlines()
    assert row.startswith("poset3  levels [4, 10, 20, 35, 56]  generators [4, 6, 4, 1, 0]  ")
    [row] = _run("nerve_scaling.py", ["--dim-cap", "3", "--category", "two_group_c3"]).splitlines()
    assert row.startswith("two_group_c3  levels [1, 1, 3, 27]  generators [1, 0, 2, 20]  ")
