"""Every demo script runs cleanly against the package in ``src``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# Runs the demo named by argv[1] with the package's F off by one at x^5, so
# that every route the demo holds to F disagrees with it.
DOCTORED_F = """
import runpy, sys, avoiders
from avoiders.series import PowerSeries
real = avoiders.gf_full
def gf_full(order):
    coeffs = list(real(order).coeffs)
    coeffs[5] += 1
    return PowerSeries(tuple(coeffs))
avoiders.gf_full = gf_full
runpy.run_path(sys.argv[1], run_name="__main__")
"""


def _run(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=120
    )


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(demo):
    result = _run(str(demo))
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""


@pytest.mark.parametrize(
    "name, shown, error",
    [
        ("02_counting_classes.py", "  n=5: 87  F: 88  DIFFER",
         "routes differ: pair walk and F at n=5"),
        ("04_generating_functions.py", "routes agree to order 20 -> False",
         "identities fail: G / (1-x) == F; routes agree to order 20; "
         "brute force n<=7: [1, 1, 2, 6, 22, 87, 354, 1459]"),
    ],
)
def test_demo_fails_loudly_when_routes_disagree(name, shown, error):
    result = _run("-c", DOCTORED_F, str(ROOT / "demos" / name))
    assert result.returncode == 1
    assert shown in result.stdout.splitlines()
    assert result.stderr == error + "\n"
