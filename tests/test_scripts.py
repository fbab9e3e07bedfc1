"""The command-line scripts parse their arguments and run end to end."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(script, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("script", ["cross_check.py", "free_energy_sweep.py"])
def test_script_help(script):
    proc = run_script(script, "--help")
    assert proc.returncode == 0, proc.stderr


def test_cross_check_runs():
    proc = run_script("cross_check.py", "--n-max", "4")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count(" ok\n") == 5 * 4


@pytest.mark.parametrize("script, args", [
    # --n-max 0 checked nothing and passed; --n-max -1 printed an empty table
    ("cross_check.py", ["--n-max", "0"]),
    ("free_energy_sweep.py", ["--n-max", "-1"]),
    ("cross_check.py", ["--tol", "nan"]),
])
def test_scripts_refuse_what_the_cli_refuses(script, args):
    proc = run_script(script, *args)
    assert proc.returncode == 2 and "error:" in proc.stderr, proc.stdout + proc.stderr


def test_free_energy_sweep_runs():
    proc = run_script("free_energy_sweep.py", "--n-max", "6")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[2:]]
    assert [int(r[0]) for r in rows] == list(range(1, 7))


def test_free_energy_sweep_refuses_a_value_its_error_estimate_does_not_vouch_for():
    # at (0.9 + 30i, 0.3) wdet's pivot growth eats most of the mantissa:
    # 2g - bits is -25.8 at N=5, an estimate of 1.7e-8.  The script stops as
    # `icewall compute` does, with one error line naming the route, N and the
    # estimate
    proc = run_script("free_energy_sweep.py", "--n-max", "6", "--lambda", "0.9,30")
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert proc.stderr.startswith("error: wdet: the error estimate ")
    assert proc.stderr.count("\n") == 1 and " at N=" in proc.stderr


def test_free_energy_sweep_takes_a_negative_lambda_after_its_option():
    split = run_script("free_energy_sweep.py", "--n-max", "3", "--lambda", "-0.9,0.1")
    joined = run_script("free_energy_sweep.py", "--n-max", "3", "--lambda=-0.9,0.1")
    assert split.returncode == 0, split.stderr
    assert split.stdout == joined.stdout


def test_perfbench_self_check():
    # the benchmark wraps icewall functions by name; this fails when one is gone
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                           "--self-check"], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
