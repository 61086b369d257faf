"""Smoke tests of the two scripts under scripts/, run as a user would."""

import os
import subprocess
import sys

from conftest import fixture_init

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROGRAMS = os.path.join(ROOT, "programs")


def run_script(name, *args, hash_seed="0"):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *args],
        env=env,
        capture_output=True,
        text=True,
    )


def test_run_examples_covers_every_fixture_with_its_header_init():
    proc = run_script("run_examples.py")
    assert proc.returncode == 0, proc.stderr
    expected = []
    for name in sorted(os.listdir(PROGRAMS)):
        init = fixture_init(name)
        expected.append(f"== {name}  (level {name[-2:]}, init {init})")
    headers = [line for line in proc.stdout.splitlines() if line.startswith("==")]
    assert headers == expected


def test_fuzz_soundness_is_clean_and_reproducible():
    first = run_script("fuzz_soundness.py", "--trials", "30", "--seed", "0", hash_seed="1")
    second = run_script("fuzz_soundness.py", "--trials", "30", "--seed", "0", hash_seed="2")
    assert first.returncode == 0, first.stdout + first.stderr
    assert second.returncode == 0, second.stdout + second.stderr
    assert first.stdout == second.stdout
    assert "30 trials" in first.stdout
    assert first.stdout.rstrip().endswith(", 53 predicted pairs, 16 realised by no run")
