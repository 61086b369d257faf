"""Test fixtures load programs from the repository's programs/ directory;
run everything from the repository root regardless of invocation cwd."""

import importlib.util
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(autouse=True)
def _run_from_repo_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def read_program(name):
    """Source text of a fixture under programs/."""
    with open(os.path.join(ROOT, "programs", name), encoding="utf-8") as handle:
        return handle.read()


def fixture_init(name):
    """The relation literal a fixture's header passes as ``--init``, or
    ``{}`` when its header names none."""
    found = re.search(r'--init "([^"]*)"', read_program(name))
    return found.group(1) if found else "{}"


def load_gen():
    """bench/gen.py, the benchmark's program generator, imported read-only."""
    spec = importlib.util.spec_from_file_location(
        "bench_gen", os.path.join(ROOT, "bench", "gen.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
