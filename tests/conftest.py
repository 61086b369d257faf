"""Test fixtures load programs from the repository's programs/ directory;
run everything from the repository root regardless of invocation cwd."""

import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(autouse=True)
def _run_from_repo_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def read_program(name):
    """Source text of a fixture under programs/."""
    with open(os.path.join(ROOT, "programs", name), encoding="utf-8") as handle:
        return handle.read()
