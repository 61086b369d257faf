"""The benchmark's workloads: one deterministic stream of jobs per seed.

A job is one program analysed and its output rendered, or one
``alias-calc`` process in ``cli``.  Only source text, fixture files and
command lines leave this module, so the analyzer sees what a user gives it.
"""

from __future__ import annotations

import os
import random
import re
from dataclasses import dataclass
from typing import List, Optional, Tuple

import gen

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROGRAMS = os.path.join(ROOT, "programs")

WORKLOADS = ("interproc", "cli")

INTERPROC_FIXTURES = (
    "mutual_recursion.e1", "mutual_recursion_large.e1", "self_recursive.e1",
    "self_recursive_rev.e1", "qualified_call_args.e2", "field_sources.e2",
    "linked_lists.e2", "linked_lists_shared.e2",
)
CLI_FIXTURES = (
    "assign_chain.e0", "branch_assign.e0", "swap_repeat.e0", "swap_loop.e0",
    "mixed_flow.e0",
) + INTERPROC_FIXTURES

# Every FIXTURE_EVERY-th interproc job is the next fixture; the rest are
# generated, e1 programs, acyclic e2 programs and recursive e2 programs in
# turn, so every seed has the same mix.  At these sizes the slowest of 3,000-20,000
# generated programs of each kind took 0.3 s (e1), 0.55 s (e2) and 0.08 s
# (recursive e2), far below the time limit.
FIXTURE_EVERY = 4
# Jobs per pool: the stream repeats with this period, so each job runs
# several times in a run, spread over the run.
POOL = 320
# Generated kinds: (parse level, instructions per block, at most).
KINDS = {"e1": ("e1", 12), "e2": ("e2", 6), "e2rec": ("e2", 8)}


@dataclass(frozen=True)
class Job:
    name: str  # fixture file name, or gen-<level>-<index>
    text: str = ""  # program source (in-process workloads)
    level: str = "e2"
    init: str = "{}"
    argv: Tuple[str, ...] = ()  # alias-calc arguments (cli)
    output: str = "relation"  # cli output mode

    @property
    def fixture(self) -> Optional[str]:
        return None if self.name.startswith("gen-") else self.name

    @property
    def key(self) -> str:
        """Identifies the job's input: equal keys must print equal output."""
        return f"{self.name} --output {self.output}" if self.argv else self.name


def read_fixture(name: str) -> Tuple[str, str]:
    """Source text and the ``--init`` its header comment asks for."""
    with open(os.path.join(PROGRAMS, name), encoding="utf-8") as handle:
        text = handle.read()
    found = re.search(r'--init "([^"]*)"', text)
    return text, found.group(1) if found else "{}"


class Stream:
    """Job ``i`` of a workload is a pure function of (workload, seed,
    i mod pool), so a process can start anywhere in the stream without
    replaying it, and programs are generated as they are needed."""

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
        self.workload = workload
        self.seed = seed
        self.fixtures: List[Job] = []
        if workload == "interproc":
            for name in INTERPROC_FIXTURES:
                text, init = read_fixture(name)
                self.fixtures.append(Job(name, text, name[-2:], init))
        elif workload == "cli":
            for name in CLI_FIXTURES:
                _, init = read_fixture(name)
                level = name[-2:]
                for output in ("relation", "trace") + (("soundness",) if level == "e0" else ()):
                    argv = (os.path.join(PROGRAMS, name), "--level", level, "--init", init,
                            "--output", output)
                    self.fixtures.append(Job(name, level=level, init=init, argv=argv, output=output))
            random.Random(f"cli:{seed}").shuffle(self.fixtures)
        self.pool = len(self.fixtures) if workload == "cli" else POOL

    def job(self, index: int) -> Job:
        index %= self.pool
        if self.workload == "cli":
            return self.fixtures[index]
        if index % FIXTURE_EVERY == 0:
            return self.fixtures[index // FIXTURE_EVERY % len(self.fixtures)]
        rng = random.Random(f"{self.workload}:{self.seed}:{index}")
        kind = sorted(KINDS)[index % 3]
        level, size = KINDS[kind]
        if kind == "e2rec":
            text = gen.recursive_program(rng, size)
        else:
            text = gen.interproc_program(rng, level, size)
        return Job(f"gen-{kind}-{index}", text, level)
