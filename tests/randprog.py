"""Seeded random programs for the tests and ``scripts/fuzz_soundness.py``.

``random_program`` builds base-tier (e0) programs and ``with_calls`` e1
programs whose procedures call each other.  Both are deterministic given
the ``random.Random`` instance, so a failing case can always be replayed
from its seed.  ``allow`` selects which instruction forms may appear; the
property suites use it to carve out the sub-corpora some laws require
(e.g. straight-line programs, or programs without ``forget``).
``pretty`` prints a program as source text that parses back to it, so a
generated program can be shown, replayed through ``alias-calc`` and
digested.
"""

from __future__ import annotations

import random
from typing import FrozenSet, List, Tuple

from aliascalc.lang import (
    Assign,
    Call,
    Cond,
    Create,
    Cut,
    Forget,
    Instruction,
    Loop,
    MAIN,
    Procedure,
    Program,
    Repeat,
    Skip,
    _blocks,
    _walk,
    one_line,
)
from aliascalc.paths import var

ALL_FORMS: FrozenSet[str] = frozenset(
    {"skip", "create", "forget", "cut", "assign", "cond", "loop", "repeat"}
)
STRAIGHT_LINE: FrozenSet[str] = ALL_FORMS - {"cond", "loop", "repeat"}

# Relative weights; compound forms are kept rare so most programs are
# shallow and the concrete enumeration stays cheap.
_WEIGHTS = {
    "assign": 6,
    "create": 3,
    "forget": 2,
    "cut": 2,
    "skip": 1,
    "cond": 2,
    "loop": 1,
    "repeat": 1,
}


def random_program(
    rng: random.Random,
    max_instructions: int = 12,
    max_vars: int = 6,
    allow: FrozenSet[str] = ALL_FORMS,
) -> Program:
    """A random base-tier program over variables a, b, c, ..., its compound
    instructions nested at most two deep."""
    names = [chr(ord("a") + i) for i in range(max_vars)]
    count = rng.randint(1, max_instructions)
    body = _body(rng, names, count, allow, 2)
    main = Procedure(name=MAIN, formals=(), body=tuple(body))
    return Program(procedures=(main,), level="e0")


def _body(
    rng: random.Random,
    names: List[str],
    budget: int,
    allow: FrozenSet[str],
    depth: int,
) -> List[Instruction]:
    # Iterate the dict, not the frozenset: set order follows the string
    # hash, which changes from process to process.
    forms = [f for f in _WEIGHTS if f in allow]
    if depth <= 0:
        forms = [f for f in forms if f not in ("cond", "loop", "repeat")]
    if not forms:
        forms = ["skip"]
    weights = [_WEIGHTS[f] for f in forms]
    out: List[Instruction] = []
    remaining = budget
    while remaining > 0:
        form = rng.choices(forms, weights)[0]
        ins, cost = _instruction(rng, names, form, remaining, allow, depth)
        out.append(ins)
        remaining -= cost
    return out


def _instruction(
    rng: random.Random,
    names: List[str],
    form: str,
    budget: int,
    allow: FrozenSet[str],
    depth: int,
) -> Tuple[Instruction, int]:
    pick = lambda: var(rng.choice(names))
    if form == "skip":
        return Skip(), 1
    if form == "create":
        return Create(name=rng.choice(names)), 1
    if form == "forget":
        return Forget(name=rng.choice(names)), 1
    if form == "assign":
        return Assign(target=pick(), source=pick()), 1
    if form == "cut":
        return Cut(left=pick(), right=pick()), 1
    # Compound forms: spend part of the budget (at least one atom, at
    # most three per branch) on each sub-body.
    inner = min(budget, rng.randint(1, 3))
    if form == "cond":
        then_branch = _body(rng, names, inner, allow, depth - 1)
        else_branch = _body(rng, names, min(budget, rng.randint(1, 3)), allow, depth - 1)
        cost = len_of(then_branch) + len_of(else_branch) + 1
        return Cond(then_branch=tuple(then_branch), else_branch=tuple(else_branch)), cost
    if form == "loop":
        inner_body = _body(rng, names, inner, allow, depth - 1)
        return Loop(body=tuple(inner_body)), len_of(inner_body) + 1
    if form == "repeat":
        inner_body = _body(rng, names, inner, allow, depth - 1)
        return (
            Repeat(count=rng.randint(0, 3), body=tuple(inner_body)),
            len_of(inner_body) + 1,
        )
    raise ValueError(f"unknown instruction form {form!r}")  # pragma: no cover


def len_of(body: List[Instruction]) -> int:
    """The instructions in body, compound ones and their contents alike."""
    return sum(1 for _ in _walk(body))


def with_calls(rng: random.Random) -> Program:
    """Three procedures made of a random program's body plus a call to a
    random procedure inside a branch and inside a loop, so that calls,
    recursion and call-bearing compounds all occur."""
    names = [MAIN, "p", "q"]
    procs = []
    for name in names:
        body = random_program(rng, max_instructions=6, max_vars=4).procedure(MAIN).body
        branch = Cond(then_branch=(Call((), rng.choice(names[1:])),), else_branch=body[:1])
        loop = Loop(body=body[-1:] + (Call((), rng.choice(names[1:])),))
        procs.append(Procedure(name=name, formals=(), body=body + (branch, loop)))
    return Program(procedures=tuple(procs), level="e1")


def _fmt_ins(ins: Instruction, indent: int, out: List[str]) -> None:
    pad = "  " * indent
    blocks = _blocks(ins)
    if not blocks:
        out.append(pad + one_line(ins))
        return
    for keyword, body in blocks:
        out.append(pad + keyword)
        for sub in body:
            _fmt_ins(sub, indent + 1, out)
    out.append(pad + "end")


def pretty(prog: Program) -> str:
    """Source text that parses back to the same AST."""
    out: List[str] = []
    implicit_main = (
        len(prog.procedures) == 1
        and prog.procedures[0].name == MAIN
        and not prog.procedures[0].formals
        and prog.level == "e0"
    )
    if implicit_main:
        for ins in prog.procedures[0].body:
            _fmt_ins(ins, 0, out)
    else:
        for proc in prog.procedures:
            header = f"procedure {proc.name}"
            if proc.formals:
                header += f" ({', '.join(proc.formals)})"
            out.append(header)
            for ins in proc.body:
                _fmt_ins(ins, 1, out)
            out.append("end")
    return "\n".join(out) + "\n"
