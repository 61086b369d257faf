"""Seeded generators for the benchmark's programs, emitted as source text.

Every random choice draws from a list in a fixed order, never from a set,
so the same seed gives byte-identical text under any ``PYTHONHASHSEED``.
The programs are only ever handed to the analyzer as text, the way a user
would supply them.
"""

from __future__ import annotations

import random
from typing import Callable, List, Sequence

FIELDS = ("first", "right", "item")
MAX_CALLS = 2  # call sites per generated procedure
INNER = 6  # largest sub-block, per nesting level left
COMPOUND = 0.18  # chance that an instruction is then/loop/iterate

# atom(writer, calls_ok) -> one simple instruction
Atom = Callable[["_Writer", bool], str]


class _Writer:
    """Emits an indented instruction block within an instruction budget.

    ``calls_ok`` is false on the path that takes every ``else`` branch and
    skips every ``loop``, so each generated procedure has a call-free
    execution: every program terminates on some path, which is what makes
    "must within may" a valid check.  With ``loop_calls`` false, no call
    is placed inside a loop either.
    """

    def __init__(self, rng: random.Random, names: Sequence[str], atom: Atom,
                 loop_calls: bool = True):
        self.rng = rng
        self.names = list(names)
        self.atom = atom
        self.loop_calls = loop_calls
        self.lines: List[str] = []

    def var(self) -> str:
        return self.rng.choice(self.names)

    def block(self, budget: int, indent: int, depth: int, calls_ok: bool,
              in_loop: bool = False) -> int:
        spent = 0
        while spent < budget:
            spent += self.instruction(budget - spent, indent, depth, calls_ok, in_loop)
        return spent

    def instruction(self, budget: int, indent: int, depth: int, calls_ok: bool,
                    in_loop: bool) -> int:
        pad = "  " * indent
        if depth > 0 and budget >= 3 and self.rng.random() < COMPOUND:
            kind = self.rng.choice(("then", "then", "loop", "iterate"))
            inner = self.rng.randint(1, max(1, min(budget - 1, INNER * depth)))
            if kind == "then":
                self.lines.append(pad + "then")
                cost = self.block((inner + 1) // 2, indent + 1, depth - 1, True, in_loop)
                self.lines.append(pad + "else")
                cost += self.block(max(1, inner // 2), indent + 1, depth - 1, calls_ok, in_loop)
            elif kind == "loop":
                self.lines.append(pad + "loop")
                cost = self.block(inner, indent + 1, depth - 1, True, True)
            else:
                self.lines.append(pad + f"iterate {self.rng.randint(0, 3)}")
                cost = self.block(inner, indent + 1, depth - 1, calls_ok, in_loop)
            self.lines.append(pad + "end")
            return cost + 1
        calls_ok = calls_ok and (self.loop_calls or not in_loop)
        self.lines.append(pad + self.atom(self, calls_ok))
        return 1


def _source(w: _Writer, dotted: bool) -> str:
    if dotted and w.rng.random() < 0.3:
        return f"{w.var()}.{w.rng.choice(FIELDS)}"
    return w.var()


def _simple(w: _Writer, dotted: bool) -> str:
    """One assignment, creation, forget or cut."""
    roll = w.rng.random()
    if roll < 0.6:
        return f"{w.var()} := {_source(w, dotted)}"
    if roll < 0.75:
        return f"create {w.var()}"
    if roll < 0.87:
        return f"forget {w.var()}"
    return f"cut {w.var()}, {w.var()}"


def interproc_program(rng: random.Random, level: str, size: int) -> str:
    """Main and three procedures with formals, about ``size`` instructions
    and at most MAX_CALLS call sites each.

    At e1, Main and p0 call each other and p1/p2, and p1/p2 call each other:
    direct and mutual recursion over plain variables.  At e2, sources and
    arguments may be dotted and calls may be qualified, but each procedure
    calls only those after it and only Main calls inside a loop;
    ``recursive_program`` gives e2 recursion.
    """
    names = ["a", "b", "c", "d", "e", "f"]
    procs = ["Main", "p0", "p1", "p2"]
    formals = {p: names[rng.randint(0, 4):][: rng.randint(1, 2)] for p in procs[1:]}
    formals["Main"] = []
    dotted = level == "e2"

    def callees(caller: str) -> List[str]:
        if dotted:
            return procs[procs.index(caller) + 1:]
        return procs if caller in ("Main", "p0") else ["p1", "p2"]

    def writer(caller: str) -> _Writer:
        targets = callees(caller)
        calls_left = [MAX_CALLS]

        def atom(w: _Writer, calls_ok: bool) -> str:
            if calls_ok and targets and calls_left[0] and w.rng.random() < 0.4:
                calls_left[0] -= 1
                callee = w.rng.choice(targets)
                args = ", ".join(_source(w, dotted) for _ in formals[callee])
                if dotted and w.rng.random() < 0.5:
                    callee = f"{w.var()}.{callee}"
                return f"call {callee} ({args})" if args else f"call {callee}"
            return _simple(w, dotted)

        return _Writer(rng, names, atom, loop_calls=not dotted or caller == "Main")

    out: List[str] = []
    for name in procs:
        w = writer(name)
        w.block(rng.randint(size // 2, size), 1, 2, False)
        params = formals[name]
        out.append(f"procedure {name} ({', '.join(params)})" if params else f"procedure {name}")
        out.extend(w.lines)
        out.append("end")
    return "\n".join(out) + "\n"


def recursive_program(rng: random.Random, size: int) -> str:
    """An e2 program whose procedures recurse through qualified calls.

    Main calls p0; p0 calls itself, or p0 and p1 call each other, through
    a qualifier (``call x.p0 (y.first)``) in the ``then`` branch of a
    conditional whose ``else`` branch is the call-free base case.  Each
    block has at most ``size`` instructions over four variables.

    The recursive call is never inside a loop.  With it inside a loop, as
    in ``worst_case.e2``, one program in 200-400 ran past 3 s even at two
    or three instructions per block, so a timed run would be mostly
    time-limit failures; the self-test runs that case against the limit.
    """
    names = ["a", "b", "c", "d"]
    procs = ["p0", "p1"] if rng.random() < 0.5 else ["p0"]
    formals = {p: rng.choice(names) for p in procs}

    def call(w: _Writer, callee: str, qualified: bool) -> str:
        qualifier = f"{w.var()}." if qualified else ""
        return f"call {qualifier}{callee} ({_source(w, True)})"

    def atom(w: _Writer, calls_ok: bool) -> str:
        return _simple(w, True)

    def insert_call(w: _Writer, indent: int, callee: str, qualified: bool) -> None:
        """Put a call between two of the block's own instructions, never
        inside one of its loops or branches."""
        pad = "  " * indent
        starts = [i for i, line in enumerate(w.lines)
                  if line.startswith(pad) and line[len(pad)] != " "
                  and line.strip() not in ("else", "end")]
        w.lines.insert(rng.choice(starts + [len(w.lines)]), pad + call(w, callee, qualified))

    w = _Writer(rng, names, atom)
    w.block(rng.randint(1, size), 1, 1, False)
    insert_call(w, 1, "p0", rng.random() < 0.5)
    out = ["procedure Main"] + w.lines + ["end"]
    for index, name in enumerate(procs):
        w = _Writer(rng, names, atom)
        w.block(rng.randint(0, size // 2), 1, 1, False)
        recurse = _Writer(rng, names, atom)
        recurse.block(rng.randint(0, size // 2), 2, 1, False)
        insert_call(recurse, 2, procs[(index + 1) % len(procs)], True)
        base = _Writer(rng, names, atom)
        base.block(rng.randint(1, max(1, size // 2)), 2, 0, False)
        out += [f"procedure {name} ({formals[name]})", *w.lines, "  then", *recurse.lines,
                "  else", *base.lines, "  end", "end"]
    return "\n".join(out) + "\n"
