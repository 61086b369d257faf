"""Variables every terminating run of a construct is guaranteed to set.

The exact set is uncomputable, so this is a deliberate under-approximation:
whenever in doubt, leave a variable out.  Concretely —

* assignments, ``create`` and ``forget`` set their target;
* ``cut x, y`` counts as setting both operands (bare variables only —
  a dotted operand contributes nothing);
* a sequence sets the union of what its parts set;
* a conditional only guarantees what *both* branches set;
* a loop guarantees nothing (zero iterations are possible), and a bounded
  ``iterate`` guarantees its body's set only when the count is positive;
* an unqualified call guarantees what the callee's body guarantees;
* a qualified call ``call x.r`` guarantees the callee's set re-rooted
  under ``x`` (entries become paths like ``x.v``).

Recursive procedures are handled by a least fixpoint from the empty set,
which stays on the safe (small) side.  Re-rooted entries that exceed the
dot budget are dropped — also safe, since dropping only shrinks the set.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Sequence, Set

from .lang import (
    Assign,
    Call,
    Cond,
    Create,
    Cut,
    Forget,
    Instruction,
    Loop,
    Program,
    Repeat,
    Skip,
)
from .paths import Path, concat, dot_count, var

ModSet = FrozenSet[Path]

EMPTY_MODSET: ModSet = frozenset()


def _body_modset(body: Sequence[Instruction], env: Dict[str, ModSet], bound: int) -> ModSet:
    out: Set[Path] = set()
    for ins in body:
        out |= _ins_modset(ins, env, bound)
    return frozenset(out)


def _ins_modset(ins: Instruction, env: Dict[str, ModSet], bound: int) -> ModSet:
    if isinstance(ins, Skip):
        return EMPTY_MODSET
    if isinstance(ins, (Create, Forget)):
        return frozenset({var(ins.name)})
    if isinstance(ins, Cut):
        return frozenset(
            p for p in (ins.left, ins.right) if len(p) == 1
        )
    if isinstance(ins, Assign):
        return frozenset({ins.target})
    if isinstance(ins, Cond):
        return _body_modset(ins.then_branch, env, bound) & _body_modset(
            ins.else_branch, env, bound
        )
    if isinstance(ins, Loop):
        return EMPTY_MODSET
    if isinstance(ins, Repeat):
        if ins.count == 0:
            return EMPTY_MODSET
        return _body_modset(ins.body, env, bound)
    if isinstance(ins, Call):
        callee = env.get(ins.proc, EMPTY_MODSET)
        if not ins.qualifier:
            return callee
        return frozenset(
            q
            for q in (concat(ins.qualifier, p) for p in callee)
            if dot_count(q) <= bound
        )
    raise TypeError(f"unknown instruction {ins!r}")  # pragma: no cover


def modified_vars(program: Program, max_dots: int) -> Dict[str, ModSet]:
    """Per-procedure guaranteed-set sets, as a least fixpoint over calls.
    Re-rooted entries with more than max_dots dots are dropped (the
    analysis's budget, ``engine.Analysis.max_dots``)."""
    env: Dict[str, ModSet] = {p.name: EMPTY_MODSET for p in program.procedures}
    while True:
        changed = False
        for proc in program.procedures:
            new = _body_modset(proc.body, env, max_dots)
            if new != env[proc.name]:
                env[proc.name] = new
                changed = True
        if not changed:
            return env
