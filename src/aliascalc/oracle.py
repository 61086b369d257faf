"""Concrete reference semantics for the base tier, and the soundness check.

A concrete state maps defined variables to opaque addresses, numbered in
order of first reach from the sorted variables: two states that differ
only in how their objects are numbered are the same state, so a state is
just the partition of the defined variables into shared objects, and the
states of a program range over a finite set.  An *execution* is a state
plus what happened along the way: which variables were assigned, which
``cut`` assumptions turned out to be violated (the operands were in fact
aliased — ``cut`` itself never changes the state), and a trail of the
nondeterministic choices taken, kept only as a witness for reports.

Executions compare on everything except the trail, so a set of them holds
each outcome once, with the witness of the first run to reach it.  The
interpreter runs each loop to the fixpoint of its executions.  Only the
cap ``MAX_PATHS`` on the number of executions can cut the enumeration
short; a run it truncated is reported as bounded.  A run starts from every
state an initial may relation allows: each way of sharing objects among
variables that it pairs.

The soundness check compares, for every final execution, the aliasing in
the concrete state against the analysis result from the same initial
relation: every concrete alias pair must be predicted.  Executions with
violated cut assumptions are excluded from that containment check — the
analysis was explicitly told those two expressions were distinct, so it
owes nothing on such runs — but they are reported, and they still
participate in validating the guaranteed-set of modified variables.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from . import relations as rel
from .engine import Analysis, AnalysisConfig
from .lang import (
    Assign,
    Call,
    Cond,
    Create,
    Cut,
    Forget,
    Instruction,
    Loop,
    MAIN,
    Program,
    Record,
    Repeat,
    Skip,
    instructions_of,
    iterate,
    one_line,
)
from .modvars import modified_vars
from .paths import render, var
from .relations import Relation


# The most executions a set may hold; past it, later ones are dropped.
MAX_PATHS = 20_000


# Sorted (variable, address) pairs, the addresses numbered 0, 1, ... in
# order of first reach.  Defined variables are exactly the paired ones.
ConcreteState = Tuple[Tuple[str, int], ...]


def _mk_state(values: Dict[str, int]) -> ConcreteState:
    """The canonical state that shares objects as ``values`` does."""
    renumber: Dict[int, int] = {}
    return tuple(
        (name, renumber.setdefault(addr, len(renumber)))
        for name, addr in sorted(values.items())
    )


def initial_state(variables: Iterable[str]) -> ConcreteState:
    """Every variable created, all addresses pairwise distinct."""
    return _mk_state({v: i for i, v in enumerate(variables)})


def start_states(variables: FrozenSet[str], init: Relation) -> Iterator[ConcreteState]:
    """Every state that init allows with all of variables and every
    variable init names defined: one per partition of them into blocks
    whose members init pairs with one another, the all-distinct state
    first.  Only variables init pairs with another are ever merged, so an
    empty init yields that one state and walks no partition.  Blocks are
    built on an explicit stack, so a large clique in init does not recurse."""
    variables = variables | {e[0] for e in rel.elements(init) if len(e) == 1}
    partners: Dict[str, Set[str]] = {}
    for e, f in init:
        if len(e) == len(f) == 1:
            partners.setdefault(e[0], set()).add(f[0])
            partners.setdefault(f[0], set()).add(e[0])
    merged = sorted(partners)
    base = dict(initial_state(variables))
    stack: List[Tuple[Tuple[str, ...], ...]] = [()]
    while stack:
        blocks = stack.pop()
        placed = sum(map(len, blocks))
        if placed == len(merged):
            values = dict(base)
            for block in blocks:
                for v in block[1:]:
                    values[v] = values[block[0]]
            yield _mk_state(values)
            continue
        v = merged[placed]
        stack.extend(reversed([
            blocks[:i] + (block + (v,),) + blocks[i + 1:]
            for i, block in enumerate(blocks) if partners[v].issuperset(block)
        ]))
        stack.append(blocks + ((v,),))  # popped first: v in a block of its own


class Execution(Record):
    """An outcome: state, assigned variables and violated cuts; the trail
    is a witness only and takes no part in equality."""

    __slots__ = ("state", "assigned", "cut_violations", "trail")
    _compared = ("state", "assigned", "cut_violations")

    def __init__(self, state: ConcreteState, assigned: FrozenSet[str] = frozenset(),
                 cut_violations: FrozenSet[str] = frozenset(), trail: Tuple[str, ...] = ()):
        object.__setattr__(self, "state", state)
        object.__setattr__(self, "assigned", assigned)
        object.__setattr__(self, "cut_violations", cut_violations)
        object.__setattr__(self, "trail", trail)


# Execution sets are insertion-ordered sets of executions (dict keys), so
# enumeration is reproducible regardless of hash randomization and two
# routes to the same outcome are explored once (first witness kept).
ExecSet = Dict[Execution, None]


def _shared(state: ConcreteState) -> List[List[str]]:
    """The variables holding each address that more than one holds."""
    by_addr: Dict[int, List[str]] = {}
    for name, addr in state:
        by_addr.setdefault(addr, []).append(name)
    return [group for group in by_addr.values() if len(group) > 1]


def aliases_of(state: ConcreteState) -> Relation:
    """The alias relation a concrete state induces: distinct defined
    variables holding the same address."""
    return rel.from_cliques([[var(n) for n in group] for group in _shared(state)])


def program_variables(program: Program) -> FrozenSet[str]:
    return frozenset(e[0] for e in program.expressions if len(e) == 1)


def ensure_base_tier(program: Program) -> None:
    for ins in instructions_of(program):
        if isinstance(ins, Call):
            raise ValueError("the concrete semantics covers the call-free tier only")
        if isinstance(ins, Assign) and len(ins.source) != 1:
            raise ValueError("the concrete semantics covers undotted programs only")
        if isinstance(ins, Cut) and (len(ins.left) != 1 or len(ins.right) != 1):
            raise ValueError("the concrete semantics covers undotted programs only")


class Interpreter:
    """Enumerates the executions of a call-free, dot-free program."""

    def __init__(self):
        self.truncated = False

    def _clamp(self, execs: ExecSet) -> ExecSet:
        if len(execs) <= MAX_PATHS:
            return execs
        self.truncated = True
        return dict.fromkeys(islice(execs, MAX_PATHS))

    def run_body(self, execs: ExecSet, body: Sequence[Instruction]) -> ExecSet:
        out = execs
        for ins in body:
            out = self.step(out, ins)
        return out

    def step(self, execs: ExecSet, ins: Instruction) -> ExecSet:
        if isinstance(ins, Cond):
            then_in = dict.fromkeys(_mark(ex, "then") for ex in execs)
            else_in = dict.fromkeys(_mark(ex, "else") for ex in execs)
            merged = self.run_body(then_in, ins.then_branch)
            merged.update(self.run_body(else_in, ins.else_branch))
            return self._clamp(merged)
        if isinstance(ins, Loop):
            return self.run_loop(execs, ins.body)
        if isinstance(ins, Repeat):
            return self.run_repeat(execs, ins)
        return self._clamp(dict.fromkeys(self.step_one(ex, ins) for ex in execs))

    def step_one(self, ex: Execution, ins: Instruction) -> Execution:
        if isinstance(ins, Skip):
            return ex
        values = dict(ex.state)
        if isinstance(ins, Cut):
            x, y = ins.left[0], ins.right[0]
            violations = ex.cut_violations
            if x in values and y in values and values[x] == values[y]:
                violations = violations | {f"{x} ~ {y} at '{one_line(ins)}'"}
            return Execution(ex.state, ex.assigned | {x, y}, violations, ex.trail)
        if isinstance(ins, Create):
            target = ins.name
            # The addresses in use are below the number of variables.
            values[target] = len(values)
        elif isinstance(ins, Forget):
            target = ins.name
            values.pop(target, None)
        elif isinstance(ins, Assign):
            target, source = ins.target[0], ins.source[0]
            if source in values:
                values[target] = values[source]
            else:
                # An undefined source behaves like forgetting the target.
                values.pop(target, None)
        else:  # pragma: no cover
            raise TypeError(f"unhandled instruction {ins!r}")
        return Execution(_mk_state(values), ex.assigned | {target}, ex.cut_violations, ex.trail)

    def run_repeat(self, execs: ExecSet, ins: Repeat) -> ExecSet:
        """``ins.count`` passes of the body.  Which executions a pass yields,
        and in what order, depends only on the executions of its input in
        order (trails are carried along, never read, and take no part in
        equality), so the executions in order are the cycle key.  The
        result has the executions of all count passes; its witness trails
        are those of the shorter run that reaches them."""
        return iterate(lambda e: self.run_body(e, ins.body), execs, ins.count, key=list)

    def run_loop(self, execs: ExecSet, body: Sequence[Instruction]) -> ExecSet:
        """Exits after any number of iterations: runs the body on the
        executions not seen before until it yields none, which happens
        because executions range over a finite set."""
        seen = dict.fromkeys(_mark(ex, "loop") for ex in execs)
        frontier = seen
        while frontier:
            fresh = dict.fromkeys(ex for ex in self.run_body(frontier, body) if ex not in seen)
            seen.update(fresh)
            seen = self._clamp(seen)
            # What the cap dropped is not run again, or the loop could yield
            # it again on every pass.
            frontier = dict.fromkeys(ex for ex in fresh if ex in seen)
        return seen


def _mark(ex: Execution, token: str) -> Execution:
    return Execution(ex.state, ex.assigned, ex.cut_violations, ex.trail + (token,))


def _start(state: ConcreteState) -> Execution:
    """An execution at a start state; one that shares objects begins its
    witness trail with them, as in ``start {x, y}``."""
    shared = " ".join("{" + ", ".join(group) + "}" for group in _shared(state))
    return Execution(state, trail=(f"start {shared}",) if shared else ())


class RunResult:
    def __init__(self, executions: List[Execution], bounded: bool, truncated: bool):
        self.executions = executions
        self.bounded = bounded
        self.truncated = truncated


def run_program(program: Program, init: Relation = rel.EMPTY) -> RunResult:
    """All final executions of the main body from every start state init
    allows over the program's variables and those init names
    (``start_states``); an empty init allows only the all-distinct one.
    The starts count against ``MAX_PATHS`` like any execution set."""
    ensure_base_tier(program)
    interp = Interpreter()
    starts = islice(start_states(program_variables(program), init), MAX_PATHS + 1)
    execs = interp._clamp(dict.fromkeys(map(_start, starts)))
    final = interp.run_body(execs, program.procedure(MAIN).body)
    return RunResult(
        executions=list(final),
        bounded=interp.truncated,
        truncated=interp.truncated,
    )


class SoundnessReport:
    def __init__(self, paths: int, bounded: bool, computed: Relation):
        self.paths = paths
        self.bounded = bounded
        self.containment_violations: List[str] = []
        self.cut_violations: List[str] = []
        self.modvar_violations: List[str] = []
        self.computed = computed
        self.realised: Relation = rel.EMPTY  # every alias of a run whose cuts held

    @property
    def violation_count(self) -> int:
        return (
            len(self.containment_violations)
            + len(self.cut_violations)
            + len(self.modvar_violations)
        )

    def render(self) -> str:
        lines = list(self.containment_violations)
        lines += self.cut_violations
        lines += self.modvar_violations
        lines.append(
            f"checked {self.paths} paths, {self.violation_count} violations, "
            f"bounded: {'yes' if self.bounded else 'no'}"
        )
        return "\n".join(lines)


def _trail_text(ex: Execution) -> str:
    return ",".join(ex.trail) if ex.trail else "straight-line"


def check_soundness(program: Program, init: Relation = rel.EMPTY,
                    max_dots: Optional[int] = None) -> SoundnessReport:
    """Compare enumerated concrete aliasing against the may analysis's
    result, both from init: the runs start from every state init allows,
    and the analysis is the one ``--output relation`` prints for the same
    init and dot budget (None: derived as ``Analysis`` does).

    Reports three kinds of problem lines: concrete alias pairs the analysis
    missed (real soundness violations), cut assumptions that some execution
    falsifies, and guaranteed-modified variables that some execution never
    assigned.
    """
    run = run_program(program, init)
    analysis = Analysis(program, AnalysisConfig(max_dots=max_dots), init)
    computed = analysis.run().relation
    report = SoundnessReport(len(run.executions), run.bounded, computed)
    guaranteed = sorted(
        p[0] for p in modified_vars(program, analysis.max_dots)[MAIN] if len(p) == 1
    )
    seen_cut: set = set()
    for ex in run.executions:
        for desc in sorted(ex.cut_violations):
            if desc not in seen_cut:
                seen_cut.add(desc)
                report.cut_violations.append(
                    f"cut assumption violated: {desc} (path: {_trail_text(ex)})"
                )
        if not ex.cut_violations:
            realised = aliases_of(ex.state)
            report.realised |= realised
            missing = realised - computed
            for e, f in sorted(missing, key=lambda p: (render(p[0]), render(p[1]))):
                report.containment_violations.append(
                    f"violation: concrete alias [{render(e)}, {render(f)}] "
                    f"not predicted (path: {_trail_text(ex)})"
                )
        for name in guaranteed:
            if name not in ex.assigned:
                report.modvar_violations.append(
                    f"modified-variables violation: {name!r} not assigned "
                    f"(path: {_trail_text(ex)})"
                )
    return report
