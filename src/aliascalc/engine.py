"""The analysis engine: forward transfer of alias relations through programs.

The transfer of a relation through an instruction follows one rule per form:

* ``skip`` — identity.
* ``create x`` / ``forget x`` — drop every pair rooted at ``x`` (a freshly
  created object is unaliased, exactly like a forgotten one).
* ``cut e, f`` — drop the single pair, on the caller's word.
* ``x := y`` — the substitution operator from :mod:`.relations`.
* sequence — left fold.
* ``then p else q end`` — union of the two branch results in may mode,
  intersection in must mode (there is no condition to test).
* ``iterate n`` — n-fold application.  Once a relation recurs the passes
  cycle, and only the remaining passes modulo the period run
  (``lang.iterate``, the rule the concrete interpreter shares).
* ``loop`` — least (may) / greatest (must) fixpoint of the one-step
  extension, reached in finitely many steps because the pair universe is
  finite and the step is monotone.
* ``call r (l)`` — formals are assigned the actuals, then the body runs;
  resolved through a summary table so recursion terminates.
* ``call x.r (l)`` — ``Analysis.frame`` splits the caller's relation into
  the *visible* pairs, the only ones the callee can read or write, and the
  *carried* pairs, which cross the call unchanged as the frame rule carries
  what a call cannot touch, and sets the entry budget; the call depends on
  the mode only there.  The visible part is re-rooted under the negated
  target (every element prefixed by ``x'``), formals are assigned the
  re-rooted actuals, the body runs, the result is re-rooted back under
  ``x``, pairs that mention a formal of ``r`` under ``x`` or a leftover
  negated segment — both meaningless to the caller — are dropped, and the
  carried part is added back.

Interprocedural analysis caches one exit relation per (procedure, entry
relation) pair.  A key that is new when a body looks it up has its own
body evaluated at once, top-down as in tabulation (Reps, Horwitz and
Sagiv, POPL 1995), and the caller continues with that exit; without
recursion every key is evaluated exactly once.  A key already in the
table, including one still being evaluated further up, serves its current
value, and a FIFO worklist re-runs a key's body when the exit of a key it
looked up has changed, so mutually recursive procedures converge.  Nested
evaluation recurses through the bodies it stacks, so a new key whose body
would take the stack past the parser's nesting fence is queued instead.
In may mode fresh keys start empty and exits only grow; in must mode they
start at the full relation over the program's expressions and only
shrink.  Once the worklist is empty, only the keys reachable from main's
entry are kept: contexts created from intermediate values of the fixpoint
are dropped, so the trace does not see them.

A re-run body mostly meets the relations it met before, so each analysis
memoizes its substitutions, keyed by (instruction, input relation): an
assignment's, and a call's two table-free halves (the formal binding and
view shift on entry, the shift back and cleaning on exit).  A qualified
call's entry is keyed by its visible part, so caller contexts that differ
only in carried pairs share one entry and one summary key.  Every other
rule is cheap and runs each time; a call's summary lookup must, because
that lookup is how the worklist learns which keys depend on which.

What an analysis reads off the program itself — its expressions and their
dot depth, and each procedure's nesting cost — depends on neither mode nor
budget, so one walk reads it when the ``Program`` is built
(``Program.expressions``, ``.max_dots`` and ``.costs``), and every analysis
of it, as the may and must runs of one job, shares it.  Only the budget and
the must seed, which depend on both, are set up per analysis.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple

from . import relations as rel
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
    MAX_NESTING,
    Procedure,
    Program,
    Record,
    Repeat,
    Skip,
    iterate,
    one_line,
)
from .paths import CURRENT, concat, dot_count, has_negation, negation
from .relations import Relation

Recorder = Callable[[str, Relation], None]
Key = Tuple[str, Relation]  # (procedure name, entry relation)

# Safety caps on the two fixpoint iterations.  Both converge on a finite
# universe, so reaching either one is an internal error.
MAX_ROUNDS = 1000  # body evaluations of one summary key
LOOP_CAP = 100_000  # steps of one loop's accumulation chain


class AnalysisConfig(Record):
    __slots__ = ("mode", "max_dots")

    def __init__(self, mode: str = "may", max_dots: Optional[int] = None):
        object.__setattr__(self, "mode", mode)  # "may" or "must"
        object.__setattr__(self, "max_dots", max_dots)  # None: derived from the program


class TracePoint(Record):
    __slots__ = ("context", "label", "relation")

    def __init__(self, context: str, label: str, relation: Relation):
        # context: procedure name plus the entry relation it was run from;
        # label: one-line instruction text, or "t_k" inside a loop
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "relation", relation)


class AnalysisResult:
    def __init__(self, relation: Relation, summary_keys: int, rounds: int):
        self.relation = relation
        self.summary_keys = summary_keys
        self.rounds = rounds
        self.trace: List[TracePoint] = []


class Analysis:
    """One analysis run over one program.

    The summary table maps (procedure name, entry relation) to the exit
    relation current at this point of the fixpoint computation.  ``calls``
    maps each evaluated key to the keys its last body evaluation looked
    up; ``queue`` holds, in FIFO order, the keys whose body must run again;
    ``evaluating`` is the key whose body is running, the innermost one when
    evaluations nest.

    ``memo`` maps (instruction id, input relation) to an assignment's
    substitution or a call's entry or exit half.  None reads the table, so
    the memo stays valid while the table changes and is shared by all keys
    and loop passes; it lives as long as this object.  Instructions are
    keyed by identity, which holds for the program's own and for any body
    the caller keeps alive while it uses the analysis.  The nesting cost of
    each procedure is read from ``program.costs``.
    """

    def __init__(self, program: Program, config: AnalysisConfig = AnalysisConfig(),
                 init: Relation = rel.EMPTY):
        self.program = program
        self.config = config
        self.init = init
        # The dot budget: the override, else deep enough for both the
        # program's own expressions and the initial relation, and never less
        # than 3 (matching the reference behaviour on the list-manipulation
        # examples).
        self.max_dots = config.max_dots
        if self.max_dots is None:
            self.max_dots = max(3, program.max_dots, *(dot_count(e) for e in rel.elements(init)))
        self.table: Dict[Key, Relation] = {}
        self.calls: Dict[Key, Set[Key]] = {}
        self.queue: Deque[Key] = deque()
        self.evaluating: Optional[Key] = None
        self.evaluations: Dict[Key, int] = {}
        # Nested evaluation recurses through the bodies on the evaluation
        # stack: each costs 1 plus its deepest block nesting, and their total
        # stays within the parser's fence, hence within the recursion limit.
        self.depth = 0
        self._cost = program.costs
        self.memo: Dict[Tuple[object, ...], Relation] = {}
        # combine merges the relations of two control-flow paths that meet:
        # their union in may mode, their intersection in must mode.
        if config.mode == "may":
            self._seed = rel.EMPTY
            self.combine = frozenset.union
        elif config.mode == "must":
            self._seed = rel.from_cliques(
                [[e for e in program.expressions if dot_count(e) <= self.max_dots]]
            )
            self.combine = frozenset.intersection
        else:
            raise ValueError(f"unknown mode {config.mode!r}")

    # -- transfer ------------------------------------------------------------

    # The transfer rule of each instruction type; ``_RULES`` maps the type
    # to its rule.

    def _skip(self, a: Relation, ins: Skip) -> Relation:
        return a

    def _kill(self, a: Relation, ins: Create | Forget) -> Relation:
        return rel.restrict(a, ins.name)

    def _cut(self, a: Relation, ins: Cut) -> Relation:
        return rel.cut_pair(a, ins.left, ins.right)

    def _assign(self, a: Relation, ins: Assign) -> Relation:
        key = (id(ins), a)
        out = self.memo.get(key)
        if out is None:
            out = self.memo[key] = rel.subst(a, ins.target, ins.source, self.max_dots)
        return out

    def _cond(self, a: Relation, ins: Cond) -> Relation:
        return self.combine(
            self.transfer_body(a, ins.then_branch),
            self.transfer_body(a, ins.else_branch),
        )

    def _repeat(self, a: Relation, ins: Repeat) -> Relation:
        # A summary key keeps its value once looked up during one body
        # evaluation, so a pass is a function of its input: its own key.
        return iterate(lambda r: self.transfer_body(r, ins.body), a, ins.count,
                       key=lambda r: r)

    def _loop(self, a: Relation, ins: Loop) -> Relation:
        return self.loop_fixpoint(a, ins.body)

    def _call(self, a: Relation, ins: Call) -> Relation:
        if ins.qualifier:
            return self.call_qualified(a, ins)
        return self.call_unqualified(a, ins)

    def transfer_body(
        self, a: Relation, body: Sequence[Instruction], record: Optional[Recorder] = None
    ) -> Relation:
        out = a
        for ins in body:
            if record is not None and type(ins) is Loop:
                out = self.loop_fixpoint(out, ins.body, record)
            else:
                out = _RULES[type(ins)](self, out, ins)
            if record is not None:
                record(one_line(ins), out)
        return out

    def loop_fixpoint(
        self, a: Relation, body: Sequence[Instruction], record: Optional[Recorder] = None
    ) -> Relation:
        """Iterate t_{n+1} = t_n combined with (t_n through the body) until
        stable.  The chain is monotone over a finite universe, so failure
        to stabilize within the cap is an internal error, not bad input.
        """
        t = a
        for n in range(LOOP_CAP):
            if record is not None:
                record(f"t_{n}", t)
            step = self.combine(t, self.transfer_body(t, body))
            if step == t:
                return t
            t = step
        raise RuntimeError(
            "loop failed to stabilize within "
            f"{LOOP_CAP} steps; this is a bug"
        )

    # -- calls ----------------------------------------------------------------

    def summary(self, proc: Procedure, entry: Relation) -> Relation:
        """Exit relation for running proc from entry, per the current table.

        A missing key is seeded (empty in may mode, full in must mode).  If
        it is looked up from another key's body, its own body is evaluated
        at once, so the caller continues with a real exit, not the seed;
        a key looked up from outside any body, or one whose body would nest
        too deep, is queued for the worklist instead.  A key already in the
        table, including one on the evaluation stack, serves its current
        value, which is what makes recursion converge instead of diverging.
        The lookup is then recorded as an edge from the key under
        evaluation, so that a later change to this key's exit re-queues it.
        """
        key = (proc.name, entry)
        if key not in self.table:
            self.table[key] = self._seed
            if self.evaluating is not None and self.depth + self._cost[proc.name] <= MAX_NESTING:
                self.evaluate(key)
            else:
                self.queue.append(key)
        if self.evaluating is not None:
            self.calls[self.evaluating].add(key)
        return self.table[key]

    def evaluate(self, key: Key) -> None:
        """Run key's body once against the current table.  If its exit
        changed, store it and re-queue every key whose last evaluation
        looked it up."""
        count = self.evaluations[key] = self.evaluations.get(key, 0) + 1
        if count > MAX_ROUNDS:
            raise RuntimeError(
                "interprocedural fixpoint failed to stabilize within "
                f"{MAX_ROUNDS} evaluations of one summary key; this is a bug"
            )
        outer, cost = self.evaluating, self._cost[key[0]]
        self.calls[key] = set()
        self.evaluating = key
        self.depth += cost
        exit_rel = self.transfer_body(key[1], self.program.procedure(key[0]).body)
        self.evaluating = outer
        self.depth -= cost
        if exit_rel != self.table[key]:
            self.table[key] = exit_rel
            for caller, callees in self.calls.items():
                if key in callees and caller not in self.queue:
                    self.queue.append(caller)

    def call_unqualified(self, a: Relation, ins: Call) -> Relation:
        proc = self.program.procedure(ins.proc)
        key = (id(ins), a)
        entry = self.memo.get(key)
        if entry is None:
            entry = self.memo[key] = rel.subst_list(
                a, [(f,) for f in proc.formals], list(ins.args), self.max_dots
            )
        return self.summary(proc, entry)

    def frame(self, a: Relation, ins: Call) -> Tuple[Relation, Relation, int]:
        """The qualified call's frame rule: the pairs of the caller's
        relation the callee sees, the pairs that cross the call unchanged,
        and the dot budget on entry.  Must mode sends the whole relation
        through, within the plain budget.  In may mode the callee reads a
        caller path only as Current or a prefix of an actual, and writes
        only paths under the target: a pair with neither kind of element
        crosses the call unchanged.  The shift adds len(target) segments,
        which the entry budget allows for."""
        if self.config.mode == "must":
            return a, rel.EMPTY, self.max_dots
        head = ins.qualifier[0]
        reads = {arg[:i] for arg in ins.args for i in range(1, len(arg) + 1)}
        carried = frozenset(
            (e, f) for e, f in a
            if e and f and e[0] != head and f[0] != head
            and e not in reads and f not in reads
        )
        return a - carried if carried else a, carried, self.max_dots + len(ins.qualifier)

    def call_qualified(self, a: Relation, ins: Call) -> Relation:
        """Run ``call x.r (l)``: the visible part of ``frame``'s split is
        shifted under the negated target, the formals are bound to the
        shifted actuals, the summary runs, the exit is shifted back under
        the target and cleaned, and the carried part is added back."""
        proc = self.program.procedure(ins.proc)
        target = ins.qualifier
        back = negation(target)
        visible, carried, budget = self.frame(a, ins)
        key = (id(ins), visible)
        entry = self.memo.get(key)
        if entry is None:
            inside = rel.prefix_relation(visible, back, budget)
            entry = self.memo[key] = rel.subst_list(
                inside,
                [(f,) for f in proc.formals],
                [concat(back, arg) for arg in ins.args],
                self.max_dots,
            )
        exit_rel = self.summary(proc, entry)
        key = (id(ins), "exit", exit_rel)
        out = self.memo.get(key)
        if out is None:
            outside = rel.prefix_relation(exit_rel, target, self.max_dots)
            # Pairs mentioning a formal under the target, or a residual
            # negated segment, mean nothing to the caller once the call has
            # returned.  The target is a source path, so every formal root
            # is one segment longer than it.
            roots = {concat(target, (f,)) for f in proc.formals}
            n = len(target) + 1
            out = self.memo[key] = frozenset(
                (e, f)
                for e, f in outside
                if e[:n] not in roots and f[:n] not in roots
                and not has_negation(e) and not has_negation(f)
            )
        return out | carried if carried else out

    # -- whole-program -----------------------------------------------------

    def run(self) -> AnalysisResult:
        """Evaluate main's entry key, and with it every key its body looks
        up first (see ``summary``); then drive the summary table to its
        fixpoint with a FIFO worklist of the keys whose lookups changed,
        and keep only the keys reachable from main's entry along the
        lookups of each key's last evaluation.  ``rounds`` is the most
        evaluations of any single key: 1 when no exit is ever revised, as
        in every program without recursion."""
        # Shifting by Current only drops the pairs over the dot budget.
        root = (MAIN, rel.prefix_relation(self.init, CURRENT, self.max_dots))
        self.summary(self.program.procedure(MAIN), root[1])  # creates and queues the root key
        while self.queue:
            self.evaluate(self.queue.popleft())
        live = {root}
        todo = [root]
        while todo:
            for callee in self.calls[todo.pop()]:
                if callee not in live:
                    live.add(callee)
                    todo.append(callee)
        self.table = {key: exit_rel for key, exit_rel in self.table.items() if key in live}
        return AnalysisResult(
            relation=self.table[root],
            summary_keys=len(self.table),
            rounds=max(self.evaluations.values()),
        )

    def run_with_trace(self) -> AnalysisResult:
        """Run to the fixpoint, then replay each cached body once against
        the frozen table, recording the relation after every top-level
        instruction (and each t_k of top-level loops).  Main's entry key
        comes first, the others by procedure name and entry relation, so
        the trace does not depend on the order the driver visited them."""
        result = self.run()
        root, *rest = [(name, entry, f"{name} from {rel.render_relation(entry)}")
                       for name, entry in self.table]  # run inserts the root first
        points: List[TracePoint] = []
        for name, key_entry, ctx in [root] + sorted(rest, key=lambda k: (k[0], k[2])):

            def record(label: str, relation: Relation, _ctx: str = ctx) -> None:
                points.append(TracePoint(_ctx, label, relation))

            self.transfer_body(key_entry, self.program.procedure(name).body, record)
        result.trace = points
        return result


_RULES: Dict[type, Callable[[Analysis, Relation, Instruction], Relation]] = {
    Skip: Analysis._skip,
    Create: Analysis._kill,
    Forget: Analysis._kill,
    Cut: Analysis._cut,
    Assign: Analysis._assign,
    Cond: Analysis._cond,
    Loop: Analysis._loop,
    Repeat: Analysis._repeat,
    Call: Analysis._call,
}


def analyze(
    program: Program,
    init: Relation = rel.EMPTY,
    config: AnalysisConfig = AnalysisConfig(),
) -> AnalysisResult:
    """Analyze a whole program: the result is init transferred through a
    call of the main procedure."""
    return Analysis(program, config, init).run()

