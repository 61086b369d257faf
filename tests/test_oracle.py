import hashlib
import re
from itertools import combinations, permutations, product
from random import Random
from typing import NamedTuple, Tuple

import pytest
from conftest import read_program
from randprog import random_program

from aliascalc import cli, oracle
from aliascalc.engine import analyze
from aliascalc.lang import MAIN, Assign, Create, Forget, parse
from aliascalc.oracle import (
    Execution,
    Interpreter,
    RunResult,
    _mark,
    _mk_state,
    aliases_of,
    check_soundness,
    ensure_base_tier,
    initial_state,
    program_variables,
    run_program,
)
from aliascalc.relations import EMPTY, make_pair, parse_relation_literal as lit, render_relation
from aliascalc.paths import var


def states_of(run):
    return {ex.state for ex in run.executions}


# -- states -------------------------------------------------------------------

def test_initial_state_all_distinct():
    st = initial_state(["b", "a"])
    assert dict(st) == {"a": 0, "b": 1}
    assert aliases_of(st) == lit("{}")


def test_aliases_of_groups_by_address():
    st = initial_state(["a", "b", "c"])
    values = dict(st)
    values["b"] = values["a"]
    assert aliases_of(_mk_state(values)) == lit("{a,b}")


def test_states_are_numbered_in_order_of_first_reach():
    # Only which variables share an object matters, so two numberings of
    # the same sharing are one state.
    want = (("a", 0), ("b", 1), ("c", 0), ("d", 2))
    assert _mk_state({"d": 5, "c": 9, "b": 7, "a": 9}) == want
    assert _mk_state({"a": 0, "b": 1, "c": 0, "d": 2}) == want


def test_program_variables():
    prog = parse("x := y ; cut a, b ; create c ; forget d", level="e0")
    assert program_variables(prog) == frozenset("abcdxy")


def test_ensure_base_tier_rejects_calls_and_dots():
    with pytest.raises(ValueError):
        ensure_base_tier(parse("procedure Main\n call q\nend\nprocedure q\n skip\nend"))
    with pytest.raises(ValueError):
        ensure_base_tier(parse("x := y.a", level="e2"))


# -- single executions -----------------------------------------------------------

def test_assign_copies_address():
    prog = parse("x := y", level="e0")
    (ex,) = run_program(prog).executions
    vm = dict(ex.state)
    assert vm["x"] == vm["y"]
    assert ex.assigned == {"x"}
    assert check_soundness(prog).realised == lit("{x,y}")


def test_assign_from_undefined_source_forgets_target():
    prog = parse("forget y ; x := y", level="e0")
    (ex,) = run_program(prog).executions
    assert "x" not in dict(ex.state)
    assert "y" not in dict(ex.state)
    assert check_soundness(prog).realised == lit("{}")


def test_create_allocates_fresh_address():
    run = run_program(parse("x := y ; create x", level="e0"))
    (ex,) = run.executions
    vm = dict(ex.state)
    assert vm["x"] != vm["y"]


def test_create_of_the_last_holder_gives_back_the_same_state():
    # The fresh object takes the place of the one x alone held.
    run = run_program(parse("then create x else skip end", level="e0"))
    assert len(run.executions) == 2
    assert len(states_of(run)) == 1


def test_forget_removes_variable():
    run = run_program(parse("forget x", level="e0"))
    (ex,) = run.executions
    assert "x" not in dict(ex.state)
    assert ex.assigned == {"x"}


def test_cut_is_concrete_skip_but_records_violation():
    run = run_program(parse("x := y ; cut x, y", level="e0"))
    (ex,) = run.executions
    vm = dict(ex.state)
    assert vm["x"] == vm["y"]  # state untouched
    assert len(ex.cut_violations) == 1
    (desc,) = ex.cut_violations
    assert "x ~ y" in desc
    assert ex.assigned == {"x", "y"}


def test_cut_on_distinct_values_is_silent():
    run = run_program(parse("cut x, y", level="e0"))
    (ex,) = run.executions
    assert ex.cut_violations == frozenset()


# -- branching --------------------------------------------------------------------

def test_conditional_explores_both_branches():
    prog = parse("then x := y else x := z end", level="e0")
    run = run_program(prog)
    assert len(run.executions) == 2
    assert {ex.trail for ex in run.executions} == {("then",), ("else",)}
    assert check_soundness(prog).realised == lit("{x,y},{x,z}")


def test_identical_branches_merge():
    run = run_program(parse("then x := y else x := y end", level="e0"))
    assert len(run.executions) == 1


def test_loop_explores_iteration_counts():
    run = run_program(parse("loop x := y ; y := z end", level="e0"))
    # 0 iterations: identity; 1: x=y0, y=z0; 2: x=z0, y=z0; 3+: no change.
    assert len(run.executions) == 3
    assert not run.bounded


@pytest.mark.parametrize("text, unroll, reference_paths", [
    # Every iteration allocates: numbered by allocation, the states never
    # recur, so the unrolled reference stops at its bound.
    ("loop create x ; y := x end", 2, 3),
    # A seven-variable rotation: numbered by allocation, the states come
    # round only after six more passes; the sharing is the same after one.
    ("loop a := b ; b := c ; c := d ; d := e ; e := f ; f := g ; g := a end", 4, 5),
], ids=["create", "rotation"])
def test_loop_runs_to_its_fixpoint(text, unroll, reference_paths):
    prog = parse(text, level="e0")
    reference = reference_run_program(prog, unroll=unroll)
    assert (len(reference.executions), reference.bounded) == (reference_paths, True)
    run = run_program(prog)
    assert (len(run.executions), run.bounded, run.truncated) == (2, False, False)
    assert check_soundness(prog).render() == "checked 2 paths, 0 violations, bounded: no"


def test_repeat_runs_exactly_n_times():
    run = run_program(parse("iterate 2 x := y ; y := z end", level="e0"))
    (ex,) = run.executions
    vm = dict(ex.state)
    assert vm["x"] == vm["z"] == vm["y"]


LONG_RUNS = [
    "iterate {} t := x ; x := y ; y := t end",
    "iterate {} create x end",
    "iterate {} then create x else x := y end ; y := x end",
    # z shares x's object and the swap moves it between x and y, so the
    # sharing has period 2; the fresh t each pass does not break the cycle.
    "z := x\niterate {} t := x ; x := y ; y := t ; create t end",
]


@pytest.mark.parametrize("count, same_as", [(10**20, 2), (10**20 + 1, 3), (1_000_000, 2)])
def test_repeat_reads_a_long_count_off_the_cycle(count, same_as):
    # Each body has period 1 or 2; the long run would take hours pass by pass.
    for text in LONG_RUNS:
        got = run_program(parse(text.format(count), level="e0"))
        want = run_program(parse(text.format(same_as), level="e0"))
        # Executions compare without their trails, so compare those too.
        assert [(ex, ex.trail) for ex in got.executions] == \
            [(ex, ex.trail) for ex in want.executions], text
        assert (got.bounded, got.truncated) == (want.bounded, want.truncated), text


class PassByPass(Interpreter):
    """Runs every pass of an iterate, without looking for a cycle."""

    def run_repeat(self, execs, ins):
        for _ in range(ins.count):
            execs = self.run_body(execs, ins.body)
        return execs


@pytest.mark.parametrize("body", [
    "t := x ; x := y ; y := t",
    "t := x ; x := y ; y := t ; then a := x else skip end",
    "then a := b else b := a end ; forget c",
    "loop x := y ; y := t end ; create a",
    "then create a else a := x end",
])
@pytest.mark.parametrize("count", [0, 1, 2, 3, 5, 8, 13, 40])
def test_repeat_keeps_the_executions_of_every_pass(body, count, monkeypatch):
    monkeypatch.setattr(oracle, "MAX_PATHS", 50)
    program = parse(f"create z\niterate {count} {body} end\nt := z", level="e0")
    start = dict.fromkeys([Execution(initial_state(program_variables(program)))])
    main = program.procedure("Main").body
    fast, slow = Interpreter(), PassByPass()
    got, want = fast.run_body(start, main), slow.run_body(start, main)
    assert list(got) == list(want)
    assert fast.truncated == slow.truncated


def test_execution_records_hash_and_compare_by_value():
    state = initial_state(["x", "y"])
    assert state == (("x", 0), ("y", 1))
    ex = Execution(state, frozenset({"x"}))
    assert ex == Execution(state, frozenset({"x"}), frozenset(), ())
    # The trail is a witness, not part of the outcome, but still readable.
    other = Execution(state, frozenset({"x"}), trail=("then",))
    assert ex == other and hash(ex) == hash(other)
    assert (ex.trail, other.trail) == ((), ("then",))
    assert ex != Execution(state, frozenset({"y"}))
    assert ex != Execution(initial_state(["x"]), frozenset({"x"}))
    assert ex != Execution(state, frozenset({"x"}), frozenset({"x ~ y"}))
    with pytest.raises(AttributeError):
        ex.trail = ()


def test_truncation_flag(monkeypatch):
    # Each of the eight variables shares x's object or not: 256 alias
    # outcomes, more than the cap of 10.
    text = "\n".join(f"then {v} := x else skip end" for v in "abcdefgh")
    monkeypatch.setattr(oracle, "MAX_PATHS", 10)
    run = run_program(parse(text, level="e0"))
    assert run.truncated and run.bounded
    assert len(run.executions) == 10
    # A loop whose body has those outcomes ends at the cap as well.
    run = run_program(parse(f"loop {text} end", level="e0"))
    assert run.truncated and len(run.executions) == 10
    monkeypatch.setattr(oracle, "MAX_PATHS", 256)
    run = run_program(parse(text, level="e0"))
    assert not run.truncated and not run.bounded
    assert len({aliases_of(ex.state) for ex in run.executions}) == 256


def test_path_union_excludes_cut_violated_paths():
    text = "then x := y ; cut x, y else x := z end"
    assert check_soundness(parse(text, level="e0")).realised == lit("{x,z}")


# -- soundness reports ----------------------------------------------------------------

def test_clean_program_report():
    rep = check_soundness(parse("x := y ; z := x", level="e0"))
    assert rep.violation_count == 0
    assert rep.paths == 1
    assert rep.render() == "checked 1 paths, 0 violations, bounded: no"


def test_cut_violation_is_reported_and_exits_containment():
    rep = check_soundness(parse("x := y ; cut x, y ; z := x", level="e0"))
    assert rep.violation_count == 1
    assert len(rep.cut_violations) == 1
    assert "cut assumption violated: x ~ y" in rep.cut_violations[0]
    assert rep.containment_violations == []


def test_modvar_violations_counted():
    rep = check_soundness(parse("x := y", level="e0"))
    assert rep.modvar_violations == []


def test_report_render_shape():
    rep = check_soundness(parse("then cut a, a else skip end", level="e0"))
    lines = rep.render().splitlines()
    assert lines[-1].startswith("checked ")
    assert lines[-1].endswith("bounded: no")


class BlindAnalysis(oracle.Analysis):
    """An analysis that predicts no alias at all."""

    def run(self):
        result = super().run()
        result.relation = EMPTY
        return result


def test_missed_alias_is_a_containment_violation(monkeypatch):
    monkeypatch.setattr(oracle, "Analysis", BlindAnalysis)
    rep = check_soundness(parse("x := y", level="e0"))
    assert rep.render() == (
        "violation: concrete alias [x, y] not predicted (path: straight-line)\n"
        "checked 1 paths, 1 violations, bounded: no"
    )


def test_unassigned_guaranteed_variable_is_a_modvars_violation(monkeypatch):
    monkeypatch.setattr(oracle, "modified_vars", lambda program, max_dots: {MAIN: {("z",)}})
    rep = check_soundness(parse("then x := y else z := y end", level="e0"))
    assert rep.modvar_violations == ["modified-variables violation: 'z' not assigned (path: then)"]
    assert rep.violation_count == 1


def test_render_orders_containment_cut_modvars_then_summary(monkeypatch):
    # The then-path is met first and reports the cut and the modvars lines;
    # the else-path's containment line still comes first.
    monkeypatch.setattr(oracle, "Analysis", BlindAnalysis)
    monkeypatch.setattr(oracle, "modified_vars", lambda program, max_dots: {MAIN: {("z",)}})
    rep = check_soundness(parse("then x := y ; cut x, y else z := y end", level="e0"))
    assert rep.render().splitlines() == [
        "violation: concrete alias [y, z] not predicted (path: else)",
        "cut assumption violated: x ~ y at 'cut x, y' (path: then)",
        "modified-variables violation: 'z' not assigned (path: then)",
        "checked 2 paths, 3 violations, bounded: no",
    ]


def test_cli_soundness_exits_3_on_a_missed_alias(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(oracle, "Analysis", BlindAnalysis)
    source = tmp_path / "copy.e0"
    source.write_text("x := y\n")
    assert cli.main([str(source), "--level", "e0", "--output", "soundness"]) == 3
    assert capsys.readouterr().out.startswith("violation: concrete alias [x, y]")


def test_soundness_runs_from_every_start_init_allows(tmp_path, capsys):
    # {x,y} allows x and y to start apart or together: the then-branch from
    # each start, and the else-branch from the one where they are apart
    # (from the other it ends in the same state as the then-branch).
    text = "then z := x else z := y end\n"
    source = tmp_path / "branch.e0"
    source.write_text(text)
    argv = [str(source), "--level", "e0", "--init", "{x,y}", "--output", "soundness"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == "checked 3 paths, 0 violations, bounded: no\n"
    program, init = parse(text, level="e0"), lit("{x,y}")
    assert check_soundness(program, init).computed == analyze(program, init).relation


def test_soundness_starts_from_the_variables_init_names():
    # The program never names b, but {a,b} lets a and b start as one
    # object, and from that start x := a leaves b and x aliased.
    rep = check_soundness(parse("x := a", level="e0"), lit("{a,b}"))
    assert rep.paths == 2
    assert make_pair(var("b"), var("x")) in rep.realised


def test_a_start_set_past_the_cap_is_bounded():
    # One clique of 12 variables allows Bell(12), over 4 million, starts.
    names = "abcdefghijkl"
    program = parse(" ; ".join(f"{a} := {b}" for a, b in zip(names[::2], names[1::2])),
                    level="e0")
    rep = check_soundness(program, lit("{" + ",".join(names) + "}"))
    assert rep.bounded and rep.paths <= oracle.MAX_PATHS
    assert rep.render().endswith(", 0 violations, bounded: yes")


def test_soundness_over_mixed_flow_fixture():
    rep = check_soundness(parse(read_program("mixed_flow.e0"), level="e0"))
    # The two cuts in the program are genuinely violated on some paths,
    # which the report must surface; the computed relation still covers
    # every concrete alias on the remaining paths.
    assert rep.containment_violations == []
    assert rep.modvar_violations == []
    assert len(rep.cut_violations) == 2


# -- bounded-exhaustive checking ---------------------------------------------------------

NAMES = "abc"
ATOMS = (
    ["skip"] + [f"{op} {v}" for op in ("create", "forget") for v in NAMES]
    + [f"{v} := {w}" for v, w in permutations(NAMES, 2)]
    + [f"cut {v}, {w}" for v, w in combinations(NAMES, 2)]
)


def small_programs():
    """Every sequence of one to three atoms, and every compound over atoms
    on its own, followed by one atom and preceded by one."""
    for n in (1, 2, 3):
        yield from (" ; ".join(seq) for seq in product(ATOMS, repeat=n))
    compounds = [f"then {a} else {b} end" for a, b in product(ATOMS, repeat=2)]
    compounds += [f"{head} {a} end" for head in ("loop", "iterate 2") for a in ATOMS]
    for c in compounds:
        yield c
        yield from (f"{c} ; {a}" for a in ATOMS)
        yield from (f"{a} ; {c}" for a in ATOMS)


def test_every_small_e0_program_is_sound():
    # A small-scope check: every program up to this size, from an empty
    # init and from one that lets two of its variables start shared.  The
    # line pins the totals, which change only when the oracle or the
    # analysis does; 0 findings is the soundness claim.
    inits = [EMPTY, lit("{a,b}")]
    programs = checks = paths = predicted = unrealised = 0
    findings = []
    for text in small_programs():
        programs += 1
        program = parse(text, level="e0")
        for init in inits:
            rep = check_soundness(program, init)
            checks += 1
            paths += rep.paths
            predicted += len(rep.computed)
            unrealised += len(rep.computed - rep.realised)
            if rep.containment_violations or rep.modvar_violations:
                findings.append((text, render_relation(init), rep.render()))
    assert findings == []
    assert (
        f"{programs} programs, {checks} checks, {paths} paths, {len(findings)} findings, "
        f"{predicted} predicted pairs, {unrealised} realised by no run"
    ) == ("13872 programs, 27744 checks, 49761 paths, 0 findings, "
          "27157 predicted pairs, 1536 realised by no run")


# -- the interpreter on allocation-numbered states --------------------------------------

class ReferenceState(NamedTuple):
    """A state numbered in allocation order: ``create`` takes next_addr."""

    values: Tuple[Tuple[str, int], ...]
    next_addr: int

    def __iter__(self):
        # Read as a canonical state is read: its (variable, address) pairs.
        return iter(self.values)


class ReferenceInterpreter(Interpreter):
    """The interpreter before states were canonical: addresses from an
    allocation counter, each loop unrolled at most ``unroll`` times, and
    a probe iteration that flags the run as bounded when the loop would
    still have reached a new execution."""

    def __init__(self, unroll):
        super().__init__()
        self.unroll = unroll
        self.bounded = False

    def step_one(self, ex, ins):
        if not isinstance(ins, (Create, Forget, Assign)):
            return super().step_one(ex, ins)  # skip and cut keep the state
        values = dict(ex.state)
        next_addr = ex.state.next_addr
        if isinstance(ins, Create):
            target = ins.name
            values[target] = next_addr
            next_addr += 1
        elif isinstance(ins, Forget):
            target = ins.name
            values.pop(target, None)
        else:
            target, source = ins.target[0], ins.source[0]
            if source in values:
                values[target] = values[source]
            else:
                values.pop(target, None)
        return Execution(ReferenceState(tuple(sorted(values.items())), next_addr),
                         ex.assigned | {target}, ex.cut_violations, ex.trail)

    def run_loop(self, execs, body):
        seen = dict.fromkeys(_mark(ex, "loop") for ex in execs)
        frontier = dict(seen)
        for _ in range(self.unroll):
            frontier = self.run_body(frontier, body)
            fresh = dict.fromkeys(ex for ex in frontier if ex not in seen)
            if not fresh:
                return seen
            seen.update(fresh)
            seen = self._clamp(seen)
            frontier = fresh
        if any(ex not in seen for ex in self.run_body(frontier, body)):
            self.bounded = True
        return seen


def reference_run_program(program, init=EMPTY, unroll=4):
    assert init == EMPTY  # the reference starts only from the all-distinct state
    ensure_base_tier(program)
    interp = ReferenceInterpreter(unroll)
    names = sorted(program_variables(program))
    start = Execution(ReferenceState(tuple((v, i) for i, v in enumerate(names)), len(names)))
    final = interp.run_body(dict.fromkeys([start]), program.procedure(MAIN).body)
    return RunResult(list(final), interp.bounded or interp.truncated, interp.truncated)


def problem_lines(report):
    """The report's problem lines without their witness paths, which may
    name another run to the same outcome."""
    lines = report.containment_violations + report.cut_violations + report.modvar_violations
    return {re.sub(r" \(path: [^)]*\)$", "", line) for line in lines}


def test_canonical_states_agree_with_the_allocation_numbered_reference(monkeypatch):
    # Where the reference explored a program exactly, canonical states find
    # the same aliases and the same problems; where it stopped at its
    # unrolling bound, they find at least what it found.
    rng = Random(1)
    programs = [random_program(rng) for _ in range(3000)]
    reports = [check_soundness(prog) for prog in programs]
    monkeypatch.setattr(oracle, "run_program", reference_run_program)
    reference_bounded = 0
    for prog, report in zip(programs, reports):
        # check_soundness now runs the reference, so its report's realised
        # pairs are the union over the reference's executions.
        reference = check_soundness(prog)
        assert not report.bounded
        assert report.containment_violations == [] and report.modvar_violations == []
        got = (report.realised, problem_lines(report))
        want = (reference.realised, problem_lines(reference))
        if reference.bounded:
            reference_bounded += 1
            assert got[0] >= want[0] and got[1] >= want[1]
        else:
            assert got == want
    assert reference_bounded == 339


def test_witness_paths_are_those_of_the_first_run_to_each_outcome(monkeypatch):
    # The reference test above strips witness paths, and the e0 goldens
    # pin only a few.  This digest pins every report's text, paths
    # included: 674 of the reports carry a witness path.  The 200 run with
    # MAX_PATHS = 10 are all bounded, since {a,b,c,d} allows Bell(4) = 15
    # starts; the others are not.
    rng = Random(5)
    inits = [lit("{}"), lit("{a,b}"), lit("{a,b,c},{d,e}")]
    reports = [check_soundness(prog, init)
               for prog in [random_program(rng) for _ in range(1000)] for init in inits]
    monkeypatch.setattr(oracle, "MAX_PATHS", 10)
    rng = Random(6)
    reports += [check_soundness(random_program(rng), lit("{a,b,c,d}")) for _ in range(200)]
    text = "\n".join(report.render() for report in reports)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "2d7c9e77e370ddae"
