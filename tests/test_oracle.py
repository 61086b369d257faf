import pytest
from conftest import read_program

from aliascalc.lang import parse
from aliascalc.oracle import (
    ConcreteState,
    ExecBounds,
    Execution,
    Interpreter,
    _exec_set,
    aliases_of,
    check_soundness,
    ensure_base_tier,
    initial_state,
    path_union_aliases,
    program_variables,
    run_program,
)
from aliascalc.relations import make_pair, parse_relation_literal as lit
from aliascalc.paths import var


def states_of(run):
    return {ex.state.values for ex in run.executions}


def value_maps(run):
    return sorted(tuple(sorted(ex.state.value_map().items())) for ex in run.executions)


# -- states -------------------------------------------------------------------

def test_initial_state_all_distinct():
    st = initial_state(["b", "a"])
    assert st.value_map() == {"a": 0, "b": 1}
    assert st.next_addr == 2
    assert aliases_of(st) == lit("{}")


def test_aliases_of_groups_by_address():
    st = initial_state(["a", "b", "c"])
    values = dict(st.values)
    values["b"] = values["a"]
    from aliascalc.oracle import _mk_state

    assert aliases_of(_mk_state(values, st.next_addr)) == lit("{a,b}")


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
    run = run_program(parse("x := y", level="e0"))
    (ex,) = run.executions
    vm = ex.state.value_map()
    assert vm["x"] == vm["y"]
    assert ex.assigned == {"x"}
    assert path_union_aliases(run) == lit("{x,y}")


def test_assign_from_undefined_source_forgets_target():
    run = run_program(parse("forget y ; x := y", level="e0"))
    (ex,) = run.executions
    assert "x" not in ex.state.value_map()
    assert "y" not in ex.state.value_map()
    assert path_union_aliases(run) == lit("{}")


def test_create_allocates_fresh_address():
    run = run_program(parse("x := y ; create x", level="e0"))
    (ex,) = run.executions
    vm = ex.state.value_map()
    assert vm["x"] != vm["y"]


def test_forget_removes_variable():
    run = run_program(parse("forget x", level="e0"))
    (ex,) = run.executions
    assert "x" not in ex.state.value_map()
    assert ex.assigned == {"x"}


def test_cut_is_concrete_skip_but_records_violation():
    run = run_program(parse("x := y ; cut x, y", level="e0"))
    (ex,) = run.executions
    vm = ex.state.value_map()
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
    run = run_program(parse("then x := y else x := z end", level="e0"))
    assert len(run.executions) == 2
    assert {ex.trail for ex in run.executions} == {("then",), ("else",)}
    assert path_union_aliases(run) == lit("{x,y},{x,z}")


def test_identical_branches_merge():
    run = run_program(parse("then x := y else x := y end", level="e0"))
    assert len(run.executions) == 1


def test_loop_explores_iteration_counts():
    run = run_program(parse("loop x := y ; y := z end", level="e0"))
    # 0 iterations: identity; 1: x=y0, y=z0; 2: x=z0, y=z0; 3+: no change.
    assert len(run.executions) == 3
    assert not run.bounded


def test_loop_bounded_flag_when_unroll_hits():
    prog = parse("loop create x ; y := x end", level="e0")
    run = run_program(prog, ExecBounds(loop_unroll=2))
    assert run.bounded  # every iteration allocates a fresh address


def test_repeat_runs_exactly_n_times():
    run = run_program(parse("iterate 2 x := y ; y := z end", level="e0"))
    (ex,) = run.executions
    vm = ex.state.value_map()
    assert vm["x"] == vm["z"] == vm["y"]


ROTATION = "iterate {} t := x ; x := y ; y := t end"


@pytest.mark.parametrize("count, same_as", [(10**20, 2), (10**20 + 1, 3), (1_000_000, 2)])
def test_repeat_reads_a_long_count_off_the_cycle(count, same_as):
    # The swap has period 2; the long run would take hours pass by pass.
    got = run_program(parse(ROTATION.format(count), level="e0"))
    want = run_program(parse(ROTATION.format(same_as), level="e0"))
    assert got.executions == want.executions
    assert (got.bounded, got.truncated) == (want.bounded, want.truncated)


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
def test_repeat_keeps_the_executions_of_every_pass(body, count):
    program = parse(f"create z\niterate {count} {body} end\nt := z", level="e0")
    start = _exec_set([Execution(initial_state(program_variables(program)))])
    main = program.procedure("Main").body
    fast, slow = Interpreter(ExecBounds(max_paths=50)), PassByPass(ExecBounds(max_paths=50))
    got, want = fast.run_body(start, main), slow.run_body(start, main)
    assert list(got) == list(want)
    assert (fast.bounded, fast.truncated) == (slow.bounded, slow.truncated)


def test_execution_records_hash_and_compare_by_value():
    state = initial_state(["x", "y"])
    assert state == ConcreteState((("x", 0), ("y", 1)), 2)
    assert hash(state) == hash(ConcreteState((("x", 0), ("y", 1)), 2))
    assert state != ConcreteState((("x", 0), ("y", 1)), 3)
    ex = Execution(state, frozenset({"x"}))
    assert ex == Execution(state, frozenset({"x"}), frozenset(), ())
    assert ex != Execution(state, frozenset({"x"}), trail=("then",))
    assert ex.key() == Execution(state, frozenset({"x"}), trail=("then",)).key()
    with pytest.raises(AttributeError):
        ex.trail = ()
    with pytest.raises(ValueError):
        ExecBounds(loop_unroll=0)


def test_truncation_flag():
    text = "\n".join("then create a else create b end" for _ in range(8))
    run = run_program(parse(text, level="e0"), ExecBounds(loop_unroll=2, max_paths=10))
    assert run.truncated and run.bounded
    assert len(run.executions) <= 10


def test_path_union_excludes_cut_violated_paths():
    text = "then x := y ; cut x, y else x := z end"
    run = run_program(parse(text, level="e0"))
    assert path_union_aliases(run) == lit("{x,z}")


# -- soundness reports ----------------------------------------------------------------

def test_clean_program_report():
    rep = check_soundness(parse("x := y ; z := x", level="e0"))
    assert rep.ok
    assert rep.paths == 1
    assert rep.render() == "checked 1 paths, 0 violations, bounded: no"


def test_cut_violation_is_reported_and_exits_containment():
    rep = check_soundness(parse("x := y ; cut x, y ; z := x", level="e0"))
    assert not rep.ok
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


def test_soundness_over_mixed_flow_fixture():
    rep = check_soundness(parse(read_program("mixed_flow.e0"), level="e0"))
    # The two cuts in the program are genuinely violated on some paths,
    # which the report must surface; the computed relation still covers
    # every concrete alias on the remaining paths.
    assert rep.containment_violations == []
    assert rep.modvar_violations == []
    assert len(rep.cut_violations) == 2

