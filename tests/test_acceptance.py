"""Acceptance checklist.

One test per acceptance criterion; each prints a single PASS/FAIL line
(visible with `pytest -v -s` or in failure output) in addition to the usual
pytest verdict.  Golden values are exact canonical renderings; the
randomized criteria re-run the property suites under their acceptance
names.
"""

from contextlib import contextmanager

import test_properties as props
from conftest import read_program as source

from aliascalc.engine import analyze
from aliascalc.lang import (
    Assign,
    Call,
    Procedure,
    Program,
    SourceError,
    parse,
)
from aliascalc.oracle import check_soundness
from aliascalc.paths import parse_path, var
from aliascalc.relations import (
    elements,
    make_pair,
    parse_relation_literal as lit,
    render_relation,
    restrict,
)


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"acceptance: {name} ... FAIL")
        raise
    print(f"acceptance: {name} ... PASS")


def analyzed(path, level, init="{}"):
    return analyze(parse(source(path), level=level), lit(init)).relation


# -- golden results ---------------------------------------------------------------

def test_accept_chained_assignment_joins_groups():
    with criterion("golden: assignment joins its source's group"):
        got = analyzed("assign_chain.e0", "e0", "{b,c},{f,g,x},{y,z}")
        assert render_relation(got) == "{b, c}, {f, g, x, z}"


def test_accept_branch_union_with_trailing_assignment():
    with criterion("golden: conditional unions branch results"):
        got = analyzed("branch_assign.e0", "e0", "{b,c},{f,g}")
        assert render_relation(got) == "{b, c, x}, {f, g, x}, {y, z}"


def test_accept_swap_oscillation():
    with criterion("golden: three-way swap oscillates with period two"):
        body = "x := y ; y := z ; z := x"
        init = lit("{c,y},{d,z}")
        rows = []
        for n in range(5):
            prog = parse(f"iterate {n} {body} end", level="e0")
            rows.append(analyze(prog, init).relation)
        assert render_relation(rows[0]) == "{c, y}, {d, z}"
        assert render_relation(rows[1]) == "{c, x, z}, {d, y}"
        assert render_relation(rows[2]) == "{c, y}, {d, x, z}"
        assert rows[3] == rows[1]
        assert rows[4] == rows[2]
        # After an even number of swaps the original variables are back in
        # their starting pattern; x additionally carries the matching value.
        assert restrict(rows[2], "x") == init


def test_accept_swap_loop_fixpoint():
    with criterion("golden: swap loop reaches its fixpoint at t_2"):
        body = "x := y ; y := z ; z := x"
        init = lit("{c,y},{d,z}")
        looped = analyze(parse(f"loop {body} end", level="e0"), init).relation
        assert render_relation(looped) == "{c, x, z}, {c, y}, {d, x, z}, {d, y}"
        t3 = analyze(parse(f"iterate 3 {body} end", level="e0"), init).relation
        # t_3 of the accumulation chain equals t_2: one more pass adds nothing.
        chain = init
        seen = [chain]
        for _ in range(3):
            chain = chain | analyze(parse(body, level="e0"), chain).relation
            seen.append(chain)
        assert seen[2] == seen[3] == looped
        assert t3 <= looped


def test_accept_mixed_flow_from_empty():
    with criterion("golden: mixed control flow from the empty relation"):
        got = analyzed("mixed_flow.e0", "e0")
        assert render_relation(got) == "{a, c, h}, {c, e, f}, {c, f, g, y}, {c, g, h}"


def test_accept_self_recursive_call():
    with criterion("golden: self-recursive procedure converges"):
        got = analyzed("self_recursive.e1", "e1")
        assert render_relation(got) == "{x, y}"


def test_accept_self_recursive_call_tail_assignment():
    with criterion("golden: recursion with a post-call assignment"):
        got = analyzed("self_recursive_rev.e1", "e1")
        assert render_relation(got) == "{a, x}, {x, y}"


def test_accept_mutual_recursion():
    with criterion("golden: mutually recursive procedures converge"):
        got = analyzed("mutual_recursion.e1", "e1")
        assert render_relation(got) == "{a, c}, {b, x}, {x, y}"
        assert make_pair(var("x"), var("c")) not in got


def test_accept_mutual_recursion_large():
    with criterion("golden: larger mutual recursion with loops"):
        got = analyzed("mutual_recursion_large.e1", "e1")
        assert render_relation(got) == "{a, h, m}, {c, e, f, g, y}, {m, n}"


def test_accept_dotted_sources():
    with criterion("golden: dotted sources stay field-precise"):
        got = analyzed("field_sources.e2", "e2")
        assert render_relation(got) == "{a, b}, {x, y.a, z}, {x, y.b, z}"
        assert make_pair(var("x"), parse_path("x.a")) not in got


def test_accept_qualified_call_with_arguments():
    with criterion("golden: qualified call binds arguments across objects"):
        main = Procedure(name="Main", formals=(), body=(
            Assign(target=("f",), source=("x", "a")),
            Call(qualifier=("x",), proc="q", args=()),
        ))
        q = Procedure(name="q", formals=(), body=(
            Assign(target=("b",), source=("x'",)),
            Assign(target=("c",), source=("x'", "f")),
            Assign(target=("d",), source=("b",)),
        ))
        got = analyze(Program(procedures=(main, q), level="e2")).relation
        want_elements = {
            parse_path(e)
            for e in ("Current", "f", "x.a", "x.b", "x.c", "x.d", "x.b.f")
        }
        assert elements(got) == want_elements
        # Clique grouping pinned by recomputation (see the repository's
        # external design notes for the derivation).
        assert render_relation(got) == (
            "{Current, x.b, x.d}, {f, x.a, x.c}, {x.b.f, x.c}"
        )


def test_accept_linked_list_cursors_stay_apart():
    with criterion("golden: separate list cursors never alias"):
        got = analyzed("linked_lists.e2", "e2")
        for a, b in [
            ("f", "x.first"),
            ("f", "x.first.right.right"),
            ("x.last.right", "x.new"),
        ]:
            assert make_pair(parse_path(a), parse_path(b)) in got
        assert make_pair(var("f"), var("g")) not in got


def test_accept_linked_list_shared_head_aliases_cursors():
    with criterion("golden: sharing the head joins the cursors"):
        got = analyzed("linked_lists_shared.e2", "e2")
        assert make_pair(var("f"), var("g")) in got


# -- randomized criteria ------------------------------------------------------------

def test_accept_outputs_are_well_formed_relations():
    with criterion("property: transfer outputs stay symmetric/irreflexive/reduced"):
        props.test_transfer_preserves_relation_shape_1000()


def test_accept_monotonicity():
    with criterion("property: larger entry relations give larger results"):
        props.test_monotonicity_1000()


def test_accept_union_distribution():
    with criterion("property: transfer distributes over union"):
        props.test_union_distribution_1000()


def test_accept_intersection_distribution():
    with criterion("property: intersection distributes on straight-line code"):
        props.test_intersection_distribution_straight_line_1000()
        props.test_intersection_distribution_fails_with_branching()


def test_accept_canonical_form():
    with criterion("property: canonical groups match brute-force maximal cliques"):
        props.test_canonical_vs_brute_force_200()


def test_accept_loop_fixpoint_bound():
    with criterion("property: loop fixpoint within the pair-universe bound"):
        props.test_loop_fixpoint_bound_and_union_200()


def test_accept_interpreter_containment():
    with criterion("property: concrete aliases always predicted (500 programs)"):
        props.test_soundness_500()


def test_accept_guaranteed_modifications():
    with criterion("property: guaranteed-modified variables assigned on every path"):
        props.test_modvars_hold_on_every_path_500()


def test_accept_must_within_may():
    with criterion("property: must-alias result within may-alias result"):
        props.test_must_subset_may_200()


# -- diagnostics ------------------------------------------------------------------------

def test_accept_setter_translation_message():
    with criterion("diagnostic: qualified assignment suggests a setter call"):
        try:
            parse("x.a := y", level="e2")
        except SourceError as exc:
            assert "setter call" in exc.message
            assert "call x.set_a" in exc.message
        else:
            raise AssertionError("qualified assignment was accepted")


def test_accept_arity_mismatch_rejected():
    with criterion("diagnostic: call arity mismatch is rejected"):
        text = (
            "procedure Main\n call q (a, b)\nend\n"
            "procedure q (u)\n x := u\nend"
        )
        try:
            parse(text, level="e1")
        except SourceError as exc:
            assert "declares 1" in exc.message
        else:
            raise AssertionError("arity mismatch was accepted")


def test_accept_cut_assumption_surfaced():
    with criterion("diagnostic: falsified cut assumption is reported"):
        rep = check_soundness(parse("x := y ; cut x, y", level="e0"))
        assert rep.cut_violations
        assert any("x ~ y" in line for line in rep.cut_violations)
        assert rep.containment_violations == []
