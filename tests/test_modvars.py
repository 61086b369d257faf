from conftest import read_program

from aliascalc.engine import Analysis, AnalysisConfig
from aliascalc.lang import MAIN, parse
from aliascalc.modvars import modified_vars
from aliascalc.paths import render
from aliascalc.relations import EMPTY


def sets_of(prog):
    """The guaranteed sets under the analysis's budget for prog from empty."""
    return modified_vars(prog, Analysis(prog, AnalysisConfig(), EMPTY).max_dots)


def mains(text, level="e2"):
    prog = parse(text, level=level)
    return {render(p) for p in sets_of(prog)[MAIN]}


def test_atoms():
    assert mains("skip", "e0") == set()
    assert mains("create x", "e0") == {"x"}
    assert mains("forget x", "e0") == {"x"}
    assert mains("x := y", "e0") == {"x"}
    assert mains("cut x, y", "e0") == {"x", "y"}


def test_sequence_unions():
    assert mains("x := y ; create z", "e0") == {"x", "z"}


def test_conditional_intersects():
    assert mains("then x := y ; z := y else z := u end", "e0") == {"z"}


def test_loop_guarantees_nothing():
    assert mains("loop x := y end", "e0") == set()


def test_iterate_positive_counts_as_body():
    assert mains("iterate 2 x := y end", "e0") == {"x"}


def test_iterate_zero_guarantees_nothing():
    assert mains("iterate 0 x := y end", "e0") == set()


def test_unqualified_call_inherits_callee():
    text = (
        "procedure Main\n call q\nend\n"
        "procedure q\n x := y\nend"
    )
    assert mains(text, "e1") == {"x"}


def test_qualified_call_prefixes_callee():
    text = (
        "procedure Main\n call u.q\nend\n"
        "procedure q\n x := y\nend"
    )
    assert mains(text) == {"u.x"}


def test_recursive_procedure_reaches_a_fixpoint():
    text = (
        "procedure Main\n x := y ; then skip else call Main end\nend"
    )
    # The conditional's else branch re-enters Main; only the unconditional
    # assignment is guaranteed.
    assert mains(text, "e1") == {"x"}


def test_mutual_recursion_fixpoint():
    prog = parse(read_program("mutual_recursion_large.e1"), level="e1")
    sets = sets_of(prog)
    as_text = {
        name: {render(p) for p in s} for name, s in sets.items()
    }
    assert as_text == {
        "Main": {"a", "b", "f", "g", "x", "z"},
        "q": {"m"},
    }


def test_qualified_recursion_stays_bounded():
    # Each level of self-qualification adds a prefix; the dot budget stops
    # the growth so the fixpoint exists.
    text = (
        "procedure Main\n call q\nend\n"
        "procedure q\n a := b ; then skip else call u.q end\nend"
    )
    prog = parse(text, level="e2")
    sets = sets_of(prog)
    texts = {render(p) for p in sets["q"]}
    assert "a" in texts
    assert all(p.count(".") <= 3 for p in texts)


def test_cut_ignores_dotted_operands():
    prog = parse("cut x.a, y", level="e2")
    got = {render(p) for p in sets_of(prog)["Main"]}
    assert got == {"y"}
