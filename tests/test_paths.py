import itertools

import pytest
from hypothesis import given, strategies as st

from aliascalc.paths import (
    CURRENT,
    concat,
    dot_count,
    has_negation,
    negate_segment,
    negation,
    parse_path,
    render,
    var,
)


def reference_concat(p, q):
    """concat by its definition: a stack reduction of the joined segments
    that pops whenever a segment undoes the one below it."""
    stack = []
    for seg in p + q:
        if stack and stack[-1] == negate_segment(seg):
            stack.pop()
        else:
            stack.append(seg)
    return tuple(stack)


def reduced(p):
    """No segment sits next to its inverse."""
    return all(a != negate_segment(b) for a, b in zip(p, p[1:]))


names = st.sampled_from(["a", "b", "x", "y", "first", "right"])
segments = st.one_of(names, names.map(negate_segment))
# concat's operands are reduced words; the reference reduces any word.
paths = st.lists(segments, max_size=5).map(lambda p: reference_concat(tuple(p), ()))


def test_current_is_empty():
    assert CURRENT == ()
    assert render(CURRENT) == "Current"
    assert dot_count(CURRENT) == 0


def test_var_and_render():
    assert var("x") == ("x",)
    assert render(("x", "a", "b")) == "x.a.b"
    assert render(("x'", "f")) == "x'.f"


def test_parse_path():
    assert parse_path("x") == ("x",)
    assert parse_path("x.a.b") == ("x", "a", "b")
    assert parse_path("Current") == CURRENT
    assert parse_path("Current.x.y") == ("x", "y")


def test_parse_path_rejects_garbage():
    for bad in ("", "x..y", ".x", "x.", "x'.y", "x y"):
        with pytest.raises(ValueError):
            parse_path(bad)


def test_concat_cancels_inverses_at_the_junction():
    # x followed by its own negation is the identity, in either order.
    assert concat(("x",), ("x'",)) == CURRENT
    assert concat(("x'",), ("x",)) == CURRENT
    assert concat(("y", "x"), ("x'", "z")) == ("y", "z")
    assert concat(("y", "x'"), ("x", "z")) == ("y", "z")


def test_concat_cascades_outward_from_the_junction():
    assert concat(("a", "b"), ("b'", "a'")) == CURRENT
    assert concat(("a", "b"), ("b'", "c")) == ("a", "c")
    assert concat(("a", "b"), ("b'", "a'", "c")) == ("c",)
    assert concat(("c", "a", "b"), ("b'", "a'")) == ("c",)
    # A doubled mark is no inverse of a single one.
    assert concat(("a''",), ("a'",)) == ("a''", "a'")


def test_concat_identity():
    p = ("x", "a")
    assert concat(CURRENT, p) == p
    assert concat(p, CURRENT) == p


def test_concat_normalizes():
    assert concat(("x",), ("x'", "f")) == ("f",)
    assert concat(("x'",), ("x", "f")) == ("f",)


def test_negation_reverses_and_flips():
    assert negation(("x", "f")) == ("f'", "x'")
    assert negation(CURRENT) == CURRENT


def test_dot_count():
    assert dot_count(("x",)) == 0
    assert dot_count(("x", "a")) == 1
    assert dot_count(("x", "a", "b")) == 2


def test_has_negation():
    assert has_negation(("x'", "f"))
    assert not has_negation(("x", "f"))


@given(paths)
def test_negation_is_involutive(p):
    assert negation(negation(p)) == p


@given(paths)
def test_path_negation_cancels(p):
    assert concat(p, negation(p)) == CURRENT
    assert concat(negation(p), p) == CURRENT


@given(paths, paths)
def test_concat_keeps_paths_reduced(p, q):
    assert reduced(p) and reduced(negation(p))
    assert reduced(concat(p, q))


@given(paths, paths, paths)
def test_concat_associative(p, q, r):
    assert concat(concat(p, q), r) == concat(p, concat(q, r))


@pytest.mark.parametrize("alphabet, longest", [
    # Every pair of reduced paths up to length 4 over a, a', b, b': plain
    # operands (joined as they are) and every inverse pair at the junction.
    (["a", "a'", "b", "b'"], 4),
    # A doubled mark is no inverse of a single one.
    (["a", "a'", "a''"], 3),
])
def test_concat_matches_stack_reduction_exhaustively(alphabet, longest):
    all_paths = [
        p for n in range(longest + 1) for p in itertools.product(alphabet, repeat=n)
        if reduced(p)
    ]
    for p in all_paths:
        for q in all_paths:
            assert concat(p, q) == reference_concat(p, q), (p, q)
