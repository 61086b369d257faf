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
    normalize,
    parse_path,
    render,
    var,
)

names = st.sampled_from(["a", "b", "x", "y", "first", "right"])
segments = st.one_of(names, names.map(negate_segment))
paths = st.lists(segments, max_size=5).map(tuple)


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


def test_normalize_cancels_adjacent_inverses():
    # x followed by its own negation is the identity, in either order.
    assert normalize(("x", "x'")) == CURRENT
    assert normalize(("x'", "x")) == CURRENT
    assert normalize(("y", "x", "x'", "z")) == ("y", "z")
    assert normalize(("y", "x'", "x", "z")) == ("y", "z")


def test_normalize_cascades():
    assert normalize(("a", "b", "b'", "a'")) == CURRENT
    assert normalize(("a", "b", "b'", "c")) == ("a", "c")


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
    q = normalize(p)
    assert negation(negation(q)) == q


@given(paths)
def test_path_negation_cancels(p):
    q = normalize(p)
    assert concat(q, negation(q)) == CURRENT
    assert concat(negation(q), q) == CURRENT


@given(paths, paths, paths)
def test_concat_associative(p, q, r):
    assert concat(concat(p, q), r) == concat(p, concat(q, r))


@given(paths)
def test_normalize_idempotent(p):
    assert normalize(normalize(p)) == normalize(p)


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


@pytest.mark.parametrize("alphabet, longest", [
    # Every pair of paths up to length 4 over a, a', b, b', normal or not:
    # plain operands (joined as they are) and every placement of an inverse
    # pair, at the junction or inside either operand.
    (["a", "a'", "b", "b'"], 4),
    # A doubled mark is no inverse of a single one.
    (["a", "a'", "a''"], 3),
])
def test_concat_matches_stack_reduction_exhaustively(alphabet, longest):
    all_paths = [
        tuple(p) for n in range(longest + 1) for p in itertools.product(alphabet, repeat=n)
    ]
    for p in all_paths:
        for q in all_paths:
            assert concat(p, q) == reference_concat(p, q), (p, q)
