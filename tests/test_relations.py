import gc
import inspect
import itertools
import sys

import pytest
from hypothesis import given, strategies as st

from aliascalc import relations as rel
from aliascalc.lang import MAX_SEGMENTS
from aliascalc.paths import concat, dot_count, parse_path, render, var
from aliascalc.relations import (
    EMPTY,
    canonical,
    cut_pair,
    elements,
    from_cliques,
    make_pair,
    parse_relation_literal,
    prefix_relation,
    quotient,
    render_relation,
    restrict,
    subst,
    subst_list,
    to_assertion,
)


def lit(text):
    return parse_relation_literal(text)


def paths_of(*names):
    return [parse_path(n) for n in names]


# -- construction ------------------------------------------------------------

def test_make_pair_is_orientation_free():
    assert make_pair(var("x"), var("y")) == make_pair(var("y"), var("x"))


def test_make_pair_rejects_reflexive():
    with pytest.raises(ValueError):
        make_pair(var("x"), var("x"))


def test_from_cliques():
    a = from_cliques([paths_of("a", "b", "c")])
    assert len(a) == 3  # three unordered pairs
    assert make_pair(var("a"), var("c")) in a


seed_paths = st.lists(
    st.lists(st.sampled_from(["a", "b", "x"]), max_size=4).map(tuple), max_size=8)


@given(st.lists(seed_paths, max_size=4))
def test_from_cliques_pairs_each_two_distinct_members_of_a_group(groups):
    # The one all-pairs builder: each two distinct members of a group,
    # duplicates and Current among them, make one oriented pair.
    want = {make_pair(e, f) for group in groups for e in group for f in group if e != f}
    assert from_cliques(groups) == want


@given(seed_paths, st.integers(0, 3))
def test_universal_over_the_paths_within_a_budget_is_the_must_seed(paths, k):
    # The must-mode seed used to be the universal relation cut down to the
    # budget; it is now built from the paths within the budget only.
    want = prefix_relation(from_cliques([paths]), (), k)
    assert from_cliques([[p for p in paths if dot_count(p) <= k]]) == want


def test_parse_render_roundtrip():
    text = "{b, c}, {f, g, x, z}"
    assert render_relation(lit(text)) == text
    assert render_relation(EMPTY) == "{}"
    assert lit("{}") == EMPTY
    assert lit("  ") == EMPTY


def test_parse_relation_literal_singleton_is_noop():
    assert lit("{x}") == EMPTY
    assert lit("{x},{a,b}") == lit("{a,b}")


def test_parse_relation_literal_rejects_garbage():
    for bad in ("{a,b", "a,b", "{a b}", "{a,,b}", "{a,b}{c,d}"):
        with pytest.raises(ValueError):
            lit(bad)


# -- restrict / prefix / bound -----------------------------------------------

def test_restrict_removes_variable_pairs():
    a = lit("{b,c},{f,g,x},{y,z}")
    assert restrict(a, "z") == lit("{b,c},{f,g,x}")


def test_restrict_matches_head_segment_only():
    a = from_cliques([
        (parse_path("x.a"), parse_path("y")),
        (parse_path("z.x"), parse_path("y")),
    ])
    out = restrict(a, "x")
    # x.a is rooted at x and goes; z.x merely mentions x and stays.
    assert out == from_cliques([(parse_path("z.x"), parse_path("y"))])


def test_prefix_relation():
    a = from_cliques([(var("e"), var("f"))])
    out = prefix_relation(a, var("x"), 3)
    assert out == from_cliques([(parse_path("x.e"), parse_path("x.f"))])


def test_bound_filter():
    # Filtering to the budget is a shift by Current: it only drops the
    # pairs over the budget.
    a = from_cliques([
        (parse_path("x.a.b"), parse_path("y")),
        (parse_path("x.a"), parse_path("y")),
    ])
    assert prefix_relation(a, (), 1) == from_cliques([(parse_path("x.a"), parse_path("y"))])


def test_prefix_relation_inverts_negated_view():
    # Shifting into a callee's view (prefix x') and back out (prefix x)
    # restores the original pairs; a residual back-reference resolves to
    # the caller itself.
    a = from_cliques([(var("e"), var("f"))])
    inside = prefix_relation(a, ("x'",), 3)
    assert prefix_relation(inside, var("x"), 3) == a
    back = from_cliques([(("x'",), var("c"))])
    assert prefix_relation(back, var("x"), 3) == from_cliques(
        [((), parse_path("x.c"))]
    )


# -- quotient -----------------------------------------------------------------

def test_quotient_direct_partners():
    a = from_cliques([
        (var("b"), var("c")),
        (var("f"), var("g")),
        (var("x"), var("f")),
        (var("x"), var("y")),
        (var("y"), var("z")),
    ])
    assert quotient(a, var("f"), 3) == frozenset(paths_of("f", "g", "x"))


def test_quotient_is_not_transitive():
    a = from_cliques([(var("x"), var("y")), (var("y"), var("z"))])
    assert quotient(a, var("x"), 3) == frozenset(paths_of("x", "y"))


def test_quotient_includes_dot_completions():
    # y ~ z makes y.a an alias of z.a even though no pair stores it.
    a = from_cliques([(var("y"), var("z"))])
    assert parse_path("z.a") in quotient(a, parse_path("y.a"), max_dots=3)


def python_calls(fn, *args):
    """fn(*args) and the number of Python-level function calls it made.

    The collector is flushed first and paused during the call: a collection
    that finalizes other tests' garbage (closing a suspended generator, say)
    runs Python code that would be counted as fn's.
    """
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(count)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
        if enabled:
            gc.enable()
    return result, calls


def test_quotient_without_partners_of_a_proper_sub_path_visits_no_split(monkeypatch):
    # Counted, not timed: when no proper sub-path of the source has a
    # stored partner, no split is visited and no candidate concatenation
    # built.  Visiting every split of every sub-path of a 256-segment path
    # took a third of a second and 130,054 Python calls.
    def no_concat(*args):
        raise AssertionError("concat called")

    monkeypatch.setattr(rel, "concat", no_concat)
    long = parse_path("x" + ".a" * 255)
    assert len(long) == 256
    got, calls = python_calls(quotient, EMPTY, long, 3)
    assert got == frozenset([long])
    assert calls < 10
    a = from_cliques([(long, var("u")), (long, parse_path("v.b")), (var("u"), var("w"))])
    got, calls = python_calls(quotient, a, long, 3)
    assert got == frozenset([long, var("u"), parse_path("v.b")])
    assert calls < 10


def test_quotient_completes_a_source_at_the_segment_limit_without_recursion():
    # The completion table is filled shortest sub-path first, so a source
    # of MAX_SEGMENTS segments whose first one has a partner completes under
    # a recursion limit only 60 frames above the caller's depth.
    long = parse_path("x" + ".a" * (MAX_SEGMENTS - 1))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 60)
    try:
        got = quotient(lit("{x, u}"), long, 3)
    finally:
        sys.setrecursionlimit(limit)
    assert got == frozenset([long])


# -- substitution ---------------------------------------------------------------

def test_subst_reattaches():
    a = lit("{b,c},{f,g,x},{y,z}")
    assert subst(a, var("z"), var("f"), 3) == lit("{b,c},{f,g,x,z}")


def test_subst_self_assignment_is_identity():
    a = lit("{x,y}")
    assert subst(a, var("x"), var("x"), 3) == a


def test_subst_fresh_source_just_strips_target():
    a = lit("{x,y}")
    assert subst(a, var("x"), var("u"), 3) == from_cliques([(var("x"), var("u"))])


def test_subst_uses_pre_assignment_aliases_of_source():
    # After x := y with x ~ z beforehand, x must not stay aliased to z.
    a = lit("{x,z}")
    out = subst(a, var("x"), var("y"), 3)
    assert out == from_cliques([(var("x"), var("y"))])


def test_subst_dotted_source():
    a = lit("{x,y},{a,b}")
    out = subst(a, var("z"), parse_path("x.a"), 3)
    for other in ("x.a", "x.b", "y.a", "y.b"):
        assert parse_path(other) in quotient(out, var("z"), 3)


def test_subst_respects_bound():
    a = EMPTY
    out = subst(a, var("z"), parse_path("x.a.b.c"), 2)
    assert out == EMPTY


def test_subst_list_left_fold():
    a = EMPTY
    out = subst_list(a, [var("f"), var("g")], [var("u"), var("v")], 3)
    assert var("u") in quotient(out, var("f"), 3)
    assert var("v") in quotient(out, var("g"), 3)


def test_cut_pair():
    a = lit("{x,y,z}")
    out = cut_pair(a, var("x"), var("y"))
    assert var("y") not in quotient(out, var("x"), 3)
    assert var("z") in quotient(out, var("x"), 3)
    assert var("z") in quotient(out, var("y"), 3)


# -- canonical form -------------------------------------------------------------

def test_canonical_simple():
    a = lit("{b,c},{f,g,x,z}")
    cliques = canonical(a)
    assert [[render(e) for e in c] for c in cliques] == [
        ["b", "c"], ["f", "g", "x", "z"],
    ]


def test_canonical_overlapping_cliques():
    # x~y, x~z but y and z unrelated: two cliques sharing x.
    a = from_cliques([(var("x"), var("y")), (var("x"), var("z"))])
    assert render_relation(a) == "{x, y}, {x, z}"


def test_canonical_empty():
    assert canonical(EMPTY) == ()


def test_canonical_of_a_large_clique_needs_no_recursion():
    # The clique search keeps its own stack: a clique of 300 members fits
    # under a recursion limit only 100 frames above the caller's depth.
    members = [var(f"v{i}") for i in range(300)]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        cliques = canonical(from_cliques([members]))
    finally:
        sys.setrecursionlimit(limit)
    assert cliques == (tuple(sorted(members, key=render)),)


def test_canonical_of_a_large_clique_scores_few_pivots():
    # A pivot adjacent to all of p ends the scan at once: one Tomita pivot
    # per frame, not a score for every candidate of every frame.
    n = 300
    members = [var(f"v{i}") for i in range(n)]
    cliques, calls = python_calls(canonical, from_cliques([members]))
    assert cliques == (tuple(sorted(members, key=render)),)
    assert calls < 4 * n


def brute_force_cliques(a):
    """All maximal fully-aliased subsets of the element universe, by
    direct enumeration of subsets."""
    universe = sorted(elements(a), key=render)
    full = [
        set(sub)
        for size in range(2, len(universe) + 1)
        for sub in itertools.combinations(universe, size)
        if all(make_pair(e, f) in a for e, f in itertools.combinations(sub, 2))
    ]
    maximal = [s for s in full if not any(s < t for t in full)]
    return sorted(
        tuple(sorted(s, key=render)) for s in maximal
    )


def test_canonical_matches_brute_force_on_fixed_cases():
    cases = [
        "{b,c},{f,g,x,z}",
        "{a,b},{b,c},{c,a}",
        "{a,b,c},{c,d},{d,e,f}",
        "{x,y},{x,z},{y,z},{u,v}",
    ]
    for text in cases:
        a = lit(text)
        assert sorted(canonical(a)) == brute_force_cliques(a)


# -- assertion view ---------------------------------------------------------------

def test_to_assertion():
    a = lit("{x,y}")
    out = to_assertion(a, paths_of("x", "y", "z"), 3)
    assert out == "x ≠ z and y ≠ z"


def test_to_assertion_empty_conjunction():
    a = lit("{x,y}")
    assert to_assertion(a, paths_of("x", "y"), 3) == "true"


# -- property-based ----------------------------------------------------------------

expr_names = st.sampled_from(["a", "b", "c", "d", "e", "f"])
pairs = st.tuples(expr_names, expr_names).filter(lambda t: t[0] != t[1])
relations = st.lists(pairs, max_size=10).map(
    lambda ps: from_cliques([(var(x), var(y)) for x, y in ps])
)


@given(relations)
def test_canonical_reconstructs_relation(a):
    cliques = canonical(a)
    assert from_cliques(cliques) == a


@given(relations)
def test_canonical_cliques_are_maximal_and_incomparable(a):
    cliques = [set(c) for c in canonical(a)]
    for c in cliques:
        assert len(c) >= 2
        for extra in elements(a) - c:
            assert not all(make_pair(e, extra) in a for e in c)
    for c, d in itertools.combinations(cliques, 2):
        assert not (c <= d or d <= c)


@given(relations)
def test_render_parse_roundtrip(a):
    assert parse_relation_literal(render_relation(a)) == a


@given(relations, relations)
def test_union_intersection_stay_canonicalizable(a, b):
    for r in (a | b, a & b):
        assert from_cliques(canonical(r)) == r


# -- differential: the kernels before the partner scan -------------------------------
#
# The relation kernels as they were when quotient built a partner index over
# the whole relation, restrict rebuilt every kept pair and subst copied the
# union; the rewritten kernels must agree with them on every input.

def _ref_partner_index(a):
    index = {}
    for e, f in a:
        index.setdefault(e, set()).add(f)
        index.setdefault(f, set()).add(e)
    return index


def ref_quotient(a, y, max_dots):
    index = _ref_partner_index(a)
    memo = {}

    def closure(e):
        cached = memo.get(e)
        if cached is not None:
            return cached
        out = {e}
        out |= index.get(e, set())
        if len(e) >= 2:
            for k in range(1, len(e)):
                h, t = e[:k], e[k:]
                heads = closure(h)
                tails = closure(t)
                for h2 in heads:
                    for t2 in tails:
                        if h2 == h and t2 == t:
                            continue
                        cand = concat(h2, t2)
                        if cand == e:
                            continue
                        if dot_count(cand) <= max_dots:
                            out.add(cand)
        memo[e] = out
        return out

    return frozenset(closure(y))


def ref_restrict(a, name):
    return frozenset((e, f) for e, f in a if e[:1] != (name,) and f[:1] != (name,))


def ref_prefix_relation(a, prefix, max_dots):
    out = set()
    for e, f in a:
        pe = concat(prefix, e)
        pf = concat(prefix, f)
        if pe == pf:
            continue
        if dot_count(pe) > max_dots or dot_count(pf) > max_dots:
            continue
        out.add(make_pair(pe, pf))
    return frozenset(out)


def ref_subst(a, x, y, max_dots):
    if len(x) != 1:
        raise ValueError(f"assignment target must be a variable, got {render(x)}")
    if y == x:
        return a
    x_name = x[0]
    members = {
        e
        for e in ref_quotient(a, y, max_dots)
        if e[:1] != x and dot_count(e) <= max_dots
    }
    b = ref_restrict(a, x_name)
    fresh = {make_pair(x, e) for e in members if e != x}
    return frozenset(b | fresh)


# Current, variables and fields up to 3 dots, optionally under a negated
# prefix as in a callee's view of its caller.
kernel_paths = st.builds(
    lambda pre, rest: (pre + tuple(rest))[:4],
    st.sampled_from([(), ("x'",), ("y'",), ("x'", "y'")]),
    st.lists(st.sampled_from(["x", "y", "z", "a", "b"]), max_size=4),
)
kernel_relations = st.lists(st.tuples(kernel_paths, kernel_paths), max_size=12).map(from_cliques)
budgets = st.integers(0, 4)
targets = st.sampled_from([var("x"), var("y"), var("z")])
prefixes = st.sampled_from([(), ("x",), ("x'",), ("x", "a"), ("a'", "x'"), ("y", "x'")])


@given(kernel_relations, kernel_paths, budgets)
def test_quotient_matches_partner_index_version(a, y, max_dots):
    assert quotient(a, y, max_dots) == ref_quotient(a, y, max_dots)


@given(kernel_relations, st.sampled_from(["x", "y", "z", "a"]))
def test_restrict_matches_rebuilding_version(a, name):
    assert restrict(a, name) == ref_restrict(a, name)


@given(kernel_relations, prefixes, budgets)
def test_prefix_relation_matches_make_pair_version(a, prefix, max_dots):
    assert prefix_relation(a, prefix, max_dots) == ref_prefix_relation(a, prefix, max_dots)


@given(kernel_relations, targets, kernel_paths, budgets)
def test_subst_matches_copying_version(a, x, y, max_dots):
    assert subst(a, x, y, max_dots) == ref_subst(a, x, y, max_dots)


@pytest.mark.parametrize("max_dots", range(5))
@pytest.mark.parametrize("target, source, init", [
    ("x", "Current", "{x, y}, {Current, z.a}"),  # x := Current
    ("x", "x.a", "{x, y}, {x.a, z}"),  # x := x.a
    ("y", "x", "{Current, x.a}"),  # y := x
])
def test_subst_edge_cases_match_copying_version(target, source, init, max_dots):
    a = lit(init)
    x, y = parse_path(target), parse_path(source)
    assert subst(a, x, y, max_dots) == ref_subst(a, x, y, max_dots)
