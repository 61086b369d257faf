"""Alias relations and the operations the transfer rules are built from.

A relation is a symmetric, irreflexive set of pairs of paths meaning "these
two expressions may currently denote the same object".  We store each
unordered pair once, oriented by tuple order, inside a plain ``frozenset``.
All operations are pure functions.  One that changes nothing may return its
input itself rather than a copy, which is safe because frozensets are
immutable.

Two ideas deserve a note up front:

* **Completion on demand.**  Stored pairs are only the explicitly derived
  ones.  Pairs that follow by composing components (``x.a ~ y.b`` because
  ``x ~ y`` and ``a ~ b``) are *not* materialized; the ``quotient`` search
  reconstructs them when an operation needs the full picture.  This keeps
  relations small and printable.

* **Quotient for an assignment source.**  For ``x := y`` the new partners of
  ``x`` are the expressions that may equal ``y`` *in the pre-state*, kept
  only if their own meaning survives the update (i.e. they don't start with
  ``x``).  Computing the partner set before removing ``x``'s old pairs — and
  filtering afterwards — is what makes ``x := x`` a no-op and keeps
  ``x := x.a`` from aliasing ``x`` to ``x.a``.  A split-free source
  (``Current`` or a plain variable) has only its stored partners, so
  ``subst`` collects them in the same scan that finds ``x``'s old pairs
  instead of filling the quotient's completion table.
"""

from __future__ import annotations

import re
from itertools import chain, combinations
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from .paths import (
    Path,
    concat,
    parse_path,
    render,
)

Pair = Tuple[Path, Path]
Relation = FrozenSet[Pair]

EMPTY: Relation = frozenset()


def make_pair(e: Path, f: Path) -> Pair:
    """Canonically oriented pair; alias relations are irreflexive."""
    if e == f:
        raise ValueError(f"reflexive alias pair on {e!r}")
    return (e, f) if e <= f else (f, e)


def from_cliques(cliques: Iterable[Iterable[Path]]) -> Relation:
    """All-pairs closure of each group — the overline construction; over
    one group of every path, the complete relation (the must-mode top).
    Sorting a group's distinct members orients every pair."""
    return frozenset(chain.from_iterable(
        combinations(sorted(set(group)), 2) for group in cliques
    ))


def elements(a: Relation) -> FrozenSet[Path]:
    """Every path occurring in some pair."""
    out: Set[Path] = set()
    for e, f in a:
        out.add(e)
        out.add(f)
    return frozenset(out)


def restrict(a: Relation, name: str) -> Relation:
    """Remove every pair involving the variable ``name``.

    "Involving" covers both the variable itself and any longer path that
    starts with it: once the variable is rebound, nothing previously known
    about paths rooted there remains meaningful.  Deeper occurrences of the
    name (as in ``u.x``) are deliberately untouched — only the first segment
    identifies which variable a path hangs off.
    """
    dropped = [
        (e, f) for e, f in a if (e and e[0] == name) or (f and f[0] == name)
    ]
    return a.difference(dropped) if dropped else a


def prefix_relation(a: Relation, prefix: Path, max_dots: int) -> Relation:
    """Re-root every element of a under a prefix (the ``x •`` view shift).

    The prefix and the elements are reduced paths, so concatenation
    cancels inverse segments at the junction only, and shifting into a
    callee and back out restores the original pairs.  Pairs that collapse
    to reflexive ones, or that overflow the dot budget (a path of n
    segments has n - 1 dots; ``max_dots`` is nonnegative), are dropped.
    """
    limit = max_dots + 1
    out: Set[Pair] = set()
    for e, f in a:
        pe = concat(prefix, e)
        pf = concat(prefix, f)
        if pe == pf or len(pe) > limit or len(pf) > limit:
            continue
        out.add((pe, pf) if pe < pf else (pf, pe))
    return frozenset(out)


def quotient(a: Relation, y: Path, max_dots: int) -> FrozenSet[Path]:
    """All expressions that may denote the same object as y (y included):
    y itself, its stored partners, and every recombination of a split of
    y with partners of the two halves.

    A split of a contiguous sub-path of y is again one, so only their
    stored partners are ever needed, and one scan of the relation collects
    them; when it finds none for a proper sub-path, the quotient is y and
    its own partners.  Otherwise a table holds each distinct sub-path's
    completion, filled shortest first, so both halves of every split are
    already in it.  ``max_dots`` is nonnegative.
    """
    n = len(y)
    needed = {y[i:j] for i in range(n) for j in range(i + 1, n + 1)}
    needed.add(y)  # y may be Current
    partners: Dict[Path, Set[Path]] = {}
    for e, f in a:
        if e in needed:
            partners.setdefault(e, set()).add(f)
        if f in needed:
            partners.setdefault(f, set()).add(e)
    if partners.keys() <= {y}:
        # No proper sub-path has a partner, so no split recombines.
        return frozenset(partners.get(y, ())) | {y}
    limit = max_dots + 1
    table: Dict[Path, Set[Path]] = {}
    for size in range(1, n + 1):
        for i in range(n - size + 1):
            e = y[i : i + size]
            if e in table:
                continue
            out = table[e] = {e}
            out.update(partners.get(e, ()))
            for k in range(1, size):
                h, t = e[:k], e[k:]
                for h2 in table[h]:
                    for t2 in table[t]:
                        if h2 == h and t2 == t:
                            continue
                        cand = concat(h2, t2)
                        if len(cand) <= limit:
                            out.add(cand)
    return frozenset(table[y])


def subst(a: Relation, x: Path, y: Path, max_dots: int) -> Relation:
    """Effect of the assignment x := y on the relation.

    x must be a single variable.  The partner set of y is computed against
    the pre-state, then every member rooted at x is discarded (its meaning
    changes with the assignment), x's old pairs are removed, and x is paired
    with what is left.

    A source of at most one segment has no split to complete, so its
    quotient is y and its stored partners: one scan of the relation then
    collects those partners and x's old pairs together.  A partner in a
    pair rooted at x is itself rooted at x (y is not), so it is dropped
    with that pair.  Dotted sources go through ``quotient`` and ``restrict``.
    """
    if len(x) != 1:
        raise ValueError(f"assignment target must be a variable, got {render(x)}")
    if y == x:
        # Rebinding a variable to itself changes nothing.
        return a
    x_name = x[0]
    limit = max_dots + 1
    if len(y) > 1:
        fresh = {
            (x, e) if x < e else (e, x)
            for e in quotient(a, y, max_dots)
            if (not e or e[0] != x_name) and len(e) <= limit
        }
        return restrict(a, x_name).union(fresh)
    fresh = {(x, y) if x < y else (y, x)}
    dropped = []
    for pair in a:
        e, f = pair
        if (e and e[0] == x_name) or (f and f[0] == x_name):
            dropped.append(pair)
        elif e == y:
            if len(f) <= limit:
                fresh.add((x, f) if x < f else (f, x))
        elif f == y and len(e) <= limit:
            fresh.add((x, e) if x < e else (e, x))
    return (a.difference(dropped) if dropped else a).union(fresh)


def subst_list(
    a: Relation, xs: Sequence[Path], ys: Sequence[Path], max_dots: int
) -> Relation:
    """Simultaneous-looking assignment list, applied left to right."""
    if len(xs) != len(ys):
        raise ValueError("target/source lists differ in length")
    out = a
    for x, y in zip(xs, ys):
        out = subst(out, x, y, max_dots)
    return out


def cut_pair(a: Relation, e: Path, f: Path) -> Relation:
    """Remove one pair: the caller vouches that e and f are not aliased."""
    if e == f:
        return a
    return a - {make_pair(e, f)}


# ---------------------------------------------------------------------------
# Canonical form
# ---------------------------------------------------------------------------

def canonical(a: Relation) -> Tuple[Tuple[Path, ...], ...]:
    """The canonical form: maximal cliques of the pair graph.

    Every relation is the union of complete relations over its maximal
    cliques, none of which may be dropped or shrunk, so this decomposition
    is the unique minimal clique cover of that shape.  Cliques are found by
    the pivoting Bron–Kerbosch search; the output orders elements within a
    clique, and the cliques themselves, by their rendered text.
    """
    adj: Dict[Path, Set[Path]] = {}
    for e, f in a:
        adj.setdefault(e, set()).add(f)
        adj.setdefault(f, set()).add(e)

    # A stack of (r, p, x) frames, not recursion, so no clique is too big.
    cliques: List[Set[Path]] = []
    frames = [(set(), set(adj), set())] if adj else []
    while frames:
        r, p, x = frames.pop()
        if not p and not x:
            cliques.append(r)
            continue
        # Tomita's pivot: the vertex with the most neighbours in p, the
        # first strict maximum in x then p.  A vertex of x can reach len(p),
        # one of p only len(p) - 1, so the scan stops once none can beat it.
        best = -1
        for u in chain(x, p):
            n = len(p & adj[u])
            if n > best:
                best, pivot = n, u
                if best >= len(p) - (u in p):
                    break
        for v in list(p - adj[pivot]):
            frames.append((r | {v}, p & adj[v], x & adj[v]))
            p.remove(v)
            x.add(v)

    rendered = [tuple(sorted(c, key=render)) for c in cliques]
    return tuple(sorted(rendered, key=lambda c: tuple(render(e) for e in c)))


def render_relation(a: Relation) -> str:
    """Canonical text form: cliques in braces, e.g. ``{b, c}, {f, g, x}``."""
    cliques = canonical(a)
    if not cliques:
        return "{}"
    return ", ".join("{" + ", ".join(render(e) for e in c) + "}" for c in cliques)


# Brace groups, separated by commas, of comma-separated paths.
_GROUP_RE = re.compile(r"\{([^{}]*)\}")
_LITERAL_RE = re.compile(r"{0}(?:\s*,\s*{0})*".format(_GROUP_RE.pattern))


def parse_relation_literal(text: str) -> Relation:
    """Parse the clique syntax produced by render_relation.

    ``{}`` (or an all-whitespace string) is the empty relation.  Groups are
    brace-enclosed, comma-separated lists of paths; a group of one is legal
    but contributes nothing.
    """
    s = text.strip()
    if not s or s == "{}":
        return EMPTY
    if not _LITERAL_RE.fullmatch(s):
        raise ValueError(f"expected brace groups separated by commas, found {s!r}")
    return from_cliques(
        [parse_path(part) for part in body.split(",")]
        for body in _GROUP_RE.findall(s) if body.strip()
    )


def to_assertion(a: Relation, universe: Iterable[Path], max_dots: int) -> str:
    """Negation of a relation as a conjunction of disequalities.

    Every unordered pair of distinct universe members neither of which is
    in the other's ``quotient`` at the dot budget (completions included)
    contributes one ``e ≠ f`` clause; an aliased pair asserts nothing (the
    two sides may or may not be equal).  An empty conjunction is ``true``.
    """
    uni = sorted(set(universe), key=render)
    partners = {e: quotient(a, e, max_dots) for e in uni}
    clauses: List[str] = []
    for i, e in enumerate(uni):
        for f in uni[i + 1 :]:
            if f not in partners[e] and e not in partners[f]:
                lhs, rhs = sorted((render(e), render(f)))
                clauses.append(f"{lhs} ≠ {rhs}")
    if not clauses:
        return "true"
    return " and ".join(sorted(clauses))
