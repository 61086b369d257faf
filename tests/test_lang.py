import os
import random
import re
import sys
import time

import pytest
from conftest import ROOT, load_gen, read_program
from hypothesis import given, settings, strategies as st
from randprog import pretty

from aliascalc import lang
from aliascalc.lang import (
    Assign,
    Call,
    Cond,
    Create,
    Cut,
    Forget,
    Loop,
    MAIN,
    Procedure,
    Program,
    Repeat,
    Skip,
    SourceError,
    instructions_of,
    iterate,
    parse,
    tokenize,
)
from aliascalc.paths import parse_path, var


def body_of(text, level="e2"):
    prog = parse(text, level=level)
    return prog.procedure(MAIN).body


# -- scanner --------------------------------------------------------------------

# The tokenizer before the one-pass scanner, kept as an independent
# reference: one regex match per token, blank run or comment.
REFERENCE_TOKEN_RE = re.compile(
    r"""
      (?P<comment>--[^\n]*)
    | (?P<ws>[ \t\r]+)
    | (?P<sep>[\n;])
    | (?P<assign>:=)
    | (?P<name>[A-Za-z][A-Za-z0-9_]*)
    | (?P<number>[0-9]+)
    | (?P<dot>\.)
    | (?P<comma>,)
    | (?P<lparen>\()
    | (?P<rparen>\))
    """,
    re.VERBOSE,
)

KINDS = {"": "EOF", "\n": "SEP", ";": "SEP", ":=": "ASSIGN", ".": "DOT", ",": "COMMA",
         "(": "LPAREN", ")": "RPAREN"}


def scanned(text):
    """tokenize's result as the reference's (kind, text, line, col) tuples."""
    tokens = tokenize(text)
    position = lang.Positions(text)
    return [(KINDS.get(tok) or ("NUMBER" if tok.isdigit() else "NAME"), tok,
             *position(i)) for i, tok in enumerate(tokens)]


def test_tokenize_positions():
    toks = scanned("x := y\ncut a, b")
    assign = next((line, col) for kind, _, line, col in toks if kind == "ASSIGN")
    assert assign == (1, 3)
    cut = next((line, col) for _, text, line, col in toks if text == "cut")
    assert cut == (2, 1)


def test_tokenize_comments_and_separators():
    toks = scanned("skip -- trailing words := ; ,\nskip")
    kinds = [kind for kind, _, _, _ in toks]
    assert kinds == ["NAME", "SEP", "NAME", "EOF"]


def test_tokenize_rejects_unknown_characters():
    with pytest.raises(SourceError) as err:
        tokenize("x := y'")
    assert err.value.line == 1


def reference_tokenize(text):
    """The character-by-character tokenizer, on its own copy of the old
    token pattern."""
    tokens = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(text):
        m = REFERENCE_TOKEN_RE.match(text, pos)
        if m is None:
            raise SourceError(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1
            )
        kind = m.lastgroup
        tok_text = m.group()
        col = pos - line_start + 1
        if kind == "sep":
            tokens.append(("SEP", tok_text, line, col))
            if tok_text == "\n":
                line += 1
                line_start = m.end()
        elif kind not in ("ws", "comment"):
            tokens.append((kind.upper(), tok_text, line, col))
        pos = m.end()
    tokens.append(("EOF", "", line, len(text) - line_start + 1))
    return tokens


def lexed(tokenizer, text):
    """The token list, or the error's message and position."""
    try:
        return tokenizer(text)
    except SourceError as exc:
        return (exc.message, exc.line, exc.col)


@pytest.mark.parametrize("name", sorted(os.listdir(os.path.join(ROOT, "programs"))))
def test_tokenize_agrees_with_reference_on_fixtures(name):
    text = read_program(name)
    assert scanned(text) == reference_tokenize(text)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=list("xyab_019 \t\r\n;:=.,()-'$é"), max_size=40))
def test_tokenize_agrees_with_reference_on_random_text(text):
    assert lexed(scanned, text) == lexed(reference_tokenize, text)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(
    ["x", "y1", "007", ":=", ":", "=", ".", ",", "(", ")", ";", "\n", "\r\n", " ", "\t",
     "--", "-- a.b", "-", "'", "$", "é", "\ud800", "end", "Current"]), max_size=20))
def test_tokenize_agrees_with_reference_on_random_pieces(pieces):
    text = "".join(pieces)
    assert lexed(scanned, text) == lexed(reference_tokenize, text)


@pytest.mark.parametrize("text, where", [
    ("$x := y", (1, 1)),
    ("x := y$", (1, 7)),
    ("x := y\n  z := w$", (2, 9)),
    ("x := y -- fine\n\né", (3, 1)),
    ("call x.p (a')", (1, 12)),
    ("x := y   \t$", (1, 11)),
    ("x := y -- c\n  \r-z", (2, 4)),
    ("-- only a comment\n  :\n", (2, 3)),
    ("x\n   $ y\n$", (2, 4)),
])
def test_tokenize_reports_the_first_bad_character(text, where):
    got = lexed(scanned, text)
    assert got == lexed(reference_tokenize, text)
    assert got[1:] == where


class CountedPattern:
    """A compiled pattern that records each attribute read from it.  The
    scanner reads a method only to call it, so each is one search."""

    def __init__(self, pattern, passes):
        self.pattern, self.passes = pattern, passes

    def __getattr__(self, name):
        self.passes.append(name)
        return getattr(self.pattern, name)


@pytest.mark.parametrize("text, where, timed", [
    pytest.param("x" + " " * 10_000 + "$", (1, 10_002), True, id="blank-run"),
    pytest.param("x" * 10_000 + "$", (1, 10_001), True, id="long-identifier"),
    pytest.param("x " * 5000 + "$", (1, 10_001), False, id="names-and-blanks"),
    pytest.param("x := y.a\n" * 20_000, None, False, id="valid-20000-lines"),
])
def test_a_long_blank_run_before_a_bad_character_is_scanned_once(text, where, timed, monkeypatch):
    # One search tokenizes the text and, if a character is bad, one more
    # locates it; a scanner that searched again from each token or blank
    # would search thousands of times here.  A count of searches cannot see
    # backtracking inside one search, so the first two texts also keep a
    # bound on time: a search that re-read the blanks from each of their
    # positions would take seconds on the first (quadratic in the run),
    # and a pattern that checked the tiling by backtracking over the tokens
    # would take time exponential in the identifier's length on the second.
    passes = []
    for name in ("_TOKEN_RE", "_TILE_RE"):
        monkeypatch.setattr(lang, name, CountedPattern(getattr(lang, name), passes))
    start = time.perf_counter()
    if where is None:
        assert len(tokenize(text)) == 6 * 20_000 + 1
    else:
        with pytest.raises(SourceError) as err:
            tokenize(text)
        assert (err.value.line, err.value.col) == where
    if timed:
        assert time.perf_counter() - start < 1
    assert len(passes) == (1 if where is None else 2)


@pytest.mark.parametrize("text, tokens", [
    # A comment is not cut short to let its tail lex as tokens.
    ("x := y -- a.b", ["x", ":=", "y", ""]),
    ("-- x", [""]),
    ("-- x\n", ["\n", ""]),
    ("--", [""]),
    ("x := y", ["x", ":=", "y", ""]),
    ("\n)c,-- 1", ["\n", ")", "c", ",", ""]),
    ("x   ", ["x", ""]),
    ("", [""]),
])
def test_tokenize_folds_blanks_and_comments_into_the_next_token(text, tokens):
    got = tokenize(text)
    assert got == tokens
    assert [tok[1] for tok in reference_tokenize(text)] == tokens


@pytest.mark.parametrize("text, where", [
    ("x := y -- a.b", (1, 14)),
    ("x := y\n-- last", (2, 8)),
    ("x := y\r\n  -- last\n", (3, 1)),
    ("x", (1, 2)),
    ("", (1, 1)),
])
def test_end_of_input_position_after_a_trailing_comment(text, where):
    tokens = tokenize(text)
    assert lang.Positions(text)(len(tokens) - 1) == where
    assert reference_tokenize(text)[-1][2:] == where


@pytest.mark.parametrize("text, message, where", [
    ("x := -- c", "expected a variable or Current, found 'end of input'", (1, 10)),
    ("x := -- c\n", "expected a variable or Current, found '\\n'", (1, 10)),
    ("then skip -- c", "expected 'else', found 'end of input'", (1, 15)),
    ("loop skip\n  -- c\n\t", "expected 'end', found 'end of input'", (3, 2)),
])
def test_errors_at_the_end_of_input_point_past_the_trailing_text(text, message, where):
    with pytest.raises(SourceError) as err:
        parse(text)
    assert (err.value.message, (err.value.line, err.value.col)) == (message, where)


def generated_programs():
    """30 bench/gen.py programs, each with the level it parses at."""
    gen = load_gen()
    for seed in range(30):
        rng = random.Random(seed)
        if seed % 3 == 0:
            yield gen.interproc_program(rng, "e1", 12), "e1"
        elif seed % 3 == 1:
            yield gen.interproc_program(rng, "e2", 6), "e2"
        else:
            yield gen.recursive_program(rng, 8), "e2"


def test_token_count_for_the_tracer():
    # bench/tracer.py counts len(tokenize(text)) - 1 tokens per parse:
    # the list holds one entry per token and exactly one EOF, last.
    texts = [read_program(name) for name in sorted(os.listdir(os.path.join(ROOT, "programs")))]
    for text in texts + [text for text, _ in generated_programs()]:
        tokens = tokenize(text)
        assert len(tokens) - 1 == len(reference_tokenize(text)) - 1
        assert tokens.count("") == 1 and tokens[-1] == ""


MID_LINE_CALL = "procedure Main\n  x := y ; call p (x, y)\nend\nprocedure p (a, b)\nend\n"


def test_positions_are_worked_out_only_when_read():
    fixtures = [(read_program(name), name[-2:])
                for name in sorted(os.listdir(os.path.join(ROOT, "programs")))]
    for text, level in fixtures + list(generated_programs()) + [(MID_LINE_CALL, "e1")]:
        parser = lang.Parser(text, level)
        prog = parser.program()
        assert parser.position.starts is None, text
        keywords = {"call": [], "procedure": []}
        for _, tok, line, col in reference_tokenize(text):
            if tok in keywords:
                keywords[tok].append((line, col))
        calls = [ins for ins in instructions_of(prog) if isinstance(ins, Call)]
        assert [ins.pos for ins in calls] == keywords["call"]
        assert [proc.pos for proc in prog.procedures] == (keywords["procedure"] or [(0, 0)])
        assert (parser.position.starts is None) == (not calls and not keywords["procedure"])
    assert [ins.pos for ins in calls] == [(2, 12)]


def test_parse_looks_tokenize_up_on_the_module(monkeypatch):
    # The tracer rebinds lang.tokenize; parse must call whatever it names.
    seen = []

    def counting(text):
        seen.append(text)
        return tokenize(text)

    monkeypatch.setattr(lang, "tokenize", counting)
    parse("x := y", level="e0")
    assert seen == ["x := y"]


# -- statements ----------------------------------------------------------------

def test_parse_atoms():
    assert body_of("skip") == (Skip(),)
    assert body_of("create x") == (Create("x"),)
    assert body_of("forget x") == (Forget("x"),)
    assert body_of("cut x, y") == (Cut(var("x"), var("y")),)
    assert body_of("x := y") == (Assign(var("x"), var("y")),)


def test_parse_separators():
    assert len(body_of("skip ; skip\nskip")) == 3
    assert len(body_of("\n\nskip\n\n;\n")) == 1


def test_parse_conditional():
    (ins,) = body_of("then x := y else skip end")
    assert ins == Cond((Assign(var("x"), var("y")),), (Skip(),))


def test_parse_conditional_branches_may_be_empty():
    (ins,) = body_of("then else end")
    assert ins == Cond((), ())


def test_parse_conditional_requires_else():
    with pytest.raises(SourceError):
        parse("then skip end")


def test_parse_loop_and_iterate():
    (ins,) = body_of("loop x := y end")
    assert ins == Loop((Assign(var("x"), var("y")),))
    (ins,) = body_of("iterate 3 x := y end")
    assert ins == Repeat(3, (Assign(var("x"), var("y")),))


def test_parse_nested_control():
    (ins,) = body_of("loop then skip else loop skip end end end")
    assert isinstance(ins, Loop)
    assert isinstance(ins.body[0], Cond)
    assert isinstance(ins.body[0].else_branch[0], Loop)


def test_parse_dotted_source():
    (ins,) = body_of("z := x.a")
    assert ins == Assign(var("z"), parse_path("x.a"))


def test_parse_current_source_vanishes():
    (ins,) = body_of("z := Current")
    assert ins == Assign(var("z"), ())


def test_parse_calls():
    prog = parse(
        "procedure Main\n call q\n call r (a, b)\n call x.s (Current)\nend\n"
        "procedure q\n skip\nend\n"
        "procedure r (u, v)\n skip\nend\n"
        "procedure s (w)\n skip\nend",
        level="e2",
    )
    calls = [i for i in instructions_of(prog) if isinstance(i, Call)]
    assert calls[0] == Call((), "q", ())
    assert calls[1] == Call((), "r", (var("a"), var("b")))
    assert calls[2] == Call(var("x"), "s", ((),))


def test_call_positions_do_not_affect_equality():
    assert Call((), "q", (), pos=(3, 7)) == Call((), "q", ())
    assert hash(Call((), "q", (), pos=(3, 7))) == hash(Call((), "q", ()))
    assert repr(Call((), "q", (), pos=(3, 7))) == "Call(qualifier=(), proc='q', args=())"


# -- records -----------------------------------------------------------------------

def test_records_equal_only_records_of_their_own_type():
    assert Create("x") == Create("x") and hash(Create("x")) == hash(Create("x"))
    assert Create("x") != Forget("x")
    assert hash(Create("x")) != hash(Forget("x"))
    assert Loop(()) != Cond((), ())
    assert Skip() == Skip() and Skip() != Loop(())
    assert Create("x") != ("x",) and Create("x") != "x"
    assert len({Create("x"), Forget("x"), Create("x"), Skip()}) == 3
    assert Repeat(2, (Skip(),)) != Repeat(3, (Skip(),))
    assert parse("x := y", level="e0") != parse("x := y", level="e2")


def test_record_repr_names_every_compared_field():
    assert repr(Assign(var("x"), var("y"))) == "Assign(target=('x',), source=('y',))"
    assert repr(Skip()) == "Skip()"
    assert repr(Program((), level="e0")) == "Program(procedures=(), level='e0')"


@pytest.mark.parametrize("record, field", [
    (Create("x"), "name"),
    (Assign(var("x"), var("y")), "source"),
    (Call((), "q", (), pos=(1, 1)), "pos"),
    (Procedure("q", (), ()), "body"),
    (Program(()), "level"),
])
def test_record_fields_cannot_be_assigned_or_deleted(record, field):
    before = repr(record)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == before


def test_program_facts_are_computed_once():
    prog = parse("x := y.a")
    assert prog.max_dots == 1
    with pytest.raises(AttributeError):
        prog.max_dots = None


# -- errors ----------------------------------------------------------------------

def test_qualified_assignment_gets_setter_hint():
    with pytest.raises(SourceError) as err:
        parse("x.a := v")
    assert "setter" in err.value.message
    assert "call x.set_a" in err.value.message
    assert (err.value.line, err.value.col) == (1, 1)


def test_path_length_is_fenced_in_every_position():
    # Each position that reads a path reports one past the limit at the
    # path's first token; Current segments vanish and do not count.
    at = ".".join(["x"] * lang.MAX_SEGMENTS)
    over = at + ".x"
    assert parse(f"z := Current.{at}").procedures[0].body == (Assign(var("z"), parse_path(at)),)
    for text, col in ((f"z := {over}", 6), (f"cut y, {over}", 8), (f"call {over}.q", 6),
                      (f"call q ({over})", 9), (f"{over} := y", 1)):
        with pytest.raises(SourceError) as err:
            parse(text)
        assert err.value.message == f"path has more than {lang.MAX_SEGMENTS} segments"
        assert (err.value.line, err.value.col) == (1, col), text


def test_cannot_assign_to_current():
    with pytest.raises(SourceError) as err:
        parse("Current := x")
    assert "Current" in err.value.message


def test_arity_mismatch():
    with pytest.raises(SourceError) as err:
        parse(
            "procedure Main\n call q (a, b)\nend\nprocedure q (f)\n skip\nend"
        )
    assert "passes 2 argument(s); it declares 1" in err.value.message
    assert err.value.line == 2


def test_undefined_procedure():
    with pytest.raises(SourceError) as err:
        parse("procedure Main\n call nope\nend")
    assert "undefined procedure" in err.value.message


def test_duplicate_procedure():
    with pytest.raises(SourceError):
        parse("procedure Main\n skip\nend\nprocedure Main\n skip\nend")


def test_main_must_exist_and_take_no_arguments():
    with pytest.raises(SourceError):
        parse("procedure other\n skip\nend")
    with pytest.raises(SourceError):
        parse("procedure Main (x)\n skip\nend")


@pytest.mark.parametrize("text, message, line, col", [
    ("procedure Main\n skip\nend\nprocedure q\n skip\nend\n  procedure Main\n skip\nend",
     "procedure 'Main' is defined more than once", 7, 3),
    ("procedure p\n skip\nend\nprocedure q\n skip\nend\nprocedure q\n skip\nend\n"
     "procedure p\n skip\nend", "procedure 'q' is defined more than once", 7, 1),
    ("\n\n  procedure other\n skip\nend\nprocedure more\n skip\nend",
     "no procedure named 'Main'", 3, 3),
    ("procedure q\n skip\nend\nprocedure Main (x)\n skip\nend",
     "'Main' must not take arguments", 4, 1),
])
def test_program_errors_are_reported_at_the_declaration(text, message, line, col):
    with pytest.raises(SourceError) as err:
        parse(text, level="e1")
    assert (err.value.message, err.value.line, err.value.col) == (message, line, col)


def test_procedure_positions_do_not_affect_equality():
    assert Procedure("q", (), (), pos=(3, 7)) == Procedure("q", (), ())
    assert hash(Procedure("q", (), (), pos=(3, 7))) == hash(Procedure("q", (), ()))
    assert repr(Procedure("q", (), (), pos=(3, 7))) == "Procedure(name='q', formals=(), body=())"
    prog = parse("procedure Main\n skip\nend\n procedure q (f)\n skip\nend", level="e1")
    assert [p.pos for p in prog.procedures] == [(1, 1), (4, 2)]


def test_iterate_count_past_the_int_conversion_limit():
    # int() converts at most sys.get_int_max_str_digits() digits, 4300 by
    # default; a longer count is reported at the count.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        (ins,) = body_of("iterate " + "9" * 4300 + " skip end")
        assert ins.count == 10 ** 4300 - 1
        with pytest.raises(SourceError) as err:
            parse("skip\n  iterate " + "9" * 4301 + " skip end")
    finally:
        sys.set_int_max_str_digits(limit)
    assert (err.value.message, err.value.line, err.value.col) == (
        "iteration count of 4301 digits is too long", 2, 11)


def test_level_fences():
    cases = [
        ("call q", "e0", "'call' requires level e1 or higher", 1, 1),
        ("procedure Main\n skip\nend", "e0",
         "procedure declarations require level e1 or higher", 1, 1),
        ("x := y.a", "e1", "dotted assignment source 'y.a' requires level e2", 1, 6),
        ("x := Current", "e1", "Current as assignment source requires level e2", 1, 6),
        ("cut x, Current", "e0", "Current as cut operand requires level e2", 1, 8),
        ("cut x.a, y", "e1", "dotted cut operand 'x.a' requires level e2", 1, 5),
        ("procedure Main\n call q (Current)\nend\nprocedure q (f)\n skip\nend", "e1",
         "Current as call argument requires level e2", 2, 10),
        ("procedure Main\n call x.q\nend\nprocedure q\n skip\nend", "e1",
         "qualified call 'call x.q' requires level e2", 2, 2),
    ]
    for text, level, message, line, col in cases:
        with pytest.raises(SourceError) as err:
            parse(text, level=level)
        assert (err.value.message, err.value.line, err.value.col) == (message, line, col)
    # The same texts are fine one tier up.
    parse("procedure Main\n skip\nend", level="e1")
    parse("x := y.a", level="e2")


def test_unknown_level():
    with pytest.raises(SourceError):
        parse("skip", level="e3")


def test_statements_cannot_mix_with_procedures():
    with pytest.raises(SourceError):
        parse("procedure Main\n skip\nend\nskip")


# -- census ------------------------------------------------------------------------

def test_expressions_of():
    prog = parse("z := x.a ; cut b, c ; create d ; forget e", level="e2")
    exprs = prog.expressions
    for text in ("z", "x.a", "b", "c", "d", "e", "Current"):
        assert parse_path(text) in exprs


def test_expressions_of_includes_formals_and_call_parts():
    prog = parse(
        "procedure Main\n call x.q (u)\nend\nprocedure q (f)\n skip\nend",
        level="e2",
    )
    exprs = prog.expressions
    for text in ("x", "u", "f"):
        assert parse_path(text) in exprs


def test_max_dot_count():
    assert parse("x := y", level="e2").max_dots == 0
    assert parse("x := y.a.b", level="e2").max_dots == 2


def test_nesting_costs():
    prog = parse(
        "procedure Main\n"
        " then loop call q end else iterate 2 x := y end end\n"
        " loop skip end\n"
        "end\n"
        "procedure q\n skip\nend",
        level="e1",
    )
    assert prog.costs == {"Main": 3, "q": 1}


# -- iterate --------------------------------------------------------------------------

def chain(tail, period):
    """Successors over range(tail + period): 0 -> 1 -> ... along a tail
    into a cycle of the given period."""
    size = tail + period
    return [i + 1 for i in range(size - 1)] + [tail]


def naive_iterate(succ, start, count):
    for _ in range(count):
        start = succ[start]
    return start


@pytest.mark.parametrize("tail", range(11))
@pytest.mark.parametrize("period", range(1, 11))
def test_iterate_agrees_with_naive_application_on_a_chain(tail, period):
    succ = chain(tail, period)
    k = len(succ)
    for count in range(3 * k + 1):
        assert iterate(succ.__getitem__, 0, count, key=lambda s: s) == naive_iterate(succ, 0, count)


@pytest.mark.parametrize("seed", range(30))
def test_iterate_agrees_with_naive_application_on_random_graphs(seed):
    # A random function on range(k): every start runs into a cycle.
    rng = random.Random(seed)
    k = rng.randint(1, 20)
    succ = [rng.randrange(k) for _ in range(k)]
    for start in range(k):
        for count in range(3 * k + 1):
            got = iterate(succ.__getitem__, start, count, key=lambda s: s)
            assert got == naive_iterate(succ, start, count)


@pytest.mark.parametrize("tail, period", [(0, 1), (0, 2), (3, 7), (10, 10), (9, 1)])
def test_iterate_reads_a_long_count_off_the_cycle(tail, period):
    succ = chain(tail, period)
    steps = []

    def step(s):
        steps.append(s)
        return succ[s]

    count = 10**20 + 7
    assert iterate(step, 0, count, key=lambda s: s) == tail + (count - tail) % period
    assert len(steps) < 40


def test_iterate_compares_only_keys():
    # The state carries how many steps it took; the key leaves that out,
    # so the cycle is found on the node alone and the count is the shorter
    # run's that reaches the same node.
    succ = chain(2, 3)

    def step(state):
        node, taken = state
        return succ[node], taken + 1

    node, taken = iterate(step, (0, 0), 1000, key=lambda s: s[0])
    assert node == naive_iterate(succ, 0, 1000)
    assert taken < 1000 and (1000 - taken) % 3 == 0


# -- pretty -----------------------------------------------------------------------

def test_pretty_roundtrip_base_tier():
    text = "\n".join([
        "create a",
        "then",
        "  x := y",
        "else",
        "  loop",
        "    cut a, x",
        "  end",
        "end",
        "iterate 2",
        "  skip",
        "end",
    ])
    prog = parse(text, level="e0")
    assert parse(pretty(prog), level="e0") == prog


def test_pretty_roundtrip_procedures():
    text = (
        "procedure Main\n f := x.a\n call x.q (Current, f)\nend\n"
        "procedure q (b, c)\n d := b\nend"
    )
    prog = parse(text, level="e2")
    assert parse(pretty(prog), level="e2") == prog
