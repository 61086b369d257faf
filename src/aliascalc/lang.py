"""The analyzed language: AST, parser, and validation for three tiers.

Tier ``e0`` is bare instruction lists over plain variables (skip, create,
forget, cut, assignment, conditional, loop, bounded iterate).  Tier ``e1``
adds procedure declarations and unqualified calls.  Tier ``e2`` adds dotted
paths as assignment sources / arguments and qualified calls (``call x.r``).

Grammar sketch::

    program    ::= statement-list | procedure+
    procedure  ::= "procedure" NAME [ "(" names ")" ] statements "end"
    statement  ::= "skip" | "create" NAME | "forget" NAME
                 | "cut" path "," path
                 | path ":=" path
                 | "then" statements "else" statements "end"
                 | "loop" statements "end"
                 | "iterate" NUMBER statements "end"
                 | "call" path [ "(" paths ")" ]

Statements are separated by newlines or semicolons; ``--`` starts a comment.
A bare statement list is wrapped in an implicit argumentless ``Main``.  The
conditional has no condition: either branch may execute, which is all the
analysis can use anyway.

The front end is one scanner and one parser.  ``tokenize`` finds every
token in one regex ``findall``, each match carrying the blanks and the
comment before its token, and works out the tokens' character offsets
from the match lengths.  ``Parser`` reads the token texts by index and
dispatches each statement on its first word through one keyword table.
Line and column are worked out only where they are kept or reported:
for procedures, calls and errors.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from itertools import accumulate, chain, compress
from operator import attrgetter
from typing import (
    Callable, Dict, FrozenSet, Iterator, List, NamedTuple, Sequence, Set, Tuple, TypeVar,
    Union,
)

from .paths import CURRENT, Path, dot_count, render, var

KEYWORDS = {
    "skip", "forget", "create", "cut", "then", "else", "end",
    "loop", "iterate", "call", "procedure", "Current",
}

LEVELS = ("e0", "e1", "e2")

# Deepest nesting of then/loop/iterate blocks the parser accepts.  The
# parser and the analyses all recurse on nesting, so a fixed fence keeps
# every one of them inside the interpreter's recursion limit.
MAX_NESTING = 100


class SourceError(Exception):
    """Parse or validation failure, carrying a source position."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(message)
        self.message = message
        self.line = line
        self.col = col

    def __str__(self) -> str:
        if self.line:
            return f"line {self.line}, col {self.col}: {self.message}"
        return self.message


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

class Record:
    """An immutable value record.  A subclass names its fields in
    ``__slots__`` and stores them in its own ``__init__`` through
    ``object.__setattr__``; assigning or deleting a field afterwards
    raises ``AttributeError``.  The fields in ``_compared`` (all of them
    unless the subclass says otherwise) make up ``==``, ``hash`` and
    ``repr``, and a record equals only records of its own type.

    Written out by hand instead of with ``dataclasses``: that module
    imports ``inspect`` and ``ast`` and generates each class's methods with
    ``exec``, which together made up most of the package's share of an
    ``alias-calc`` run's start-up."""

    __slots__ = ()
    _compared: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_compared" not in cls.__dict__:
            cls._compared = tuple(cls.__slots__)
        # The type's name and the compared fields, fetched in one C call; the
        # name rather than the type keeps hashes fixed under PYTHONHASHSEED.
        cls._key = attrgetter("__class__.__name__", *cls._compared)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

class Skip(Record):
    __slots__ = ()


class Create(Record):
    __slots__ = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)


class Forget(Record):
    __slots__ = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)


class Cut(Record):
    __slots__ = ("left", "right")

    def __init__(self, left: Path, right: Path):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class Assign(Record):
    __slots__ = ("target", "source")

    def __init__(self, target: Path, source: Path):
        # target is always a single variable; the parser enforces it
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "source", source)


class Cond(Record):
    __slots__ = ("then_branch", "else_branch")

    def __init__(self, then_branch: Tuple["Instruction", ...],
                 else_branch: Tuple["Instruction", ...]):
        object.__setattr__(self, "then_branch", then_branch)
        object.__setattr__(self, "else_branch", else_branch)


class Loop(Record):
    __slots__ = ("body",)

    def __init__(self, body: Tuple["Instruction", ...]):
        object.__setattr__(self, "body", body)


class Repeat(Record):
    __slots__ = ("count", "body")

    def __init__(self, count: int, body: Tuple["Instruction", ...]):
        object.__setattr__(self, "count", count)
        object.__setattr__(self, "body", body)


class Call(Record):
    """``call r (args)`` or ``call x.r (args)``.

    ``qualifier`` is the path before the procedure name — empty for an
    unqualified call.  ``pos`` carries the source position for diagnostics
    and does not participate in equality.
    """

    __slots__ = ("qualifier", "proc", "args", "pos")
    _compared = ("qualifier", "proc", "args")

    def __init__(self, qualifier: Path, proc: str, args: Tuple[Path, ...] = (),
                 pos: Tuple[int, int] = (0, 0)):
        object.__setattr__(self, "qualifier", qualifier)
        object.__setattr__(self, "proc", proc)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "pos", pos)


Instruction = Union[Skip, Create, Forget, Cut, Assign, Cond, Loop, Repeat, Call]


class Procedure(Record):
    """A procedure declaration.  ``pos`` is the position of its
    ``procedure`` keyword, for diagnostics, and does not participate in
    equality."""

    __slots__ = ("name", "formals", "body", "pos")
    _compared = ("name", "formals", "body")

    def __init__(self, name: str, formals: Tuple[str, ...], body: Tuple[Instruction, ...],
                 pos: Tuple[int, int] = (0, 0)):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "formals", formals)
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "pos", pos)


class ProgramFacts(NamedTuple):
    """What the analyses read off a program, none of it depending on the
    analysis mode or the dot budget."""

    expressions: FrozenSet[Path]  # every path written in the program, plus Current
    max_dots: int  # the most dots in one of them
    call_free: FrozenSet[int]  # ids of the compound instructions containing no call
    costs: Dict[str, int]  # per procedure: 1 plus its deepest block nesting
    calls: Tuple["Call", ...]  # every call, in source order


class Program(Record):
    """A parsed program.  ``facts`` is read off the procedures when the
    program is built, so every analysis of one program shares one copy;
    the instruction ids in it stay valid as long as the program lives."""

    __slots__ = ("procedures", "main", "level", "_by_name", "facts")
    _compared = ("procedures", "main", "level")

    def __init__(self, procedures: Tuple[Procedure, ...], main: str = "Main",
                 level: str = "e2"):
        object.__setattr__(self, "procedures", procedures)
        object.__setattr__(self, "main", main)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "_by_name", {p.name: p for p in procedures})
        expressions: Set[Path] = {CURRENT}
        call_free: Set[int] = set()
        costs: Dict[str, int] = {}
        calls: List[Call] = []
        for proc in procedures:
            expressions.update(var(f) for f in proc.formals)
            costs[proc.name] = 1 + _scan(proc.body, expressions, call_free, calls)[1]
        object.__setattr__(self, "facts", ProgramFacts(
            expressions=frozenset(expressions),
            max_dots=max(dot_count(e) for e in expressions),
            call_free=frozenset(call_free),
            costs=costs,
            calls=tuple(calls),
        ))

    def procedure(self, name: str) -> Procedure:
        try:
            return self._by_name[name]
        except KeyError:
            raise SourceError(f"undefined procedure {name!r}") from None


def _scan(body: Sequence[Instruction], expressions: Set[Path],
          call_free: Set[int], calls: List[Call]) -> Tuple[bool, int]:
    """Add body's paths to expressions, the ids of its compound
    instructions that contain no call, at any depth, to call_free and its
    calls, in source order, to calls; return whether body contains no call
    and its deepest block nesting."""
    free, deepest = True, 0
    for ins in body:
        if isinstance(ins, Assign):
            expressions.add(ins.target)
            expressions.add(ins.source)
        elif isinstance(ins, (Create, Forget)):
            expressions.add(var(ins.name))
        elif isinstance(ins, Cut):
            expressions.add(ins.left)
            expressions.add(ins.right)
        elif isinstance(ins, Call):
            free = False
            calls.append(ins)
            if ins.qualifier:
                expressions.add(ins.qualifier)
            expressions.update(ins.args)
        elif isinstance(ins, (Cond, Loop, Repeat)):
            blocks = (ins.then_branch, ins.else_branch) if isinstance(ins, Cond) else (ins.body,)
            inner_free = True
            for block in blocks:
                block_free, depth = _scan(block, expressions, call_free, calls)
                inner_free = inner_free and block_free
                deepest = max(deepest, 1 + depth)
            if inner_free:
                call_free.add(id(ins))
            else:
                free = False
    return free, deepest


State = TypeVar("State")


def iterate(step: Callable[[State], State], state: State, count: int,
            key: Callable[[State], object]) -> State:
    """``state`` after ``count`` applications of ``step``: ``iterate
    count`` of a body whose one pass is ``step``.  The key of a step's
    result must depend only on the key of its input, so once a key recurs
    the keys cycle.  Each step's key is compared with one saved key,
    re-saved at every power-of-two step (Brent's cycle detection), so
    memory stays constant; on a match at step n the period is n minus the
    saved step, and only the remaining steps modulo it run.  What the key
    leaves out is that of the shorter run that reaches the same keys."""
    saved, saved_at = key(state), 0
    for n in range(1, count + 1):
        state = step(state)
        current = key(state)
        if current == saved:
            for _ in range((count - n) % (n - saved_at)):
                state = step(state)
            return state
        if n & (n - 1) == 0:
            saved, saved_at = current, n
    return state


# ---------------------------------------------------------------------------
# Scanner
# ---------------------------------------------------------------------------

# One match per token: group 1 is the blanks and the comment before it,
# group 2 the token itself.  A comment runs to its line's end, where a
# newline token or the end of the text always follows, so the match never
# gives back part of a comment for its tail to lex as tokens.  The end of
# the text matches as the empty EOF token, so a trailing comment is the
# EOF's leading text.  No match starts just after a blank (a match takes
# its blanks whole), so when a character no token matches follows a run
# of blanks, the search rejects each later start in the run at once
# instead of re-reading the rest of the run from it, which would take time
# quadratic in the run's length.
_SCAN_RE = re.compile(
    r"(?<![ \t\r])([ \t\r]*(?:--[^\n]*)?)"
    r"([\n;]|:=|[A-Za-z][A-Za-z0-9_]*|[0-9]+|[.,()]|\Z)"
)
_BLANKS_RE = re.compile(r"[ \t\r]*")


class Tokens(list):
    """The token texts in source order, ending in the EOF token ``""``.
    ``starts[i]`` is the character offset of token i and ``newlines`` the
    offsets of the newline tokens.  A token's kind is read off its text:
    a keyword or a NAME (``str.isidentifier``), a NUMBER
    (``str.isdigit``), or one of ``:= . , ( ) ; \\n``."""

    __slots__ = ("starts", "newlines")

    def position(self, i: int) -> Tuple[int, int]:
        """Line and column of token i, both from 1."""
        offset = self.starts[i]
        newlines = self.newlines
        before = bisect_left(newlines, offset)
        return before + 1, offset - (newlines[before - 1] if before else -1)


def tokenize(text: str) -> Tokens:
    """The tokens of text, from one ``findall``.  The matches tile the
    text exactly when their lengths add up to its length; otherwise the
    first character no token covers is reported at its position."""
    found = _SCAN_RE.findall(text)
    if len(found) > 1 and not found[-2][1]:
        # After a trailing comment the search matches the end a second time.
        del found[-1]
    pieces = list(chain.from_iterable(found))
    ends = list(accumulate(map(len, pieces)))
    if ends[-1] != len(text):
        offset = 0
        for m in _SCAN_RE.finditer(text):
            if m.start() != offset:
                break
            offset = m.end()
        offset = _BLANKS_RE.match(text, offset).end()
        line = text.count("\n", 0, offset) + 1
        raise SourceError(f"unexpected character {text[offset]!r}",
                          line, offset - text.rfind("\n", 0, offset))
    tokens = Tokens(pieces[1::2])
    tokens.starts = ends[0::2]
    # Every newline in the text is a token: blanks and comments hold none.
    tokens.newlines = list(compress(tokens.starts, map("\n".__eq__, tokens)))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_SEPARATORS = frozenset(("\n", ";"))
_ELSE = frozenset(("else",))
_END = frozenset(("end",))
_NOT_PATH = KEYWORDS - {"Current"}


class Parser:
    """Recursive descent over the token texts.  Each rule takes the index
    of its first token and returns what it read with the index after it;
    positions are looked up only for procedures, calls and errors."""

    def __init__(self, tokens: Tokens, level: str):
        self.tokens = tokens
        self.toks: List[str] = tokens[:]  # a plain list indexes fastest
        self.level = level
        self.depth = 0  # then/loop/iterate blocks open at the current token

    def error(self, message: str, i: int) -> SourceError:
        return SourceError(message, *self.tokens.position(i))

    def expected(self, what: str, i: int) -> SourceError:
        found = self.toks[i] or "end of input"
        return self.error(f"expected {what}, found {found!r}", i)

    def identifier(self, what: str, i: int) -> str:
        word = self.toks[i]
        if not word.isidentifier() or word in KEYWORDS:
            raise self.expected(what, i)
        return word

    def keyword(self, word: str, i: int) -> int:
        if self.toks[i] != word:
            raise self.expected(repr(word), i)
        return i + 1

    # -- paths --------------------------------------------------------------

    def path(self, i: int) -> Tuple[Path, int]:
        """A dotted path; ``Current`` segments vanish (prefixing by the
        current object is the identity)."""
        toks = self.toks
        segs: List[str] = []
        while True:
            word = toks[i]
            if not word.isidentifier() or word in _NOT_PATH:
                raise self.expected("a variable or Current", i)
            if word != "Current":
                segs.append(word)
            if toks[i + 1] != ".":
                return tuple(segs), i + 1
            i += 2

    def fenced_path(self, what: str, i: int) -> Tuple[Path, int]:
        """A path in a position where tiers below e2 allow only a plain
        variable (no dots, not Current)."""
        p, end = self.path(i)
        if len(p) != 1 and self.level != "e2":
            if p:
                raise self.error(f"dotted {what} {render(p)!r} requires level e2", i)
            raise self.error(f"Current as {what} requires level e2", i)
        return p, end

    # -- statements ----------------------------------------------------------

    def statements(self, stop: FrozenSet[str], i: int) -> Tuple[Tuple[Instruction, ...], int]:
        """Statements up to a stop word or the end of the text, neither of
        them consumed."""
        toks = self.toks
        separators, rules = _SEPARATORS, _STATEMENTS
        out: List[Instruction] = []
        while True:
            word = toks[i]
            if word in separators:
                i += 1
                continue
            if not word or word in stop:
                return tuple(out), i
            rule = rules.get(word)
            if rule is not None:
                ins, i = rule(self, i)
            elif not word.isidentifier():
                raise self.expected("a statement", i)
            else:
                ins, i = self.assignment(i)
            out.append(ins)
            word = toks[i]
            if word and word not in separators and word not in stop:
                raise self.error(f"expected end of statement, found {word!r}", i)

    def skip(self, i: int) -> Tuple[Instruction, int]:
        return Skip(), i + 1

    def create(self, i: int) -> Tuple[Instruction, int]:
        return Create(self.identifier("a variable after 'create'", i + 1)), i + 2

    def forget(self, i: int) -> Tuple[Instruction, int]:
        return Forget(self.identifier("a variable after 'forget'", i + 1)), i + 2

    def cut(self, i: int) -> Tuple[Instruction, int]:
        left, i = self.fenced_path("cut operand", i + 1)
        if self.toks[i] != ",":
            raise self.expected("',' between the two cut operands", i)
        right, i = self.fenced_path("cut operand", i + 1)
        return Cut(left, right), i

    def assignment(self, i: int) -> Tuple[Instruction, int]:
        """The statement a bare path starts."""
        target, j = self.path(i)
        if self.toks[j] != ":=":
            raise self.error(f"expected ':=' after {render(target)!r}", j)
        if len(target) > 1:
            raise self.error(
                f"qualified assignment '{render(target)} := ...' is not an "
                f"instruction; translate it to a setter call, e.g. "
                f"'call {render(target[:-1])}.set_{target[-1]} (...)'",
                i,
            )
        source, j = self.fenced_path("assignment source", j + 1)
        return Assign(target, source), j

    def call(self, i: int) -> Tuple[Instruction, int]:
        level = self.level
        if level == "e0":
            raise self.error("'call' requires level e1 or higher", i)
        target, j = self.path(i + 1)
        if not target:
            raise self.error("call target must name a procedure", i)
        if len(target) > 1 and level != "e2":
            raise self.error(f"qualified call 'call {render(target)}' requires level e2", i)
        args: Tuple[Path, ...] = ()
        toks = self.toks
        if toks[j] == "(":
            arg, j = self.fenced_path("call argument", j + 1)
            arg_list = [arg]
            while toks[j] == ",":
                arg, j = self.fenced_path("call argument", j + 1)
                arg_list.append(arg)
            if toks[j] != ")":
                raise self.expected("')' after call arguments", j)
            j += 1
            args = tuple(arg_list)
        return Call(target[:-1], target[-1], args, pos=self.tokens.position(i)), j

    def block(self, i: int) -> Tuple[Instruction, int]:
        """A then, loop or iterate block, from its keyword to its 'end'."""
        if self.depth == MAX_NESTING:
            raise self.error(f"blocks nested more than {MAX_NESTING} deep", i)
        self.depth += 1
        word = self.toks[i]
        if word == "then":
            then_branch, i = self.statements(_ELSE, i + 1)
            else_branch, i = self.statements(_END, self.keyword("else", i))
            ins: Instruction = Cond(then_branch, else_branch)
        elif word == "loop":
            body, i = self.statements(_END, i + 1)
            ins = Loop(body)
        else:
            digits = self.toks[i + 1]
            if not digits.isdigit():
                raise self.expected("an iteration count after 'iterate'", i + 1)
            try:
                count = int(digits)
            except ValueError:  # more digits than the interpreter converts
                raise self.error(
                    f"iteration count of {len(digits)} digits is too long", i + 1
                ) from None
            body, i = self.statements(_END, i + 2)
            ins = Repeat(count, body)
        self.depth -= 1
        return ins, self.keyword("end", i)

    def misplaced(self, i: int) -> Tuple[Instruction, int]:
        raise self.error(f"unexpected keyword {self.toks[i]!r}", i)

    # -- procedures ----------------------------------------------------------

    def procedure(self, i: int) -> Tuple[Procedure, int]:
        """A declaration, from its 'procedure' keyword to its 'end'."""
        toks = self.toks
        name = self.identifier("a procedure name", i + 1)
        formals: List[str] = []
        j = i + 2
        if toks[j] == "(":
            formals.append(self.identifier("a formal argument name", j + 1))
            j += 2
            while toks[j] == ",":
                formals.append(self.identifier("a formal argument name", j + 1))
                j += 2
            if toks[j] != ")":
                raise self.expected("')' after formal arguments", j)
            j += 1
        if len(set(formals)) != len(formals):
            raise self.error(f"duplicate formal argument in {name!r}", i + 1)
        body, j = self.statements(_END, j)
        proc = Procedure(name, tuple(formals), body, pos=self.tokens.position(i))
        return proc, self.keyword("end", j)

    def program(self) -> Program:
        toks = self.toks
        level = self.level
        i = 0
        while toks[i] in _SEPARATORS:
            i += 1
        if toks[i] == "procedure":
            if level == "e0":
                raise self.error("procedure declarations require level e1 or higher", i)
            procs: List[Procedure] = []
            while toks[i]:
                if toks[i] in _SEPARATORS:
                    i += 1
                    continue
                if toks[i] != "procedure":
                    raise self.error("top-level statements cannot be mixed with procedures", i)
                proc, i = self.procedure(i)
                procs.append(proc)
            prog = Program(tuple(procs), main="Main", level=level)
        else:
            body, _ = self.statements(frozenset(), i)
            prog = Program((Procedure("Main", (), body),), main="Main", level=level)
        validate(prog)
        return prog


# The statement each keyword starts; any other name starts an assignment.
_STATEMENTS: Dict[str, Callable[[Parser, int], Tuple[Instruction, int]]] = {
    "skip": Parser.skip, "create": Parser.create, "forget": Parser.forget, "cut": Parser.cut,
    "then": Parser.block, "loop": Parser.block, "iterate": Parser.block, "call": Parser.call,
    "else": Parser.misplaced, "end": Parser.misplaced, "Current": Parser.misplaced,
    "procedure": Parser.misplaced,
}


def parse(text: str, level: str = "e2") -> Program:
    """Parse and validate source text at the given tier."""
    if level not in LEVELS:
        raise SourceError(f"unknown level {level!r}; expected one of {LEVELS}")
    return Parser(tokenize(text), level).program()


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def _walk(body: Sequence[Instruction]) -> Iterator[Instruction]:
    for ins in body:
        yield ins
        if isinstance(ins, Cond):
            yield from _walk(ins.then_branch)
            yield from _walk(ins.else_branch)
        elif isinstance(ins, (Loop, Repeat)):
            yield from _walk(ins.body)


def instructions_of(prog: Program) -> Iterator[Instruction]:
    for proc in prog.procedures:
        yield from _walk(proc.body)


def validate(prog: Program) -> None:
    """Whole-program checks: distinct procedure names, main shape, call
    targets and arity, each reported at the declaration or call at fault
    (a missing main at the first declaration; calls in source order).
    The level fences are the parser's: it rejects each form above the
    tier at the token that introduces it."""
    seen: Set[str] = set()
    for proc in prog.procedures:
        if proc.name in seen:
            raise SourceError(f"procedure {proc.name!r} is defined more than once", *proc.pos)
        seen.add(proc.name)
    if prog.main not in seen:
        first = prog.procedures[0].pos if prog.procedures else (0, 0)
        raise SourceError(f"no procedure named {prog.main!r}", *first)
    main = prog.procedure(prog.main)
    if main.formals:
        raise SourceError(f"{prog.main!r} must not take arguments", *main.pos)
    for ins in prog.facts.calls:
        try:
            callee = prog.procedure(ins.proc)
        except SourceError as exc:
            raise SourceError(exc.message, *ins.pos) from None
        if len(ins.args) != len(callee.formals):
            raise SourceError(
                f"call to {ins.proc!r} passes {len(ins.args)} argument(s); "
                f"it declares {len(callee.formals)}",
                *ins.pos,
            )


# ---------------------------------------------------------------------------
# Pretty printer
# ---------------------------------------------------------------------------

def _blocks(ins: Instruction) -> Tuple[Tuple[str, Sequence[Instruction]], ...]:
    """A compound instruction's keywords in source order, each with the
    body it opens; ``end`` closes the last.  Empty for a simple one."""
    if isinstance(ins, Cond):
        return (("then", ins.then_branch), ("else", ins.else_branch))
    if isinstance(ins, Loop):
        return (("loop", ins.body),)
    if isinstance(ins, Repeat):
        return ((f"iterate {ins.count}", ins.body),)
    return ()


def one_line(ins: Instruction) -> str:
    """One-line instruction text; compound bodies are elided as ``...``."""
    blocks = _blocks(ins)
    if blocks:
        return " ... ".join(keyword for keyword, _ in blocks) + " ... end"
    if isinstance(ins, Skip):
        return "skip"
    if isinstance(ins, Create):
        return f"create {ins.name}"
    if isinstance(ins, Forget):
        return f"forget {ins.name}"
    if isinstance(ins, Cut):
        return f"cut {render(ins.left)}, {render(ins.right)}"
    if isinstance(ins, Assign):
        return f"{render(ins.target)} := {render(ins.source)}"
    if isinstance(ins, Call):
        target = f"{render(ins.qualifier)}.{ins.proc}" if ins.qualifier else ins.proc
        if ins.args:
            return f"call {target} ({', '.join(render(a) for a in ins.args)})"
        return f"call {target}"
    raise TypeError(f"unknown instruction {ins!r}")  # pragma: no cover


def _fmt_ins(ins: Instruction, indent: int, out: List[str]) -> None:
    pad = "  " * indent
    blocks = _blocks(ins)
    if not blocks:
        out.append(pad + one_line(ins))
        return
    for keyword, body in blocks:
        out.append(pad + keyword)
        for sub in body:
            _fmt_ins(sub, indent + 1, out)
    out.append(pad + "end")


def pretty(prog: Program) -> str:
    """Source text that parses back to the same AST."""
    out: List[str] = []
    implicit_main = (
        len(prog.procedures) == 1
        and prog.procedures[0].name == prog.main
        and not prog.procedures[0].formals
        and prog.level == "e0"
    )
    if implicit_main:
        for ins in prog.procedures[0].body:
            _fmt_ins(ins, 0, out)
    else:
        for proc in prog.procedures:
            header = f"procedure {proc.name}"
            if proc.formals:
                header += f" ({', '.join(proc.formals)})"
            out.append(header)
            for ins in proc.body:
                _fmt_ins(ins, 1, out)
            out.append("end")
    return "\n".join(out) + "\n"
