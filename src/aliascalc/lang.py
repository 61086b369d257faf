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

The front end is one scanner and one parser.  ``tokenize`` finds the
token texts and the comments in one regex ``findall`` and checks, by
counting, that they tile the text with its blanks; tokens carry no
offsets.  ``Parser`` reads the token texts by index and dispatches each
statement on its first word through one keyword table.  A position is
worked out only when it is read: ``Positions`` finds every token's offset
on its first lookup, which an error makes at once and a procedure or call
makes when its ``pos`` is first read, so a valid program is parsed
without computing one offset.  The parser also lists the calls it
builds, which ``validate`` checks against the procedures.  ``one_line``
is the one instruction printer, for traces and oracle reports.
"""

from __future__ import annotations

import re
from functools import partial
from operator import attrgetter
from typing import (
    Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple,
    TypeVar, Union,
)

from .paths import CURRENT, NAME, Path, dot_count, render, var

LEVELS = ("e0", "e1", "e2")

# Deepest nesting of then/loop/iterate blocks the parser accepts.  The
# parser and the analyses all recurse on nesting, so a fixed fence keeps
# every one of them inside the interpreter's recursion limit.
MAX_NESTING = 100

# Most segments of a written path, ``Current`` not counted.  Completing a
# dotted source of n segments fills a table of at most n(n+1)/2 sub-paths,
# so the limit bounds that table; nothing recurses on a path's length.
MAX_SEGMENTS = 256


class SourceError(Exception):
    """Parse or validation failure, carrying a source position."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(message)
        self.message = message
        self.line = line
        self.col = col


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


SourcePos = Tuple[int, int]


def _read_pos(record) -> SourcePos:
    """A call's or procedure's ``pos``: the (line, col) it was built with
    or, when it was built with a lookup instead, what the lookup returns,
    worked out on the first read and kept."""
    pos = record._pos
    if type(pos) is not tuple:
        pos = pos()
        object.__setattr__(record, "_pos", pos)
    return pos


class Call(Record):
    """``call r (args)`` or ``call x.r (args)``.

    ``qualifier`` is the path before the procedure name — empty for an
    unqualified call.  ``pos`` carries the source position for diagnostics
    and does not participate in equality; the parser gives a deferred
    lookup for it.
    """

    __slots__ = ("qualifier", "proc", "args", "_pos")
    _compared = ("qualifier", "proc", "args")

    def __init__(self, qualifier: Path, proc: str, args: Tuple[Path, ...] = (),
                 pos: Union[SourcePos, Callable[[], SourcePos]] = (0, 0)):
        object.__setattr__(self, "qualifier", qualifier)
        object.__setattr__(self, "proc", proc)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "_pos", pos)

    pos = property(_read_pos)


Instruction = Union[Skip, Create, Forget, Cut, Assign, Cond, Loop, Repeat, Call]


class Procedure(Record):
    """A procedure declaration.  ``pos`` is the position of its
    ``procedure`` keyword, for diagnostics, and does not participate in
    equality; like a call's, it may be built as a deferred lookup."""

    __slots__ = ("name", "formals", "body", "_pos")
    _compared = ("name", "formals", "body")

    def __init__(self, name: str, formals: Tuple[str, ...], body: Tuple[Instruction, ...],
                 pos: Union[SourcePos, Callable[[], SourcePos]] = (0, 0)):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "formals", formals)
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "_pos", pos)

    pos = property(_read_pos)


MAIN = "Main"  # the procedure a program runs


class Program(Record):
    """A parsed program.  ``expressions``, ``max_dots`` and ``costs`` are
    what the analyses read off it, none of it depending on the analysis
    mode or the dot budget: they are read off the procedures when the
    program is built, so every analysis of one program shares one copy,
    and they take no part in equality."""

    __slots__ = ("procedures", "level", "_by_name", "expressions", "max_dots", "costs")
    _compared = ("procedures", "level")

    def __init__(self, procedures: Tuple[Procedure, ...], level: str = "e2"):
        object.__setattr__(self, "procedures", procedures)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "_by_name", {p.name: p for p in procedures})
        expressions: Set[Path] = {CURRENT}  # every path written in the program
        costs: Dict[str, int] = {}  # per procedure: 1 plus its deepest block nesting
        for proc in procedures:
            expressions.update(var(f) for f in proc.formals)
            costs[proc.name] = 1 + _scan(proc.body, expressions)
        object.__setattr__(self, "expressions", frozenset(expressions))
        object.__setattr__(self, "max_dots", max(dot_count(e) for e in expressions))
        object.__setattr__(self, "costs", costs)

    def procedure(self, name: str) -> Procedure:
        try:
            return self._by_name[name]
        except KeyError:
            raise SourceError(f"undefined procedure {name!r}") from None


def _scan(body: Sequence[Instruction], expressions: Set[Path]) -> int:
    """Add body's paths to expressions; return its deepest block nesting."""
    deepest = 0
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
            if ins.qualifier:
                expressions.add(ins.qualifier)
            expressions.update(ins.args)
        else:
            for _, block in _blocks(ins):
                deepest = max(deepest, 1 + _scan(block, expressions))
    return deepest


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

# Every token, and every comment, as one match with no groups, so
# ``findall`` returns the texts themselves.  The alternatives start with
# distinct characters, so their order changes no match; the most frequent
# come first.  A search skips blanks, and also any character no
# alternative starts with, which is why ``tokenize`` checks that the
# matches and the blanks tile the text.
_TOKEN_RE = re.compile(NAME.pattern + r"|\n|:=|[;.,()]|[0-9]+|--[^\n]*")
# Blanks and tokens from the start of a text: it ends at the first
# character that none of them covers.
_TILE_RE = re.compile(r"(?:[ \t\r]|" + _TOKEN_RE.pattern + ")*")


def _line_col(text: str, offset: int) -> Tuple[int, int]:
    """Line and column, both from 1, of the character at offset."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _blanks(text: str) -> int:
    return text.count(" ") + text.count("\t") + text.count("\r")


def tokenize(text: str) -> List[str]:
    """The token texts of text in source order, ending in the EOF token
    ``""``, from one ``findall``.  A token's kind is read off its text: a
    keyword or a NAME (``str.isidentifier``), a NUMBER (``str.isdigit``),
    or one of ``:= . , ( ) ; \\n``.  The tokens and comments tile the text
    with its blanks exactly when their lengths and the blanks outside
    comments add up to its length; otherwise the first character nothing
    covers is reported at its position.  Tokens carry no offsets: see
    ``Positions``."""
    found = _TOKEN_RE.findall(text)
    covered = len("".join(found)) + _blanks(text)
    if "--" in text:
        covered -= _blanks("".join(tok for tok in found if tok[0] == "-"))
        found = [tok for tok in found if tok[0] != "-"]
    if covered != len(text):
        offset = _TILE_RE.match(text).end()
        raise SourceError(f"unexpected character {text[offset]!r}", *_line_col(text, offset))
    found.append("")
    return found


class Positions:
    """Line and column, both from 1, of each token of a text that
    ``tokenize`` accepts, by the token's index there.  The tokens' offsets
    are worked out on the first lookup, by a second search with the same
    pattern, so a text whose positions are never read never pays for
    them."""

    __slots__ = ("text", "starts")

    def __init__(self, text: str):
        self.text = text
        self.starts: Optional[List[int]] = None

    def __call__(self, i: int) -> Tuple[int, int]:
        text = self.text
        if self.starts is None:
            self.starts = [m.start() for m in _TOKEN_RE.finditer(text) if text[m.start()] != "-"]
            self.starts.append(len(text))
        return _line_col(text, self.starts[i])


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_SEPARATORS = frozenset(("\n", ";"))
_ELSE = frozenset(("else",))
_END = frozenset(("end",))


class Parser:
    """Recursive descent over the token texts of a text.  Each rule takes
    the index of its first token and returns what it read with the index
    after it.  Only an error looks a position up; a procedure or call
    keeps a deferred lookup of its keyword's.  ``calls`` holds every call
    read so far, in source order, for ``validate``."""

    def __init__(self, text: str, level: str):
        self.toks = tokenize(text)
        self.position = Positions(text)
        self.level = level
        self.depth = 0  # then/loop/iterate blocks open at the current token
        self.calls: List[Call] = []

    def error(self, message: str, i: int) -> SourceError:
        return SourceError(message, *self.position(i))

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
                if len(segs) > MAX_SEGMENTS:
                    while toks[i - 1] == ".":  # back to the path's first segment
                        i -= 2
                    raise self.error(f"path has more than {MAX_SEGMENTS} segments", i)
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
        ins = Call(target[:-1], target[-1], args, pos=partial(self.position, i))
        self.calls.append(ins)
        return ins, j

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
        proc = Procedure(name, tuple(formals), body, pos=partial(self.position, i))
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
            prog = Program(tuple(procs), level=level)
        else:
            body, _ = self.statements(frozenset(), i)
            prog = Program((Procedure(MAIN, (), body),), level=level)
        validate(prog, self.calls)
        return prog


# The statement each keyword starts; any other name starts an assignment.
_STATEMENTS: Dict[str, Callable[[Parser, int], Tuple[Instruction, int]]] = {
    "skip": Parser.skip, "create": Parser.create, "forget": Parser.forget, "cut": Parser.cut,
    "then": Parser.block, "loop": Parser.block, "iterate": Parser.block, "call": Parser.call,
    "else": Parser.misplaced, "end": Parser.misplaced, "Current": Parser.misplaced,
    "procedure": Parser.misplaced,
}
KEYWORDS = frozenset(_STATEMENTS)  # no name or procedure may be one of them
_NOT_PATH = KEYWORDS - {"Current"}


def parse(text: str, level: str = "e2") -> Program:
    """Parse and validate source text at the given tier."""
    if level not in LEVELS:
        raise SourceError(f"unknown level {level!r}; expected one of {LEVELS}")
    return Parser(text, level).program()


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def _walk(body: Sequence[Instruction]) -> Iterator[Instruction]:
    for ins in body:
        yield ins
        for _, block in _blocks(ins):
            yield from _walk(block)


def instructions_of(prog: Program) -> Iterator[Instruction]:
    for proc in prog.procedures:
        yield from _walk(proc.body)


def validate(prog: Program, calls: Sequence[Call]) -> None:
    """Whole-program checks: distinct procedure names, main shape, and the
    target and arity of each of prog's calls, given in source order, each
    reported at the declaration or call at fault (a missing main at the
    first declaration).
    The level fences are the parser's: it rejects each form above the
    tier at the token that introduces it."""
    seen: Set[str] = set()
    for proc in prog.procedures:
        if proc.name in seen:
            raise SourceError(f"procedure {proc.name!r} is defined more than once", *proc.pos)
        seen.add(proc.name)
    if MAIN not in seen:
        first = prog.procedures[0].pos if prog.procedures else (0, 0)
        raise SourceError(f"no procedure named {MAIN!r}", *first)
    main = prog.procedure(MAIN)
    if main.formals:
        raise SourceError(f"{MAIN!r} must not take arguments", *main.pos)
    for ins in calls:
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
# Instruction printer
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
