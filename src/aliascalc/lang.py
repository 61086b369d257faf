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
"""

from __future__ import annotations

import re
from operator import attrgetter
from typing import (
    Callable, Dict, FrozenSet, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple, TypeVar,
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
        for proc in procedures:
            expressions.update(var(f) for f in proc.formals)
            costs[proc.name] = 1 + _scan(proc.body, expressions, call_free)[1]
        object.__setattr__(self, "facts", ProgramFacts(
            expressions=frozenset(expressions),
            max_dots=max(dot_count(e) for e in expressions),
            call_free=frozenset(call_free),
            costs=costs,
        ))

    def procedure(self, name: str) -> Procedure:
        try:
            return self._by_name[name]
        except KeyError:
            raise SourceError(f"undefined procedure {name!r}") from None


def _scan(body: Sequence[Instruction], expressions: Set[Path],
          call_free: Set[int]) -> Tuple[bool, int]:
    """Add body's paths to expressions and the ids of its compound
    instructions that contain no call, at any depth, to call_free; return
    whether body contains no call and its deepest block nesting."""
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
            if ins.qualifier:
                expressions.add(ins.qualifier)
            expressions.update(ins.args)
        elif isinstance(ins, (Cond, Loop, Repeat)):
            blocks = (ins.then_branch, ins.else_branch) if isinstance(ins, Cond) else (ins.body,)
            inner_free = True
            for block in blocks:
                block_free, depth = _scan(block, expressions, call_free)
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
# Lexer
# ---------------------------------------------------------------------------

# (kind, text, line, col), a plain tuple: the lexer builds one per token.
# kind is NAME NUMBER ASSIGN DOT COMMA LPAREN RPAREN SEP or EOF.
Token = Tuple[str, str, int, int]


_TOKEN_RE = re.compile(
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


def tokenize(text: str) -> List[Token]:
    """The token list, ending in EOF.  ``finditer`` skips what no token
    matches, so a gap between one match and the next (or before the end
    of the text) is an unexpected character, reported at its start."""
    tokens: List[Token] = []
    line, line_start = 1, 0
    pos = 0
    for m in _TOKEN_RE.finditer(text):
        start = m.start()
        if start != pos:
            break
        kind = m.lastgroup
        pos = m.end()
        if kind == "sep":
            tok_text = m.group()
            tokens.append(("SEP", tok_text, line, start - line_start + 1))
            if tok_text == "\n":
                line += 1
                line_start = pos
        elif kind != "ws" and kind != "comment":
            tokens.append((kind.upper(), m.group(), line, start - line_start + 1))
    if pos != len(text):
        raise SourceError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
    tokens.append(("EOF", "", line, len(text) - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class Parser:
    """Recursive descent over the token list; one token of lookahead.
    A token is a ``(kind, text, line, col)`` tuple, read by index."""

    def __init__(self, tokens: List[Token], level: str = "e2"):
        self.tokens = tokens
        self.pos = 0
        self.level = level
        self.depth = 0  # then/loop/iterate blocks open at the current token

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok[0] != "EOF":
            self.pos += 1
        return tok

    def error(self, message: str, tok: Optional[Token] = None) -> SourceError:
        tok = tok or self.peek()
        return SourceError(message, tok[2], tok[3])

    def found(self) -> str:
        """The current token's text for an error message."""
        return repr(self.peek()[1] or "end of input")

    def expect(self, kind: str, what: str) -> Token:
        if self.peek()[0] != kind:
            raise self.error(f"expected {what}, found {self.found()}")
        return self.next()

    def skip_seps(self) -> None:
        while self.peek()[0] == "SEP":
            self.next()

    def at_keyword(self, *words: str) -> bool:
        kind, text, _, _ = self.peek()
        return kind == "NAME" and text in words

    def expect_keyword(self, word: str) -> Token:
        if not self.at_keyword(word):
            raise self.error(f"expected {word!r}, found {self.found()}")
        return self.next()

    def identifier(self, what: str) -> str:
        kind, text, _, _ = self.peek()
        if kind != "NAME" or text in KEYWORDS:
            raise self.error(f"expected {what}, found {self.found()}")
        self.next()
        return text

    # -- paths --------------------------------------------------------------

    def path(self) -> Path:
        """A dotted path; ``Current`` segments vanish (prefixing by the
        current object is the identity)."""
        segs: List[str] = []
        while True:
            kind, text, _, _ = self.peek()
            if kind != "NAME" or (text in KEYWORDS and text != "Current"):
                raise self.error(f"expected a variable or Current, found {self.found()}")
            self.next()
            if text != "Current":
                segs.append(text)
            if self.peek()[0] == "DOT":
                self.next()
                continue
            return tuple(segs)

    def fenced_path(self, what: str) -> Path:
        """A path in a position where tiers below e2 allow only a plain
        variable (no dots, not Current)."""
        tok = self.peek()
        p = self.path()
        if self.level != "e2" and len(p) != 1:
            if p:
                raise self.error(f"dotted {what} {render(p)!r} requires level e2", tok)
            raise self.error(f"Current as {what} requires level e2", tok)
        return p

    # -- statements ----------------------------------------------------------

    def statements(self, stop_words: Set[str]) -> Tuple[Instruction, ...]:
        out: List[Instruction] = []
        while True:
            self.skip_seps()
            kind, text, _, _ = self.peek()
            if kind == "EOF" or (kind == "NAME" and text in stop_words):
                return tuple(out)
            out.append(self.statement())
            kind, text, _, _ = self.peek()
            if kind not in ("SEP", "EOF") and not (kind == "NAME" and text in stop_words):
                raise self.error(f"expected end of statement, found {text!r}")

    def statement(self) -> Instruction:
        tok = self.peek()
        kind, word, _, _ = tok
        if kind != "NAME":
            raise self.error(f"expected a statement, found {self.found()}")
        if word == "skip":
            self.next()
            return Skip()
        if word == "create":
            self.next()
            return Create(self.identifier("a variable after 'create'"))
        if word == "forget":
            self.next()
            return Forget(self.identifier("a variable after 'forget'"))
        if word == "cut":
            self.next()
            left = self.fenced_path("cut operand")
            self.expect("COMMA", "',' between the two cut operands")
            right = self.fenced_path("cut operand")
            return Cut(left, right)
        if word in ("then", "loop", "iterate"):
            if self.depth == MAX_NESTING:
                raise self.error(f"blocks nested more than {MAX_NESTING} deep", tok)
            self.depth += 1
            ins = self.block(word)
            self.depth -= 1
            return ins
        if word == "call":
            if self.level == "e0":
                raise self.error("'call' requires level e1 or higher", tok)
            self.next()
            target = self.path()
            if not target:
                raise self.error("call target must name a procedure", tok)
            if len(target) > 1 and self.level != "e2":
                raise self.error(
                    f"qualified call 'call {render(target)}' requires level e2",
                    tok,
                )
            args: Tuple[Path, ...] = ()
            if self.peek()[0] == "LPAREN":
                self.next()
                arg_list: List[Path] = [self.fenced_path("call argument")]
                while self.peek()[0] == "COMMA":
                    self.next()
                    arg_list.append(self.fenced_path("call argument"))
                self.expect("RPAREN", "')' after call arguments")
                args = tuple(arg_list)
            return Call(target[:-1], target[-1], args, pos=(tok[2], tok[3]))
        if word in KEYWORDS:
            raise self.error(f"unexpected keyword {word!r}")
        # Only assignment starts with a bare path.
        target = self.path()
        assign_tok = self.peek()
        if assign_tok[0] != "ASSIGN":
            raise self.error(
                f"expected ':=' after {render(target)!r}", assign_tok
            )
        if not target:
            raise self.error("cannot assign to Current", tok)
        if len(target) > 1:
            raise self.error(
                f"qualified assignment '{render(target)} := ...' is not an "
                f"instruction; translate it to a setter call, e.g. "
                f"'call {render(target[:-1])}.set_{target[-1]} (...)'",
                tok,
            )
        self.next()
        source = self.fenced_path("assignment source")
        return Assign(target, source)

    def block(self, word: str) -> Instruction:
        """A then, loop or iterate block, from its keyword to its 'end'."""
        self.next()
        if word == "then":
            then_branch = self.statements({"else"})
            self.expect_keyword("else")
            else_branch = self.statements({"end"})
            self.expect_keyword("end")
            return Cond(then_branch, else_branch)
        if word == "loop":
            body = self.statements({"end"})
            self.expect_keyword("end")
            return Loop(body)
        count_tok = self.expect("NUMBER", "an iteration count after 'iterate'")
        try:
            count = int(count_tok[1])
        except ValueError:  # more digits than the interpreter converts
            raise self.error(
                f"iteration count of {len(count_tok[1])} digits is too long", count_tok
            ) from None
        body = self.statements({"end"})
        self.expect_keyword("end")
        return Repeat(count, body)

    # -- procedures ----------------------------------------------------------

    def procedure(self) -> Procedure:
        keyword = self.expect_keyword("procedure")
        name_tok = self.peek()
        name = self.identifier("a procedure name")
        formals: List[str] = []
        if self.peek()[0] == "LPAREN":
            self.next()
            formals.append(self.identifier("a formal argument name"))
            while self.peek()[0] == "COMMA":
                self.next()
                formals.append(self.identifier("a formal argument name"))
            self.expect("RPAREN", "')' after formal arguments")
        if len(set(formals)) != len(formals):
            raise self.error(f"duplicate formal argument in {name!r}", name_tok)
        body = self.statements({"end"})
        self.expect_keyword("end")
        return Procedure(name, tuple(formals), body, pos=(keyword[2], keyword[3]))

    def program(self, level: str) -> Program:
        self.level = level
        self.skip_seps()
        if self.at_keyword("procedure"):
            if level == "e0":
                raise self.error("procedure declarations require level e1 or higher")
            procs: List[Procedure] = []
            while True:
                self.skip_seps()
                if self.peek()[0] == "EOF":
                    break
                if not self.at_keyword("procedure"):
                    raise self.error(
                        "top-level statements cannot be mixed with procedures"
                    )
                procs.append(self.procedure())
            prog = Program(tuple(procs), main="Main", level=level)
        else:
            body = self.statements(set())
            prog = Program((Procedure("Main", (), body),), main="Main", level=level)
        validate(prog)
        return prog


def parse(text: str, level: str = "e2") -> Program:
    """Parse and validate source text at the given tier."""
    if level not in LEVELS:
        raise SourceError(f"unknown level {level!r}; expected one of {LEVELS}")
    return Parser(tokenize(text), level).program(level)


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
    (a missing main at the first declaration).  The level fences are the
    parser's: it rejects each form above the tier at the token that
    introduces it."""
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
    for ins in instructions_of(prog):
        if isinstance(ins, Call):
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
