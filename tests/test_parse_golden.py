"""Parse outcomes pinned in a golden file: for each source text and each
level, the pretty-printed program with the position of every procedure
and call, or the error's message, line and column.

The sources are the fixtures, bench/gen.py programs, programs with one
token deleted, repeated, swapped or replaced, random soups of tokens and
of statements, and random character soup (quotes, ``$``, ``é``, a lone
surrogate, ``\\r\\n``, tabs).  The file holds
the sources too, so the test reparses exactly them and compares the
re-serialised file byte for byte.  To regenerate it after an intended
change of parse output, run this module as a script from the repository
root:

    PYTHONPATH=src python3 tests/test_parse_golden.py
"""

import json
import os
import random
import re

from conftest import ROOT, load_gen
from randprog import pretty

from aliascalc.lang import LEVELS, Call, SourceError, instructions_of, parse

GOLDEN = os.path.join(ROOT, "tests", "golden", "parse_outcomes.json")

# Pieces a mutation or a soup draws from: every token kind, keywords,
# comments, line ends and characters no token matches.
VOCABULARY = [
    ":=", ".", ",", "(", ")", ";", "\n", "\r\n", "\t", " ", "-- c\n", "--", "-",
    "x", "y", "a", "Current", "Main", "q", "p0", "3", "007",
    "skip", "create", "forget", "cut", "then", "else", "end", "loop", "iterate",
    "call", "procedure", "'", "$", "é", "\ud800",
]
# Statement-sized pieces, for soups that get past the scanner and reach
# the parser's and the validator's checks.
STATEMENTS = [
    "x := y", "a := x.b", "x := Current", "skip", "create a", "forget y", "cut x, y.a",
    "call q", "call p0 (a)", "call x.q", "call y.p0 (Current, a.b)", "then", "else", "end",
    "loop", "iterate 2", "procedure Main", "procedure q", "procedure p0 (f)",
    "procedure p0 (f, f)", "-- note",
]
SEPARATORS = ["\n", ";", " ", "\r\n", "\t\n", " -- c\n", "\n\n  "]
_PIECE = re.compile(r"--[^\n]*|:=|[A-Za-z][A-Za-z0-9_]*|[0-9]+|\S")


def outcome(text, level):
    try:
        prog = parse(text, level=level)
    except SourceError as exc:
        return {"error": [exc.message, exc.line, exc.col]}
    calls = [list(ins.pos) for ins in instructions_of(prog) if isinstance(ins, Call)]
    return {"pretty": pretty(prog), "procedures": [list(p.pos) for p in prog.procedures],
            "calls": calls}


def render(sources):
    entries = [{"source": text, **{level: outcome(text, level) for level in LEVELS}}
               for text in sources]
    return json.dumps(entries, indent=0, sort_keys=True) + "\n"


def mutated(rng, text):
    """text with one of its pieces deleted, repeated, swapped with the next
    or replaced by a vocabulary piece; blanks between pieces are kept."""
    spans = [m.span() for m in _PIECE.finditer(text)]
    start, end = spans[rng.randrange(len(spans))]
    piece, rest = text[start:end], text[end:]
    op = rng.randrange(4)
    if op == 0:
        return text[:start] + rest
    if op == 1:
        return text[:end] + " " + piece + rest
    if op == 2:
        nxt = _PIECE.search(text, end)
        if nxt is None:
            return text[:start] + rest
        return text[:start] + nxt.group() + text[end:nxt.start()] + piece + text[nxt.end():]
    return text[:start] + rng.choice(VOCABULARY) + rest


def sources():
    """The golden file's source texts, in order."""
    out = []
    for name in sorted(os.listdir(os.path.join(ROOT, "programs"))):
        with open(os.path.join(ROOT, "programs", name), encoding="utf-8") as handle:
            out.append(handle.read())
    gen = load_gen()
    programs = []
    for seed in range(24):
        rng = random.Random(seed)
        if seed % 3 == 0:
            programs.append(gen.interproc_program(rng, "e1", 3))
        elif seed % 3 == 1:
            programs.append(gen.interproc_program(rng, "e2", 3))
        else:
            programs.append(gen.recursive_program(rng, 2))
    out += programs
    rng = random.Random(12)
    bases = out[:]
    for _ in range(300):
        text = rng.choice(bases)
        for _ in range(rng.randint(1, 2)):
            text = mutated(rng, text)
        out.append(text)
    for _ in range(300):
        out.append("".join(rng.choice(VOCABULARY + list("xyab_019 ;:=.,()"))
                           for _ in range(rng.randint(0, 24))))
    for _ in range(200):
        out.append("".join(rng.choice(STATEMENTS) + rng.choice(SEPARATORS)
                           for _ in range(rng.randint(1, 12))))
    # Character-level soup: any single character, next to blanks and comments.
    chars = list("xyab_019 \t\r\n;:=.,()-'$é") + ["\ud800"]
    for _ in range(300):
        out.append("".join(rng.choice(chars) for _ in range(rng.randint(0, 30))))
    return out


def test_parse_outcomes_match_the_golden_file():
    with open(GOLDEN, encoding="utf-8") as handle:
        stored = handle.read()
    texts = [entry["source"] for entry in json.loads(stored)]
    assert len(texts) == 1137
    assert render(texts) == stored


if __name__ == "__main__":
    os.chdir(ROOT)
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        handle.write(render(sources()))
