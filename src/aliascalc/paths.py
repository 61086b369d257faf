"""Reference paths: the expressions an alias relation talks about.

A path is a tuple of segment names, e.g. ``("x", "first", "right")`` for
``x.first.right``.  The empty tuple denotes the current object, rendered as
``Current``.  A segment ending in an apostrophe (``"x'"``) is *negated*: it
undoes a plain segment of the same name, which is how effects computed inside
a routine are re-expressed relative to the caller.  Negated segments never
appear in source programs; they only arise internally while transferring a
relation across a qualified call.

A path is a *reduced word*: no segment sits next to its inverse
(``x.x'`` and ``x'.x`` both cancel), so prefixing a relation by a call
target and later by its negation round-trips cleanly.  Source paths are
plain, and negating, splitting and joining keep a path reduced.  Joining
two reduced words can only bring inverses together where they meet, so
``concat`` cancels at the junction and nowhere else.

Segment names are identifiers, so the apostrophe occurs only as the
negation mark at the end of a segment: a path has a negated segment exactly
when its joined text contains the mark, which is one C-level scan.
"""

from __future__ import annotations

import re
from typing import Tuple

Path = Tuple[str, ...]

# A segment name, the one name rule of every input: the scanner reads a
# program's words by it, and ``parse_path`` a relation literal's segments.
NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")

CURRENT: Path = ()

NEG_MARK = "'"


def negate_segment(segment: str) -> str:
    """Flip one segment between its plain and negated form."""
    if segment.endswith(NEG_MARK):
        return segment[: -len(NEG_MARK)]
    return segment + NEG_MARK


def concat(prefix: Path, suffix: Path) -> Path:
    """Join two paths, which must both be reduced, into a reduced path.
    Inverses can then meet only at the junction, and cancelling there
    cascades outward: ``concat(("a", "b"), ("b'", "a'", "c"))`` is ``("c",)``."""
    i, j, n = len(prefix), 0, len(suffix)
    while i and j < n and prefix[i - 1] == negate_segment(suffix[j]):
        i -= 1
        j += 1
    return prefix[:i] + suffix[j:]


def negation(path: Path) -> Path:
    """The inverse of a path: segments reversed and individually negated.

    ``concat(path, negation(path))`` is ``CURRENT``, which is what lets a
    caller-side relation be viewed from a callee and back again.
    """
    return tuple(negate_segment(seg) for seg in reversed(path))


def dot_count(path: Path) -> int:
    """Number of dots in the rendered form; ``Current`` and plain
    variables count zero."""
    return max(len(path) - 1, 0)


def has_negation(path: Path) -> bool:
    return NEG_MARK in "".join(path)


def render(path: Path) -> str:
    if not path:
        return "Current"
    return ".".join(path)


def parse_path(text: str) -> Path:
    """Parse a dotted path like ``x.first`` (used for relation literals).

    Accepts ``Current`` segments and drops them, since prefixing by the
    current object is the identity.  Negated segments are rejected: they
    are an internal notion, not part of any input syntax.
    """
    segs: list[str] = []
    for part in text.split("."):
        part = part.strip()
        if part == "Current":
            continue
        if not NAME.fullmatch(part):
            raise ValueError(f"bad path segment {part!r} in {text!r}")
        segs.append(part)
    return tuple(segs)


def var(name: str) -> Path:
    """Single-variable path."""
    return (name,)
