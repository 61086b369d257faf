"""Independent checks of the analyzer's printed output.

Nothing here imports the analyzer: printed relations are read back with
this module's own parser and compared with hand goldens, so a bug in the
package cannot agree with itself.
"""

from __future__ import annotations

import functools
import json
import os
import re
from typing import Dict, FrozenSet, List, Optional, Tuple

Pair = Tuple[str, str]
Relation = FrozenSet[Pair]

@functools.lru_cache(maxsize=None)
def goldens() -> Dict[str, dict]:
    """Fixture name -> expected may-mode result, from ``expected.json``."""
    with open(os.path.join(os.path.dirname(__file__), "expected.json"), encoding="utf-8") as handle:
        return {name: value for name, value in json.load(handle).items()
                if not name.startswith("_")}


def pair(e: str, f: str) -> Pair:
    return (e, f) if e <= f else (f, e)


def parse_groups(text: str) -> List[List[str]]:
    """``{a, b}, {c, d, e}`` -> [[a, b], [c, d, e]]; ``{}`` -> []."""
    text = text.strip()
    if text == "{}":
        return []
    groups = re.findall(r"\{([^{}]*)\}", text)
    if ", ".join("{" + g + "}" for g in groups) != text:
        raise ValueError(f"not a relation: {text!r}")
    return [[m.strip() for m in g.split(",")] for g in groups]


def pairs_of(groups: List[List[str]]) -> Relation:
    return frozenset(
        pair(e, f) for g in groups for i, e in enumerate(g) for f in g[i + 1:] if e != f
    )


def relation_of(text: str) -> Relation:
    return pairs_of(parse_groups(text))


def check_golden(fixture: str, text: str) -> Optional[str]:
    """Compare a printed may-mode relation with the fixture's golden."""
    want = goldens()[fixture]
    if "relation" in want:
        if text.strip() != want["relation"]:
            return f"{fixture}: printed {text.strip()!r}, golden {want['relation']!r}"
        return None
    got = relation_of(text)
    for e, f in want["pairs_in"]:
        if pair(e, f) not in got:
            return f"{fixture}: missing {e} ~ {f}"
    for e, f in want["pairs_out"]:
        if pair(e, f) in got:
            return f"{fixture}: spurious {e} ~ {f}"
    return None


def check_within(must_text: str, may_text: str) -> Optional[str]:
    extra = relation_of(must_text) - relation_of(may_text)
    if extra:
        return "must pairs outside the may result: " + ", ".join(
            f"{e} ~ {f}" for e, f in sorted(extra)
        )
    return None


def check_soundness_report(output: str) -> Optional[str]:
    """Containment and modified-variables violations fail the job; a
    falsified cut assumption is the program's fault, not the analyzer's."""
    bad = [ln for ln in output.splitlines()
           if ln.startswith("violation:") or ln.startswith("modified-variables violation:")]
    if bad:
        return bad[0]
    if not re.fullmatch(r"checked \d+ paths, \d+ violations, bounded: (yes|no)",
                        output.splitlines()[-1]):
        return "malformed soundness summary"
    return None


def check_trace(fixture: str, output: str) -> Optional[str]:
    """The first context is Main from the entry relation; its last line
    carries the final relation, which must match the golden."""
    lines = output.splitlines()
    if not lines or not lines[0].startswith("-- Main from "):
        return "trace does not start with Main's context"
    block = []
    for ln in lines[1:]:
        if ln.startswith("-- "):
            break
        block.append(ln)
    if not block or "  =>  " not in block[-1]:
        return "trace has no final line for Main"
    return check_golden(fixture, block[-1].split("  =>  ", 1)[1])


def check_cli_soundness(code: str, printed: str) -> Optional[str]:
    """``alias-calc --output soundness`` exits 3 exactly when it reports
    violations, and reports no containment or modified-variables ones."""
    lines = printed.rstrip("\n").splitlines()
    found = re.search(r", (\d+) violations, ", lines[-1]) if lines else None
    if not found:
        return "malformed soundness summary"
    want = "exit 3" if int(found.group(1)) else "exit 0"
    if code != want:
        return f"{code} with {found.group(1)} violations"
    return check_soundness_report("\n".join(lines))
