#!/usr/bin/env python3
"""Run the analysis over every bundled example program and print the
resulting alias relations in canonical form.  Each program's level is its
file extension; its initial relation is the ``--init "..."`` written in its
header comment (empty when there is none).

Usage:
    python3 scripts/run_examples.py

For the per-instruction trace of one program, run ``alias-calc --output
trace`` on it.
"""

import argparse
import os
import re
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from aliascalc.engine import analyze
from aliascalc.lang import parse
from aliascalc.relations import parse_relation_literal, render_relation


def main() -> int:
    argparse.ArgumentParser(description=__doc__).parse_args()
    programs = os.path.join(os.path.dirname(__file__), "..", "programs")
    for name in sorted(os.listdir(programs)):
        level = os.path.splitext(name)[1][1:]
        with open(os.path.join(programs, name), "r", encoding="utf-8") as handle:
            text = handle.read()
        found = re.search(r'--init "([^"]*)"', text)
        init_text = found.group(1) if found else "{}"
        init = parse_relation_literal(init_text)
        result = analyze(parse(text, level=level), init)
        print(f"== {name}  (level {level}, init {init_text})")
        print(f"   {render_relation(result.relation)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
