#!/usr/bin/env python3
"""Run the analysis over every bundled example program and print the
resulting alias relations in canonical form.  Each program's level is its
file extension; its initial relation is the ``--init "..."`` written in its
header comment (empty when there is none).

Usage:
    python3 scripts/run_examples.py [--programs DIR] [--trace]
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
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--programs",
        default=os.path.join(os.path.dirname(__file__), "..", "programs"),
        help="directory holding the example programs",
    )
    ap.add_argument(
        "--trace",
        action="store_true",
        help="also print the per-instruction trace for each example",
    )
    args = ap.parse_args()

    for name in sorted(os.listdir(args.programs)):
        level = os.path.splitext(name)[1][1:]
        with open(os.path.join(args.programs, name), "r", encoding="utf-8") as handle:
            text = handle.read()
        found = re.search(r'--init "([^"]*)"', text)
        init_text = found.group(1) if found else "{}"
        init = parse_relation_literal(init_text)
        result = analyze(parse(text, level=level), init, trace=args.trace)
        print(f"== {name}  (level {level}, init {init_text})")
        if args.trace:
            for point in result.trace:
                print(f"   {point.label}  =>  {render_relation(point.relation)}")
        print(f"   {render_relation(result.relation)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
