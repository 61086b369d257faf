#!/usr/bin/env python3
"""Differential fuzzing: generate random base-tier programs, enumerate
their concrete executions, and verify every observed alias was predicted
by the analysis.

Usage:
    python3 scripts/fuzz_soundness.py [--trials N] [--seed S]

Exits 1 if any trial produced a containment or modified-variable
violation; cut-assumption reports are counted but are not failures.  The
summary line also counts the pairs the analysis predicted and, of those,
the pairs that no execution whose cuts held realised: the price in
precision of what soundness adds.
"""

import argparse
import os
import random
import sys

sys.path[:0] = [os.path.join(os.path.dirname(__file__), "..", d) for d in ("src", "tests")]

from aliascalc.oracle import check_soundness
from randprog import pretty, random_program


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    failures = 0
    cut_reports = 0
    paths = 0
    predicted = 0
    unrealised = 0

    for trial in range(args.trials):
        prog = random_program(rng)
        rep = check_soundness(prog)
        paths += rep.paths
        cut_reports += len(rep.cut_violations)
        predicted += len(rep.computed)
        unrealised += len(rep.computed - rep.realised)
        if rep.containment_violations or rep.modvar_violations:
            failures += 1
            print(f"-- trial {trial} FAILED")
            print(pretty(prog))
            print(rep.render())

    print(
        f"{args.trials} trials, {paths} concrete paths, "
        f"{failures} failing trials, {cut_reports} cut-assumption reports, "
        f"{predicted} predicted pairs, {unrealised} realised by no run"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
