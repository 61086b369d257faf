"""Command-line driver.

Reads a program from a file (or standard input), runs the analysis, and
prints one of several views of the result.  Exit codes: 0 success, 1 usage
error, 2 parse/validation error (diagnostics name file, line and column),
3 soundness check found violations.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence, Tuple

from .engine import Analysis, AnalysisConfig
from .lang import LEVELS, SourceError, parse
from .paths import Path, render
from .relations import canonical, parse_relation_literal, render_relation, to_assertion

OUTPUTS = ("relation", "trace", "assertion", "dot", "modvars", "soundness")


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits 2 on bad options; this artifact reserves 2 for
    program errors, so usage problems exit 1 instead."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="alias-calc",
        description="May-alias analysis over the toy instruction languages.",
    )
    parser.add_argument(
        "file",
        nargs="?",
        help="source file (omit to read standard input)",
    )
    parser.add_argument(
        "--level",
        choices=LEVELS,
        default="e2",
        help="language tier to accept (default: e2)",
    )
    parser.add_argument(
        "--init",
        default="{}",
        metavar="REL",
        help='initial alias relation, e.g. "{b,c},{f,g}" (default: empty)',
    )
    parser.add_argument(
        "--max-dots",
        type=int,
        default=None,
        metavar="N",
        help="override the bound on dots per tracked expression",
    )
    parser.add_argument(
        "--output",
        choices=OUTPUTS,
        default="relation",
        help="what to print (default: relation)",
    )
    return parser


def _read_source(file_arg: Optional[str]) -> Tuple[str, str]:
    """The source text and its display name, read as UTF-8 with universal
    newlines from a file or stdin alike.  A byte that is not UTF-8 decodes
    to a lone surrogate, which the tokenizer reports with its position."""
    if file_arg is None or file_arg == "-":
        sys.stdin.reconfigure(encoding="utf-8", errors="surrogateescape", newline=None)
        return sys.stdin.read(), "<stdin>"
    with open(file_arg, "r", encoding="utf-8", errors="surrogateescape") as handle:
        return handle.read(), file_arg


def emit_dot(cliques: Sequence[Sequence[Path]]) -> str:
    """Alias diagram: a source node fanning out to one anonymous value
    node per clique, the edge carrying the clique's members as its label."""
    lines = [
        "digraph aliases {",
        '  source [label="Current", shape=doubleoctagon];',
    ]
    for i, clique in enumerate(cliques):
        label = ", ".join(render(e) for e in clique).replace('"', '\\"')
        lines.append(f"  v{i} [label=\"\", shape=circle];")
        lines.append(f"  source -> v{i} [label=\"{label}\"];")
    lines.append("}")
    return "\n".join(lines)


def _render_trace(points) -> str:
    lines: List[str] = []
    context = None
    for point in points:
        if point.context != context:
            context = point.context
            lines.append(f"-- {context}")
        lines.append(f"  {point.label}  =>  {render_relation(point.relation)}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.output == "soundness" and args.level != "e0":
        parser.error("--output soundness requires --level e0")
    if args.max_dots is not None and args.max_dots < 0:
        parser.error("--max-dots must be nonnegative")

    try:
        init = parse_relation_literal(args.init)
    except ValueError as exc:
        parser.error(f"bad --init relation literal: {exc}")

    try:
        text, name = _read_source(args.file)
    except OSError as exc:
        parser.error(str(exc))

    try:
        program = parse(text, level=args.level)
    except SourceError as exc:
        print(f"{name}:{exc.line}:{exc.col}: {exc.message}", file=sys.stderr)
        return 2

    # The oracle and modvars are imported by the outputs that run them, so
    # the other outputs do not load them.
    if args.output == "soundness":
        from .oracle import check_soundness

        report = check_soundness(program, init, args.max_dots)
        print(report.render())
        return 3 if report.violation_count else 0

    analysis = Analysis(program, AnalysisConfig(max_dots=args.max_dots), init)

    if args.output == "modvars":
        from .modvars import modified_vars

        sets = modified_vars(program, analysis.max_dots)
        for proc in program.procedures:
            members = ", ".join(sorted(render(p) for p in sets[proc.name]))
            print(f"{proc.name}: {members}" if members else f"{proc.name}:")
        return 0

    result = analysis.run_with_trace() if args.output == "trace" else analysis.run()

    if args.output == "relation":
        print(render_relation(result.relation))
    elif args.output == "trace":
        print(_render_trace(result.trace))
    elif args.output == "assertion":
        print(to_assertion(result.relation, program.expressions, analysis.max_dots))
    elif args.output == "dot":
        print(emit_dot(canonical(result.relation)))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
