"""Compositional may-alias analysis over a family of toy instruction
languages, with a concrete reference interpreter for validating results."""

from .engine import AnalysisConfig, AnalysisResult, analyze
from .lang import Program, SourceError, parse
from .modvars import modified_vars
from .oracle import ExecBounds, check_soundness, run_program
from .relations import (
    EMPTY,
    Relation,
    aliased,
    canonical,
    from_cliques,
    parse_relation_literal,
    quotient,
    render_relation,
    subst,
    to_assertion,
)

__all__ = [
    "AnalysisConfig",
    "AnalysisResult",
    "analyze",
    "Program",
    "SourceError",
    "parse",
    "modified_vars",
    "ExecBounds",
    "check_soundness",
    "run_program",
    "EMPTY",
    "Relation",
    "aliased",
    "canonical",
    "from_cliques",
    "parse_relation_literal",
    "quotient",
    "render_relation",
    "subst",
    "to_assertion",
]

__version__ = "0.1.0"
