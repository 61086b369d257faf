"""Per-layer tracing of the analyzer from outside, for the traced run only.

``install()`` replaces the public functions of each layer with wrappers
that record spans (job, name, start, end, parent) and counts.  It rebinds
every name a caller resolves: module globals (``relations`` calls
``quotient`` and ``restrict`` through its own globals), names imported
with ``from ... import`` (``cli`` binds ``analyze`` and ``render_relation``,
``relations`` and ``engine`` bind ``concat``), and methods of
``engine.Analysis``.  Nothing under ``src/`` changes.

A layer's self time is its span time minus the time of its child spans.
Spans stay in memory (up to ``SPAN_CAP``; aggregates count every call) and
are written out when the process ends.

Run as a script, it is ``alias-calc`` under tracing::

    python3 bench/tracer.py OUT.json -- ARGS...   (ARGS as for alias-calc)
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter
from typing import Dict, List

SPAN_CAP = 50_000

# Layer functions that get a span; the metric name is the key.
SPANS = {
    "lang.parse": ("lang", "parse"),
    "engine.run": ("engine", "Analysis.run"),
    "engine.call_qualified": ("engine", "Analysis.call_qualified"),
    "relations.subst": ("relations", "subst"),
    "relations.quotient": ("relations", "quotient"),
    "relations.restrict": ("relations", "restrict"),
    "relations.prefix_relation": ("relations", "prefix_relation"),
    "relations.canonical": ("relations", "canonical"),
    "oracle.run_program": ("oracle", "run_program"),
    "modvars.modified_vars": ("modvars", "modified_vars"),
}


class Tracer:
    def __init__(self) -> None:
        self.job = -1
        self.spans: List[tuple] = []
        self.stack: List[list] = []  # open spans: [start, child_time, index]
        self.total: Dict[str, float] = Counter()
        self.self_time: Dict[str, float] = Counter()
        self.counts: Dict[str, float] = Counter()
        self.maxima: Dict[str, float] = Counter()
        self.analyses: list = []  # (Analysis, record) awaiting the stale-key replay
        self.runs: List[dict] = []  # one record per analysis run
        self.tb_depth = 0  # nesting of Analysis.transfer_body
        self.in_run = False
        self.loops: List[list] = []  # open loop_fixpoint calls: [depth, chain]
        self.child_excluded = 0.0  # untimed bookkeeping in traced child processes

    # -- spans ----------------------------------------------------------------

    def span(self, name: str, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            index = len(tracer.spans)
            parent = stack[-1][2] if stack else -1
            if index < SPAN_CAP:
                tracer.spans.append(None)
            frame = [perf_counter(), 0.0, index]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[0]
                tracer.total[name] += duration
                tracer.self_time[name] += duration - frame[1]
                tracer.counts[name + ".calls"] += 1
                if stack:
                    stack[-1][1] += duration
                if index < SPAN_CAP:
                    tracer.spans[index] = (tracer.job, name, frame[0], end, parent)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- counters ---------------------------------------------------------------

    def _pairs(self, args, result) -> None:
        if len(result) > self.maxima["relations.pairs_max"]:
            self.maxima["relations.pairs_max"] = len(result)

    def _program_run(self, args, result) -> None:
        self.counts["oracle.executions"] += len(result.executions)
        self.counts["oracle.bounded"] += result.bounded
        self.counts["oracle.truncated"] += result.truncated

    def wrap_run(self, fn):
        """Marks the extent of ``Analysis.run`` and keeps one record per analysis."""
        tracer = self
        per_run = ("engine.body_evals", "engine.useful_evals", "engine.summary_lookups")

        def run(analysis):
            base = [tracer.counts[name] for name in per_run]
            tracer.in_run = True
            try:
                result = fn(analysis)
            finally:
                tracer.in_run = False
            tracer.counts["engine.summary_keys"] += result.summary_keys
            tracer.counts["engine.rounds"] += result.rounds
            record = {"job": tracer.job, "mode": analysis.config.mode,
                      "keys": result.summary_keys, "rounds": result.rounds}
            for name, before in zip(per_run, base):
                record[name.split(".")[1]] = tracer.counts[name] - before
            tracer.runs.append(record)
            tracer.analyses.append((analysis, record))
            return result

        return run

    def wrap_transfer_body(self, fn):
        """Counts the body evaluations of the interprocedural fixpoint (depth 0
        inside ``run``), how many of them changed their summary, and the
        length of each loop's accumulation chain."""
        tracer = self

        def transfer_body(analysis, a, body, record=None):
            depth = tracer.tb_depth
            if tracer.loops and tracer.loops[-1][0] == depth:
                tracer.loops[-1][1] += 1
            tracer.tb_depth = depth + 1
            try:
                out = fn(analysis, a, body, record)
            finally:
                tracer.tb_depth = depth
            if depth == 0 and tracer.in_run:
                tracer.counts["engine.body_evals"] += 1
                name = next(p.name for p in analysis.program.procedures if p.body is body)
                if analysis.table.get((name, a)) != out:
                    tracer.counts["engine.useful_evals"] += 1
            return out

        return transfer_body

    def wrap_loop_fixpoint(self, fn):
        tracer = self

        def loop_fixpoint(analysis, a, body, record=None):
            tracer.loops.append([tracer.tb_depth, 0])
            try:
                return fn(analysis, a, body, record)
            finally:
                chain = tracer.loops.pop()[1]
                if chain > tracer.maxima["engine.loop_chain_max"]:
                    tracer.maxima["engine.loop_chain_max"] = chain

        return loop_fixpoint

    def wrap_summary(self, fn):
        tracer = self

        def summary(analysis, proc, entry):
            if tracer.in_run:
                tracer.counts["engine.summary_lookups"] += 1
            return fn(analysis, proc, entry)

        return summary

    def wrap_tokenize(self, fn):
        tracer = self

        def tokenize(text):
            tokens = fn(text)
            tracer.counts["lang.tokens"] += len(tokens) - 1  # without EOF
            return tokens

        return tokenize

    def wrap_concat(self, fn):
        tracer = self

        def concat(prefix, suffix):
            tracer.counts["paths.concat.calls"] += 1
            return fn(prefix, suffix)

        return concat

    # -- stale keys -------------------------------------------------------------

    def count_stale(self) -> None:
        """Replay each summary key once against the final table, recording
        which keys its body looks up, and count the keys unreachable from
        main's entry.  Call it outside any timed region; what the replay
        records through the wrappers is discarded."""
        analyses, self.analyses = self.analyses, []
        saved = (len(self.spans), self.snapshot())
        stale = 0
        for analysis, record in analyses:
            edges: Dict[tuple, set] = {}
            original = type(analysis).summary
            current: list = []

            def summary(proc, entry, _orig=original, _a=analysis):
                current.append((proc.name, entry))
                return _orig(_a, proc, entry)

            analysis.summary = summary  # instance attribute shadows the wrapper
            try:
                for key in list(analysis.table):
                    current.clear()
                    body = analysis.program.procedure(key[0]).body
                    analysis.transfer_body(key[1], body)
                    edges[key] = set(current)
            finally:
                del analysis.summary
            root = next(iter(analysis.table))
            seen = {root}
            todo = [root]
            while todo:
                for nxt in edges.get(todo.pop(), ()):
                    if nxt not in seen:
                        seen.add(nxt)
                        todo.append(nxt)
            record["stale_keys"] = len(analysis.table) - len(seen)
            stale += record["stale_keys"]
        # The replay ran through the wrappers; keep none of what it recorded.
        del self.spans[saved[0]:]
        self.total = Counter(saved[1]["total"])
        self.self_time = Counter(saved[1]["self"])
        self.counts = Counter(saved[1]["counts"])
        self.maxima = Counter(saved[1]["maxima"])
        self.counts["engine.stale_keys"] += stale

    # -- output -----------------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "total": dict(self.total),
            "self": dict(self.self_time),
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("job\tname\tstart\tend\tparent\n")
            for job, name, start, end, parent in filter(None, self.spans):
                handle.write(f"{job}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def _rebind(original, wrapper) -> None:
    """Point every aliascalc module global bound to ``original`` at ``wrapper``."""
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "aliascalc" or modname.startswith("aliascalc.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install() -> Tracer:
    """Import every layer and wrap it; returns the recording tracer."""
    import importlib

    mods = {name: importlib.import_module(f"aliascalc.{name}")
            for name in ("lang", "engine", "relations", "paths", "oracle", "modvars", "cli")}
    importlib.import_module("aliascalc")
    tracer = Tracer()
    after = {
        "relations.subst": tracer._pairs,
        "relations.restrict": tracer._pairs,
        "relations.prefix_relation": tracer._pairs,
        "oracle.run_program": tracer._program_run,
    }
    analysis_cls = mods["engine"].Analysis
    methods = {
        "transfer_body": tracer.wrap_transfer_body,
        "loop_fixpoint": tracer.wrap_loop_fixpoint,
        "summary": tracer.wrap_summary,
    }
    for method, make in methods.items():
        setattr(analysis_cls, method, make(getattr(analysis_cls, method)))
    for metric, (modname, attr) in SPANS.items():
        if attr.startswith("Analysis."):
            method = attr.split(".", 1)[1]
            fn = getattr(analysis_cls, method)
            if method == "run":
                fn = tracer.wrap_run(fn)
            setattr(analysis_cls, method, tracer.span(metric, fn, after.get(metric)))
        else:
            fn = getattr(mods[modname], attr)
            _rebind(fn, tracer.span(metric, fn, after.get(metric)))
    _rebind(mods["lang"].tokenize, tracer.wrap_tokenize(mods["lang"].tokenize))
    _rebind(mods["paths"].concat, tracer.wrap_concat(mods["paths"].concat))
    return tracer


def _cli_main(argv: List[str]) -> int:
    """alias-calc under tracing; writes the aggregates to argv[0]."""
    out_path, rest = argv[0], argv[2:]
    tracer = install()
    from aliascalc import cli

    tracer.job = 0
    try:
        code = cli.main(rest)
    except SystemExit as exc:
        code = exc.code
    sys.stdout.flush()
    start = perf_counter()
    tracer.count_stale()
    result = tracer.snapshot()
    result["excluded_s"] = perf_counter() - start
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return code


if __name__ == "__main__":
    sys.exit(_cli_main(sys.argv[1:]))
