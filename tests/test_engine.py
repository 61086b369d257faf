import hashlib
import os
import random
import re
from collections import Counter, deque

import pytest
from conftest import fixture_init, load_gen, read_program
from randprog import pretty, random_program, with_calls
from test_paths import reduced
from test_relations import ref_subst

from aliascalc import relations as rel
from aliascalc.cli import _render_trace
from aliascalc.engine import (
    MAX_ROUNDS,
    Analysis,
    AnalysisConfig,
    TracePoint,
    analyze,
)
from aliascalc.lang import (
    KEYWORDS, MAIN, Assign, Call, Cond, Loop, Procedure, Program, Repeat, _walk, instructions_of,
    parse,
)
from aliascalc.paths import (
    NEG_MARK, dot_count, has_negation, negate_segment, parse_path, var,
)
from aliascalc.relations import (
    EMPTY,
    make_pair,
    parse_relation_literal as lit,
    render_relation,
)

MUST = AnalysisConfig(mode="must")
PROGRAMS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "programs")
FIXTURES = sorted(os.listdir(PROGRAMS))


def run(text, init="{}", level="e2", config=AnalysisConfig()):
    return analyze(parse(text, level=level), lit(init), config)


def result_text(text, init="{}", level="e2", config=AnalysisConfig()):
    return render_relation(run(text, init, level, config).relation)


# -- one rule at a time --------------------------------------------------------

def test_skip_is_identity():
    assert result_text("skip", "{x,y}") == "{x, y}"


def test_create_and_forget_unlink():
    assert result_text("create x", "{x,y},{a,b}") == "{a, b}"
    assert result_text("forget x", "{x,y},{a,b}") == "{a, b}"


def test_forget_unlinks_dotted_paths_below_the_variable():
    prog = parse("forget x", level="e2")
    init = lit("{x.a,y},{u,v}")
    out = analyze(prog, init).relation
    assert out == lit("{u,v}")


def test_cut_removes_one_pair():
    assert result_text("cut x, y", "{x,y,z}") == "{x, z}, {y, z}"


def test_assignment_reattaches_target():
    assert result_text("z := f", "{b,c},{f,g,x},{y,z}") == "{b, c}, {f, g, x, z}"


def test_chained_analyses_compose():
    # One program's exit relation can seed the next analysis; the composed
    # result matches analyzing against that intermediate value directly.
    mid = run("then x := b else x := f ; z := y end", "{b,c},{f,g}").relation
    assert render_relation(mid) == "{b, c, x}, {f, g, x}, {y, z}"
    prog = parse("z := f", level="e0")
    out = analyze(prog, mid).relation
    assert render_relation(out) == "{b, c, x}, {f, g, x, z}"


def test_conditional_unions_branches():
    assert result_text("then x := y else x := z end") == "{x, y}, {x, z}"


def test_conditional_intersects_in_must_mode():
    text = "then x := y else x := y ; z := y end"
    assert result_text(text, config=MUST) == "{x, y}"
    assert result_text(text) == "{x, y, z}"


def test_iterate_zero_is_identity():
    assert result_text("iterate 0 x := y end", "{c,y},{d,z}") == "{c, y}, {d, z}"


def test_iterate_oscillation():
    body = "x := y ; y := z ; z := x"
    expected = {
        0: "{c, y}, {d, z}",
        1: "{c, x, z}, {d, y}",
        2: "{c, y}, {d, x, z}",
        3: "{c, x, z}, {d, y}",
        4: "{c, y}, {d, x, z}",
    }
    for n, want in expected.items():
        assert result_text(f"iterate {n} {body} end", "{c,y},{d,z}") == want
    # Period two: n and n+2 agree from n = 1 on.
    assert expected[3] == expected[1]
    assert expected[4] == expected[2]


class FewTransfers(Analysis):
    """Fails on its 21st body transfer: Main's body is one, and so is each
    pass of an iterate.  The iterates below take 3 to 15 once passes stop
    at the first repeat; running every pass takes 100000 or more, and this
    stops it at the limit instead of waiting for it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.transfers = 0

    def transfer_body(self, a, body, record=None):
        self.transfers += 1
        assert self.transfers <= 20, "the iterate ran more passes than it needs"
        return super().transfer_body(a, body, record)


def few_transfers_text(text, init):
    analysis = FewTransfers(parse(text, level="e0"), AnalysisConfig(), lit(init))
    return render_relation(analysis.run().relation)


def test_iterate_stops_once_the_relation_is_stable():
    nested = "iterate 30 " * 4 + "x := y" + " end" * 4
    for text in ["iterate 1000000 x := y end", nested]:
        got = few_transfers_text(text, "{y,z}")
        assert got == result_text("iterate 2 x := y end", "{y,z}", level="e0")


def test_iterate_jumps_over_a_periodic_body():
    # Period two: every pass used to run, and the second count never ended.
    body = "x := y ; y := z ; z := x"
    for n, like in [(100000, 4), (99999999999999999999999, 3)]:
        got = few_transfers_text(f"iterate {n} {body} end", "{c,y},{d,z}")
        assert got == result_text(f"iterate {like} {body} end", "{c,y},{d,z}", level="e0")


@pytest.mark.parametrize("body, init, period", [
    ("x := y", "{y,z}", 1),
    ("x := y ; y := z ; z := x", "{c,y},{d,z}", 2),
    ("t := a ; a := b ; b := c ; c := t", "{a,p},{b,q},{c,r}", 3),
])
def test_iterate_agrees_with_naive_passes(body, init, period):
    prog = parse(body, level="e0")
    naive = [lit(init)]
    for _ in range(12):
        analysis = Analysis(prog, AnalysisConfig(), naive[-1])
        naive.append(analysis.transfer_body(naive[-1], prog.procedure("Main").body))
    # The body's effect cycles with the stated period from the first pass on.
    assert len(set(naive[1:1 + period])) == period
    assert naive[1 + period] == naive[1]
    for n in range(1, 13):
        assert run(f"iterate {n} {body} end", init, level="e0").relation == naive[n]


def test_loop_accumulates_to_fixpoint():
    got = result_text("loop x := y ; y := z ; z := x end", "{c,y},{d,z}")
    assert got == "{c, x, z}, {c, y}, {d, x, z}, {d, y}"


def test_loop_equals_union_of_iterates():
    body = "x := y ; y := z ; z := x"
    loop_rel = run(f"loop {body} end", "{c,y},{d,z}").relation
    acc = EMPTY
    prev = lit("{c,y},{d,z}")
    # t_{n+1} = t_n ∪ (t_n >> p): replay the accumulation by hand.
    for _ in range(5):
        acc = prev
        prog = parse(body, level="e0")
        prev = acc | analyze(prog, acc).relation
    assert prev == loop_rel


def test_mixed_flow_program():
    text = read_program("mixed_flow.e0")
    assert result_text(text, level="e0") == "{a, c, h}, {c, e, f}, {c, f, g, y}, {c, g, h}"


# -- procedures ------------------------------------------------------------------

def test_unqualified_call_runs_body_with_arguments_bound():
    text = (
        "procedure Main\n call q (u)\nend\n"
        "procedure q (f)\n x := f\nend"
    )
    out = run(text, level="e1").relation
    assert make_pair(var("x"), var("u")) in out
    assert make_pair(var("f"), var("u")) in out


def test_self_recursion():
    assert result_text(read_program("self_recursive.e1"), level="e1") == "{x, y}"


def test_self_recursion_reversed():
    got = result_text(read_program("self_recursive_rev.e1"), level="e1")
    assert got == "{a, x}, {x, y}"


def test_mutual_recursion():
    out = run(read_program("mutual_recursion.e1"), level="e1").relation
    assert render_relation(out) == "{a, c}, {b, x}, {x, y}"
    assert make_pair(var("x"), var("c")) not in out


def test_mutual_recursion_large():
    got = result_text(read_program("mutual_recursion_large.e1"), level="e1")
    assert got == "{a, h, m}, {c, e, f, g, y}, {m, n}"


# -- the summary driver -----------------------------------------------------------------

class RoundRobin(Analysis):
    """The every-key-every-round driver the worklist replaced: each round
    re-runs the body of every key ever created, until a round changes no
    exit and creates no key.  Returns Main's relation."""

    def run(self):
        main = self.program.procedure(MAIN)
        root = (main.name, rel.prefix_relation(self.init, (), self.max_dots))
        self.summary(main, root[1])
        for _ in range(MAX_ROUNDS):
            before = len(self.table)
            changed = False
            for key in list(self.table):
                exit_rel = self.transfer_body(key[1], self.program.procedure(key[0]).body)
                if exit_rel != self.table[key]:
                    self.table[key] = exit_rel
                    changed = True
            if not changed and len(self.table) == before:
                return self.table[root]
        raise RuntimeError("round-robin driver did not stabilize")


def fixture_source(name):
    """A fixture's text, its level and the relation its header's --init names."""
    return read_program(name), name.rsplit(".", 1)[1], lit(fixture_init(name))


def fixture_analysis(name, mode, driver=Analysis):
    text, level, init = fixture_source(name)
    return driver(parse(text, level=level), AnalysisConfig(mode=mode), init)


def replay_lookups(analysis, key):
    """Run key's body once against the final table; return the exit and
    the keys the body looked up."""
    looked_up = set()
    summary = analysis.summary

    def recording(proc, entry):
        looked_up.add((proc.name, entry))
        return summary(proc, entry)

    analysis.summary = recording
    try:
        exit_rel = analysis.transfer_body(key[1], analysis.program.procedure(key[0]).body)
    finally:
        del analysis.summary
    return exit_rel, looked_up


@pytest.mark.parametrize("mode", ["may", "must"])
@pytest.mark.parametrize("name", FIXTURES)
def test_worklist_agrees_with_round_robin_driver(name, mode):
    analysis = fixture_analysis(name, mode)
    result = analysis.run()
    reference = fixture_analysis(name, mode, RoundRobin)
    assert result.relation == reference.run()
    for key, exit_rel in analysis.table.items():
        assert reference.table[key] == exit_rel


@pytest.mark.parametrize("mode", ["may", "must"])
@pytest.mark.parametrize("name", FIXTURES)
def test_every_summary_key_is_reachable_from_main(name, mode):
    analysis = fixture_analysis(name, mode)
    analysis.run()
    table = dict(analysis.table)
    edges = {}
    for key, exit_rel in table.items():
        replayed, edges[key] = replay_lookups(analysis, key)
        assert replayed == exit_rel
    assert analysis.table == table  # the replay created no key
    root = next(iter(table))
    assert root[0] == "Main"
    live, todo = {root}, [root]
    while todo:
        for callee in edges[todo.pop()] - live:
            live.add(callee)
            todo.append(callee)
    assert live == set(table)


class Stack(deque):
    popleft = deque.pop  # last in, first out


@pytest.mark.parametrize("mode", ["may", "must"])
@pytest.mark.parametrize("name", FIXTURES)
def test_visit_order_does_not_change_the_result(name, mode):
    fifo = fixture_analysis(name, mode)
    lifo = fixture_analysis(name, mode)
    lifo.queue = Stack()
    want, got = fifo.run(), lifo.run()
    assert got.relation == want.relation
    assert lifo.table == fifo.table


class QueueOnly(Analysis):
    """The driver before nested evaluation: every new key is seeded and
    queued, so its caller finishes on the seed and runs again once the
    key's exit is known."""

    def summary(self, proc, entry):
        key = (proc.name, entry)
        if key not in self.table:
            self.table[key] = self._seed
            self.queue.append(key)
        if self.evaluating is not None:
            self.calls[self.evaluating].add(key)
        return self.table[key]


def assert_same_fixpoint(analysis, reference):
    got, want = analysis.run(), reference.run()
    assert (got.relation, got.summary_keys) == (want.relation, want.summary_keys)
    assert analysis.table == reference.table


@pytest.mark.parametrize("mode", ["may", "must"])
@pytest.mark.parametrize("name", FIXTURES)
def test_nested_evaluation_agrees_with_queue_only_driver(name, mode):
    assert_same_fixpoint(fixture_analysis(name, mode), fixture_analysis(name, mode, QueueOnly))


def test_nested_evaluation_agrees_with_queue_only_driver_on_generated_programs():
    for seed in range(300):
        program, init = generated(seed)
        for mode in ("may", "must"):
            config = AnalysisConfig(mode=mode)
            assert_same_fixpoint(Analysis(program, config, init), QueueOnly(program, config, init))


def test_nested_evaluation_agrees_with_queue_only_driver_on_random_programs():
    rng = random.Random(20101)
    init = lit("{a,b},{c,d}")
    for i in range(240):
        prog = random_program(rng) if i % 2 else with_calls(rng)
        config = AnalysisConfig(mode=("may", "must")[i // 2 % 2])
        assert_same_fixpoint(Analysis(prog, config, init), QueueOnly(prog, config, init))


def recursive(program):
    """Whether some procedure can reach itself through calls."""
    callees = {p.name: {ins.proc for ins in _walk(p.body) if isinstance(ins, Call)}
               for p in program.procedures}
    for name in callees:
        seen, todo = set(), list(callees[name])
        while todo:
            callee = todo.pop()
            if callee not in seen:
                seen.add(callee)
                todo.extend(callees[callee])
        if name in seen:
            return True
    return False


def test_acyclic_programs_evaluate_each_key_once():
    # Each key's callees are evaluated when first looked up, so without
    # recursion no exit is ever revised.  The queue-only driver re-ran
    # callers that had read a seed.
    programs = [fixture_analysis(name, "may").program for name in FIXTURES]
    rng = random.Random(2010)
    programs += [parse(GEN.interproc_program(rng, "e2", 4)) for _ in range(300)]
    programs = [p for p in programs if not recursive(p)]
    assert len(programs) == 309
    rerun = 0
    for program in programs:
        for mode in ("may", "must"):
            config = AnalysisConfig(mode=mode)
            assert Analysis(program, config).run().rounds == 1
            rerun += QueueOnly(program, config).run().rounds > 1
    assert rerun > 0


class Recursive(Exception):
    pass


def inlined(program, body, active):
    """body with every call replaced by its formal := actual assignments
    and the callee's body, itself inlined; raises Recursive when a call
    reaches a procedure in active, the ones being inlined around it."""
    out = []
    for ins in body:
        if isinstance(ins, Call):
            assert not ins.qualifier
            if ins.proc in active:
                raise Recursive
            callee = program.procedure(ins.proc)
            out += [Assign((f,), arg) for f, arg in zip(callee.formals, ins.args)]
            out += inlined(program, callee.body, active | {ins.proc})
        elif isinstance(ins, Cond):
            out.append(Cond(inlined(program, ins.then_branch, active),
                            inlined(program, ins.else_branch, active)))
        elif isinstance(ins, Loop):
            out.append(Loop(inlined(program, ins.body, active)))
        elif isinstance(ins, Repeat):
            out.append(Repeat(ins.count, inlined(program, ins.body, active)))
        else:
            out.append(ins)
    return tuple(out)


def test_calls_agree_with_their_inlined_bodies():
    # The inlining oracle.  Without recursion, an unqualified call means
    # its formal := actual assignments (bound left to right, as subst_list
    # binds them) followed by the callee's body, so a program must analyse
    # like its Main with every call inlined: a one-procedure program that
    # needs no summary table.  Only cycles reachable from Main count: at
    # size 40, 102 of the 600 programs qualify, not the 13 with no cycle at
    # all.  Their long bodies overwrite most formal bindings before Main
    # returns, so small programs check the bindings too.
    init = lit("{a,b},{c,d,e}")
    compared = Counter()
    for size in (40, 6):
        for seed in range(600):
            program = parse(GEN.interproc_program(random.Random(seed), "e1", size), level="e1")
            try:
                body = inlined(program, program.procedure("Main").body, {"Main"})
            except Recursive:
                continue
            flat = Program((Procedure("Main", (), body),), level="e1")
            for mode in ("may", "must"):
                config = AnalysisConfig(mode=mode)
                want = analyze(flat, init, config).relation
                assert analyze(program, init, config).relation == want, (size, seed, mode)
                compared[size] += 1
    assert compared == {40: 204, 6: 1160}


@pytest.mark.parametrize("mode", ["may", "must"])
@pytest.mark.parametrize("name", FIXTURES)
def test_trace_text_does_not_depend_on_the_driver(name, mode):
    lifo = fixture_analysis(name, mode, QueueOnly)
    lifo.queue = Stack()
    drivers = [fixture_analysis(name, mode, QueueOnly), lifo, fixture_analysis(name, mode)]
    texts = {_render_trace(analysis.run_with_trace().trace) for analysis in drivers}
    assert len(texts) == 1
    assert next(iter(texts)).startswith("-- Main from ")


def call_chain(procs, depth):
    """Main and procs - 1 more procedures, each calling the next from
    under depth nested loops."""
    names = ["Main"] + [f"p{i}" for i in range(1, procs)]
    lines = []
    for name, callee in zip(names, names[1:] + [None]):
        body = "a := b" + (f" ; call {callee}" if callee else "")
        lines += [f"procedure {name}", "loop " * depth + body + " end" * depth, "end"]
    return parse("\n".join(lines), level="e1")


@pytest.mark.parametrize("procs, depth", [(300, 0), (5, 100), (3, 100), (40, 20)])
def test_deep_call_chains_stay_within_the_recursion_limit(procs, depth):
    # A new key's body runs inside its caller's, so nested evaluation stops
    # at the nesting fence and leaves deeper keys to the queue.
    program = call_chain(procs, depth)
    for mode in ("may", "must"):
        config = AnalysisConfig(mode=mode)
        assert_same_fixpoint(Analysis(program, config), QueueOnly(program, config))


def test_stale_contexts_are_dropped():
    result = fixture_analysis("mutual_recursion_large.e1", "may").run()
    assert result.summary_keys == 14


# -- the transfer memo ------------------------------------------------------------------

class _Forgetful(dict):
    def __setitem__(self, key, value):
        pass


class NoMemo(Analysis):
    """Computes every transfer directly: its memo never keeps an entry."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.memo = _Forgetful()


def outcome(analysis, trace):
    result = analysis.run_with_trace() if trace else analysis.run()
    return (result.relation, analysis.table, result.summary_keys,
            result.rounds, result.trace)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("mode", ["may", "must"])
@pytest.mark.parametrize("name", FIXTURES)
def test_memo_agrees_with_direct_transfers(name, mode, trace):
    want = outcome(fixture_analysis(name, mode, NoMemo), trace)
    assert outcome(fixture_analysis(name, mode), trace) == want


def test_memo_agrees_with_direct_transfers_on_random_programs():
    rng = random.Random(20101)
    init = lit("{a,b},{c,d}")
    for i in range(240):
        prog = random_program(rng) if i % 2 else with_calls(rng)
        config = AnalysisConfig(mode=("may", "must")[i // 2 % 2])
        trace = i % 3 == 0
        want = outcome(NoMemo(prog, config, init), trace)
        assert outcome(Analysis(prog, config, init), trace) == want


def test_memo_holds_only_assignments_and_calls():
    # Only substitutions are memoized: an assignment's, and a call's entry
    # and exit halves.  Every other rule runs each time.
    kinds = set()
    for name in FIXTURES:
        for mode in ("may", "must"):
            analysis = fixture_analysis(name, mode)
            analysis.run()
            by_id = {id(ins): ins for ins in instructions_of(analysis.program)}
            kinds.update(type(by_id[key[0]]) for key in analysis.memo)
    assert kinds == {Assign, Call}


def counted_calls(monkeypatch, attr, analysis):
    calls = [0]
    original = getattr(rel, attr)

    def counting(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(rel, attr, counting)
    analysis.run()
    return calls[0]


def test_memo_cuts_repeated_substitutions(monkeypatch):
    name = "mutual_recursion_large.e1"
    assert counted_calls(monkeypatch, "subst", fixture_analysis(name, "may")) == 171
    assert counted_calls(monkeypatch, "subst", fixture_analysis(name, "may", NoMemo)) == 464


def test_memo_cuts_repeated_view_shifts(monkeypatch):
    name = "linked_lists.e2"
    # Pairs carried around a qualified call never reach its entry key, so
    # contexts that differ only in them share one entry and one shift.
    # Main's entry is one more shift, by Current, in both counts.
    assert counted_calls(monkeypatch, "prefix_relation", fixture_analysis(name, "may")) == 19
    assert counted_calls(
        monkeypatch, "prefix_relation", fixture_analysis(name, "may", NoMemo)) == 25


def lookups(analysis):
    """Run the analysis; return the key of every summary lookup, in order."""
    seen = []
    summary = analysis.summary

    def recording(proc, entry):
        seen.append((proc.name, entry))
        return summary(proc, entry)

    analysis.summary = recording
    analysis.run()
    return seen


def test_calls_are_looked_up_on_every_evaluation():
    # The memo covers the table-free parts only: every call still reaches
    # summary, so the worklist keeps its edges.
    name = "mutual_recursion_large.e1"
    memoized = lookups(fixture_analysis(name, "may"))
    assert memoized == lookups(fixture_analysis(name, "may", NoMemo))


# -- dotted expressions and qualified calls ------------------------------------------

def test_dotted_sources():
    got = result_text(read_program("field_sources.e2"), level="e2")
    assert got == "{a, b}, {x, y.a, z}, {x, y.b, z}"


def test_dotted_sources_do_not_alias_distinct_fields_of_one_object():
    out = run(read_program("field_sources.e2"), level="e2").relation
    assert make_pair(var("x"), parse_path("x.a")) not in out


def test_qualified_call_without_arguments():
    text = (
        "procedure Main\n call x.r\nend\n"
        "procedure r\n c := d\nend"
    )
    out = run(text, level="e2").relation
    assert out == lit("{x.c,x.d}")


def test_call_on_a_dotted_target_shifts_back_through_every_segment():
    # Inside q the caller's b is a'.x'.b, so binding c := a'.x'.b and
    # shifting back by x.a cancels two segments at the junction.
    text = "procedure Main\n call x.a.q (b)\nend\nprocedure q (c)\n d := c\nend"
    assert result_text(text) == "{b, x.a.d}"
    text = "procedure Main\n call x.a.q\nend\nprocedure q\n skip\nend"
    assert result_text(text, init="{u,x.a.f}") == "{u, x.a.f}"


def test_qualified_call_with_arguments_drops_formal_pairs():
    text = read_program("qualified_call_args.e2")
    out = run(text, level="e2").relation
    # d picked up the first actual (the caller itself); the caller's f
    # stays aliased to x.a; pairs naming the formals b and c are gone.
    assert render_relation(out) == "{Current, x.d}, {f, x.a}"


def test_qualified_call_with_explicit_argument_binding():
    # The same program with argument passing spelled out as body-leading
    # assignments from the caller's view; formal names then survive.
    main = Procedure(name="Main", formals=(), body=(
        Assign(target=("f",), source=("x", "a")),
        Call(qualifier=("x",), proc="q", args=()),
    ))
    q = Procedure(name="q", formals=(), body=(
        Assign(target=("b",), source=("x'",)),
        Assign(target=("c",), source=("x'", "f")),
        Assign(target=("d",), source=("b",)),
    ))
    out = analyze(Program(procedures=(main, q), level="e2")).relation
    assert render_relation(out) == "{Current, x.b, x.d}, {f, x.a, x.c}, {x.b.f, x.c}"


def test_linked_lists_keep_cursors_apart():
    out = run(read_program("linked_lists.e2"), level="e2").relation
    for a, b in [
        ("f", "x.first"),
        ("f", "x.first.right.right"),
        ("x.last.right", "x.new"),
        ("x.a", "x.new.item"),
        ("g", "y.first"),
    ]:
        assert make_pair(parse_path(a), parse_path(b)) in out
    assert make_pair(var("f"), var("g")) not in out


def test_linked_lists_shared_head_joins_cursors():
    out = run(read_program("linked_lists_shared.e2"), level="e2").relation
    assert make_pair(var("f"), var("g")) in out


# -- carrying the caller's frame around a qualified call --------------------------------

class OldFrame(Analysis):
    """The qualified-call rule before the frame split: the caller's whole
    relation goes through the call, within the plain budget."""

    def frame(self, a, ins):
        return a, EMPTY, self.max_dots


GEN = load_gen()


def generated(seed):
    """A bench/gen.py program and a two-group initial relation over its
    variables, each path carrying 0-3 fields.  Seed mod 3 picks the kind:
    e1 at size 4, acyclic e2 at size 4, or recursive e2 at size 3."""
    rng = random.Random(seed)
    kind = seed % 3
    if kind == 2:
        text, names = GEN.recursive_program(rng, 3), "abcd"
    else:
        text, names = GEN.interproc_program(rng, ("e1", "e2")[kind], 4), "abcdef"

    def path():
        fields = [rng.choice(GEN.FIELDS) for _ in range(rng.randint(0, 3))]
        return ".".join([rng.choice(names)] + fields)

    groups = ("{" + ",".join(path() for _ in range(rng.randint(2, 3))) + "}" for _ in range(2))
    return parse(text, level="e1" if kind == 0 else "e2"), lit(",".join(groups))


def test_nested_qualified_call_keeps_references_to_the_enclosing_frame():
    # Main runs p on d with f = b; q changes nothing on g, and p then sets
    # h := f, so d.h = b after every run.  Inside p, b is d'.b: the old rule
    # shifted it through g's frame and dropped it as a leftover negation.
    text = (
        "procedure Main\n  call d.p (b)\nend\n"
        "procedure p (f)\n  call g.q\n  h := f\nend\n"
        "procedure q\n  skip\nend\n"
    )
    assert result_text(text) == "{b, d.h}"


def test_no_op_call_keeps_deep_caller_pairs_within_the_budget():
    # q is skip, so the call changes nothing.  The old rule shifted u.a.b.c
    # to x'.u.a.b.c, four dots, and dropped it at the default budget of 3.
    text = "procedure Main\n  call x.q\nend\nprocedure q\n  skip\nend\n"
    assert result_text(text, init="{u.a.b.c,v}") == "{u.a.b.c, v}"


def test_recursive_generated_program_keeps_the_field_assigned_in_the_callee():
    # bench/gen.py recursive_program(Random(110), 3).  A run that takes the
    # then branch once: Main runs p0 on D = d with D.d = b, so D.c = b; the
    # inner call runs p0 on D.b and takes the else branch, which touches
    # only D.b's own fields; back in p0, D.b := D.d.right = b.right.  So
    # d.b and b.right denote one object when Main returns (c := a and
    # forget a leave both alone).
    text = (
        "procedure Main\n  call d.p0 (b)\n  c := a\n  c := a\n  forget a\nend\n"
        "procedure p0 (d)\n  c := d\n  then\n    call b.p0 (a)\n    b := d.right\n"
        "  else\n    b := b.first\n  end\nend\n"
    )
    out = run(text).relation
    assert make_pair(parse_path("b.right"), parse_path("d.b")) in out
    assert render_relation(out) == "{b, d.c}, {b.right, d.b}, {d.b, d.c.right}"


@pytest.mark.parametrize("name", FIXTURES)
def test_frame_split_keeps_every_fixture_result(name):
    want = fixture_analysis(name, "may", OldFrame).run()
    assert fixture_analysis(name, "may").run().relation == want.relation
    old, new = fixture_analysis(name, "must", OldFrame), fixture_analysis(name, "must")
    assert new.run().relation == old.run().relation
    assert new.table == old.table


def test_frame_split_only_adds_pairs_on_generated_programs():
    grown = 0
    for seed in range(300):
        program, init = generated(seed)
        old = OldFrame(program, AnalysisConfig(), init).run().relation
        new = Analysis(program, AnalysisConfig(), init).run().relation
        assert old <= new, seed
        grown += old != new
    assert grown > 0


# (seed, budget k) where R(k + 1) still holds a pair within k that R(k)
# misses.  Each is the defect of the strict xfail below: an actual's
# partner within the caller's budget is one dot over it inside the callee.
NON_MONOTONE = [(122, 3), (167, 4), (253, 3), (253, 4), (296, 3), (296, 4)]


def test_raising_the_dot_budget_reveals_only_the_known_missed_pairs():
    failures = []
    for seed in range(300):
        program, init = generated(seed)
        found = {k: Analysis(program, AnalysisConfig(max_dots=k), init).run().relation
                 for k in (3, 4, 5)}
        failures += [(seed, k) for k in (3, 4)
                     if not rel.prefix_relation(found[k + 1], (), k) <= found[k]]
    assert failures == NON_MONOTONE


@pytest.mark.xfail(strict=True, reason="a callee counts x' against the caller's budget")
def test_formal_copy_keeps_a_deep_partner_of_the_actual():
    # The core of seed 122: p runs on a with c = b, and b := c sets a.b to
    # b, which the initial relation aliases to d.right.right.right (three
    # dots).  Inside p that partner is a'.d.right.right.right, four dots,
    # so the formal binding drops it at the default budget of 3; the pair
    # appears at --max-dots 4.
    text = "procedure Main\n  call a.p (b)\nend\nprocedure p (c)\n  b := c\nend\n"
    out = run(text, init="{b,d.right.right.right}").relation
    assert make_pair(parse_path("a.b"), parse_path("d.right.right.right")) in out


class WholeRelation(Analysis):
    """The qualified-call rule without the frame split, with the split's
    entry budget, which allows for the len(target) dots the shift adds."""

    def frame(self, a, ins):
        return a, EMPTY, self.max_dots + len(ins.qualifier)


@pytest.mark.xfail(strict=True, reason="the exit cleaning drops a negated pair the split carries")
def test_splitting_off_the_carried_pairs_is_only_an_optimization():
    # By the frame rule, the pairs the split carries around a qualified
    # call would come back unchanged through the callee.  The split keeps
    # {a.item, d.b}: one pass through the then branch sets d.b to a.item.
    # Sent through the inner call d.p0, the pair {c, d'.a.item} of d's
    # frame comes back with its negated segment, and the exit cleaning
    # drops it.
    text = (
        "procedure Main\n  b := d\n  call p0 (a)\nend\n"
        "procedure p0 (c)\n  then\n    call d.p0 (a.item)\n    b := c\n"
        "  else\n    cut a, a\n  end\nend\n"
    )
    program = parse(text)
    want = Analysis(program, AnalysisConfig()).run().relation
    assert WholeRelation(program, AnalysisConfig()).run().relation == want


# (mode, dot budget): summary keys, result pairs and the first 16 hex digits
# of the sha256 of the rendered result.
WORST_CASE = {
    ("may", 2): (25, 19, "1953da2124bd8651"),
    ("may", 3): (41, 33, "877a62c0c5bf63a5"),
    ("may", 4): (61, 61, "c51754cd4d56c940"),
    ("may", 5): (85, 123, "198b36a63946e853"),
    ("must", 2): (8, 1, "33dba74f881adca1"),
    ("must", 3): (10, 1, "33dba74f881adca1"),
    ("must", 4): (12, 1, "33dba74f881adca1"),
    ("must", 5): (14, 1, "33dba74f881adca1"),
}


def test_worst_case_keys_and_pairs():
    # The budget multiplies the work here, so a change to the memo or to a
    # relation kernel must leave every one of these results byte-identical.
    path = os.path.join(os.path.dirname(PROGRAMS), "bench", "worst_case.e2")
    with open(path, encoding="utf-8") as handle:
        program = parse(handle.read())
    got = {}
    for mode, max_dots in WORST_CASE:
        result = analyze(program, config=AnalysisConfig(mode, max_dots))
        digest = hashlib.sha256(render_relation(result.relation).encode()).hexdigest()
        got[mode, max_dots] = (result.summary_keys, len(result.relation), digest[:16])
    assert got == WORST_CASE


# -- reduced paths and metamorphic laws on e1/e2 programs ----------------------------

def workload_program(seed):
    """A bench/gen.py program as the interproc workload draws them: seed
    mod 3 picks e1 at size 12, acyclic e2 at size 6 or recursive e2 at
    size 8.  Returns its text and level."""
    rng = random.Random(seed)
    kind = seed % 3
    if kind == 2:
        return GEN.recursive_program(rng, 8), "e2"
    level = ("e1", "e2")[kind]
    return GEN.interproc_program(rng, level, (12, 6)[kind]), level


def on_dotted_targets(text):
    """text with every call qualified by a variable v qualified by v.first
    instead, so that returning from it cancels two segment pairs."""
    return re.sub(r"call ([a-z]+)\.(p\d)", r"call \1.first.\2", text)


def test_every_relation_an_analysis_builds_holds_reduced_paths():
    # paths.concat cancels only at the junction, which is exact only while
    # every operand is reduced.  The callee-frame relations of qualified
    # calls are where x' segments occur: entries in the memo, exits and
    # keys in the table.
    worst_case = os.path.join(os.path.dirname(PROGRAMS), "bench", "worst_case.e2")
    with open(worst_case, encoding="utf-8") as handle:
        analyses = [Analysis(parse(handle.read()), AnalysisConfig(mode, 3))
                    for mode in ("may", "must")]
    analyses += [fixture_analysis(name, mode) for name in FIXTURES
                 if not name.endswith(".e0") for mode in ("may", "must")]
    for seed in range(90):
        if seed % 3:  # the two e2 kinds
            text, level = workload_program(seed)
            analyses += [Analysis(parse(source, level=level), AnalysisConfig(mode))
                         for source in {text, on_dotted_targets(text)}
                         for mode in ("may", "must")]
    negated = 0
    for analysis in analyses:
        analysis.run()
        relations = [entry for _, entry in analysis.table]
        relations += list(analysis.table.values()) + list(analysis.memo.values())
        paths = {p for a in relations for pair in a for p in pair}
        assert all(reduced(p) for p in paths), [p for p in paths if not reduced(p)]
        negated += any(has_negation(p) for p in paths)
    assert negated > 50, negated


def renamed(text):
    """text with every identifier but Main and the keywords renamed through
    an order-reversing bijection, and that bijection."""
    names = sorted(set(re.findall(r"[A-Za-z][A-Za-z0-9_]*", text)) - KEYWORDS - {MAIN})
    mapping = {name: f"v{len(names) - i:03d}" for i, name in enumerate(names)}
    mapping[MAIN] = MAIN
    return re.sub(r"[A-Za-z][A-Za-z0-9_]*", lambda m: mapping.get(m[0], m[0]), text), mapping


def renamed_relation(a, mapping):
    def segment(seg):
        if seg.endswith(NEG_MARK):
            return negate_segment(mapping[negate_segment(seg)])
        return mapping[seg]

    return rel.from_cliques((tuple(map(segment, e)), tuple(map(segment, f))) for e, f in a)


def test_renaming_identifiers_renames_every_summary():
    # The order reversal flips how pairs are oriented and sorted, so a
    # result that leaned on name order would change here.
    for seed in range(150):
        text, level = workload_program(seed)
        for source in {text, on_dotted_targets(text)}:
            other, mapping = renamed(source)
            for mode in ("may", "must"):
                config = AnalysisConfig(mode, 3)
                want = Analysis(parse(source, level=level), config)
                got = Analysis(parse(other, level=level), config)
                assert renamed_relation(want.run().relation, mapping) == got.run().relation, seed
                assert got.table == {
                    (mapping[name], renamed_relation(entry, mapping)):
                        renamed_relation(exit, mapping)
                    for (name, entry), exit in want.table.items()
                }, seed


def test_a_larger_initial_relation_never_removes_a_pair():
    for seed in range(150):
        text, level = workload_program(seed)
        program = parse(text, level=level)
        rng = random.Random(seed)
        e, f = rng.sample(sorted(p for p in program.expressions if dot_count(p) <= 3), 2)
        for mode in ("may", "must"):
            config = AnalysisConfig(mode, 3)
            small = analyze(program, EMPTY, config).relation
            assert small <= analyze(program, rel.from_cliques([(e, f)]), config).relation, seed


def outlined(program, rng):
    """program with a random top-level slice of one procedure's body moved
    into a new formal-less procedure, called unqualified in its place."""
    proc = rng.choice([p for p in program.procedures if p.body])
    lo = rng.randrange(len(proc.body))
    hi = rng.randint(lo + 1, len(proc.body))
    body = proc.body[:lo] + (Call((), "outlined"),) + proc.body[hi:]
    procedures = tuple(Procedure(p.name, p.formals, body) if p is proc else p
                       for p in program.procedures)
    return Program(procedures + (Procedure("outlined", (), proc.body[lo:hi]),), program.level)


def test_outlining_a_slice_into_a_procedure_keeps_the_result():
    for seed in range(150):
        text, level = workload_program(seed)
        program = parse(text, level=level)
        rng = random.Random(seed)
        for mode in ("may", "must"):
            config = AnalysisConfig(mode, 3)
            want = analyze(program, config=config).relation
            assert analyze(outlined(program, rng), config=config).relation == want, (seed, mode)


# -- kernels and program facts in whole analyses -------------------------------------

def test_subst_agrees_with_copying_version_on_every_recorded_call(monkeypatch):
    # Every assignment and formal binding the fixtures (at their header
    # --init) and 300 bench/gen.py programs make, in both modes: the
    # split-free sources take subst's one-scan path, the dotted ones the
    # quotient, and both must agree with the copying version.
    calls = {}
    subst = rel.subst

    def recording(*args):
        out = calls[args] = subst(*args)
        return out

    monkeypatch.setattr(rel, "subst", recording)
    for name in FIXTURES:
        for mode in ("may", "must"):
            fixture_analysis(name, mode).run()
    for seed in range(300):
        program, init = generated(seed)
        for mode in ("may", "must"):
            Analysis(program, AnalysisConfig(mode=mode), init).run()
    split_free = sum(len(y) <= 1 for _, _, y, _ in calls)
    assert 0 < split_free < len(calls)
    for (a, x, y, max_dots), out in calls.items():
        assert out == ref_subst(a, x, y, max_dots), (a, x, y, max_dots)


@pytest.mark.parametrize("name", FIXTURES + ["gen-%d" % seed for seed in range(12)])
def test_one_parsed_program_serves_every_mode_and_budget(name):
    # The program's facts are read when it is built and shared by every
    # analysis, so the order of modes and budgets must not matter.
    if name.startswith("gen-"):
        program, init = generated(int(name[4:]))
        text, level = pretty(program), program.level
    else:
        text, level, init = fixture_source(name)
    runs = [(mode, max_dots) for max_dots in (None, 1) for mode in ("may", "must")]
    fresh = {run_: outcome(Analysis(parse(text, level=level), AnalysisConfig(*run_), init), False)
             for run_ in runs}
    for order in (runs, runs[::-1], runs[1::2] + runs[::2]):
        program = parse(text, level=level)
        for run_ in order:
            got = outcome(Analysis(program, AnalysisConfig(*run_), init), False)
            assert got == fresh[run_], run_


# -- trace ---------------------------------------------------------------------------

def test_trace_one_point_per_top_level_instruction():
    res = Analysis(parse("x := y\nz := x", level="e0")).run_with_trace()
    assert len(res.trace) == 2
    assert res.trace[0].label == "x := y"
    assert res.trace[1].relation == res.relation


def test_trace_shows_loop_chain():
    res = Analysis(
        parse("loop x := y ; y := z ; z := x end", level="e0"),
        init=lit("{c,y},{d,z}"),
    ).run_with_trace()
    labels = [p.label for p in res.trace]
    assert labels[:3] == ["t_0", "t_1", "t_2"]
    chain = [render_relation(p.relation) for p in res.trace[:3]]
    assert chain == [
        "{c, y}, {d, z}",
        "{c, x, z}, {c, y}, {d, y}, {d, z}",
        "{c, x, z}, {c, y}, {d, x, z}, {d, y}",
    ]


def test_trace_context_carries_entry_relation():
    res = Analysis(parse("z := f", level="e0"), init=lit("{b,c},{f,g,x},{y,z}")).run_with_trace()
    assert res.trace[0].context == "Main from {b, c}, {f, g, x}, {y, z}"
    assert render_relation(res.trace[0].relation) == "{b, c}, {f, g, x, z}"


def test_trace_points_compare_by_value():
    # outcome() compares whole traces of two analyses.
    text = read_program("mutual_recursion.e1")
    first = Analysis(parse(text, level="e1")).run_with_trace().trace
    second = Analysis(parse(text, level="e1")).run_with_trace().trace
    assert first == second and first is not second
    point = TracePoint("Main from {}", "x := y", lit("{x,y}"))
    assert point == TracePoint("Main from {}", "x := y", lit("{x,y}"))
    assert point != TracePoint("Main from {}", "x := y", lit("{}"))
    assert hash(point) == hash(TracePoint("Main from {}", "x := y", lit("{x,y}")))
    with pytest.raises(AttributeError):
        point.label = "skip"


# -- configuration ----------------------------------------------------------------------

def test_config_is_an_immutable_value():
    assert AnalysisConfig() == AnalysisConfig("may", None)
    assert AnalysisConfig("must", 2) == AnalysisConfig(mode="must", max_dots=2)
    assert AnalysisConfig("must") != AnalysisConfig("may")
    assert repr(AnalysisConfig("must", 2)) == "AnalysisConfig(mode='must', max_dots=2)"
    with pytest.raises(AttributeError):
        MUST.mode = "may"


def test_dot_budget_is_at_least_three():
    prog = parse("x := y", level="e2")
    assert Analysis(prog, AnalysisConfig(), EMPTY).max_dots == 3


def test_dot_budget_covers_the_deepest_program_path():
    prog = parse("x := y.a.b.c.d", level="e2")
    assert Analysis(prog, AnalysisConfig(), EMPTY).max_dots == 4


def test_dot_budget_covers_the_deepest_init_path():
    prog = parse("x := y", level="e2")
    init = lit("{a.b.c.d.e, u}")
    assert Analysis(prog, AnalysisConfig(), init).max_dots == 4


def test_dot_budget_override_beats_the_derived_budget():
    prog = parse("x := y.a.b.c.d", level="e2")
    assert Analysis(prog, AnalysisConfig(max_dots=1), EMPTY).max_dots == 1


def test_bound_truncates_growth():
    # With a zero bound no dotted pair can be recorded at all.
    got = result_text("z := x.a", config=AnalysisConfig(max_dots=0))
    assert got == "{}"


def test_transfer_body_of_a_bare_body():
    prog = parse("x := y", level="e0")
    body = prog.procedure("Main").body
    out = Analysis(prog, AnalysisConfig(), lit("{y,z}")).transfer_body(lit("{y,z}"), body)
    assert render_relation(out) == "{x, y, z}"


def test_must_mode_program_level():
    text = (
        "procedure Main\n then call q else call q end\nend\n"
        "procedure q\n x := y\nend"
    )
    got = result_text(text, level="e1", config=MUST)
    assert got == "{x, y}"


@pytest.mark.xfail(strict=True, reason="must mode reuses the may completion of x.a")
def test_must_dotted_source_keeps_fields_of_the_current_object_apart():
    # a ~ b relates the current object's fields, not x's, so nothing says
    # that x.b must denote what z does after z := x.a.  Today must mode
    # prints {a, b}, {x, y}, {x.a, z}, {x.b, z}, {y.a, z}, {y.b, z}.
    out = run("z := x.a", init="{x,y},{a,b}", config=MUST).relation
    assert make_pair(parse_path("x.b"), var("z")) not in out


def test_empty_program_yields_empty_relation():
    assert result_text("", level="e0") == "{}"
