"""End-to-end checks of the command-line driver: outputs, exit codes,
diagnostics, and byte-stability."""

import io
import os
import subprocess
import sys
from itertools import combinations

import pytest
from conftest import ROOT, fixture_init, read_program

from aliascalc.cli import main
from aliascalc.engine import Analysis, AnalysisConfig, analyze
from aliascalc.lang import MAX_NESTING, MAX_SEGMENTS, parse
from aliascalc.paths import parse_path, render
from aliascalc.relations import EMPTY, parse_relation_literal, quotient

PROGRAMS = "programs"


def stdin_stream(data):
    """A byte stream behind a text layer, as the interpreter sets up
    standard input on POSIX under a strict UTF-8 locale: no newline
    translation, and a decoding the command line must reconfigure (a
    ``StringIO`` has no ``reconfigure``)."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="strict", newline="\n")


def run_cli(argv, stdin_text=None, monkeypatch=None, capsys=None):
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", stdin_stream(stdin_text.encode()))
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


# -- golden relation output ------------------------------------------------------

def test_relation_output_mixed_flow(capsys):
    code, out, _ = run_cli(
        [f"{PROGRAMS}/mixed_flow.e0", "--level", "e0"], capsys=capsys
    )
    assert code == 0
    assert out == "{a, c, h}, {c, e, f}, {c, f, g, y}, {c, g, h}\n"


def test_relation_output_with_init(capsys):
    code, out, _ = run_cli(
        [
            f"{PROGRAMS}/assign_chain.e0",
            "--level",
            "e0",
            "--init",
            "{b,c},{f,g,x},{y,z}",
        ],
        capsys=capsys,
    )
    assert code == 0
    assert out == "{b, c}, {f, g, x, z}\n"


def test_reads_stdin_when_no_file(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["--level", "e0"], stdin_text="x := y", monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 0
    assert out == "{x, y}\n"


def test_dash_file_reads_stdin(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["-", "--level", "e0"], stdin_text="x := y", monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 0
    assert out == "{x, y}\n"


def test_empty_program_prints_empty_relation(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["--level", "e0"], stdin_text="", monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 0
    assert out == "{}\n"


def test_byte_stable_across_runs(capsys):
    argv = [f"{PROGRAMS}/linked_lists.e2", "--output", "relation"]
    first = run_cli(argv, capsys=capsys)
    second = run_cli(argv, capsys=capsys)
    assert first == second
    assert first[0] == 0


def test_printed_relation_is_accepted_back_as_init(capsys, monkeypatch):
    code, out, _ = run_cli(
        [f"{PROGRAMS}/mutual_recursion.e1", "--level", "e1"], capsys=capsys
    )
    assert code == 0
    printed = out.strip()
    assert parse_relation_literal(printed)
    code2, out2, _ = run_cli(
        ["--level", "e0", "--init", printed],
        stdin_text="skip",
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code2 == 0
    assert out2.strip() == printed


# -- other output modes -------------------------------------------------------------

def test_trace_output_for_loop(capsys):
    code, out, _ = run_cli(
        [
            f"{PROGRAMS}/swap_loop.e0",
            "--level",
            "e0",
            "--init",
            "{c,y},{d,z}",
            "--output",
            "trace",
        ],
        capsys=capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "-- Main from {c, y}, {d, z}"
    assert lines[1] == "  t_0  =>  {c, y}, {d, z}"
    assert "t_1" in out and "t_2" in out
    assert lines[-1].endswith("{c, x, z}, {c, y}, {d, x, z}, {d, y}")


def test_trace_output_straight_line(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["--level", "e0", "--output", "trace"],
        stdin_text="x := y ; z := x",
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    assert out.splitlines() == [
        "-- Main from {}",
        "  x := y  =>  {x, y}",
        "  z := x  =>  {x, y, z}",
    ]


def test_trace_labels_cover_every_form(capsys, monkeypatch):
    program = "\n".join([
        "procedure Main",
        "  skip",
        "  create u",
        "  forget v",
        "  cut a, b",
        "  x := y.a",
        "  then a := x else skip end",
        "  loop y := a end",
        "  iterate 2 b := y end",
        "  call p",
        "  call x.q (a, Current)",
        "end",
        "procedure p",
        "  skip",
        "end",
        "procedure q (c, d)",
        "  e := c",
        "end",
    ])
    code, out, _ = run_cli(
        ["--output", "trace"],
        stdin_text=program,
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    assert out.splitlines() == [
        "-- Main from {}",
        "  skip  =>  {}",
        "  create u  =>  {}",
        "  forget v  =>  {}",
        "  cut a, b  =>  {}",
        "  x := y.a  =>  {x, y.a}",
        "  then ... else ... end  =>  {a, x, y.a}",
        "  t_0  =>  {a, x, y.a}",
        "  t_1  =>  {a, x, y}, {a, x, y.a}",
        "  loop ... end  =>  {a, x, y}, {a, x, y.a}",
        "  iterate 2 ... end  =>  {a, b, x, y}, {a, x, y.a}",
        "  call p  =>  {a, b, x, y}, {a, x, y.a}",
        "  call x.q (a, Current)  =>  {a, b, x, x.e, y}, {a, x, x.e, y.a}",
        "-- p from {a, b, x, y}, {a, x, y.a}",
        "  skip  =>  {a, b, x, y}, {a, x, y.a}",
        # (b, y) names neither x, nor Current, nor a prefix of an actual:
        # it is carried around the call, so q's entry does not hold it.
        "-- q from {Current, c, x'.a, x'.b}, {Current, c, x'.a, x'.y},"
        " {Current, c, x'.a, x'.y.a}, {d, x'}",
        "  e := c  =>  {Current, c, e, x'.a, x'.b}, {Current, c, e, x'.a, x'.y},"
        " {Current, c, e, x'.a, x'.y.a}, {d, x'}",
    ]


def test_assertion_output(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["--level", "e0", "--output", "assertion"],
        stdin_text="create x ; create y ; z := y",
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    assert out == (
        "Current ≠ x and Current ≠ y and Current ≠ z"
        " and x ≠ y and x ≠ z\n"
    )


def test_assertion_omits_aliased_pairs(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["--level", "e0", "--output", "assertion"],
        stdin_text="x := y",
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    assert out == "Current ≠ x and Current ≠ y\n"
    assert "x ≠ y" not in out


def test_assertion_omits_pairs_aliased_by_completion(capsys, monkeypatch):
    # x.a and y.a are no stored pair, but x ~ y completes them to one; the
    # assertion used to read the stored pairs alone and print x.a ≠ y.a.
    text = "x := y ; z := x.a ; w := y.a"
    code, out, _ = run_cli(
        ["--output", "assertion"], stdin_text=text, monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 0
    assert "x.a ≠ y.a" not in out
    assert out == (
        "Current ≠ w and Current ≠ x and Current ≠ x.a and Current ≠ y"
        " and Current ≠ y.a and Current ≠ z and w ≠ x and w ≠ y and x ≠ x.a"
        " and x ≠ y.a and x ≠ z and x.a ≠ y and y ≠ y.a and y ≠ z\n"
    )
    assert ("y", "a") in quotient(analyze(parse(text), EMPTY).relation, ("x", "a"), 3)


@pytest.mark.parametrize(
    "name", sorted(n for n in os.listdir(os.path.join(ROOT, PROGRAMS)) if n.endswith(".e2")))
def test_assertion_clauses_are_exactly_the_pairs_aliased_denies(name, capsys):
    # Each pair of written expressions is printed apart exactly when
    # neither is in the other's quotient at the analysis's budget.
    text = read_program(name)
    init_text = fixture_init(name)
    code, out, _ = run_cli(
        [f"{PROGRAMS}/{name}", "--init", init_text, "--output", "assertion"], capsys=capsys
    )
    assert code == 0
    printed = set()
    if out != "true\n":
        for clause in out.rstrip("\n").split(" and "):
            lhs, rhs = clause.split(" ≠ ")
            printed.add((parse_path(lhs), parse_path(rhs)))
    program, init = parse(text), parse_relation_literal(init_text)
    relation = analyze(program, init).relation
    budget = Analysis(program, AnalysisConfig(), init).max_dots
    apart = {
        tuple(sorted((e, f), key=render))
        for e, f in combinations(program.expressions, 2)
        if f not in quotient(relation, e, budget) and e not in quotient(relation, f, budget)
    }
    assert printed == apart
    assert printed


def test_dot_output_shape(capsys, monkeypatch):
    code, out, _ = run_cli(
        [
            "--level",
            "e0",
            "--output",
            "dot",
            "--init",
            "{c,x,z},{c,y},{d,x,z},{d,y}",
        ],
        stdin_text="skip",
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "digraph aliases {"
    assert lines[1] == '  source [label="Current", shape=doubleoctagon];'
    assert lines[-1] == "}"
    assert out.count("->") == 4
    assert out.count("shape=circle") == 4
    assert 'source -> v0 [label="c, x, z"];' in out
    assert 'source -> v3 [label="d, y"];' in out


def test_modvars_output(capsys):
    code, out, _ = run_cli(
        [f"{PROGRAMS}/mutual_recursion_large.e1", "--level", "e1", "--output", "modvars"],
        capsys=capsys,
    )
    assert code == 0
    assert out.splitlines() == ["Main: a, b, f, g, x, z", "q: m"]


def test_modvars_empty_set_prints_bare_name(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["--level", "e0", "--output", "modvars"],
        stdin_text="skip",
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    assert out == "Main:\n"


def test_modvars_follows_the_dot_budget(capsys, monkeypatch):
    program = "procedure Main\n  call x.p\nend\nprocedure p\n  a := b\nend\n"
    outputs = []
    for budget in (["--max-dots", "0"], []):
        code, out, _ = run_cli(["--output", "modvars", *budget], stdin_text=program,
                               monkeypatch=monkeypatch, capsys=capsys)
        assert code == 0
        outputs.append(out.splitlines())
    # x.a has one dot: over a budget of 0, within the default of 3.
    assert outputs == [["Main:", "p: a"], ["Main: x.a", "p: a"]]


def test_soundness_clean(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["--level", "e0", "--output", "soundness"],
        stdin_text="x := y ; then z := x else skip end",
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    assert "0 violations" in out


def test_soundness_violation_exits_3(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["--level", "e0", "--output", "soundness"],
        stdin_text="x := y ; cut x, y",
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 3
    assert "cut" in out
    assert "checked 1 paths, 1 violations, bounded: no" in out


# -- exit codes and diagnostics ----------------------------------------------------------

def test_usage_error_unknown_option(capsys):
    code, _, err = run_cli(["--no-such-flag"], capsys=capsys)
    assert code == 1
    assert "usage:" in err


def test_usage_error_soundness_needs_e0(capsys):
    code, _, err = run_cli(
        ["--output", "soundness", "--level", "e1"], capsys=capsys
    )
    assert code == 1
    assert "requires --level e0" in err


def test_usage_error_mode_option_is_gone(capsys, monkeypatch):
    # Every output reads the one may analysis; must mode is a library
    # setting only, so --mode is an unknown option, for soundness too.
    code, out, _ = run_cli(["--help"], capsys=capsys)
    assert code == 0
    assert "--mode" not in out and "must" not in out
    for argv in (["--mode", "must", "-"], ["--mode", "may"],
                 ["--level", "e0", "--mode", "must", "--output", "soundness"]):
        code, out, err = run_cli(
            argv, stdin_text="then x := y else skip end", monkeypatch=monkeypatch, capsys=capsys
        )
        assert (code, out) == (1, "")
        assert "unrecognized arguments: --mode" in err


def test_usage_error_bad_init(capsys):
    code, _, err = run_cli(["--init", "{a,b", "--level", "e0"], capsys=capsys)
    assert code == 1
    assert "bad --init" in err


@pytest.mark.parametrize("literal", ["{é,x}", "{a,b},", "{a b}"])
def test_usage_error_bad_init_names_and_separators(literal, capsys, monkeypatch):
    # --init names follow the program's name rule, so no non-ASCII letter.
    code, out, err = run_cli(
        ["-", "--level", "e0", "--init", literal],
        stdin_text="skip", monkeypatch=monkeypatch, capsys=capsys,
    )
    assert (code, out) == (1, "")
    assert "bad --init" in err


def test_stdin_is_read_as_utf8_whatever_the_locale(capsys, monkeypatch):
    # A locale's strict decoding would raise on the byte; stdin is read as a
    # file is, so the byte is a diagnostic at its position.
    monkeypatch.setattr(sys, "stdin", stdin_stream(b"x := y\xff\n"))
    code, out, err = run_cli(["-", "--level", "e0"], capsys=capsys)
    assert (code, out) == (2, "")
    assert err == "<stdin>:1:7: unexpected character '\\udcff'\n"


def test_stdin_reads_carriage_returns_as_a_file_does(capsys, monkeypatch, tmp_path):
    source = tmp_path / "cr.e0"
    source.write_bytes(b"x := y\rz := x\r")
    for argv, stdin_text in (([str(source)], None), (["-"], "x := y\rz := x\r")):
        code, out, _ = run_cli(
            argv + ["--level", "e0"], stdin_text=stdin_text, monkeypatch=monkeypatch, capsys=capsys
        )
        assert (code, out) == (0, "{x, y, z}\n"), argv


def test_usage_error_missing_file(capsys):
    code, _, err = run_cli(["no/such/file.e0"], capsys=capsys)
    assert code == 1
    assert "No such file" in err or "no/such/file.e0" in err


def test_usage_error_unroll_option_is_gone(capsys, monkeypatch):
    # The soundness check runs every loop to its fixpoint, so there is no
    # unrolling bound to set.
    code, out, _ = run_cli(["--help"], capsys=capsys)
    assert code == 0
    assert "--unroll" not in out
    for argv in (["--unroll", "2", "-"], ["--level", "e0", "--output", "soundness", "--unroll", "4"]):
        code, out, err = run_cli(
            argv, stdin_text="loop x := y end", monkeypatch=monkeypatch, capsys=capsys
        )
        assert (code, out) == (1, "")
        assert "unrecognized arguments: --unroll" in err


def test_usage_error_negative_max_dots(capsys):
    code, _, err = run_cli(["--max-dots", "-1"], capsys=capsys)
    assert code == 1
    assert "--max-dots" in err


def test_parse_error_names_file_line_col(tmp_path, capsys):
    bad = tmp_path / "broken.e0"
    bad.write_text("x := y ;\ny :=\n")
    code, out, err = run_cli([str(bad), "--level", "e0"], capsys=capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"{bad}:2:")
    assert ":=" in err or "expected" in err


def test_parse_error_from_stdin_names_stdin(capsys, monkeypatch):
    code, _, err = run_cli(
        ["--level", "e0"],
        stdin_text="call q ()",
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 2
    assert err.startswith("<stdin>:1:1:")
    assert "requires level e1" in err


def test_non_utf8_file_is_a_diagnostic(tmp_path, capsys):
    # The decoder used to raise UnicodeDecodeError, a traceback with exit 1;
    # the same bytes on standard input already gave a positioned diagnostic.
    bad = tmp_path / "bytes.e0"
    bad.write_bytes(b"x := y\n\xff\n")
    code, out, err = run_cli([str(bad), "--level", "e0"], capsys=capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"{bad}:2:1: unexpected character")


def test_setter_hint_diagnostic(capsys, monkeypatch):
    code, _, err = run_cli(
        [],
        stdin_text="x.a := y",
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 2
    assert "setter call" in err
    assert "call x.set_a" in err


def test_call_without_a_target_is_a_diagnostic(capsys, monkeypatch):
    code, out, err = run_cli(
        ["-", "--level", "e1"],
        stdin_text="procedure Main\n  call Current\nend\n",
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert (code, out, err) == (2, "", "<stdin>:2:3: call target must name a procedure\n")


def test_level_fence_diagnostic_position(capsys, monkeypatch):
    code, _, err = run_cli(
        ["--level", "e1"],
        stdin_text="x := y.a",
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 2
    assert err.startswith("<stdin>:1:6:")
    assert "requires level e2" in err


def test_nesting_beyond_limit_is_a_diagnostic(capsys, monkeypatch):
    # 500 nested blocks used to overflow the parser, 330 nested loops the
    # engine; either way the first block past the limit is reported.
    col = 5 * MAX_NESTING + 1
    for text in ("then " * 500 + "skip" + " else end" * 500,
                 "loop " * 330 + "skip" + " end" * 330):
        code, out, err = run_cli(
            ["--level", "e0"], stdin_text=text, monkeypatch=monkeypatch, capsys=capsys
        )
        assert code == 2
        assert out == ""
        assert err == f"<stdin>:1:{col}: blocks nested more than {MAX_NESTING} deep\n"


def test_nesting_at_limit_analyses(capsys, monkeypatch):
    n = MAX_NESTING
    for text in ("then " * n + "x := y" + " else end" * n,
                 "loop " * n + "x := y" + " end" * n):
        code, out, _ = run_cli(
            ["--level", "e0"], stdin_text=text, monkeypatch=monkeypatch, capsys=capsys
        )
        assert code == 0
        assert out == "{x, y}\n"


def test_path_beyond_limit_is_a_diagnostic(capsys, monkeypatch):
    # A source of about 990 segments used to end in a RecursionError
    # traceback from the completion in relations.quotient, with exit 1.
    for n in (MAX_SEGMENTS + 1, 5000):
        code, out, err = run_cli(
            [], stdin_text="x := y\nz := x" + ".a" * (n - 1),
            monkeypatch=monkeypatch, capsys=capsys,
        )
        assert code == 2
        assert out == ""
        assert err == f"<stdin>:2:6: path has more than {MAX_SEGMENTS} segments\n"


def test_path_at_limit_analyses_inside_the_deepest_nesting(capsys, monkeypatch):
    # A source at the segment limit completes inside the deepest nesting
    # the parser accepts: 100 nested iterate blocks, and 50 nested calls
    # that each sit in an iterate block.
    source = "x" + ".a" * (MAX_SEGMENTS - 1)
    n = MAX_NESTING
    calls = ["procedure Main\n  call p1\nend"]
    calls += [f"procedure p{k}\n  iterate 2 call p{k + 1} end\nend" for k in range(1, n // 2)]
    calls.append(f"procedure p{n // 2}\n  z := {source}\nend")
    for text in ("iterate 2 " * n + f"z := {source}" + " end" * n, "\n".join(calls)):
        code, out, _ = run_cli(
            [], stdin_text=text, monkeypatch=monkeypatch, capsys=capsys
        )
        assert code == 0
        assert out == f"{{{source}, z}}\n"


def test_iterate_count_too_long_to_convert_is_a_diagnostic(capsys, monkeypatch):
    # A count longer than int() converts (4300 digits by default) used to
    # end in a ValueError traceback with exit 1.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run_cli(
            ["--level", "e0"], stdin_text="skip\niterate " + "7" * 4301 + " x := y end",
            monkeypatch=monkeypatch, capsys=capsys,
        )
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 2
    assert out == ""
    assert err == "<stdin>:2:9: iteration count of 4301 digits is too long\n"


@pytest.mark.parametrize("text, diagnostic", [
    ("procedure Main\n skip\nend\nprocedure Main\n skip\nend",
     "<stdin>:4:1: procedure 'Main' is defined more than once"),
    ("procedure q\n skip\nend", "<stdin>:1:1: no procedure named 'Main'"),
    ("procedure q\n skip\nend\n procedure Main (x)\n skip\nend",
     "<stdin>:4:2: 'Main' must not take arguments"),
])
def test_program_errors_name_the_declaration(text, diagnostic, capsys, monkeypatch):
    code, out, err = run_cli([], stdin_text=text, monkeypatch=monkeypatch, capsys=capsys)
    assert (code, out, err) == (2, "", diagnostic + "\n")


# -- installed entry point ------------------------------------------------------------

def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "aliascalc.cli", "-", "--level", "e0"],
        input="x := y",
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "{x, y}\n"


def test_soundness_of_a_long_iterate_returns_quickly():
    # The oracle reads the count off the cycle of its passes, as the
    # analysis does, instead of running 10^20 passes: a swap, and a body
    # that allocates, whose fresh object is numbered like the one it
    # replaces.
    for body in ("t := x ; x := y ; y := t", "create x"):
        proc = subprocess.run(
            [sys.executable, "-m", "aliascalc.cli", "-", "--level", "e0", "--output", "soundness"],
            input=f"iterate 99999999999999999999\n  {body}\nend\n",
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (0, ""), body
        assert proc.stdout == "checked 1 paths, 0 violations, bounded: no\n", body


def loaded_modules(statement):
    proc = subprocess.run(
        [sys.executable, "-c", f"{statement}\nimport sys\nprint(*sys.modules)"],
        capture_output=True,
        text=True,
        check=True,
    )
    return set(proc.stdout.split())


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # Importing them cost every alias-calc run about 10 ms of start-up, and
    # decorating the records with dataclasses about as much again.
    added = loaded_modules("import aliascalc.cli") - loaded_modules("pass")
    assert "aliascalc.cli" in added
    assert not {"dataclasses", "inspect"} & added


UNUSED_BY_THE_ANALYSIS = {"aliascalc.oracle", "aliascalc.modvars"}


@pytest.mark.parametrize("output", [None, "relation", "trace"])
def test_relation_and_trace_runs_load_neither_oracle_nor_modvars(output):
    # Only the soundness and modvars outputs import the modules they run,
    # and the package itself imports none of its modules.
    statement = "import aliascalc.cli"
    if output is not None:
        statement += f"\naliascalc.cli.main(['{PROGRAMS}/linked_lists.e2', '--output', '{output}'])"
    loaded = loaded_modules(statement)
    assert "aliascalc.engine" in loaded
    assert not UNUSED_BY_THE_ANALYSIS & loaded
