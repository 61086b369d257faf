"""README's examples, run as written: each ``$ `` command of the Quick
start block in a shell, with ``alias-calc`` run as ``python -m
aliascalc.cli``, and the Library use snippet."""

import contextlib
import io
import os
import re
import shlex
import subprocess
import sys

from conftest import ROOT

with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
    README = handle.read()


def block(heading, language):
    """The first fenced block of a language under a ``## `` heading."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def quick_start():
    """(command, expected stdout lines, expected exit code) per ``$ ``
    line; a following ``$ echo $?`` gives the exit code, else it is 0."""
    runs = []
    lines = iter(block("Quick start", "sh").splitlines())
    for line in lines:
        if line == "$ echo $?":
            runs[-1][2] = int(next(lines))
        elif line.startswith("$ "):
            runs.append([line[2:], [], 0])
        elif line:
            runs[-1][1].append(line)
    return runs


def test_quick_start_commands_print_what_the_readme_shows():
    runs = quick_start()
    assert len(runs) == 3
    cli = f"{shlex.quote(sys.executable)} -m aliascalc.cli"
    paths = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    for command, lines, code in runs:
        proc = subprocess.run(
            command.replace("alias-calc", cli), shell=True, cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=60,
        )
        assert (proc.stdout.splitlines(), proc.returncode) == (lines, code), command
        assert proc.stderr == "", command


def test_library_snippet_prints_what_the_readme_shows():
    snippet = block("Library use", "python")
    expected = re.search(r"print\(.*\)\s+# (.*)", snippet).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(snippet, {})
    assert out.getvalue() == expected + "\n"
