"""Every fixture under every --output, run through cli.main in
process and compared with a golden file: stdout, stderr and exit code.

Each run uses the fixture's level (its file extension) and the --init
its header comment asks for.  To regenerate the golden file after an
intended change of output, run this module as a script from the
repository root:

    PYTHONPATH=src python3 tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os

from conftest import fixture_init

from aliascalc.cli import OUTPUTS, main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden", "cli_runs.json")


def fixture_argvs():
    """(key, argv) for each fixture × output, paths relative to the root."""
    for name in sorted(os.listdir(os.path.join(ROOT, "programs"))):
        init = fixture_init(name)
        for output in OUTPUTS:
            argv = [f"programs/{name}", "--level", name[-2:], "--init", init,
                    "--output", output]
            yield f"{name} --output {output}", argv


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def all_runs():
    return {key: run(argv) for key, argv in fixture_argvs()}


def test_every_fixture_and_output_matches_the_golden_file(monkeypatch):
    # argparse wraps its usage line to the terminal width.
    monkeypatch.setenv("COLUMNS", "80")
    with open(GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)
    runs = all_runs()
    assert len(runs) == 78
    assert sorted(runs) == sorted(golden)
    for key, got in runs.items():
        assert got == golden[key], key


if __name__ == "__main__":
    os.chdir(ROOT)
    os.environ["COLUMNS"] = "80"
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(all_runs(), handle, indent=1, sort_keys=True)
        handle.write("\n")
