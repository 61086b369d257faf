"""Self-test of the benchmark itself.

    python3 bench/selftest.py

Checks that
  * the workload text is byte-identical under different PYTHONHASHSEED
    values (the generators never iterate a set),
  * the per-job time limit stops ``worst_case.e2`` and reports it as a
    time-limit failure,
  * the traced counters match counts taken by hand at the fixtures
    (``mutual_recursion_large.e1``: 245 body evaluations, 55 useful,
    17 of 31 keys stale; ``linked_lists.e2``: 271 evaluations, 6 of 22
    stale; one summary key for each e0 fixture),
  * the output checks reject wrong output.

Exits 1 on the first failed check.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import check  # noqa: E402
import workloads  # noqa: E402

DUMP_JOBS = 60


def dump_digest() -> str:
    """sha256 over the inputs of the first jobs of every workload, seeds 0-2."""
    h = hashlib.sha256()
    for workload in workloads.WORKLOADS:
        for seed in range(3):
            stream = workloads.Stream(workload, seed)
            for index in range(DUMP_JOBS):
                job = stream.job(index)
                h.update(f"{job.name}\0{job.text}\0{job.argv}\0".encode())
    return h.hexdigest()


def expect(condition: bool, what: str) -> None:
    print(("ok    " if condition else "FAIL  ") + what)
    if not condition:
        sys.exit(1)


def test_hash_seed_independence() -> None:
    digests = []
    for hash_seed in ("1", "2", "random"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run([sys.executable, __file__, "--dump"], env=env, check=True,
                             stdout=subprocess.PIPE, text=True, timeout=120).stdout
        digests.append(out.strip())
    expect(len(set(digests)) == 1,
           f"workload text identical under PYTHONHASHSEED=1, 2 and random ({digests[0][:16]})")


def test_time_limit() -> None:
    import worker

    with open(os.path.join(BENCH, "worst_case.e2"), encoding="utf-8") as handle:
        job = workloads.Job("worst_case.e2", handle.read(), "e2")
    runner = worker.Runner("interproc")
    start = time.perf_counter()
    try:
        runner.run(job)
        timed_out = False
    except worker.JobTimeout:
        timed_out = True
    elapsed = time.perf_counter() - start
    expect(timed_out and elapsed < worker.TIME_LIMIT_S + 1,
           f"worst_case.e2 stopped by the {worker.TIME_LIMIT_S:g} s limit after {elapsed:.2f} s")


def test_counters() -> None:
    import tracer as tracing
    import worker

    tracer = tracing.install()
    runner = worker.Runner("interproc", tracer)
    want = {
        ("mutual_recursion_large.e1", "may"): dict(keys=31, body_evals=245, useful_evals=55, stale_keys=17),
        ("linked_lists.e2", "may"): dict(keys=22, body_evals=271, stale_keys=6),
    }
    for name, mode in want:
        text, init = workloads.read_fixture(name)
        runner.run(workloads.Job(name, text, name[-2:], init))
        tracer.count_stale()
        record = next(r for r in tracer.runs if r["mode"] == mode)
        tracer.runs.clear()
        got = {k: record[k] for k in want[(name, mode)]}
        expect(got == want[(name, mode)], f"{name} {mode}: {got}")
    e0 = [name for name in workloads.CLI_FIXTURES if name.endswith(".e0")]
    for name in e0:
        text, init = workloads.read_fixture(name)
        runner.run(workloads.Job(name, text, "e0", init))
    keys = [r["keys"] for r in tracer.runs]
    tracer.runs.clear()
    expect(keys == [1] * 2 * len(e0), f"e0 fixtures, may and must: summary keys {keys}")


def test_checks_reject() -> None:
    expect(check.check_golden("mutual_recursion.e1", "{a, c}, {b, x}") is not None,
           "a golden mismatch is reported")
    expect(check.check_within("{x, y}", "{x, z}") is not None,
           "a must pair outside the may result is reported")
    expect(check.check_golden("linked_lists.e2", "{f, g, x.first}") is not None,
           "a missing or spurious membership pair is reported")
    expect(check.check_soundness_report(
        "violation: concrete alias [a, b] not predicted (path: then)\n"
        "checked 2 paths, 1 violations, bounded: no") is not None,
        "a containment violation fails a cli soundness job")
    expect(check.check_cli_soundness("exit 0", "checked 2 paths, 1 violations, bounded: no\n")
           is not None, "a soundness exit code that disagrees with its report is reported")


def main() -> int:
    if sys.argv[1:] == ["--dump"]:
        print(dump_digest())
        return 0
    test_hash_seed_independence()
    test_checks_reject()
    test_time_limit()
    test_counters()
    return 0


if __name__ == "__main__":
    sys.exit(main())
