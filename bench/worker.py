"""One workload process: set up, run jobs in a closed loop, check outputs.

    python3 bench/worker.py --workload W --seed S --seconds T --start I [--trace]

Runs the workload's job stream from index ``I``, one job at a time, until
the jobs have taken ``T`` seconds.  Prints one JSON line with the time of
the first job, every job time, the failures, a hash of each distinct
job's output and the peak RSS; with ``--trace``, also the per-layer
aggregates.  ``bench/run.py`` starts this process; it needs
``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import subprocess
import sys
import time
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import check  # noqa: E402
import workloads  # noqa: E402

# The user-facing limit on one verdict: a job that takes longer fails.
TIME_LIMIT_S = 10.0
OUT_DIR = os.path.join(workloads.ROOT, ".bench_out")


class JobTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise JobTimeout()


class Runner:
    """Runs one workload's jobs; ``run(job)`` returns the printed output."""

    def __init__(self, workload: str, tracer=None):
        self.workload = workload
        self.tracer = tracer
        if workload == "cli":
            self.env = dict(os.environ, PYTHONPATH=os.path.join(workloads.ROOT, "src"))
            return
        from aliascalc import engine, lang, relations

        self.engine, self.lang, self.rel = engine, lang, relations
        signal.signal(signal.SIGALRM, _alarm)

    def run(self, job: workloads.Job) -> str:
        if self.workload == "cli":
            return self.run_cli(job)
        signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
        try:
            return self.run_interproc(job)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)

    def run_interproc(self, job: workloads.Job) -> str:
        engine, rel = self.engine, self.rel
        program = self.lang.parse(job.text, level=job.level)
        init = rel.parse_relation_literal(job.init)
        may = engine.analyze(program, init, engine.AnalysisConfig(mode="may"))
        must = engine.analyze(program, init, engine.AnalysisConfig(mode="must"))
        return rel.render_relation(may.relation) + "\n" + rel.render_relation(must.relation)

    def run_cli(self, job: workloads.Job) -> str:
        if self.tracer is None:
            cmd = [sys.executable, "-m", "aliascalc.cli", *job.argv]
        else:
            stats = os.path.join(OUT_DIR, f"cli-{os.getpid()}.json")
            cmd = [sys.executable, os.path.join(BENCH, "tracer.py"), stats, "--", *job.argv]
        try:
            proc = subprocess.run(cmd, env=self.env, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True, timeout=TIME_LIMIT_S)
        except subprocess.TimeoutExpired:
            raise JobTimeout() from None
        if self.tracer is not None:
            with open(stats, encoding="utf-8") as handle:
                merge(self.tracer, json.load(handle))
            os.remove(stats)
        if proc.stderr:
            raise RuntimeError(proc.stderr.strip().splitlines()[-1])
        return f"exit {proc.returncode}\n{proc.stdout}"


def merge(tracer, child: dict) -> None:
    for key, value in child["total"].items():
        tracer.total[key] += value
    for key, value in child["self"].items():
        tracer.self_time[key] += value
    for key, value in child["counts"].items():
        tracer.counts[key] += value
    for key, value in child["maxima"].items():
        tracer.maxima[key] = max(tracer.maxima[key], value)
    tracer.child_excluded += child["excluded_s"]


def verify(workload: str, job: workloads.Job, output: str):
    """The reason a job's output is wrong, or None."""
    if workload == "interproc":
        may, must = output.split("\n")
        return (job.fixture and check.check_golden(job.fixture, may)) or check.check_within(must, may)
    code, _, printed = output.partition("\n")
    if job.output == "soundness":
        return check.check_cli_soundness(code, printed)
    if code != "exit 0":
        return code
    if job.output == "trace":
        return check.check_trace(job.fixture, printed)
    return check.check_golden(job.fixture, printed)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--start", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, make the first job, report the time and stop")
    args = ap.parse_args()

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.install()
        os.makedirs(OUT_DIR, exist_ok=True)
    stream = workloads.Stream(args.workload, args.seed)
    runner = Runner(args.workload, tracer)
    if args.setup_only:
        stream.job(args.start)
        print(json.dumps({"first_job_at": time.monotonic()}))
        return 0

    # Only job durations are timed; making the next program and checking
    # the last output happen between jobs.
    times, failures, outputs, wrong, fixture_runs = [], [], {}, {}, {}
    first_job_at = None
    index = args.start
    measured = 0.0
    while measured < args.seconds:
        job = stream.job(index)
        if tracer is not None:
            tracer.job = index
            tracer.child_excluded = 0.0
        if first_job_at is None:
            first_job_at = time.monotonic()
        start = perf_counter()
        output, reason = None, None
        try:
            output = runner.run(job)
        except JobTimeout:
            reason = f"time limit {TIME_LIMIT_S:g} s"
        except Exception as exc:  # the job failed; record it and go on
            reason = f"error: {type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
        if tracer is not None:
            elapsed -= tracer.child_excluded
            tracer.count_stale()
            for record in tracer.runs:
                if job.fixture:
                    fixture_runs.setdefault((job.name, record["mode"]), dict(record, name=job.name))
            tracer.runs.clear()
        times.append(elapsed)
        measured += elapsed
        if output is not None:
            digest = hashlib.sha256(output.encode()).hexdigest()
            if job.key not in outputs:
                outputs[job.key] = [index, digest]
                # Later passes are held to this output, in this process and
                # (by bench/run.py) in the others.
                if index < stream.pool:
                    reason = verify(args.workload, job, output)
                if reason:
                    reason = wrong[job.key] = "wrong output: " + reason
            elif outputs[job.key][1] != digest:
                reason = "output differs from its first run"
            else:
                reason = wrong.get(job.key)
        if reason is not None:
            failures.append([index, job.name, reason])
        index += 1

    usage = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = {
        "first_job_at": first_job_at,
        "times": times,
        "start": args.start,
        "pool": stream.pool,
        "failures": failures,
        "outputs": outputs,
        "rss_kb": children.ru_maxrss if args.workload == "cli" else usage.ru_maxrss,
    }
    if tracer is not None:
        result["trace"] = tracer.snapshot()
        result["fixture_runs"] = list(fixture_runs.values())
        tracer.write_spans(os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.tsv"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
