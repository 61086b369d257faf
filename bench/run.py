"""The aliascalc benchmark.

    python3 bench/run.py --workload W --seed S --seconds T --trace 0|1

Run from the repository root.  The analyzer runs from ``src`` as
``PYTHONPATH=src``; nothing needs installing.

``--trace 0`` measures the end-to-end metrics.  The workload runs in
``SETUPS`` fresh single-threaded processes one after another, closed loop
with one client, each until its jobs have taken T / SETUPS seconds and
each picking up the job stream where the previous one stopped.  Before,
between and after them, ``SETUP_ONLY`` set-up samples are taken (see
``setup_sample``), and ``setup_s`` is the fastest.  A job's time is its
fastest run.

``--trace 1`` gives the per-layer metrics: the same jobs run for T / 2
seconds untraced and T / 2 seconds traced, and their ratio is the
tracing overhead.

Every line but the last is for people; the last is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
not 0, and no JSON is printed, if the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, BENCH)

import workloads  # noqa: E402

SETUPS = 6  # workload processes per run
SETUP_ONLY = 3  # set-up samples before and after each of them
PROBES = 5
DIGEST_JOBS = 100
# Layer times printed by the traced run but not in the JSON result: both
# are 0 in interproc, which never runs the oracle, and a time that reads
# the same on every run says nothing.
PRINTED_ONLY = {"oracle.run_program.s": "s", "modvars.modified_vars.s": "s"}


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def spawn_worker(args, seconds: float, start: int, trace: bool = False,
                 setup_only: bool = False) -> Tuple[dict, float]:
    """Runs one workload process; returns its result and its set-up time."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=str(args.seed % 2**32))
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--start", str(start)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=seconds + 60)
    except subprocess.TimeoutExpired:
        fail("workload process did not finish in time")
    if proc.returncode != 0 or not proc.stdout.strip():
        fail("workload process failed:\n" + proc.stderr[-2000:])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, result["first_job_at"] - spawned


def best_times(results: List[dict]) -> Dict[int, float]:
    """The fastest run of each pool job, over all the given processes."""
    best: Dict[int, float] = {}
    for r in results:
        for offset, elapsed in enumerate(r["times"]):
            slot = (r["start"] + offset) % r["pool"]
            best[slot] = min(elapsed, best.get(slot, elapsed))
    return best


def process_s(argv: List[str]) -> float:
    """Wall time of a short Python process, in s."""
    env = dict(os.environ, PYTHONPATH=SRC)
    # Captured output makes run() wake on the child's exit; without it,
    # a timeout makes run() poll, and the time snaps to the poll steps.
    start = time.perf_counter()
    subprocess.run([sys.executable, *argv], env=env, cwd=ROOT, check=True, timeout=60,
                   stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    return time.perf_counter() - start


def probe_ms(argv: List[str]) -> float:
    """Median wall time of a short Python process, in ms."""
    return statistics.median(process_s(argv) for _ in range(PROBES)) * 1000


def setup_sample(args, start: int) -> float:
    """One set-up time: a workload process from its start until its first
    job could run, or in cli, where every job is its own process, an
    ``alias-calc`` process up to the point of parsing its arguments."""
    if args.workload == "cli":
        return process_s(["-c", "import aliascalc.cli"])
    return spawn_worker(args, 0, start, setup_only=True)[1]


def layer_units() -> Dict[str, str]:
    """The per-layer metrics of the JSON result, as BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}


def summarize(results: List[dict]) -> Tuple[int, List[list], str]:
    """Failures across processes, with outputs that differ between
    processes counted as failed, and a digest of the outputs of the jobs
    among the first DIGEST_JOBS of the stream."""
    failures = [f for r in results for f in r["failures"]]
    outputs: Dict[str, list] = {}
    for r in results:
        for key, (index, digest) in r["outputs"].items():
            seen = outputs.setdefault(key, [index, digest])
            if seen[1] != digest:
                failures.append([index, key, "output differs between processes"])
            seen[0] = min(seen[0], index)
    covered = [f"{key}={digest}\n" for key, (index, digest) in sorted(outputs.items())
               if index < DIGEST_JOBS]
    digest = hashlib.sha256("".join(covered).encode()).hexdigest()[:16]
    return len(failures), failures, f"{digest}  ({len(covered)} distinct jobs)"


def correct(failures: List[list]) -> bool:
    """Outputs are correct when every failure is a time-limit failure."""
    return all(f[2].startswith("time limit") for f in failures)


def report_failures(failures: List[list]) -> None:
    by_reason: Dict[Tuple[str, str], int] = {}
    for _, name, reason in failures:
        by_reason[(name, reason)] = by_reason.get((name, reason), 0) + 1
    for (name, reason), count in sorted(by_reason.items()):
        print(f"  failed {count}x {name}: {reason}")


def end_to_end(args) -> dict:
    results, setups = [], []
    start = 0
    for _ in range(SETUPS):
        setups += [setup_sample(args, start) for _ in range(SETUP_ONLY)]
        result, _ = spawn_worker(args, args.seconds / SETUPS, start)
        results.append(result)
        start += len(result["times"])
    setups += [setup_sample(args, start) for _ in range(SETUP_ONLY)]
    failed, failures, digest = summarize(results)
    attempted = sum(len(r["times"]) for r in results)
    best = best_times(results)
    failed_slots = {f[0] % results[0]["pool"] for f in failures}
    times = sorted(best.values())
    p95 = statistics.quantiles(times, n=20)[18]
    metrics = {
        "programs_per_s": ((len(best) - len(failed_slots & best.keys())) / sum(times), "1/s"),
        "job_ms_p50": (statistics.median(times) * 1000, "ms"),
        "job_ms_p95": (p95 * 1000, "ms"),
        "setup_s": (min(setups), "s"),
        "peak_rss_mb": (max(r["rss_kb"] for r in results) / 1024, "MB"),
    }
    stream = workloads.Stream(args.workload, args.seed)
    tail = [stream.job(slot) for slot, t in best.items() if t > p95]
    tail_fixtures = sum(1 for job in tail if job.fixture)
    print(f"workload {args.workload}  seed {args.seed}  {args.seconds:g} s of jobs in"
          f" {SETUPS} processes: {attempted} runs of {len(best)} distinct jobs"
          f" (pool {results[0]['pool']})")
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "job_ms_p50":
            note = f"  (n={len(times)} jobs, each at its fastest run)"
        elif name == "job_ms_p95":
            note = (f"  (n={len(times)}, {len(tail)} beyond: {tail_fixtures} fixture jobs,"
                    f" {len(tail) - tail_fixtures} generated)")
        elif name == "setup_s":
            note = "  (fastest of " + ", ".join(f"{s:.3f}" for s in sorted(setups)) + ")"
        print(f"  {name:16s} {value:12.4f} {unit}{note}")
    print(f"  {'failed_share':16s} {failed / attempted:12.4f} ratio  ({failed} of {attempted} runs)")
    report_failures(failures)
    print(f"  output digest    {digest}")
    return {
        "correct": correct(failures),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def per_layer(args) -> dict:
    untraced, _ = spawn_worker(args, args.seconds / 2, 0)
    traced, _ = spawn_worker(args, args.seconds / 2, 0, trace=True)
    fast, slow = best_times([untraced]), best_times([traced])
    common = fast.keys() & slow.keys()
    overhead = sum(slow[k] for k in common) / sum(fast[k] for k in common)
    failed, failures, _ = summarize([untraced, traced])
    attempted = len(untraced["times"]) + len(traced["times"])
    trace = traced["trace"]
    jobs = len(traced["times"])
    total, self_time, counts, maxima = (trace[k] for k in ("total", "self", "counts", "maxima"))

    def per_job(key: str, table=counts) -> float:
        return table.get(key, 0) / jobs

    parse_s = total.get("lang.parse", 0.0)
    evals = counts.get("engine.body_evals", 0)
    runs = counts.get("oracle.run_program.calls", 0)
    units = layer_units()
    values = {
        "lang.parse.s": parse_s / jobs,
        "lang.tokens": per_job("lang.tokens"),
        "lang.tokens_per_s": counts.get("lang.tokens", 0) / parse_s if parse_s else 0.0,
        "engine.run.self_s": per_job("engine.run", self_time),
        "engine.rounds": per_job("engine.rounds"),
        "engine.body_evals": per_job("engine.body_evals"),
        "engine.useful_eval_ratio": counts.get("engine.useful_evals", 0) / evals if evals else 0.0,
        "engine.summary_keys": per_job("engine.summary_keys"),
        "engine.stale_keys": per_job("engine.stale_keys"),
        "engine.summary_lookups": per_job("engine.summary_lookups"),
        "engine.loop_chain_max": maxima.get("engine.loop_chain_max", 0),
        "engine.call_qualified.s": per_job("engine.call_qualified", total),
        "relations.subst.calls": per_job("relations.subst.calls"),
        "relations.subst.self_s": per_job("relations.subst", self_time),
        "relations.quotient.calls": per_job("relations.quotient.calls"),
        "relations.quotient.s": per_job("relations.quotient", total),
        "relations.restrict.s": per_job("relations.restrict", total),
        "relations.prefix_relation.calls": per_job("relations.prefix_relation.calls"),
        "relations.prefix_relation.s": per_job("relations.prefix_relation", total),
        "relations.canonical.s": per_job("relations.canonical", total),
        "relations.pairs_max": maxima.get("relations.pairs_max", 0),
        "paths.concat.calls": per_job("paths.concat.calls"),
        "oracle.executions": per_job("oracle.executions"),
        "oracle.bounded_share": counts.get("oracle.bounded", 0) / runs if runs else 0.0,
        "oracle.truncated": per_job("oracle.truncated"),
        "oracle.run_program.s": per_job("oracle.run_program", total),
        "modvars.modified_vars.s": per_job("modvars.modified_vars", total),
        "cli.interpreter_start_ms": probe_ms(["-c", "pass"]),
        "cli.import_ms": probe_ms(["-c", "import aliascalc.cli"]),
        "bench.trace_overhead_ratio": overhead,
    }
    print(f"workload {args.workload}  seed {args.seed}  traced {jobs} jobs"
          f" (untraced {len(untraced['times'])}); counts and times are per job")
    print(f"  python -c pass   {values['cli.interpreter_start_ms']:.1f} ms")
    for name in sorted(values):
        if name != "cli.interpreter_start_ms":
            unit = units.get(name) or PRINTED_ONLY[name]
            print(f"  {name:34s} {values[name]:14.6g} {unit}")
    for run in traced.get("fixture_runs", []):
        print(f"  {run['name']} {run['mode']}: {run['keys']} summary keys, {run['rounds']} rounds,"
              f" {run['body_evals']} body evaluations ({run['useful_evals']} useful),"
              f" {run['stale_keys']} stale keys, {run['summary_lookups']} lookups")
    report_failures(failures)
    return {
        "correct": correct(failures),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "aliascalc", "cli.py")):
        fail(f"no analyzer sources under {SRC}")
    result = per_layer(args) if args.trace else end_to_end(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
