"""pastlab benchmark: time to an exact verdict on four seeded workloads.

    python3 perfbench/run.py --workload explore --seed 1 --seconds 25 --trace 0

Runs from the root of a checkout, against the pastlab sources in its `src/`.
One process, one thread, a closed loop with one client: each job starts when
the previous one has finished and its output has been checked.  The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the lines before it print every metric by name with
its unit.  With `--trace 0` the metrics are the end-to-end ones; with
`--trace 1` the run first times jobs untraced for a third of the time, then
reruns the same jobs with spans around every module's entry points and
reports the per-layer metrics, with the difference as tracing overhead.
See perfbench/README.md for the workloads and what each metric should show.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("explore", "schedule", "certify", "deep")

# A failed, wrong or over-limit job enters the latency sample as this limit
# plus the time it ran, so a failure always reads slower than any success.
JOB_LIMIT_S = 10.0
SETUP_PROBES = 4      # extra set-ups in fresh processes, for the setup_s median
TAIL_MARGIN = 10      # the high percentile keeps this many samples beyond it


class JobTimeout(BaseException):
    """Raised in the job when it exceeds JOB_LIMIT_S (BaseException so that
    no handler inside pastlab swallows it)."""


def _alarm(signum, frame):
    raise JobTimeout()


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def set_up(workload: str, seed: int, workdir: str):
    """Import pastlab from this checkout, generate the inputs, warm up.
    Returns (jobs, jobs per cycle, seconds taken, workloads module)."""
    start = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "pastlab", "cli.py")):
        fail(f"no pastlab sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import pastlab
    if not os.path.abspath(pastlab.__file__).startswith(SRC + os.sep):
        fail(f"pastlab imported from {pastlab.__file__}, not from {SRC}")
    import workloads
    os.makedirs(workdir, exist_ok=True)
    jobs, cycle = workloads.build(workload, seed, workdir)
    # Its outcome is not counted: the measured jobs check the same code paths.
    run_job(workloads.warmup(workload, workdir))
    return jobs, cycle, time.perf_counter() - start, workloads


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh process, measured inside it."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if out.returncode != 0:
        fail(f"set-up probe failed: {out.stderr.strip()}")
    return float(out.stdout.strip().splitlines()[-1])


class Outcome:
    __slots__ = ("seconds", "status", "detail")

    def __init__(self, seconds, status, detail=""):
        self.seconds, self.status, self.detail = seconds, status, detail

    @property
    def ok(self):
        return self.status == "ok"

    def latency(self) -> float:
        return self.seconds if self.ok else JOB_LIMIT_S + self.seconds


def run_job(job, tracer=None, job_id=0) -> Outcome:
    """Run one job under the time limit and check its output.

    Statuses: ok; raised (an exception escaped pastlab); refused (exit 2,
    pastlab declined the input); over-limit; wrong (an exit code or output
    that contradicts the reference)."""
    if tracer is not None:
        tracer.begin_job(job_id)
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, JOB_LIMIT_S)
            result = job.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - start
    except JobTimeout:
        return Outcome(time.perf_counter() - start, "over-limit", job.label)
    except Exception as exc:  # the job failed; the benchmark carries on
        return Outcome(time.perf_counter() - start, "raised",
                       f"{type(exc).__name__} on {job.label}")
    finally:
        if tracer is not None:
            tracer.end_job()
    if seconds > JOB_LIMIT_S:
        return Outcome(seconds, "over-limit", job.label)
    problem = job.check(result)
    if problem is None:
        return Outcome(seconds, "ok")
    if problem.startswith("exit 2,"):
        return Outcome(seconds, "refused", f"{problem} ({job.label})")
    return Outcome(seconds, "wrong", f"{problem} ({job.label})")


def run_for(jobs, seconds: float):
    """The closed loop: cycle through the jobs until `seconds` have passed."""
    outcomes = []
    deadline = time.perf_counter() + seconds
    while not outcomes or time.perf_counter() < deadline:
        outcomes.append(run_job(jobs[len(outcomes) % len(jobs)]))
    return outcomes


def whole_cycles(outcomes, cycle: int):
    """The outcomes of complete cycles, so that every stratum weighs the
    same in every run; the jobs of the unfinished last cycle are dropped."""
    whole = len(outcomes) // cycle * cycle
    return outcomes[:whole] if whole else outcomes


def high_percentile(samples):
    """(value, percentile, count): the highest percentile up to the 90th with
    at least TAIL_MARGIN samples beyond it, but never below the median."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(math.ceil(n / 2), min(math.ceil(0.9 * n), n - TAIL_MARGIN))
    return ordered[rank - 1], 100.0 * rank / n, n


def end_to_end(outcomes, listed: int, setup_samples):
    latencies = [o.latency() for o in outcomes]
    p90, pct, count = high_percentile(latencies)
    good = sum(o.ok for o in outcomes)
    failed = len(outcomes) - good
    busy = sum(o.seconds for o in outcomes)
    metrics = {
        "job_p50_s": (statistics.median(latencies), "s"),
        "job_p90_s": (p90, "s"),
        "jobs_per_s": (good / busy, "1/s"),
        # Plus one job's share of the seeded list, so it is never 0 (a
        # relative bound on a zero median is undefined) and the first failure
        # on a clean workload about doubles it.
        "fail_ratio": (failed / len(outcomes) + 1 / listed, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
        "setup_s": (statistics.median(setup_samples), "s"),
    }
    notes = [f"job_p90_s is the p{pct:.1f} of {count} jobs",
             f"fail_ratio is {failed} failed of {len(outcomes)} attempted "
             f"plus 1/{listed}",
             f"setup_s is the median of {len(setup_samples)} set-ups"]
    return metrics, notes


def report(outcomes, measured, metrics, notes, workload):
    """Print the metrics; `correct` covers every job run, `attempted` and
    `failed` the jobs the metrics were computed from."""
    counts = {}
    for o in measured:
        counts[o.status] = counts.get(o.status, 0) + 1
    wrong = [o for o in outcomes if o.status == "wrong"]
    failures = [o for o in measured if not o.ok]
    print(f"workload {workload}: {len(outcomes)} jobs run, {len(measured)} "
          f"measured: " + ", ".join(f"{k} {v}" for k, v in sorted(counts.items())))
    for o in wrong[:5]:
        print(f"  wrong: {o.detail}")
    for o in [o for o in failures if o.status != "wrong"][:5]:
        print(f"  {o.status}: {o.detail}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6f} {unit}")
    for note in notes:
        print(f"  ({note})")
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(measured),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def traced_run(jobs, seconds, workloads, workload, seed):
    """Untraced for a third of the time, then the same jobs traced (tracing
    can more than double a job's time)."""
    import tracing
    plain = run_for(jobs, seconds / 3)
    ran = [jobs[i % len(jobs)] for i in range(len(plain))]
    tracer = tracing.Tracer()
    tracer.install(workloads)
    try:
        traced = [run_job(job, tracer, i) for i, job in enumerate(ran)]
    finally:
        tracer.uninstall()
    overhead = (sum(o.seconds for o in traced) - sum(o.seconds for o in plain)) \
        / len(plain)
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, f"trace-{workload}-seed{seed}.jsonl")
    tracer.write(path)
    metrics = tracing.layer_metrics(tracer.records, len(traced), overhead)
    notes = [f"per-layer values are means per job over {len(traced)} traced jobs",
             f"spans written to {os.path.relpath(path, ROOT)}"]
    return plain + traced, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workdir = os.path.join(WORK, f"work-{os.getpid()}")
    signal.signal(signal.SIGALRM, _alarm)
    try:
        jobs, cycle, setup_seconds, workloads = set_up(
            args.workload, args.seed, workdir)
        if args.setup_probe:
            print(f"{setup_seconds!r}")
            return 0
        if args.trace:
            outcomes, metrics, notes = traced_run(
                jobs, args.seconds, workloads, args.workload, args.seed)
            measured = outcomes
        else:
            setup_samples = [setup_seconds] + [
                probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
            outcomes = run_for(jobs, args.seconds)
            measured = whole_cycles(outcomes, cycle)
            metrics, notes = end_to_end(measured, len(jobs), setup_samples)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        shutil.rmtree(workdir, ignore_errors=True)
    report(outcomes, measured, metrics, notes, args.workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
