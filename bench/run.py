"""simploc benchmark: seeded construction scripts run through the console entry point.

    python3 bench/run.py --workload formal_towers --seed 1 --seconds 35 --trace 0

Run from anywhere; the repository root is the parent of this directory.  One
process drives one closed-loop client: every case of the workload goes
through ``simploc.cli.main(["run", <script>, "--format=records"])``
in-process with stdout captured, and the next starts only when it returns.
A pass runs every case once; passes repeat until --seconds have elapsed.
Times are scaled to the machine's full speed by a reference kernel timed
before each script (see REFERENCE_S).  After the timed passes each printed
record is checked against values computed without the engine (expected.py).

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1 runs
an untraced, a traced and another untraced pass instead, and reports the
per-layer metrics of the traced pass, with the tracing overhead (traced
minus the faster untraced pass time); the spans of the traced pass go to
.bench_work/trace-<workload>.tsv.  The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import traceback
from collections import deque
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Optional

import expected
import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".bench_work"
SETUP_REPEATS = 9
SCRIPT_TIMEOUT_S = 30
# no script starts after this many seconds of a run, so that a run whose
# scripts all time out still ends inside the three-minute limit
RUN_BUDGET_S = 110
# Seconds that _kernel takes when the machine runs at full speed.  The
# 2-vCPU machine the benchmark was built on slows down as a whole, by up to
# 1.6x for tens of seconds at a time, and the slowdown hits this kernel and
# simploc alike; reported times are scaled by REFERENCE_S / (the median of
# the kernel's last SPEED_WINDOW timings), i.e. they read as seconds at full
# speed.
REFERENCE_S = 0.00043
SPEED_WINDOW = 5


class ScriptTimeout(BaseException):
    """Raised from the alarm handler; not an Exception, so simploc's own
    handlers cannot swallow it."""


def _on_alarm(signum, frame):
    raise ScriptTimeout()


def _kernel() -> float:
    """Best of three timings of a fixed dict/tuple/str kernel."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        table = {}
        for i in range(2000):
            table[(i, i % 7)] = str(i)
        best = min(best, perf_counter() - start)
    return best


class SpeedGauge:
    """Rolling estimate of the machine's speed from the kernel's last few
    timings; the median damps the jitter of a single sub-millisecond run."""

    def __init__(self) -> None:
        self._recent: deque[float] = deque(maxlen=SPEED_WINDOW)

    def scale(self) -> float:
        """Factor that turns the next wall time into seconds at full speed."""
        self._recent.append(_kernel())
        return REFERENCE_S / statistics.median(self._recent)


@dataclass
class Job:
    case: workloads.Case
    directory: Path
    filename: str
    lines: int


@dataclass
class Result:
    seconds: float
    scaled: float
    code: Optional[int]
    digest: str
    records: int
    text: Optional[str]


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "simploc" / "__init__.py").is_file():
        print(f"no simploc sources under {src}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(src))
    signal.signal(signal.SIGALRM, _on_alarm)
    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    cwd = os.getcwd()
    run_start = perf_counter()
    try:
        setup_s, jobs, cli = _setup(args.workload, args.seed, work)
        if args.trace:
            values, passes = _traced(cli, jobs, run_start, args.workload)
            wanted = spec["per_layer"]
        else:
            values, passes = _untraced(cli, jobs, args.seconds, run_start)
            values["setup_s"] = setup_s
            wanted = spec["end_to_end"]
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = _check(jobs, passes)
    _print_summary(args, jobs, values, wanted, passes, attempted, failed)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result), flush=True)
    return 0


# ---------------------------------------------------------------------------
# set-up


def _setup(workload: str, seed: int, work: Path):
    """Import simploc and generate and write the workload, several times;
    returns the median scaled time, the jobs and the cli module."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    gauge = SpeedGauge()
    times = []
    for _ in range(SETUP_REPEATS):
        scale = gauge.scale()
        start = perf_counter()
        for name in [m for m in sys.modules if m == "simploc" or m.startswith("simploc.")]:
            del sys.modules[name]
        cli = importlib.import_module("simploc.cli")
        cases = workloads.generate(workload, seed)
        jobs = _write(cases, work)
        times.append((perf_counter() - start) * scale)
    loaded = Path(sys.modules["simploc"].__file__).resolve()
    if ROOT / "src" not in loaded.parents:
        raise RuntimeError(f"simploc was imported from {loaded}, not from this checkout")
    return statistics.median(times), jobs, cli


def _write(cases: list[workloads.Case], work: Path) -> list[Job]:
    jobs = []
    for i, case in enumerate(cases):
        if case.shipped is not None:
            path = ROOT / case.shipped
            jobs.append(Job(case, path.parent, path.name, len(path.read_text().splitlines())))
            continue
        filename = f"{i:03d}_{case.name}.slc"
        (work / filename).write_text(case.text)
        for side, text in case.files.items():
            (work / side).write_text(text)
        jobs.append(Job(case, work, filename, case.text.count("\n")))
    return jobs


# ---------------------------------------------------------------------------
# timed runs


def _run_one(cli, job: Job, gauge: SpeedGauge) -> Result:
    os.chdir(job.directory)
    out, err = io.StringIO(), io.StringIO()
    # start every script from a collected heap, as a fresh process would
    gc.collect()
    scale = gauge.scale()
    start = perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, SCRIPT_TIMEOUT_S)
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(["run", job.filename, "--format=records"])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except ScriptTimeout:
        code = None
        print(f"{job.case.name}: timed out after {SCRIPT_TIMEOUT_S} s", file=sys.stderr)
    except Exception:
        code = None
        print(f"{job.case.name}: raised\n{traceback.format_exc()}", file=sys.stderr)
    seconds = perf_counter() - start
    text = out.getvalue()
    digest = hashlib.sha256(text.encode()).hexdigest()
    return Result(seconds, seconds * scale, code, digest, text.count("\n"), text)


def _one_pass(cli, jobs: list[Job], gauge: SpeedGauge, run_start: float, keep_text: bool, tracer=None):
    """Run every job once; returns (pass seconds, results).  Results keep
    the printed text when ``keep_text``, otherwise only its digest."""
    results: list[Optional[Result]] = []
    start = perf_counter()
    for job in jobs:
        if perf_counter() - run_start > RUN_BUDGET_S:
            results.append(None)
            continue
        result = _run_one(cli, job, gauge)
        if tracer is not None:
            tracer.next_script()
        if not keep_text:
            result.text = None
        results.append(result)
    return perf_counter() - start, results


def _untraced(cli, jobs: list[Job], seconds: float, run_start: float):
    """Passes until the next one would end past ``seconds``.

    Each script is timed by the median over the passes of its scaled run
    time; a pass by the sum of those times."""
    gauge = SpeedGauge()
    start = perf_counter()
    passes = [_one_pass(cli, jobs, gauge, run_start, keep_text=True)]
    while perf_counter() - start + min(p[0] for p in passes) <= seconds:
        if perf_counter() - run_start > RUN_BUDGET_S:
            break
        passes.append(_one_pass(cli, jobs, gauge, run_start, keep_text=False))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    per_script = []
    for i in range(len(jobs)):
        runs = [results[i].scaled for _, results in passes if results[i] is not None]
        if runs:
            per_script.append(statistics.median(runs))
    values = {
        "run_s.p50": statistics.median(per_script),
        "run_s.p90": statistics.quantiles(per_script, n=10)[-1],
        "total_s": sum(per_script),
        "peak_rss_mib": peak_rss_mib,
    }
    return values, passes


def _traced(cli, jobs: list[Job], run_start: float, workload: str):
    """An untraced pass on each side of one traced pass; the overhead is the
    traced pass time minus the faster untraced one."""
    gauge = SpeedGauge()
    before = _one_pass(cli, jobs, gauge, run_start, keep_text=True)
    tracer = Tracer()
    tracer.install()
    try:
        traced = _one_pass(cli, jobs, gauge, run_start, keep_text=False, tracer=tracer)
    finally:
        tracer.restore()
    after = _one_pass(cli, jobs, gauge, run_start, keep_text=False)
    WORK_DIR.mkdir(exist_ok=True)
    tracer.write(WORK_DIR / f"trace-{workload}.tsv")
    records = sum(r.records for r in traced[1] if r is not None)
    lines = sum(job.lines for job, r in zip(jobs, traced[1]) if r is not None)
    values = tracer.layer_metrics(lines, records, traced[0] - min(before[0], after[0]))
    return values, [before, traced, after]


# ---------------------------------------------------------------------------
# checking and reporting


def _check(jobs: list[Job], passes) -> tuple[int, int]:
    """Count attempted and failed script runs over all passes.

    A run fails when it did not start, timed out, raised, exited non-zero,
    or printed records other than the expected ones (checked on the first
    pass's text; later passes must print the same bytes)."""
    attempted = failed = 0
    first = passes[0][1]
    for i, job in enumerate(jobs):
        head = first[i]
        if head is None:
            problem = "not started"
        elif head.code != 0:
            problem = f"exit code {head.code}"
        else:
            problem = expected.mismatch(job.case.expect(), head.text)
        if problem:
            print(f"FAIL {job.case.name}: {problem}", file=sys.stderr)
        for _, results in passes:
            attempted += 1
            r = results[i]
            if problem or r is None or r.code != 0 or r.digest != head.digest:
                failed += 1
    return attempted, failed


def _print_summary(args, jobs, values, wanted, passes, attempted: int, failed: int) -> None:
    runs = sum(1 for _, results in passes for r in results if r is not None)
    scripts = len(jobs)
    mode = "traced" if args.trace else "untraced"
    print(f"workload {args.workload} seed {args.seed} ({mode}): {len(passes)} passes of {len(passes[0][1])} scripts")
    for m in wanted:
        name = m["name"]
        if args.trace:
            note = {
                "dsl.walk_per_node": f"base dsl.nodes = {values['dsl.nodes']}",
                "dsl.classify.calls_per_node": f"base dsl.nodes = {values['dsl.nodes']}",
                "coeff.snf.calls_per_matrix": f"base coeff.snf.matrices = {values['coeff.snf.matrices']}",
                "trace.overhead_s": "traced pass minus the faster untraced pass",
            }.get(name, f"1 traced pass of {scripts} scripts")
        else:
            note = {
                "run_s.p50": f"median over {scripts} scripts of each one's median of {len(passes)} runs",
                "run_s.p90": f"90th percentile over {scripts} scripts of each one's median of {len(passes)} runs",
                "total_s": f"sum over {scripts} scripts of each one's median of {len(passes)} runs",
                "peak_rss_mib": "ru_maxrss of this process",
                "setup_s": f"median of {SETUP_REPEATS} set-ups",
            }[name]
        print(f"  {name:45s} {values[name]:>14.6g} {m['unit']:8s} {note}")
    print(f"  {'failed_frac':45s} {failed / attempted if attempted else 0:>14.6g} {'ratio':8s} {failed} failed of {attempted} attempted")
    ratios = [r.scaled / r.seconds for _, results in passes for r in results if r is not None and r.seconds]
    print(f"  {'machine speed':45s} {statistics.median(ratios):>14.6g} {'ratio':8s} "
          f"median of scaled / wall time; timings above are scaled to full speed")
    print("  per family: scripts per pass, median wall s per script run, wall s per pass (median over passes)")
    for family in sorted({job.case.family for job in jobs}):
        idx = [i for i, job in enumerate(jobs) if job.case.family == family]
        runs_s = [results[i].seconds for _, results in passes for i in idx if results[i] is not None]
        per_pass = [sum(results[i].seconds for i in idx if results[i] is not None) for _, results in passes]
        if runs_s:
            print(f"    {family:20s} {len(idx):5d} {statistics.median(runs_s):12.6f} {statistics.median(per_pass):12.6f}")


if __name__ == "__main__":
    raise SystemExit(main())
