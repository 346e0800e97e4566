#!/usr/bin/env python3
"""Closed-loop benchmark of the floercas command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs one job at a time; each job is a fresh floercas process, so
the level-ring caches start cold as they do for a user. A run makes the
whole rounds of its workload that fill S seconds at the reference speed
(see workloads.py), then checks every output apart from the program
(verify.py). The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and the metrics: with --trace 0 the end-to-end ones,
with --trace 1 the per-layer ones from a run whose jobs carry the tracer.
Results and traces are also written under perfbench/results/.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import verify
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
#: jobs still running this long after the first launch are killed and
#: counted as failed, so that a run ends within 180 s
JOBS_DEADLINE_S = 150.0


@dataclass
class JobRun:
    job: workloads.Job
    exit_code: int
    wall_s: float
    setup_s: float | None
    cpu_s: float
    rss_kb: int
    output: bytes
    trace: dict | None


def run_job(job: workloads.Job, workdir: Path, index: int, traced: bool, deadline: float) -> JobRun:
    ready = workdir / f"job{index}.ready"
    trace = workdir / f"job{index}.trace.json"
    out_path, err_path = workdir / f"job{index}.out", workdir / f"job{index}.err"
    cmd = [sys.executable, str(HERE / "launch.py"), str(ready), str(trace) if traced else "-", "--", *job.argv]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(max(0.0, deadline - start), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    setup = float(ready.read_text()) - start if ready.exists() else None
    return JobRun(
        job=job,
        exit_code=proc.returncode,
        wall_s=end - start,
        setup_s=setup,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_kb=usage.ru_maxrss,
        output=out_path.read_bytes(),
        trace=json.loads(trace.read_text()) if traced and trace.exists() else None,
    )


def failed(run: JobRun) -> bool:
    """The job did not answer: killed, crashed or refused its input.

    Exit code 2 is an answer (a claim was falsified); the checker judges it.
    """
    return run.exit_code not in (0, 2)


def check_outputs(runs) -> list:
    """Problems over all jobs that answered; identical outputs of the same
    job are checked once and then by comparison."""
    oracle = verify.LevelOracle() if any(r.job.kind == "ring" for r in runs) else None
    seen = {}
    problems = []
    for run in runs:
        if failed(run):
            continue
        key = (run.job.key, run.exit_code, hashlib.sha256(run.output).hexdigest())
        if key not in seen:
            seen[key] = verify.check(run.job, run.output.decode(), run.exit_code, oracle)
        problems += [f"{run.job.key}: {p}" for p in seen[key]]
    return problems


def end_to_end(runs, wall_s: float) -> dict:
    answered = [r for r in runs if not failed(r)] or runs
    setups = [r.setup_s for r in answered if r.setup_s is not None]
    return {
        "setup_s": statistics.median(setups) if setups else 0.0,
        "job_s": statistics.median(r.wall_s for r in answered),
        "wall_s": wall_s,
        "cpu_s": sum(r.cpu_s for r in runs),
        "peak_rss_mb": max(r.rss_kb for r in runs) / 1024,
    }


MAX_METRICS = ("linalg.charpoly_max_dim", "exactalg.max_coeff_bits")


def per_layer(runs, rounds: int, names) -> dict:
    """Per-layer metrics of one round: sums over the run divided by the
    number of rounds, and maxima for the `max` metrics."""
    totals = {name: 0.0 for name in names}
    for run in runs:
        layer = dict((run.trace or {}).get("metrics", {}))
        layer["exactalg.max_coeff_bits"] = max((int(t).bit_length() for t in re.findall(rb"\d+", run.output)), default=0)
        for name in names:
            value = layer.get(name, 0)
            totals[name] = max(totals[name], value) if name in MAX_METRICS else totals[name] + value
    return {n: v if n in MAX_METRICS else v / rounds for n, v in totals.items()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.NOMINAL_ROUND_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "floercas" / "cli.py").is_file():
        print(f"error: no floercas sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # the build: byte-compile once, as an installed package would be
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=RESULTS))
    try:
        jobs = workloads.round_jobs(args.workload, args.seed, workdir)
        rounds = workloads.rounds_for(args.workload, args.seconds)
        start = time.monotonic()
        deadline = start + JOBS_DEADLINE_S
        runs = [run_job(job, workdir, i, bool(args.trace), deadline) for i, job in enumerate(jobs * rounds)]
        wall_s = time.monotonic() - start
        problems = check_outputs(runs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        metrics = per_layer(runs, rounds, [m["name"] for m in spec["per_layer"]])
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics = end_to_end(runs, wall_s)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    result = {
        "correct": not problems,
        "attempted": len(runs),
        "failed": sum(failed(r) for r in runs),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": rounds,
        "problems": problems,
        "jobs": [
            {"argv": list(r.job.argv), "exit_code": r.exit_code, "wall_s": r.wall_s, "setup_s": r.setup_s,
             "cpu_s": r.cpu_s, "rss_kb": r.rss_kb}
            for r in runs
        ],
        "result": result,
    }
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        spans = [{"argv": list(r.job.argv), "spans": (r.trace or {}).get("spans", [])} for r in runs]
        (RESULTS / f"{tag}.spans.json").write_text(json.dumps(spans))
    for p in problems:
        print(f"WRONG {p}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
