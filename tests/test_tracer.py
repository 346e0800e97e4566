"""What the benchmark under perfbench/ needs from the program.

The tracer (perfbench/tracer.py) replaces public functions and methods by
name, so renaming or inlining one of them silently drops its per-layer
metrics.  One traced `check --max-genus 1` job must record every claim once
and a nonzero count for each wrapped layer the checks go through.

The output checker (perfbench/verify.py) lists the claims by name and wants
one PASS line for each, so a renamed claim, or claim text it rejects, would
mark every `check` job as incorrect.  It also rebuilds the level rings and
their characteristic polynomials with sympy, and the output of the ring-g6
job must pass that check, as must every series-eval job against the closed
form of the product series.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from floercas import checks, cli

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_attaches(tmp_path):
    ready, trace = tmp_path / "ready", tmp_path / "trace.json"
    # no bytecode is written, so the run leaves nothing behind in perfbench/
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "perfbench/launch.py", str(ready), str(trace),
         "--", "check", "--max-genus", "1"],
        cwd=ROOT, env=env, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(trace.read_text())["metrics"]
    for claim, _ in checks.CRITERIA:
        assert metrics.get(f"checks.{claim}_calls") == 1, claim
    for layer in (
        "linalg.rref",
        "linalg.charpoly",
        "groebner.buchberger",
        "groebner.normal_form",
        "floer.subquotient",
    ):
        assert metrics.get(f"{layer}_calls", 0) > 0, layer


def test_verifier_accepts_the_claims(capsys):
    assert cli.main(["check", "--max-genus", "3"]) == cli.EXIT_OK
    text = capsys.readouterr().out
    script = ("import json, sys, verify; "
              "print(json.dumps([verify.CLAIMS, verify.check_claims(sys.stdin.read())]))")
    # no bytecode is written, so the import leaves nothing behind in perfbench/
    env = dict(os.environ, PYTHONPATH=str(ROOT / "perfbench"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", script], input=text, cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    claims, problems = json.loads(proc.stdout)
    assert claims == [name for name, _ in checks.CRITERIA]
    assert problems == []


def test_verifier_accepts_the_ring_g6_output(capsys):
    # the argv of the ring-g6 workload in perfbench/workloads.py
    assert cli.main(["ring", "--genus", "6", "--format", "json"]) == cli.EXIT_OK
    text = capsys.readouterr().out
    script = ("import json, sys, verify; print(json.dumps(verify.check_ring("
              "sys.stdin.read(), 6, True, verify.LevelOracle())))")
    # no bytecode is written, so the import leaves nothing behind in perfbench/
    env = dict(os.environ, PYTHONPATH=str(ROOT / "perfbench"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", script], input=text, cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_verifier_accepts_the_series_eval_output(tmp_path):
    # the round jobs of seeds 1..3, each argv run through the CLI and its
    # output checked as perfbench/run.py checks it
    script = """
import contextlib, io, json, sys
from pathlib import Path
import verify, workloads
from floercas import cli
problems = []
for seed in (1, 2, 3):
    workdir = Path(sys.argv[1]) / str(seed)
    workdir.mkdir()
    for job in workloads.round_jobs("series-eval", seed, workdir):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(job.argv))
        problems += [[seed, job.key, p]
                     for p in verify.check(job, out.getvalue(), code, verify.LevelOracle())]
print(json.dumps(problems))
"""
    # no bytecode is written, so the imports leave nothing behind in perfbench/
    path = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
