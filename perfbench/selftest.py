#!/usr/bin/env python3
"""Shows that the output checkers catch wrong answers.

    python3 perfbench/selftest.py

Runs small jobs of every kind the workloads use, checks that each genuine
output passes its checker, then corrupts it in one place and checks that the
checker now fails: a FAIL claim line, a wrong root multiplicity, a wrong
Groebner generator, a perturbed series coefficient and a perturbed fiber-sum
term. Exits 1 if any genuine output fails or any corruption passes.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import closedform
import run
import verify
import workloads
from workloads import Job


def _bump(c: dict) -> None:
    c["re"] = str(Fraction(c["re"]) + Fraction(1, 3))


def fail_claim(text):
    return text.replace("PASS ", "FAIL ", 1)


def wrong_multiplicity(text):
    out = json.loads(text)
    roots = out["summands"][0]["spectra"]["alpha"]["roots"]
    roots[0]["mult"] += 1
    roots[1]["mult"] -= 1  # the degree stays right
    return json.dumps(out)


def wrong_generator(text):
    out = json.loads(text)
    ring = out["invariant_ring"] if "invariant_ring" in out else out["summands"][0]["ring"]
    _bump(ring["groebner_basis"]["generators"][-1]["terms"][-1]["c"])
    return json.dumps(out)


def perturbed_coefficient(text):
    out = json.loads(text)
    _bump(out["value"]["coeffs"][7])
    return json.dumps(out)


def perturbed_term(text):
    out = json.loads(text)
    out["terms"][1]["a"] = str(Fraction(out["terms"][1]["a"]) * 2)
    return json.dumps(out)


def main() -> int:
    run.RESULTS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.RESULTS))
    try:
        series = workdir / "series.json"
        series.write_text(json.dumps(closedform.product_series_json(2, 3)))
        for name, h in (("a", 2), ("b", 3)):
            (workdir / f"{name}.json").write_text(json.dumps(closedform.product_series_json(1, h)))
        pairing = workdir / "pairing.json"
        pairing.write_text(json.dumps(workloads.PRODUCT_SUM_PAIRING))
        cases = [
            (Job("check", ("check", "--max-genus", "1"), "check"), [fail_claim]),
            (Job("ring", ("ring", "--genus", "3", "--format", "json"), "ring", {"genus": 3, "full": True}),
             [wrong_multiplicity, wrong_generator]),
            (Job("presentation", ("ring", "--genus", "4", "--invariant-only", "--format", "json"), "ring",
                 {"genus": 4, "full": False}), [wrong_generator]),
            (Job("eval", ("--format", "json", "donaldson", "eval", "--series", str(series), "--class=1,-2",
                          "--order", "24"), "eval", {"g": 2, "h": 3, "d": (1, -2), "order": 24}),
             [perturbed_coefficient]),
            (Job("fibersum", ("--format", "json", "donaldson", "fibersum", "--a", str(workdir / "a.json"),
                              "--b", str(workdir / "b.json"), "--genus", "1", "--pairing", str(pairing)),
                 "fibersum", {"g": 1, "h1": 2, "h2": 3}), [perturbed_term]),
        ]
        oracle = verify.LevelOracle()
        bad = 0
        for i, (job, corruptions) in enumerate(cases):
            result = run.run_job(job, workdir, i, False, time.monotonic() + run.JOBS_DEADLINE_S)
            text = result.output.decode()
            problems = verify.check(job, text, result.exit_code, oracle)
            print(f"{'ok  ' if not problems else 'BAD '} genuine {job.key} output passes {problems or ''}")
            bad += bool(problems)
            for corrupt in corruptions:
                problems = verify.check(job, corrupt(text), 0, oracle)
                print(f"{'ok  ' if problems else 'BAD '} {corrupt.__name__} in {job.key} fails: {problems[:1]}")
                bad += not problems
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
