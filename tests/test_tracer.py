"""The benchmark tracer (perfbench/tracer.py) still finds what it wraps.

The tracer replaces public functions and methods by name, so renaming or
inlining one of them silently drops its per-layer metrics.  One traced
`check --max-genus 1` job must record every claim once and a nonzero count
for each wrapped layer the checks go through.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from floercas import checks

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
