"""Job plans of the four workloads, and the series inputs of series-eval.

A workload is a list of jobs that makes up one round; a run repeats that
round a fixed number of times. Each job is one `floercas` command line.
Only series-eval draws anything from the seed: it writes its series files
from the closed form of the product-of-surfaces series (see closedform.py)
and picks genera, classes and truncation orders inside bands chosen so that
every seed gives a round of about the same cost.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import closedform

#: the glued-surface data of a sum of two products along their common
#: factor E; the result basis is E and the glued base F
PRODUCT_SUM_PAIRING = {
    "sigma_a": [1, 0],
    "sigma_b": [1, 0],
    "basis": ["E", "F"],
    "Q": closedform.HYPERBOLIC_Q,
    "splits": [
        {"d1": [1, 0], "d2": [0, 0], "sigma_dot": 0},
        {"d1": [0, 1], "d2": [0, 1], "sigma_dot": 1},
    ],
}


@dataclass(frozen=True)
class Job:
    """One program invocation; `spec` is what the output checker needs."""

    key: str
    argv: tuple
    kind: str
    spec: dict = field(default_factory=dict, compare=False, hash=False)


#: wall time of one round on the reference machine (2 CPUs, Python 3.11,
#: fractions backend); it fixes how many rounds a run makes
NOMINAL_ROUND_S = {
    "check-g3": 7.0,
    "ring-g6": 12.5,
    "presentation-g7": 6.9,
    "series-eval": 10.0,
}


def rounds_for(name: str, seconds: float) -> int:
    """Whole rounds that fill `seconds` at the reference speed.

    The count is fixed before the first job, so two versions of the program
    always do the same work in a run and wall_s and cpu_s compare directly.
    """
    return max(1, int(seconds / NOMINAL_ROUND_S[name] + 0.5))


def _signed(rng: random.Random, lo: int, hi: int) -> int:
    return rng.choice((-1, 1)) * rng.randint(lo, hi)


def _series_jobs(seed: int, workdir: Path) -> list:
    """One round of series-eval: four evaluations and one fiber sum.

    Evaluation cost grows with (terms + 1) * order^2, so each slot fixes its
    term count and lets the seed move the order by at most 2 either way;
    genera that keep the term count and the class D change the cost only
    through coefficient size.
    """
    rng = random.Random(seed)
    jobs = []
    # (number of terms, order band); the 2-term slot is a product of two
    # surfaces of genus >= 2, the others a torus times a genus-m surface
    slots = [(2, 126), (5, 108), (11, 76), (19, 58)]
    for idx, (nterms, order0) in enumerate(slots):
        if nterms == 2:
            g, h = rng.randint(2, 6), rng.randint(2, 6)
        else:
            m = (nterms + 1) // 2
            g, h = (1, m) if rng.random() < 0.5 else (m, 1)
        d = (_signed(rng, 1, 4), _signed(rng, 1, 4))
        # K.D = 0 would leave only exp(Q(D) t^2/2) to expand, a job 5x cheaper
        while closedform.pair(closedform.canonical_class(g, h), d) == 0:
            d = (_signed(rng, 1, 4), _signed(rng, 1, 4))
        order = order0 + rng.randint(-2, 2)
        path = workdir / f"series-{idx}.json"
        path.write_text(json.dumps(closedform.product_series_json(g, h)))
        jobs.append(
            Job(
                key=f"eval-{idx}",
                argv=("--format", "json", "donaldson", "eval", "--series", str(path),
                      f"--class={d[0]},{d[1]}", "--order", str(order)),
                kind="eval",
                spec={"g": g, "h": h, "d": d, "order": order},
            )
        )
    # genus-1 gluing: every pair of terms gives three 2x2 solves
    h1 = rng.randint(22, 26)
    h2 = 48 - h1
    a, b = workdir / "sum-a.json", workdir / "sum-b.json"
    a.write_text(json.dumps(closedform.product_series_json(1, h1)))
    b.write_text(json.dumps(closedform.product_series_json(1, h2)))
    pairing = workdir / "sum-pairing.json"
    pairing.write_text(json.dumps(PRODUCT_SUM_PAIRING))
    jobs.append(
        Job(
            key="fibersum",
            argv=("--format", "json", "donaldson", "fibersum", "--a", str(a), "--b", str(b),
                  "--genus", "1", "--pairing", str(pairing)),
            kind="fibersum",
            spec={"g": 1, "h1": h1, "h2": h2},
        )
    )
    return jobs


def round_jobs(name: str, seed: int, workdir: Path) -> list:
    """The jobs of one round of the named workload."""
    if name == "check-g3":
        return [Job("check", ("check", "--max-genus", "3"), "check")]
    if name == "ring-g6":
        return [Job("ring", ("ring", "--genus", "6", "--format", "json"), "ring",
                    {"genus": 6, "full": True})]
    if name == "presentation-g7":
        return [Job("presentation", ("ring", "--genus", "7", "--invariant-only", "--format", "json"),
                    "ring", {"genus": 7, "full": False})]
    if name == "series-eval":
        return _series_jobs(seed, workdir)
    raise KeyError(name)
