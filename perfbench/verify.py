"""Output checkers. Each compares a job's output with facts computed here,
apart from the program: sympy rebuilds the level rings from the relation
recursion, `fractions.Fraction` expands the closed-form series, and the
claim suite is checked line by line. Nothing is compared with a stored copy
of an earlier output.

A checker returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb

import closedform

#: the twelve claims of `floercas check`, one PASS line each
CLAIMS = (
    "dimensions",
    "grading",
    "filtration-spectra",
    "socle-charpoly",
    "torsion-blocks",
    "gamma-nilpotency",
    "reduced-module",
    "primitive-parts",
    "finite-type-orders",
    "fiber-sum",
    "congruence",
    "determinism",
)

VARIABLES = ("alpha", "beta", "gamma")


def _grlex(m) -> tuple:
    return (sum(m), m[0], m[1], m[2])


def _gaussian(c: dict) -> tuple:
    return (Fraction(c["re"]), Fraction(c["im"]))


def _poly(obj: dict) -> dict:
    """{monomial: (re, im)} from the program's polynomial JSON."""
    return {tuple(t["m"]): _gaussian(t["c"]) for t in obj["terms"]}


# ---------------------------------------------------------------------------
# the claim suite


def check_claims(text: str) -> list:
    lines = text.splitlines()
    problems = [f"failing claim: {ln}" for ln in lines if ln.startswith("FAIL ")]
    for name in CLAIMS:
        if sum(ln.startswith(f"PASS {name}: ") for ln in lines) != 1:
            problems.append(f"no single PASS line for claim {name}")
    if len(lines) != len(CLAIMS) + 1:
        problems.append(f"{len(lines)} lines, want {len(CLAIMS) + 1}")
    want = f"all claims verified ({len(CLAIMS)}/{len(CLAIMS)})"
    if not lines or lines[-1] != want:
        problems.append(f"summary line is not {want!r}")
    return problems


# ---------------------------------------------------------------------------
# rings


class LevelOracle:
    """Level rings F_r rebuilt with sympy, cached per level.

    The R relations are unrolled from the recursion
        p1' = alpha p1 + k^2 p2,  p2' = (beta - (-1)^k 8) p1 + 2k/(k+1) p3,
        p3' = gamma p1,           starting from (1, 0, 0),
    and sympy's reduced grlex Groebner basis gives the staircase and the
    multiplication matrices.
    """

    def __init__(self):
        import sympy

        self.sp = sympy
        self.gens = sympy.symbols("alpha beta gamma")
        self._levels = {}
        self._charpolys = {}

    def _relations(self, r: int) -> list:
        sp = self.sp
        a, b, c = self.gens
        p1, p2, p3 = sp.Integer(1), sp.Integer(0), sp.Integer(0)
        for k in range(r):
            shift = b + (-1) ** (k + 1) * 8
            p1, p2, p3 = (
                sp.expand(a * p1 + k * k * p2),
                sp.expand(shift * p1 + sp.Rational(2 * k, k + 1) * p3),
                sp.expand(c * p1),
            )
        return [p for p in (p1, p2, p3) if p != 0]

    def _as_dict(self, expr) -> dict:
        poly = self.sp.Poly(expr, *self.gens)
        return {m: (Fraction(int(c.p), int(c.q)), Fraction(0)) for m, c in poly.terms()}

    def level(self, r: int) -> dict:
        if r not in self._levels:
            sp = self.sp
            rels = self._relations(r)
            gb = sp.groebner(rels, *self.gens, order="grlex", domain=sp.QQ)
            basis = sorted((self._as_dict(g) for g in gb.exprs), key=lambda p: _grlex(max(p, key=_grlex)))
            leads = [max(p, key=_grlex) for p in basis]
            stair = sorted(
                (m for m in _box(leads) if not any(all(x <= y for x, y in zip(lm, m)) for lm in leads)),
                key=_grlex,
            )
            self._levels[r] = {
                "relations": [self._as_dict(p) for p in rels],
                "gb": gb,
                "basis": basis,
                "staircase": stair,
            }
        return self._levels[r]

    def charpoly(self, r: int, var: str) -> list:
        """Characteristic polynomial of multiplication by var, ascending."""
        if (r, var) not in self._charpolys:
            from sympy.polys.matrices import DomainMatrix

            sp = self.sp
            lev = self.level(r)
            stair = lev["staircase"]
            index = {m: i for i, m in enumerate(stair)}
            x = self.gens[VARIABLES.index(var)]
            n = len(stair)
            rows = [[sp.QQ(0)] * n for _ in range(n)]
            for j, m in enumerate(stair):
                _, rem = lev["gb"].reduce(x * self.gens[0] ** m[0] * self.gens[1] ** m[1] * self.gens[2] ** m[2])
                for mono, coeff in sp.Poly(rem, *self.gens).terms():
                    rows[index[mono]][j] = sp.QQ(int(coeff.p), int(coeff.q))
            cp = DomainMatrix(rows, (n, n), sp.QQ).charpoly()
            self._charpolys[(r, var)] = [(Fraction(int(c.numerator), int(c.denominator)), Fraction(0)) for c in reversed(cp)]
        return self._charpolys[(r, var)]


def _box(leads) -> list:
    """All monomials below the pure-power leading monomials."""
    bounds = []
    for v in range(3):
        pure = [m[v] for m in leads if all(m[w] == 0 for w in range(3) if w != v)]
        bounds.append(min(pure) if pure else 0)
    return [(a, b, c) for a in range(bounds[0]) for b in range(bounds[1]) for c in range(bounds[2])]


def _from_roots(roots) -> list:
    """prod (x - root)^mult over Q(i), coefficients ascending."""
    poly = [(Fraction(1), Fraction(0))]
    for root in roots:
        re, im = _gaussian(root["value"])
        for _ in range(root["mult"]):
            shifted = [(Fraction(0), Fraction(0))] + poly
            for k, (pr, pi) in enumerate(poly):
                sr, si = shifted[k]
                shifted[k] = (sr - (re * pr - im * pi), si - (re * pi + im * pr))
            poly = shifted
    return poly


def _check_level_ring(ring: dict, r: int, oracle: LevelOracle, where: str) -> list:
    lev = oracle.level(r)
    problems = []
    gb = ring["groebner_basis"]
    if gb["order"] != "grlex" or [_poly(p) for p in gb["generators"]] != lev["basis"]:
        problems.append(f"{where}: Groebner basis differs from sympy's reduced grlex basis")
    stair = [tuple(m) for m in ring["staircase"]]
    if stair != lev["staircase"]:
        problems.append(f"{where}: staircase differs from the one of sympy's basis")
    if ring["dim"] != len(stair) or len(stair) != comb(r + 2, 3):
        problems.append(f"{where}: dim {ring['dim']} with {len(stair)} staircase monomials, want C({r + 2},3)")
    return problems


def _check_spectra(spectra: dict, r: int, oracle: LevelOracle, where: str) -> list:
    problems = []
    for var in VARIABLES:
        rep = spectra[var]
        if [_gaussian(c) for c in rep["remainder"]["coeffs"]] != [(1, 0)]:
            problems.append(f"{where}: {var} spectrum leaves an unexplained factor")
        elif _from_roots(rep["roots"]) != oracle.charpoly(r, var):
            problems.append(f"{where}: {var} roots do not multiply out to sympy's charpoly")
    return problems


def check_ring(text: str, genus: int, full: bool, oracle: LevelOracle) -> list:
    """A `ring --format json` output, with or without --invariant-only."""
    out = json.loads(text)
    problems = []
    summands = out["summands"]
    if out["genus"] != genus or [s["k"] for s in summands] != list(range(genus + 1)):
        return [f"wrong genus or summand list for genus {genus}"]
    total = 0
    for s in summands:
        k = s["k"]
        level = genus - k
        mult = comb(2 * genus, k) - (comb(2 * genus, k - 2) if k >= 2 else 0)
        want = (mult, level, comb(level + 2, 3), mult * comb(level + 2, 3))
        if (s["multiplicity"], s["level"], s["level_dim"], s["dim"]) != want:
            problems.append(f"summand k={k}: (multiplicity, level, level_dim, dim) != {want}")
        total += want[3]
        if full:
            where = f"level {level}"
            if [_poly(p) for p in s["relations"]] != oracle.level(level)["relations"]:
                problems.append(f"{where}: relations differ from the recursion")
            problems += _check_level_ring(s["ring"], level, oracle, where)
            if comb(level + 2, 3):
                problems += _check_spectra(s["spectra"], level, oracle, where)
    if out["total_dim"] != total:
        problems.append(f"total_dim {out['total_dim']} != {total}")
    if not full:
        problems += _check_level_ring(out["invariant_ring"], genus, oracle, f"level {genus}")
    return problems


# ---------------------------------------------------------------------------
# series


def check_eval(text: str, spec: dict) -> list:
    out = json.loads(text)
    g, h, d, order = spec["g"], spec["h"], tuple(spec["d"]), spec["order"]
    if tuple(out["class"]) != d or out["order"] != order or out["value"]["order"] != order:
        return ["class or order differs from the request"]
    got = [_gaussian(c) for c in out["value"]["coeffs"]]
    want = [(c, 0) for c in closedform.product_taylor(g, h, d, order)]
    if len(got) != len(want):
        return [f"{len(got)} coefficients, want {len(want)}"]
    return [f"coefficient of t^{n} differs from the closed form" for n, (a, b) in enumerate(zip(got, want)) if a != b]


def check_fibersum(text: str, spec: dict) -> list:
    out = json.loads(text)
    problems = []
    if out["basis"] != ["E", "F"] or out["Q"] != closedform.HYPERBOLIC_Q or out["simple_type"] is not True:
        problems.append("lattice or type differs from the product's")
    got = {tuple(t["K"]): Fraction(t["a"]) for t in out["terms"]}
    if len(got) != len(out["terms"]) or got != closedform.product_terms(spec["g"], spec["h1"] + spec["h2"]):
        problems.append(f"terms differ from the product series of genus ({spec['g']}, {spec['h1'] + spec['h2']})")
    return problems


def check(job, text: str, exit_code: int, oracle: LevelOracle) -> list:
    """Problems with one job's output; an empty list means it is correct."""
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    try:
        if job.kind == "check":
            return problems + check_claims(text)
        if job.kind == "ring":
            return problems + check_ring(text, job.spec["genus"], job.spec["full"], oracle)
        if job.kind == "eval":
            return problems + check_eval(text, job.spec)
        if job.kind == "fibersum":
            return problems + check_fibersum(text, job.spec)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return problems + [f"malformed output: {exc!r}"]
    raise KeyError(job.kind)
