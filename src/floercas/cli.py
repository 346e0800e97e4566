"""Command-line front end: constructions, decompositions, the series
calculators and the full verification suite.

Exit codes: 0 success, 1 usage error or any other error, 2 a verified
structural claim failed (the tool is a referee as well as a calculator,
and the two failure modes are kept machine-distinguishable).  Output is
deterministic byte for byte for identical invocations.

Each handler builds its text from the result objects it computed; the
JSON output is those objects' to_json, and nothing reads it back.

Start-up is kept short for one-shot processes: a handler imports the ring,
module and claim code (floer, fukaya, checks) where it runs, so `import
floercas.cli` loads only donaldson, exactalg and linalg, and the heap built
by the import is frozen, so neither a collection nor the exit walks it.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from json.encoder import encode_basestring_ascii
from math import factorial

from . import donaldson
from .exactalg import DEFAULT_ORDER, GR_ZERO, FalsificationError, integer, integers, to_integers
from .linalg import EigenReport

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FALSIFIED = 2

# Size limits, each checked by the parser before any work starts; the
# times are single runs on 2 CPUs with Python 3.11.

#: largest series truncation order accepted by --order and --trunc; the
#: cost of a series grows faster than the square of its order (evaluation
#: takes about 1.3 s at 512 and 12-16 s at 1024)
MAX_ORDER = 512

#: largest bits of either side of a donaldson eval value: the numerators have about
#: (order - 1) times the bits of the largest |K_i . D| or half those of |Q(D)|, plus
#: the bits of the largest integer numerator A_i of the a_i = A_i / L and of L; the
#: denominators divide L n! 2^(n // 2), n = order - 1.  Python prints no int of more
#: than 4300 digits, 14284 bits (sys.get_int_max_str_digits). At order 512 a numerator
#: side of this size takes about 1 s, and 1.7 times it 1.7 s, then fails
MAX_EVAL_BITS = 14284

#: largest level accepted by eigen --r; every object reads r x r blocks, and
#: --object F, the slowest, reads those of levels 1..r, so it pays Buchberger
#: for every level ring up to F_r: 0.52-0.57 s at 16 and 0.69-0.70 s at 17
#: (--object K 0.32-0.34 s at 16, 0.40-0.54 s at 17)
MAX_EIGEN_R = 16

#: largest genus accepted by donaldson product --g and --h; the series of
#: two factors of genus > 1 has the weight 2^(7(g-1)(h-1)+2), which at
#: g = h = 46 has 4268 decimal digits, and Python refuses to print an int
#: of more than 4300 digits (sys.get_int_max_str_digits)
MAX_PRODUCT_GENUS = 46

#: largest level accepted by relations --r; the cost of the three relations
#: grows more than tenfold when r doubles (relations --flavor R takes
#: 0.22-0.28 s at 50 and 2.6 s at 100)
MAX_RELATIONS_R = 50

#: largest genus accepted by check --max-genus, where every claim reaches
#: level N + 2 or genus N (fresh processes: 0.07 s at 1, 0.14 s at 6,
#: 0.41-0.42 s at 9, 0.82-0.86 s at 10 and 2.1-2.3 s at 11, of which
#: primitive-parts takes about 1.4 s at genus 11 alone)
MAX_CHECK_GENUS = 10

#: largest genus accepted by ring --genus; the slowest form, --format json
#: with the spectra of every level ring, takes 0.27 s at 10, 0.42-0.65 s at
#: 13, 0.72-0.95 s (8 MB of output, 100 MB resident) at 15 and 0.96-1.32 s
#: at 16 (text 0.46-0.47 s at 16, --invariant-only 0.57-0.61 s at 16)
MAX_RING_GENUS = 15

#: largest genus accepted by rhff and effective --genus; each prints 2g - 1
#: series of order --trunc, and with --trunc 512 --format json takes
#: 1.8-1.9 s at 200, 2.1-2.5 s at 250 and 9.2 s (950 MB) at 1000
MAX_MODULE_GENUS = 200

#: largest genus accepted by delta --genus; about g^2/4 components with
#: multiplicities of up to g bits (--format json 0.4-0.7 s at 250, 0.6-1.0 s at 300)
MAX_DELTA_GENUS = 250

#: largest genus accepted by mu --genus; a JSON class that lists its 2g curves takes 1.0-1.4 s
#: at 2 * 10^6 through cli.main, as Linux passes no argument over 128 KiB (genus ~20000); one
#: without its array and --class torus:<j>[:c] take 0.04-0.10 s a process, all start-up
MAX_MU_GENUS = 2_000_000

#: largest genus accepted by donaldson order --genus; the bound guards only the printed int,
#: a closed form of about g^2 / 4 (14 digits, 0.12-0.14 s a process, all start-up, at 10^7)
MAX_FINITE_TYPE_GENUS = 10_000_000

#: largest gluing genus accepted by donaldson fibersum --genus; a surviving
#: term carries the weight 2^(7g-9), which at g = 2041 has 4299 decimal
#: digits, and Python refuses to print an int of more than 4300 digits
#: (sys.get_int_max_str_digits); a sum with surviving terms takes 0.05-0.09 s
#: at 2041, nearly all of it start-up
MAX_FIBER_SUM_GENUS = 2041


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so usage errors map to 1."""

    def error(self, message):
        raise UsageError(message)


def _require(cond: bool, message: str):
    if not cond:
        raise UsageError(message)


class _Bounded(argparse.Action):
    """An int option that refuses any value outside lo..hi (no upper end
    when hi is None); the one statement of the range, for the check and
    for --help."""

    def __init__(self, option_strings, dest, lo, hi=None, help=None, **kwargs):
        self.lo, self.hi = lo, hi
        self.span = f"in {lo}..{hi}" if hi is not None else f">= {lo}"
        super().__init__(option_strings, dest, type=int,
                         help=f"{help}, {self.span}" if help else self.span, **kwargs)

    def __call__(self, parser, namespace, value, option_string=None):
        if value < self.lo or (self.hi is not None and value > self.hi):
            parser.error(f"{self.option_strings[0]} must be {self.span}")
        setattr(namespace, self.dest, value)


# ---------------------------------------------------------------------------
# renderers


def _json_text(payload) -> str:
    """json.dumps(payload, indent=2) in one pass over the payload.

    With an indent, json.dumps falls back to its pure-Python encoder, which
    passes every token up through each level of nesting; this writer
    appends each token to one list instead.  It reads what the handlers
    build: dicts with str keys, lists and tuples, str, int, bool and None.
    Anything else raises TypeError.
    """
    out = []
    put = out.append

    def write(value, pad):
        if isinstance(value, str):
            put(encode_basestring_ascii(value))
        elif value is None:
            put("null")
        elif value is True:
            put("true")
        elif value is False:
            put("false")
        elif isinstance(value, int):
            put(int.__repr__(value))
        elif isinstance(value, dict):
            if not value:
                put("{}")
                return
            inner = pad + "  "
            sep = "{" + inner
            for key, item in value.items():
                if not isinstance(key, str):
                    raise TypeError(f"JSON key {key!r} is not a string")
                put(sep)
                put(encode_basestring_ascii(key))
                put(": ")
                write(item, inner)
                sep = "," + inner
            put(pad + "}")
        elif isinstance(value, (list, tuple)):
            if not value:
                put("[]")
                return
            inner = pad + "  "
            sep = "[" + inner
            for item in value:
                put(sep)
                write(item, inner)
                sep = "," + inner
            put(pad + "]")
        else:
            raise TypeError(f"{type(value).__name__} is not JSON serializable here")

    write(payload, "\n")
    return "".join(out)


def _eigen_text(report: EigenReport) -> str:
    roots = ", ".join(f"{value} (x{mult})" for value, mult in report.roots)
    return f"roots: {roots or '-'}"


def _series_payload_text(series: donaldson.DonaldsonSeries) -> str:
    terms = ", ".join(f"({a}, {list(k)})" for a, k in series.terms) or "0"
    return f"basis {list(series.basis_names)}, Q {[list(row) for row in series.q]}\nterms: {terms}"


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (exit_code, JSON payload, text), the
# payload from the results' to_json and the text from the results themselves


def _cmd_ring(args):
    from . import floer

    ring = floer.floer_cohomology(args.genus)
    # only the JSON output carries the level rings and their spectra
    payload = ring.to_json(include_rings=args.format == "json" and not args.invariant_only)
    if args.invariant_only:
        payload["invariant_ring"] = floer.invariant_ring(args.genus).to_json()
    lines = [f"genus {ring.genus}: total_dim {ring.total_dim}"]
    for s in ring.summands:
        lines.append(
            f"  k={s.k}  multiplicity {s.multiplicity}  level {s.level}"
            f"  level_dim {s.ring.dim}  contributes {s.dim}"
        )
    return EXIT_OK, payload, "\n".join(lines)


def _cmd_relations(args):
    from . import floer

    tri = floer.relations(args.flavor, args.r)
    names = tri.variable_names()
    lines = [f"flavor {tri.flavor}, level {tri.r}:"]
    for key, poly in zip(("p1", "p2", "p3"), (tri.p1, tri.p2, tri.p3)):
        lines.append(f"  {key} = {poly.render(names)}")
    return EXIT_OK, tri.to_json(), "\n".join(lines)


def _cmd_eigen(args):
    from . import checks, floer

    code = EXIT_OK
    want_dim = None
    if args.object in ("F", "Fbar"):
        reports = floer.level_reports(args.object, args.r)
        dim = floer.level_ring(args.object, args.r).dim
    else:
        # filtration layer r and torsion block r have the shape of filtration
        # layer k = r and k = r - 1; the claims' layer rule decides the exit code
        if args.object == "filtration":
            module, k = floer.filtration_step(args.r), args.r
        else:
            _require(args.r >= 1, "--r must be >= 1 for the torsion block")
            module, k = floer.psi1_block(args.r), args.r - 1
        reports, dim, want_dim = module.eigen, module.dim, k + 1
        failures = checks.layer_failures(f"{args.object} at r={args.r}", module, k)
        if failures:
            print(f"falsified: {'; '.join(failures)}", file=sys.stderr)
            code = EXIT_FALSIFIED
    payload = {"object": args.object, "r": args.r, "dim": dim}
    if want_dim is not None:
        payload["expected_dim"] = want_dim
    payload["eigen"] = {name: rep.to_json() for name, rep in reports.items()}
    lines = [f"{args.object} at r={args.r}: dim {dim}"]
    lines += [f"  {name}: {_eigen_text(reports[name])}" for name in ("alpha", "beta", "gamma")]
    return code, payload, "\n".join(lines)


def _cmd_rhff(args):
    from . import fukaya

    module = fukaya.reduced_module(args.genus, args.n, order=args.trunc)
    lines = [f"genus {module.genus}, loop multiple {module.n}: rank {module.rank}"]
    for c in module.components:
        lines.append(f"  i={c.i:+d}  alpha = {c.alpha}  beta = {c.beta}")
    return EXIT_OK, module.to_json(), "\n".join(lines)


def _cmd_effective(args):
    from . import fukaya

    vals = fukaya.effective_eigenvalues(args.genus, order=args.trunc)
    gamma = GR_ZERO.to_json()
    payload = {"genus": args.genus, "eigenvalues": [{**v.to_json(), "gamma": gamma} for v in vals]}
    lines = [f"genus {args.genus}: {len(vals)} joint eigenvalues"]
    for v in vals:
        lines.append(f"  (alpha, beta, gamma) = ({v.alpha}, {v.beta}, {GR_ZERO})")
    return EXIT_OK, payload, "\n".join(lines)


def _cmd_delta(args):
    from . import fukaya

    module = fukaya.delta_module(args.genus)
    rendered = {c.i: f"alpha = {c.alpha}  beta = {c.beta}" for c in module.lines}
    lines = [f"genus {module.genus}: total rank {module.total_rank}"]
    for k, mult, part in module.parts():
        lines += [f"  k={k}  i={c.i:+d}  mult {mult}  {rendered[c.i]}" for c in part]
    return EXIT_OK, module.to_json(), "\n".join(lines)


#: the keys a JSON class spec of each grade reads besides "grade"
_CLASS_KEYS = {2: {"sigma", "torus"}, 1: {"circle", "curves"}, 0: {"mult"}}
#: the most colon-separated fields each kind of short class spec reads
_CLASS_FIELDS = {"pt": 2, "Sigma": 2, "S1": 2, "gamma": 3, "torus": 3}


def _field_int(text: str) -> int:
    """One integer field of a short class spec."""
    try:
        return int(text)
    except ValueError:
        if text.strip().lstrip("+-").isdigit():
            raise  # an integer with more digits than Python converts
        raise ValueError(f"field {text!r} is not an integer") from None


def _parse_homology_class(spec: str, g: int):
    """A class spec as `mu --class` takes it; a key or field it would not
    read is a usage error, not ignored.  Every field is checked, also those
    of a grade-1 class, which is held by its grade alone."""
    from .fukaya import YHomologyClass

    if spec.startswith("{"):
        obj = json.loads(spec)
        _require("grade" in obj, "a JSON class spec needs a grade")
        grade = integer(obj["grade"], "grade")
        _require(grade in _CLASS_KEYS, "grade must be 0, 1 or 2")
        unknown = sorted(set(obj) - _CLASS_KEYS[grade] - {"grade"})
        _require(not unknown, f"unknown keys for a grade-{grade} class: {unknown}")
        if grade == 0:
            return YHomologyClass.point(integer(obj.get("mult", 1), "mult"))
        # a 2g-entry array, no coefficients if absent, and the surface or circle coefficient
        array, scalar = ("torus", "sigma") if grade == 2 else ("curves", "circle")
        coeffs = ()
        if array in obj:
            coeffs = integers(obj[array], array)
            _require(len(coeffs) == 2 * g, f"{array} must have {2 * g} coefficients")
        c = integer(obj.get(scalar, 0), scalar)
        return YHomologyClass.surface(c, coeffs) if grade == 2 else YHomologyClass.curve()
    parts = spec.split(":")
    kind = parts[0]
    _require(kind in _CLASS_FIELDS, f"unknown class spec {spec!r}")
    _require(len(parts) <= _CLASS_FIELDS[kind], f"too many fields in class spec {spec!r}")
    if kind in ("pt", "Sigma", "S1"):
        c = _field_int(parts[1]) if len(parts) > 1 else 1
        if kind == "pt":
            return YHomologyClass.point(c)
        return YHomologyClass.surface(c) if kind == "Sigma" else YHomologyClass.curve()
    _require(len(parts) >= 2, f"{kind}:<j> needs a curve index")
    j = _field_int(parts[1])
    _require(1 <= j <= 2 * g, f"curve index must be in 1..{2 * g}")
    c = _field_int(parts[2]) if len(parts) > 2 else 1
    return YHomologyClass.curve() if kind == "gamma" else YHomologyClass.torus(g, j, c)


def _cmd_mu(args):
    from . import fukaya

    _require(abs(args.i) <= args.genus - 1, "--i must satisfy |i| <= genus-1")
    try:
        cls = _parse_homology_class(args.cls, args.genus)
    except (KeyError, ValueError, TypeError) as exc:
        raise UsageError(f"malformed class spec {args.cls!r}: {exc}") from exc
    value = fukaya.mu_action(args.i, cls, order=args.trunc)
    payload = {
        "genus": args.genus,
        "i": args.i,
        "class": args.cls,
        "grade": cls.grade,
        "value": value.to_json(),
    }
    return EXIT_OK, payload, f"action on the i={args.i} line: {value}"


def _load_series(path: str) -> donaldson.DonaldsonSeries:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return donaldson.DonaldsonSeries.from_json(json.load(fh))
    except OSError as exc:
        raise UsageError(f"cannot read series file {path}: {exc}") from exc
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
        raise UsageError(f"malformed series file {path}: {exc}") from exc


def _parse_vector(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.replace(" ", "").split(","))
    except ValueError as exc:
        raise UsageError(f"malformed integer vector {text!r}") from exc


def _cmd_don_product(args):
    series = donaldson.product_series(args.g, args.h)
    return EXIT_OK, series.to_json(), _series_payload_text(series)


def _cmd_don_eval(args):
    order = args.order if args.order is not None else args.trunc
    series = _load_series(args.series)
    _require(len(args.cls) == len(series.basis_names), "evaluation class has wrong length")
    c = max((abs(series.pair(k, args.cls)) for k in series.classes()), default=0)
    q = abs(series.quadratic_form(args.cls))
    nums, den = to_integers(a for a, _ in series.terms)
    bits = (order - 1) * max(c.bit_length(), (q.bit_length() + 1) // 2)
    bits += max((abs(a).bit_length() for a in nums), default=0) + den.bit_length()
    _require(bits <= MAX_EVAL_BITS, f"the value at --class and --order would have coefficients"
                                    f" of about {bits} bits, more than {MAX_EVAL_BITS}")
    bits = den.bit_length() + factorial(order - 1).bit_length() + (order - 1) // 2
    _require(bits <= MAX_EVAL_BITS, f"the value at --class and --order would have denominators"
                                    f" of about {bits} bits, more than {MAX_EVAL_BITS}")
    value = donaldson.evaluate(series, args.cls, order)
    payload = {"class": list(args.cls), "order": order, "value": value.to_json()}
    return EXIT_OK, payload, f"value: {value}"


def _cmd_don_fibersum(args):
    a = _load_series(args.a)
    b = _load_series(args.b)
    try:
        if args.pairing.strip()[:1] in ("{", "["):
            pairing = json.loads(args.pairing)
        else:
            with open(args.pairing, "r", encoding="utf-8") as fh:
                pairing = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read pairing spec: {exc}") from exc
    try:
        inp = donaldson.FiberSumInput.from_json(a, b, args.genus, pairing)
        result = donaldson.fiber_sum(inp)
    except (KeyError, ValueError, TypeError) as exc:
        raise UsageError(f"invalid fiber-sum input: {exc}") from exc
    return EXIT_OK, result.to_json(), _series_payload_text(result)


def _cmd_don_order(args):
    n = donaldson.finite_type_order(args.genus, args.b1_zero)
    payload = {"genus": args.genus, "b1_zero": args.b1_zero, "order": n}
    return EXIT_OK, payload, f"finite-type order bound: {n}"


def _cmd_don_congruence(args):
    series = _load_series(args.series)
    _require(len(args.sigma) == len(series.basis_names), "sigma vector has wrong length")
    try:
        report = donaldson.congruence_check(series, args.sigma, args.genus)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    code = EXIT_OK if report.passed else EXIT_FALSIFIED
    lines = [f"target residue {report.target} mod 4: " + ("pass" if report.passed else "FAIL")]
    for k, pairing, residue, ok in report.verdicts:
        lines.append(
            f"  K={list(k)}  K.Sigma={pairing}  residue {residue}  {'ok' if ok else 'FAIL'}"
        )
    return code, report.to_json(), "\n".join(lines)


def _cmd_check(args):
    from . import checks

    results = checks.run_all(args.max_genus)
    passed = all(r.passed for r in results)
    payload = {
        "max_genus": args.max_genus,
        "results": [r.to_json() for r in results],
        "passed": passed,
    }
    lines = [r.line() for r in results]
    lines.append(
        f"{'all claims verified' if passed else 'SOME CLAIMS FAILED'} "
        f"({sum(1 for r in results if r.passed)}/{len(results)})"
    )
    return (EXIT_OK if passed else EXIT_FALSIFIED), payload, "\n".join(lines)


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> _Parser:
    parser = _Parser(prog="floercas", description=__doc__)
    parser.add_argument("--format", choices=("json", "text"), default="text")
    parser.add_argument("--trunc", action=_Bounded, lo=1, hi=MAX_ORDER, default=DEFAULT_ORDER,
                        help="series truncation order (default 16)")
    # the global flags are also accepted after any subcommand; SUPPRESS keeps
    # a subparser from clobbering a value parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default=argparse.SUPPRESS)
    common.add_argument("--trunc", action=_Bounded, lo=1, hi=MAX_ORDER,
                        default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ring", help="assembled ring of a given genus", parents=[common])
    p.add_argument("--genus", action=_Bounded, lo=1, hi=MAX_RING_GENUS, required=True)
    p.add_argument("--invariant-only", action="store_true")
    p.set_defaults(fn=_cmd_ring)

    p = sub.add_parser("relations", help="relation polynomials of one level", parents=[common])
    p.add_argument("--flavor", choices=("q", "R", "Rbar"), required=True)
    p.add_argument("--r", action=_Bounded, lo=0, hi=MAX_RELATIONS_R, required=True, help="level")
    p.set_defaults(fn=_cmd_relations)

    p = sub.add_parser("eigen", help="spectra of the variable actions", parents=[common])
    p.add_argument("--r", action=_Bounded, lo=0, hi=MAX_EIGEN_R, required=True, help="level")
    p.add_argument("--object", choices=("F", "Fbar", "filtration", "K"), required=True)
    p.set_defaults(fn=_cmd_eigen)

    p = sub.add_parser("rhff", help="reduced module with t-corrections", parents=[common])
    p.add_argument("--genus", action=_Bounded, lo=1, hi=MAX_MODULE_GENUS, required=True)
    p.add_argument("--n", type=int, default=1)
    p.set_defaults(fn=_cmd_rhff)

    p = sub.add_parser("effective", help="effective joint eigenvalue table", parents=[common])
    p.add_argument("--genus", action=_Bounded, lo=1, hi=MAX_MODULE_GENUS, required=True)
    p.set_defaults(fn=_cmd_effective)

    p = sub.add_parser("delta", help="module attached to a loop in the surface", parents=[common])
    p.add_argument("--genus", action=_Bounded, lo=1, hi=MAX_DELTA_GENUS, required=True)
    p.set_defaults(fn=_cmd_delta)

    p = sub.add_parser("mu", help="action of a homology class on one line", parents=[common])
    p.add_argument("--genus", action=_Bounded, lo=1, hi=MAX_MU_GENUS, required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--class", dest="cls", required=True,
                   help="pt[:m] | Sigma[:c] | S1[:c] | gamma:<j>[:c] | torus:<j>[:c] | JSON")
    p.set_defaults(fn=_cmd_mu)

    don = sub.add_parser("donaldson", help="series calculators", parents=[common])
    dsub = don.add_subparsers(dest="don_command", required=True)

    p = dsub.add_parser("product", help="series of a product of two surfaces", parents=[common])
    p.add_argument("--g", action=_Bounded, lo=1, hi=MAX_PRODUCT_GENUS, required=True, help="genus")
    p.add_argument("--h", action=_Bounded, lo=1, hi=MAX_PRODUCT_GENUS, required=True, help="genus")
    p.set_defaults(fn=_cmd_don_product)

    p = dsub.add_parser("eval", help="evaluate a series on a homology class", parents=[common])
    p.add_argument("--series", required=True)
    p.add_argument("--class", dest="cls", type=_parse_vector, required=True)
    p.add_argument("--order", action=_Bounded, lo=1, hi=MAX_ORDER,
                   help="truncation order of the value (default --trunc)")
    p.set_defaults(fn=_cmd_don_eval)

    p = dsub.add_parser("fibersum", help="sum of two series along a surface", parents=[common])
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--genus", action=_Bounded, lo=1, hi=MAX_FIBER_SUM_GENUS, required=True)
    p.add_argument("--pairing", required=True,
                   help="JSON file or inline JSON with sigma_a, sigma_b, basis, Q, splits")
    p.set_defaults(fn=_cmd_don_fibersum)

    p = dsub.add_parser("order", help="finite-type order bound", parents=[common])
    p.add_argument("--genus", action=_Bounded, lo=0, hi=MAX_FINITE_TYPE_GENUS, required=True)
    p.add_argument("--b1-zero", action="store_true")
    p.set_defaults(fn=_cmd_don_order)

    p = dsub.add_parser("congruence", help="basic-class congruence test", parents=[common])
    p.add_argument("--series", required=True)
    p.add_argument("--sigma", type=_parse_vector, required=True)
    p.add_argument("--genus", action=_Bounded, lo=1, required=True)
    p.set_defaults(fn=_cmd_don_congruence)

    p = sub.add_parser("check", help="run the full verification suite", parents=[common])
    p.add_argument("--max-genus", action=_Bounded, lo=1, hi=MAX_CHECK_GENUS, default=3,
                   help="genus")
    p.set_defaults(fn=_cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code, payload, text = args.fn(args)
        print(_json_text(payload) if args.format == "json" else text)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FalsificationError as exc:
        print(f"falsified: {exc}", file=sys.stderr)
        return EXIT_FALSIFIED
    except Exception as exc:
        # the one boundary for whatever a handler did not foresee (a value too
        # long to print, say): one line and exit 1, never a traceback
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


# the start-up heap lives until exit: no collection, the final ones included, walks it
gc.freeze()

if __name__ == "__main__":
    sys.exit(main())
